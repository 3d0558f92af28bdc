import hashlib
import logging
import os
import re
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import pytest

from conftest import count_process_starts, needs_fork
from depctx import cli, conllu, extraction, pipeline, search, sgns, workers
from depctx.extraction import MANIFEST_NAME, ExtractionConfig
from depctx.pipeline import (
    Experiment,
    ExperimentConfigError,
    bundled_path,
    load_experiment_config,
    render_report,
)
from depctx.sgns import TrainerConfig

TREEBANK = bundled_path("fixture_treebank.conllu")
SIMILARITY = bundled_path("toy_similarity.tsv")
TOEFL = bundled_path("toy_toefl.txt")

BAG13 = {
    "subj", "obj", "comp", "nummod", "appos", "nmod", "acl",
    "amod", "prep", "adv", "compound", "conjlr", "conjll",
}


def write_config(tmp_path, **overrides) -> Path:
    values = {
        "corpus": str(TREEBANK),
        "dataset": str(SIMILARITY),
        "toefl": str(TOEFL),
        "dim": 16,
        "negatives": 5,
        "learning_rate": 0.08,
        "subsample": 1.0,
        "epochs": 4,
        "min_count": 1,
        "seed": 1,
        "classes": "A,V,N",
        "strategy": "alg1",
        "threshold": 0.2,
        "fold_seed": 7,
        "cache_dir": str(tmp_path / "cache"),
        "out_dir": str(tmp_path / "out"),
    }
    values.update(overrides)
    path = tmp_path / "exp.txt"
    lines = ["# test experiment"] + [f"{k} = {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# -- config parsing --


def test_config_defaults_and_comments(tmp_path):
    path = tmp_path / "exp.txt"
    path.write_text(
        f"# a comment\ncorpus = {TREEBANK}\n\ndataset = {SIMILARITY}\nepochs = 3\n",
        encoding="utf-8",
    )
    cfg = load_experiment_config(path)
    assert cfg.epochs == 3
    assert cfg.dim == 300  # untouched default
    assert cfg.classes == ("A", "V", "N")
    assert cfg.corpus == (str(TREEBANK),)


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "exp.txt"
    path.write_text("no_such_knob = 1\n", encoding="utf-8")
    with pytest.raises(ExperimentConfigError, match="no_such_knob"):
        load_experiment_config(path)


def test_config_key_set_twice_rejected(tmp_path, capsys):
    path = write_config(tmp_path)
    with path.open("a", encoding="utf-8") as f:
        f.write("dim = 24\n")
    # write_config's header comment is line 1, so its dim is on line 5
    message = "exp.txt:18: key 'dim' is already set on line 5"
    with pytest.raises(ExperimentConfigError, match=message):
        load_experiment_config(path)
    assert cli.main(["extract", "-c", str(path)]) == 2
    assert "key 'dim' is already set" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


def test_config_missing_corpus_rejected(tmp_path):
    path = write_config(tmp_path, corpus=str(tmp_path / "nowhere.conllu"))
    with pytest.raises(ExperimentConfigError, match="corpus"):
        load_experiment_config(path)


def test_config_relative_paths_resolve_against_config_dir(tmp_path):
    (tmp_path / "data").mkdir()
    corpus = tmp_path / "data" / "c.conllu"
    corpus.write_text(TREEBANK.read_text(encoding="utf-8"), encoding="utf-8")
    path = tmp_path / "exp.txt"
    path.write_text("corpus = data/c.conllu\n", encoding="utf-8")
    cfg = load_experiment_config(path)
    assert cfg.corpus == (str(corpus),)


def test_config_env_var_overrides_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("DEPCTX_CACHE_DIR", str(tmp_path / "elsewhere"))
    cfg = load_experiment_config(write_config(tmp_path))
    assert cfg.cache_dir == str(tmp_path / "elsewhere")


def test_config_env_var_cache_dir_resolves_against_the_working_directory(tmp_path, monkeypatch):
    (tmp_path / "exps").mkdir()
    write_config(tmp_path / "exps")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DEPCTX_CACHE_DIR", "relcache")
    assert load_experiment_config("exps/exp.txt").cache_dir == str(tmp_path / "relcache")


def test_key_tables_list_every_experiment_key():
    keys = {f.name for f in fields(pipeline.ExperimentConfig)}
    for doc in ("README.md", "PAPER.md"):
        text = (Path(__file__).resolve().parents[1] / doc).read_text(encoding="utf-8")
        table = text.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
        documented = set()
        for line in table.splitlines()[2:]:
            documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        assert documented == keys, doc


def test_config_validates_strategy_and_classes(tmp_path):
    with pytest.raises(ExperimentConfigError, match="strategy"):
        load_experiment_config(write_config(tmp_path, strategy="quantum"))
    with pytest.raises(ExperimentConfigError, match="class"):
        load_experiment_config(write_config(tmp_path, classes="A,Z"))


# -- extraction command --


def test_extract_fixture_produces_13_bags_quickly(tmp_path):
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    start = time.perf_counter()
    manifest = exp.extract()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert set(manifest.counts) == BAG13
    assert all(n > 0 for n in manifest.counts.values())
    for bag in BAG13:
        assert (exp.bag_dir() / f"{bag}.pairs").exists()
    assert (exp.bag_dir() / MANIFEST_NAME).exists()


@pytest.mark.parametrize("kind", ["deps", "bow"])
def test_extract_rerun_is_a_cache_hit(tmp_path, caplog, kind):
    bag = "amod" if kind == "deps" else kind
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    first = exp.extract(kind)
    stamp = (exp.bag_dir(kind) / f"{bag}.pairs").stat().st_mtime_ns
    with caplog.at_level(logging.INFO, logger="depctx.pipeline"):
        again = Experiment(exp.cfg).extract(kind)
    assert "cache hit" in caplog.text
    assert again.counts == first.counts
    assert (exp.bag_dir(kind) / f"{bag}.pairs").stat().st_mtime_ns == stamp


# sha256 of every file an extraction of the bundled treebank with the
# bundled extraction settings writes, and the cache directories it writes
# them to (named by the extraction fingerprints): the dependency bags, and
# the BOW and POSIT baselines, one bag each. Any change to extraction bytes
# or to a fingerprint fails here.
GOLDEN_BAG_DIR = "bags-bab322b010cc3c59"
GOLDEN_SHA256 = {
    "acl.pairs": "9217b8d3061cd49fc2188a0abe53e7328f739a7168127fabe57101f319e9fac7",
    "adv.pairs": "45a255b88e2a728712c98ffde51af296ae514afa1d48829e3de24f0129ad48d7",
    "amod.pairs": "588e458d2f9cf2563accc23972b7604627fd9e080fa6ee4cf11816b2b340dfcf",
    "appos.pairs": "ba8e0e7e5ae025228d64f9a39d41cc57746a12563eb02ca5060eefa13655743d",
    "comp.pairs": "ed47308a8cea7cabfdf9f27a5167dacbc9991c54711ce323b88120a724a6c3cc",
    "compound.pairs": "ff9adf93d2bd3f0198ddffdd9e2b8a58545a0d131bde6a75f7e2c2e6178c93e6",
    "conjll.pairs": "d652a4bc7a3b0ac7522bf821cc4bcfd10333c478033652aab1ccac127b3a1989",
    "conjlr.pairs": "fc541801f1789e49b130ca0d18d80c3268ff6b54a7a13f2af07b992cdd8a826e",
    "manifest.txt": "a9189b74417ef6b263493684af82d1b4c0b8776bd19c0ec905b826ad58fb8872",
    "nmod.pairs": "6eb4fb4c4784517d3d7d1e82f6bab2535fb404025975a9673c7ca435565caaec",
    "nummod.pairs": "d90f69f60d0a5dc01ebb51662080e758f151f3e83e06605669c53752e582f19b",
    "obj.pairs": "b1380df2f0535e41c8cc776b55f324e1ba92b0fa307867829089b468ea29969a",
    "prep.pairs": "a656f749ca0d400ca75a0c860d9923628516bcc015d51ed9dd663e5030780dc7",
    "subj.pairs": "899f0ef36d07bc960ab05a3a3e9ed500c11fcaa21ab3ffcdc32c14d94c0f55e3",
}
GOLDEN_WINDOW_DIRS = {"bow": "bags-56263ef4eb2816ec", "posit": "bags-f7e8944eedef584b"}
GOLDEN_WINDOW_SHA256 = {
    "bow": {
        "bow.pairs": "c9b377f7e43c4ba7f31604fe3428f9c390486d510fbebbfa6e423b246018fed3",
        "manifest.txt": "4d6d5be4717968b4df0995495c9d606575a17db7347de0e020f354d9b48722ea",
    },
    "posit": {
        "manifest.txt": "60fdc40d6670f6ed6f0e5c881580545c838095d9a15ae3e6ddf4ab8659bdf5dc",
        "posit.pairs": "fffedc7ef9edca266e176b75b1fc24d65979e078bd74815eb888832f676b40fe",
    },
}


def file_hashes(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


# splits the bundled treebank (45 KB) into a dozen chunks
SMALL_CHUNK = 4096


def test_extraction_bytes_are_golden(tmp_path):
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    exp.extract()
    assert exp.bag_dir().name == GOLDEN_BAG_DIR
    assert file_hashes(exp.bag_dir()) == GOLDEN_SHA256
    for kind, name in GOLDEN_WINDOW_DIRS.items():
        exp.extract_window_pairs(kind)
        assert exp.bag_dir(kind).name == name
        assert file_hashes(exp.bag_dir(kind)) == GOLDEN_WINDOW_SHA256[kind]
    assert len(list((tmp_path / "cache").iterdir())) == 3


# the dependency bags of the bundled treebank under other extraction
# settings: (settings, cache directory, the files whose sha256 differs from
# GOLDEN_SHA256, the files the setting does not write). With
# collapse_targets=() the prep file is empty; the fixture holds no obl arc,
# so adding obl changes only the manifest's fingerprint.
GOLDEN_SETTINGS = {
    "conjlr": (
        {"conj_variant": "conjlr"},
        "bags-d2d0c57c255371c0",
        {"manifest.txt": "c7b8c17dee4161ecd4b240a69ab98069f1d52cc4ffaac61f7112221ed9e85ab8"},
        {"conjll.pairs"},
    ),
    "conjll": (
        {"conj_variant": "conjll"},
        "bags-af8664fd089249d8",
        {"manifest.txt": "03e63ce34a49bbb2a95a7f6fb359106db4da881e36ef22cecf9c18cefb118786"},
        {"conjlr.pairs"},
    ),
    "no-collapse": (
        {"collapse_targets": ""},
        "bags-9022b1e5bfc9afd6",
        {
            "manifest.txt": "7e828e8f0ef53f4045d021d035059bc7618b43f1e1aa7d6ec006c1b83a10c69f",
            "nmod.pairs": "aef8cedc719af30dcc4e4a09b0ce65399be97b213e8772b6797d12b8ee7cf0cb",
            "prep.pairs": hashlib.sha256(b"").hexdigest(),
        },
        set(),
    ),
    "nmod-obl": (
        {"collapse_targets": "nmod,obl"},
        "bags-8a18e0333b5b3e13",
        {"manifest.txt": "f56f18e22b0544a7a7ea6c0bd9f4bb0788d3342450bbd1650df61564f4879a23"},
        set(),
    ),
}


@pytest.mark.parametrize("settings,bag_dir,changed,absent", GOLDEN_SETTINGS.values(),
                         ids=GOLDEN_SETTINGS)
def test_extraction_bytes_are_golden_under_each_setting(tmp_path, settings, bag_dir, changed,
                                                        absent):
    exp = Experiment(load_experiment_config(write_config(tmp_path, **settings)))
    exp.extract()
    assert exp.bag_dir().name == bag_dir
    expected = {name: h for name, h in GOLDEN_SHA256.items() if name not in absent}
    assert file_hashes(exp.bag_dir()) == {**expected, **changed}


def test_bundled_smoke_experiment_cache_names_are_pinned(tmp_path, monkeypatch):
    # a user's cache of the bundled experiment is found again only under these
    # names; a change to how scopes are hashed orphans it
    monkeypatch.setenv(pipeline.CACHE_ENV_VAR, str(tmp_path))
    exp = Experiment(load_experiment_config(bundled_path("smoke_experiment.txt")))
    assert exp.bag_dir() == tmp_path / GOLDEN_BAG_DIR
    for kind, name in GOLDEN_WINDOW_DIRS.items():
        assert exp.bag_dir(kind) == tmp_path / name
    assert exp.fitness_cache.path == tmp_path / "fitness-752acafb350a8619.tsv"


def test_extract_config_change_invalidates_cache(tmp_path):
    cfg_a = load_experiment_config(write_config(tmp_path))
    exp_a = Experiment(cfg_a)
    exp_a.extract()
    cfg_b = load_experiment_config(write_config(tmp_path, conj_variant="conjlr"))
    exp_b = Experiment(cfg_b)
    assert exp_b.bag_dir() != exp_a.bag_dir()
    manifest = exp_b.extract()
    assert "conjll" not in manifest.counts


def test_window_keys_only_the_baselines(tmp_path):
    base = Experiment(load_experiment_config(write_config(tmp_path)))
    base.extract()
    golden = file_hashes(base.bag_dir())
    exp = Experiment(load_experiment_config(write_config(tmp_path, window=5)))
    assert exp.bag_dir() == base.bag_dir()
    assert exp.fitness_scope() == base.fitness_scope()
    for kind in GOLDEN_WINDOW_DIRS:
        assert exp.bag_dir(kind) != base.bag_dir(kind), kind
    # a forced re-extraction under the new window writes the same dependency bags
    exp.extract(force=True)
    assert file_hashes(exp.bag_dir()) == golden


def test_dependency_settings_do_not_key_the_baselines(tmp_path):
    table = tmp_path / "table.tsv"
    table.write_text(
        bundled_path("default_bag_table.tsv").read_text(encoding="utf-8").replace(
            "amod\tamod", "amod\tadjective"
        ),
        encoding="utf-8",
    )
    base = Experiment(load_experiment_config(write_config(tmp_path)))
    changed = {
        "conj_variant": "conjlr",
        "collapse_targets": "nmod,obl",
        "bag_table": str(table),
    }
    for key, value in changed.items():
        exp = Experiment(load_experiment_config(write_config(tmp_path, **{key: value})))
        assert exp.bag_dir() != base.bag_dir(), key
        for kind in GOLDEN_WINDOW_DIRS:
            assert exp.bag_dir(kind) == base.bag_dir(kind), (key, kind)


def test_trainer_keys_scope_models_but_not_bags(tmp_path, monkeypatch):
    changed = {
        "dim": 17,
        "negatives": 6,
        "learning_rate": 0.05,
        "subsample": 1e-3,
        "epochs": 5,
        "min_count": 2,
        "unigram_power": 0.5,
        "seed": 2,
    }
    assert len(changed) == len(fields(TrainerConfig))
    base = Experiment(load_experiment_config(write_config(tmp_path)))
    for key, value in changed.items():
        exp = Experiment(load_experiment_config(write_config(tmp_path, **{key: value})))
        assert exp.bag_dir() == base.bag_dir(), key
        assert exp.fitness_scope() != base.fitness_scope(), key
    # models trained by another SGD kernel are not reused either
    scope = base.fitness_scope()
    monkeypatch.setattr(sgns, "BATCH_SIZE", sgns.BATCH_SIZE + 1)
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    assert exp.bag_dir() == base.bag_dir()
    assert exp.fitness_scope() != scope


def test_component_settings_read_from_same_named_keys(tmp_path):
    changed = {
        "dim": 17,
        "negatives": 6,
        "learning_rate": 0.05,
        "subsample": 1e-3,
        "epochs": 5,
        "min_count": 2,
        "unigram_power": 0.5,
        "seed": 2,
        "conj_variant": "conjlr",
        "collapse_targets": ("nmod", "obl"),
    }
    components = {TrainerConfig: "trainer_config", ExtractionConfig: "extraction_config"}
    assert set(changed) == {f.name for cls in components for f in fields(cls)}

    def file_value(value):
        return ",".join(value) if isinstance(value, tuple) else value

    defaults = load_experiment_config(write_config(tmp_path))
    for key, value in changed.items():
        cfg = load_experiment_config(write_config(tmp_path, **{key: file_value(value)}))
        for cls, method in components.items():
            got, base = getattr(cfg, method)(), getattr(defaults, method)()
            for f in fields(cls):
                expected = value if f.name == key else getattr(base, f.name)
                assert getattr(got, f.name) == expected, (key, f.name)


def test_corpus_hashed_once_per_experiment(tmp_path, monkeypatch):
    hashed = []
    real_update = pipeline._sha256_update_file

    def counting_update(h, path):
        hashed.append(path)
        real_update(h, path)

    monkeypatch.setattr(pipeline, "_sha256_update_file", counting_update)
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    assert hashed == []  # constructing an experiment hashes nothing
    exp.extract()
    exp.extract_window_pairs("bow")
    exp.extract_window_pairs("posit")
    exp.fitness_scope()
    exp.bag_dir()
    assert [p for p in hashed if p in exp.cfg.corpus] == list(exp.cfg.corpus)


@pytest.mark.parametrize("kind", ["deps", "bow"])
def test_partial_extraction_is_redone(tmp_path, kind):
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    exp.extract(kind)
    (exp.bag_dir(kind) / "_INCOMPLETE").write_text("crashed")
    again = Experiment(exp.cfg).extract(kind)
    assert not (exp.bag_dir(kind) / "_INCOMPLETE").exists()
    assert sum(again.counts.values()) > 0


def test_failed_window_extraction_leaves_a_marker_and_is_redone(tmp_path, monkeypatch):
    monkeypatch.setattr(conllu, "CHUNK_BYTES", SMALL_CHUNK)
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    exp.extract_window_pairs("bow")
    golden = file_hashes(exp.bag_dir("bow"))
    real_parse = conllu.parse_conllu

    def failing_parse(lines, first_line, warn):
        if first_line > 1:  # a chunk after the first
            raise RuntimeError("corpus read failed")
        return real_parse(lines, first_line, warn)

    monkeypatch.setattr(conllu, "parse_conllu", failing_parse)
    with pytest.raises(RuntimeError, match="corpus read failed"):
        exp.extract_window_pairs("bow", force=True)
    assert (exp.bag_dir("bow") / "_INCOMPLETE").exists()
    monkeypatch.setattr(conllu, "parse_conllu", real_parse)
    manifest = Experiment(exp.cfg).extract_window_pairs("bow")
    assert file_hashes(exp.bag_dir("bow")) == golden
    assert manifest.counts == extraction.Manifest.load(exp.bag_dir("bow")).counts


@pytest.mark.parametrize(
    "kind, window, message",
    [
        ("Bow", 2, "window kind must be one of ('bow', 'posit'), got 'Bow'"),
        ("bow", 0, "window must be >= 1, got 0"),
    ],
)
def test_a_bad_window_kind_or_window_makes_no_bag_directory(tmp_path, kind, window, message):
    cfg = replace(load_experiment_config(write_config(tmp_path)), window=window)
    with pytest.raises(ValueError, match=re.escape(message)):
        Experiment(cfg).extract_window_pairs(kind)
    assert not list((tmp_path / "cache").glob("bags-*"))


@needs_fork
def test_killed_extraction_worker_fails_the_extraction_and_it_is_redone(tmp_path, monkeypatch):
    monkeypatch.setattr(conllu, "CHUNK_BYTES", SMALL_CHUNK)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent = os.getpid()
    real_parse = conllu.parse_conllu

    def dying_parse(lines, first_line, warn):
        if os.getpid() != parent:
            os._exit(1)
        return real_parse(lines, first_line, warn)

    monkeypatch.setattr(conllu, "parse_conllu", dying_parse)
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    with pytest.raises(BrokenProcessPool):
        exp.extract()
    assert (exp.bag_dir() / "_INCOMPLETE").exists()
    monkeypatch.setattr(conllu, "parse_conllu", real_parse)
    Experiment(exp.cfg).extract()
    assert file_hashes(exp.bag_dir()) == GOLDEN_SHA256


# -- extraction in chunks --


@contextmanager
def logged_warnings(logger):
    """The messages ``logger`` logs at WARNING or above inside the block."""
    warned = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: warned.append(record.getMessage())
    logger.addHandler(handler)
    try:
        yield warned
    finally:
        logger.removeHandler(handler)


def extract_in_chunks(tmp_path, cpus, **overrides):
    """Extract the dependency and BOW bags in ``SMALL_CHUNK`` chunks, seeing
    ``cpus`` CPUs; returns the experiment, the skip warnings and the names
    of the processes started."""
    tmp_path.mkdir(exist_ok=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conllu, "CHUNK_BYTES", SMALL_CHUNK)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        started = count_process_starts(mp)
        exp = Experiment(load_experiment_config(write_config(tmp_path, **overrides)))
        with logged_warnings(conllu.logger) as warned:
            exp.extract()
            exp.extract_window_pairs("bow")
    return exp, warned, started


@needs_fork
def test_extraction_in_chunks_writes_the_golden_bytes_on_one_and_two_cpus(tmp_path):
    assert len(list(conllu.read_chunks(str(TREEBANK)))) == 1
    runs = []
    for cpus in (1, 2):
        exp, warned, started = extract_in_chunks(tmp_path / f"cpus{cpus}", cpus)
        assert file_hashes(exp.bag_dir()) == GOLDEN_SHA256
        assert file_hashes(exp.bag_dir("bow")) == GOLDEN_WINDOW_SHA256["bow"]
        # on two CPUs, two workers for each of the two extractions
        assert len(started) == (4 if cpus == 2 else 0)
        runs.append(warned)
    assert runs[0] == runs[1]


@needs_fork
def test_skip_warnings_come_in_corpus_order_on_one_and_two_cpus(tmp_path):
    block = TREEBANK.read_text(encoding="utf-8").split("\n\n")[0] + "\n\n"
    bad = block.replace("\t0\troot", "\tz\troot", 1)
    corpus = tmp_path / "bad.conllu"
    corpus.write_text((block * 30 + bad) * 4 + block, encoding="utf-8")
    runs = []
    for cpus in (1, 2):
        exp, warned, started = extract_in_chunks(tmp_path / f"cpus{cpus}", cpus, corpus=corpus)
        assert len(started) == (4 if cpus == 2 else 0)
        runs.append((warned, file_hashes(exp.bag_dir()), file_hashes(exp.bag_dir("bow"))))
    assert runs[0] == runs[1]
    per_block = block.count("\n")
    root = block[: block.index("\t0\troot")].count("\n") + 1
    # each extraction warns once per bad block, on the bad HEAD's line
    lines = [(31 * k + 30) * per_block + root for k in range(4)]
    assert runs[0][0] == [f"skipping sentence: line {n}: non-numeric HEAD 'z'" for n in lines * 2]


def test_one_chunk_corpus_starts_no_process(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = count_process_starts(monkeypatch)
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    exp.extract()
    exp.extract_window_pairs("bow")
    assert started == []
    assert file_hashes(exp.bag_dir()) == GOLDEN_SHA256


@needs_fork
def test_train_command_forks_only_for_a_model_of_several_blocks(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    started = count_process_starts(monkeypatch)
    saved = set()
    for cpus, rows_per_block in ((2, 256), (1, 3), (2, 3)):
        monkeypatch.setattr(sgns, "_ROWS_PER_BLOCK", rows_per_block)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        out = tmp_path / f"vectors-{cpus}-{rows_per_block}.txt"
        argv = ["train", "-c", str(config), "--bags", "amod+conj", "--out", str(out)]
        assert cli.main(argv + ["--save-context"]) == 0
        # the bundled treebank is one read chunk and a model of one block
        assert len(started) == (2 if (cpus, rows_per_block) == (2, 3) else 0)
        started.clear()
        ctx = out.with_name(out.stem + "_ctx.txt")
        saved.add((out.read_bytes(), ctx.read_bytes()))
    assert len(saved) == 1


@needs_fork
def test_extract_command_needs_no_dataset(tmp_path, monkeypatch):
    monkeypatch.setattr(conllu, "CHUNK_BYTES", SMALL_CHUNK)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = count_process_starts(monkeypatch)
    config = write_config(tmp_path, dataset="", toefl="")
    assert cli.main(["extract", "-c", str(config)]) == 0
    assert len(started) == 2
    assert file_hashes(Experiment(load_experiment_config(config)).bag_dir()) == GOLDEN_SHA256


# -- search protocol with an injected fitness oracle --


ADJ_ORACLE = {
    "amod": 0.479,
    "conjlr": 0.415,
    "conjll": 0.42,
    "amod+conj": 0.546,
    "amod+conjlr": 0.527,
    "amod+conjll": 0.531,
    "conj": 0.470,
}


def inject_oracle(monkeypatch, table, default=-0.1):
    calls = []

    def fake_fitness(self, word_class, fold):
        def fitness(config):
            calls.append((config.canonical, word_class, fold))
            return table.get(config.canonical, default)

        return fitness

    monkeypatch.setattr(Experiment, "fitness_function", fake_fitness)
    return calls


def test_search_reproduces_adjective_walkthrough(tmp_path, monkeypatch):
    calls = inject_oracle(monkeypatch, ADJ_ORACLE)
    exp = Experiment(load_experiment_config(write_config(tmp_path, classes="A")))
    results = exp.run_search()
    assert len(results) == 1
    res = results[0]
    assert all(run["best"] is not None for run in res.runs)
    assert [run["best"].canonical for run in res.runs] == ["amod+conj", "amod+conj"]
    assert res.mean_test_rho == pytest.approx(0.546)
    # per dev fold: 13 one-sets + root + 3 children, then 1 test evaluation
    per_fold = {}
    for canonical, _, fold in calls:
        per_fold.setdefault(fold, []).append(canonical)
    for fold, canonicals in per_fold.items():
        assert len(canonicals) == len(set(canonicals)) or canonicals.count("amod+conj") == 2


def test_search_exhaustive_matches_alg1_on_walkthrough(tmp_path, monkeypatch):
    inject_oracle(monkeypatch, ADJ_ORACLE)
    exp = Experiment(
        load_experiment_config(write_config(tmp_path, classes="A", strategy="exhaustive"))
    )
    results = exp.run_search()
    assert [run["best"].canonical for run in results[0].runs] == ["amod+conj", "amod+conj"]


def test_search_all_class_runs_over_union(tmp_path, monkeypatch):
    calls = inject_oracle(monkeypatch, ADJ_ORACLE)
    exp = Experiment(load_experiment_config(write_config(tmp_path, classes="ALL")))
    results = exp.run_search()
    assert results[0].word_class == "ALL"
    assert all(wc == "ALL" for _, wc, _ in calls)
    report = (Path(exp.cfg.out_dir) / "search_report.tsv").read_text()
    assert report.splitlines()[1].startswith("ALL\t")


def test_search_infeasible_pool_reports_cleanly(tmp_path, monkeypatch):
    inject_oracle(monkeypatch, {}, default=-0.5)
    exp = Experiment(load_experiment_config(write_config(tmp_path, classes="V")))
    results = exp.run_search()
    assert any(run["best"] is None for run in results[0].runs)
    report = (Path(exp.cfg.out_dir) / "search_report.tsv").read_text()
    assert "INFEASIBLE" in report


def test_infeasible_fold_neither_poisons_mean_nor_ranks_first(tmp_path, monkeypatch):
    # amod wins dev fold 0 but cannot be scored on fold 1; appos wins dev
    # fold 1 and scores below the threshold on fold 0
    oracle = {
        0: {"amod": 0.95, "appos": 0.15},
        1: {"amod": pipeline.INFEASIBLE, "appos": 0.9},
    }

    def fold_oracle(self, word_class, fold):
        def fitness(config):
            rho = oracle[fold].get(config.canonical, -0.1)
            self.fitness_cache.put(config.canonical, f"{word_class}:{fold}", rho, 0, 0)
            return rho

        return fitness

    monkeypatch.setattr(Experiment, "fitness_function", fold_oracle)
    exp = Experiment(load_experiment_config(write_config(tmp_path, classes="A")))
    (result,) = exp.run_search()
    assert [(run["best"].canonical, run["test_rho"]) for run in result.runs] == [
        ("amod", pipeline.INFEASIBLE), ("appos", 0.15),
    ]
    assert result.mean_test_rho == pytest.approx(0.15)
    report = (Path(exp.cfg.out_dir) / "search_report.tsv").read_text()
    assert report.splitlines()[-1] == "A\tmean\t-\t-\t0.150000\t-"

    rows = exp.report_rows()
    assert rows[0].configuration == "appos"
    assert rows[0].mean_rho == pytest.approx(0.525)
    assert rows[-1].configuration == "amod"
    assert rows[-1].mean_rho == pytest.approx(0.95)  # the finite fold only
    assert [r.complete for r in rows] == [True] * (len(rows) - 1) + [False]


def test_infeasible_per_bag_table_belongs_to_its_run(tmp_path, monkeypatch, capsys):
    def fold_dependent(self, word_class, fold):
        # with fold 0 as dev no bag reaches the threshold; with fold 1 only amod does
        def fitness(config):
            return 0.75 if fold == 1 and config.canonical == "amod" else -0.25

        return fitness

    monkeypatch.setattr(Experiment, "fitness_function", fold_dependent)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    config = write_config(tmp_path, classes="A")
    exp = Experiment(load_experiment_config(config))
    (result,) = exp.run_search()
    infeasible, feasible = result.runs
    assert infeasible["best"] is None and set(infeasible["per_bag_fitness"].values()) == {-0.25}
    assert feasible["best"].canonical == "amod"
    assert feasible["per_bag_fitness"]["amod"] == 0.75

    assert cli.main(["search", "-c", str(config)]) == 0
    out = capsys.readouterr().out
    assert "# class A dev fold 0: pool infeasible; per-bag fitness:" in out
    assert "dev fold 1: pool infeasible" not in out
    table = [line for line in out.splitlines() if line.startswith("#   ")]
    assert len(table) == len(infeasible["per_bag_fitness"])
    assert all(line.endswith("\t-0.250000") for line in table)


def test_search_writes_trace_files(tmp_path, monkeypatch):
    inject_oracle(monkeypatch, ADJ_ORACLE)
    exp = Experiment(load_experiment_config(write_config(tmp_path, classes="A")))
    exp.run_search()
    trace = (Path(exp.cfg.out_dir) / "trace_A_dev0.tsv").read_text().splitlines()
    assert trace[0] == "configuration\tlevel\tfitness\tstatus\torigin"
    assert any("amod+conj" in line and "best" in line for line in trace)


def test_infeasible_run_replaces_a_stale_trace(tmp_path, monkeypatch):
    inject_oracle(monkeypatch, ADJ_ORACLE)
    exp = Experiment(load_experiment_config(write_config(tmp_path, classes="A")))
    exp.run_search()
    out = Path(exp.cfg.out_dir)
    assert "\tbest\t" in (out / "trace_A_dev1.tsv").read_text()

    # the same out_dir, now at a threshold no bag reaches
    exp = Experiment(load_experiment_config(write_config(tmp_path, classes="A", threshold=0.99)))
    (result,) = exp.run_search()
    assert any(run["best"] is None for run in result.runs)
    for run in result.runs:
        lines = (out / f"trace_A_dev{run['dev']}.tsv").read_text().splitlines()
        assert lines[0] == "configuration\tlevel\tfitness\tstatus\torigin"
        rows = [line.split("\t") for line in lines[1:]]
        assert [row[0] for row in rows] == sorted(run["per_bag_fitness"])
        assert all(row[1] == "1" and row[3] == "pool-excluded" and row[4] == "-" for row in rows)
        assert {row[0]: float(row[2]) for row in rows} == run["per_bag_fitness"]


# -- fitness caching against the real trainer --


def count_trainings(monkeypatch, train=None) -> list:
    """Patch ``sgns.train`` to run ``train`` (the real trainer by default)
    and record the bags of every training run in this process."""
    trained = []
    train = train or sgns.train

    def counting_train(stream, config):
        trained.append(stream.bags)
        return train(stream, config)

    monkeypatch.setattr(sgns, "train", counting_train)
    return trained


def test_fitness_cache_prevents_retraining(tmp_path, monkeypatch):
    trained = count_trainings(monkeypatch)
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    exp.extract()
    fitness = exp.fitness_function("N", 0)
    config = search.Configuration.from_bags(["amod", "obj"])
    first = fitness(config)
    assert trained == [("amod", "obj")]
    exp2 = Experiment(exp.cfg)
    exp2.extract()
    second = exp2.fitness_function("N", 0)(config)
    assert second == first
    assert trained == [("amod", "obj")]


def test_one_training_serves_every_fold_and_class(tmp_path, monkeypatch):
    trained = count_trainings(monkeypatch)
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    exp.extract()
    config = search.Configuration.from_bags(["amod"])
    exp.fitness_function("N", 0)(config)
    exp.fitness_function("A", 1)(config)
    assert trained == [("amod",)]
    assert len(exp.fitness_cache.records()) == 2


def test_untrainable_configuration_is_trained_once(tmp_path, monkeypatch):
    trained = count_trainings(monkeypatch)
    # a threshold above every count leaves no vocabulary
    exp = Experiment(load_experiment_config(write_config(tmp_path, min_count=10**9)))
    exp.extract()
    config = search.Configuration.from_bags(["amod"])
    for word_class in ("N", "A"):
        for fold in (0, 1):
            assert exp.fitness_function(word_class, fold)(config) == pipeline.INFEASIBLE
    assert trained == [("amod",)]
    records = exp.fitness_cache.records()
    assert sorted(fold for _, fold in records) == ["A:0", "A:1", "N:0", "N:1"]
    assert all(record.rho == pipeline.INFEASIBLE for record in records.values())


# -- report command --


def test_report_rows_sorted_and_additive(tmp_path):
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    manifest = exp.extract()
    cache = exp.fitness_cache
    # each record stores its configuration's manifest total, as a search writes it
    cache.put("amod", "A:0", 0.3, 0.1, manifest.total(["amod"]))
    cache.put("amod", "A:1", 0.5, 0.1, manifest.total(["amod"]))
    cache.put("amod+conj", "A:0", 0.8, 0.4, manifest.total(["amod", "conjlr", "conjll"]))
    cache.put("obj", "N:0", 0.6, 0.2, manifest.total(["obj"]))
    rows = exp.report_rows()
    assert [r.configuration for r in rows] == ["amod+conj", "obj", "amod"]
    assert rows[2].mean_rho == pytest.approx(0.4)
    by_name = {r.configuration: r for r in rows}
    assert by_name["amod"].pair_count == manifest.counts["amod"]
    expected_union = (
        manifest.counts["amod"] + manifest.counts["conjlr"] + manifest.counts["conjll"]
    )
    assert by_name["amod+conj"].pair_count == expected_union
    assert by_name["obj"].pair_count == manifest.counts["obj"]
    text = render_report(rows)
    assert text.splitlines()[0] == "configuration\tfolds\tmean_rho\tpairs"
    assert "wall" not in text
    timed = render_report(rows, timing=True)
    assert timed.splitlines()[0].endswith("wall_time_s")


def test_report_empty_cache_is_header_only(tmp_path, capsys):
    config = write_config(tmp_path)
    exp = Experiment(load_experiment_config(config))
    assert render_report(exp.report_rows()) == "configuration\tfolds\tmean_rho\tpairs\n"
    # the report reads the fitness cache alone, so it extracts nothing
    assert cli.main(["report", "-c", str(config)]) == 0
    assert capsys.readouterr().out == "configuration\tfolds\tmean_rho\tpairs\n"
    assert not list((tmp_path / "cache").glob("bags-*"))


# -- CLI surface --


def test_cli_extract_and_rerun(tmp_path, capsys):
    config = write_config(tmp_path)
    assert cli.main(["extract", "-c", str(config)]) == 0
    out = capsys.readouterr().out
    assert "bags: 13" in out
    assert cli.main(["extract", "-c", str(config)]) == 0


def test_cli_missing_corpus_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, corpus=str(tmp_path / "gone.conllu"))
    assert cli.main(["extract", "-c", str(config)]) == 2
    assert "corpus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting,message",
    [
        (dict(dim=0), "dim must be >= 1"),
        (dict(epochs=0), "epochs must be >= 1"),
        (dict(window=0), "window must be >= 1"),
        (dict(conj_variant="sideways"), "conj_variant must be one of"),
        (dict(seed=-1), "seed must be >= 0"),
        (dict(fold_seed=-1), "fold_seed must be >= 0"),
        (dict(classes="A,V,A"), "word class 'A' is listed twice"),
        # bag_table gives the rules of a table file that ends in the catch-all
        (dict(bag_table="amod\tconjlr", conj_variant="conjll"), "conjll are reserved"),
        (dict(bag_table="amod\ta+b"), "hold no '+' or '/'"),
        (dict(classes=""), "no word class is listed"),
        (dict(threshold="nan"), "threshold must be a finite number, got nan"),
        (dict(threshold="-inf"), "threshold must be a finite number, got -inf"),
        (dict(learning_rate="nan"), "learning_rate must be a finite number, got nan"),
        (dict(learning_rate="inf"), "learning_rate must be a finite number, got inf"),
        (dict(subsample="nan"), "subsample must be a finite number, got nan"),
        (dict(subsample="inf"), "subsample must be a finite number, got inf"),
        (dict(unigram_power="nan"), "unigram_power must be a finite number, got nan"),
        (dict(unigram_power="-inf"), "unigram_power must be a finite number, got -inf"),
        # write_config's header comment is line 1, so its dim is on line 5
        (dict(dim="ten"), "exp.txt:5: invalid literal for int() with base 10: 'ten'"),
        (dict(threshold="high"), "exp.txt:14: could not convert string to float: 'high'"),
        # a relative path resolves against the config file's directory
        (dict(dataset="gone.tsv"), "dataset path does not exist: {tmp}/gone.tsv"),
        (dict(bag_table="gone.tsv"), "bag table does not exist: {tmp}/gone.tsv"),
    ],
)
def test_cli_rejected_settings_exit_2(tmp_path, capsys, setting, message):
    if "\t" in setting.get("bag_table", ""):
        table = tmp_path / "table.tsv"
        table.write_text(f"{setting['bag_table']}\n*\tDISCARD\n", encoding="utf-8")
        setting = dict(setting, bag_table=table)
    config = write_config(tmp_path, **setting)
    assert cli.main(["extract", "-c", str(config)]) == 2
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "config file not found: {path}"),
        ("# a comment\ndim 16\n", "{path}:2: expected key=value, got 'dim 16'"),
    ],
)
def test_config_file_errors_name_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "exp.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ExperimentConfigError) as exc:
        load_experiment_config(path)
    assert str(exc.value) == message.format(path=path)
    assert cli.main(["extract", "-c", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_a_command_needing_an_unset_path_is_a_config_error(tmp_path, capsys):
    exp = Experiment(load_experiment_config(write_config(tmp_path, dataset="", corpus="")))
    with pytest.raises(ExperimentConfigError, match="^this command requires a dataset path$"):
        exp.dataset
    with pytest.raises(ExperimentConfigError, match="^extract requires at least one corpus path$"):
        exp.extract()
    config = write_config(tmp_path, toefl="")
    # the toefl path is checked before the embeddings are read
    assert cli.main(["toefl", "-c", str(config), "--embeddings", str(tmp_path / "none.txt")]) == 2
    err = capsys.readouterr().err
    assert err == "error: toefl command requires a toefl path in the config\n"
    assert not (tmp_path / "cache").exists()


def test_cli_bad_subcommand_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_train_eval_toefl_round_trip(tmp_path, capsys):
    config = write_config(tmp_path)
    vectors = tmp_path / "vectors.txt"
    assert cli.main(["train", "-c", str(config), "--bags", "amod+conj", "--out", str(vectors)]) == 0
    assert vectors.exists()
    assert cli.main(["eval", "-c", str(config), "--embeddings", str(vectors), "--classes", "A"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("A\t")
    assert cli.main(["toefl", "-c", str(config), "--embeddings", str(vectors)]) == 0
    out = capsys.readouterr().out
    assert "class\tcorrect\ttotal" in out


def test_cli_eval_keeps_an_uncovered_class_to_four_columns(tmp_path, capsys):
    dataset = tmp_path / "gold.tsv"
    dataset.write_text(
        "word1\tword2\tscore\tclass\n"
        "big\tlarge\t9.0\tA\nbig\tsmall\t1.0\tA\nbig\ttiny\t2.0\tA\n"
        "dog\tcat\t7.0\tN\nfish\tbird\t3.0\tN\n",
        encoding="utf-8",
    )
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("3 2\nbig 1 0\nlarge 1 0.1\nsmall -1 0\n", encoding="utf-8")
    config = write_config(tmp_path, dataset=str(dataset))
    args = ["eval", "-c", str(config), "--embeddings", str(vectors), "--classes", "A,N"]
    assert cli.main(args) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "class\trho\tscored\ttotal", "A\t1.000000\t2\t3", "N\tundefined\t-\t-"
    ]
    assert "class N: rho undefined: only 0 of 2 pairs in vocabulary" in captured.err


@pytest.mark.parametrize(
    "classes,message",
    [
        ("X,a", "unknown word class 'X'"),
        ("A,N,A", "word class 'A' is listed twice"),
        ("A, X", "unknown word class 'X'"),
        ("", "no word class is listed"),
    ],
)
def test_cli_eval_rejects_what_the_classes_key_rejects_with_exit_2(
    tmp_path, capsys, classes, message
):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("1 2\nbig 1 0\n", encoding="utf-8")
    config = write_config(tmp_path)
    args = ["eval", "-c", str(config), "--embeddings", str(vectors), "--classes", classes]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "bags,message",
    [
        ("amod+nosuch", "unknown bag label(s): nosuch; the extracted bags are: acl, adv, amod,"),
        ("amod+", "empty bag label in configuration 'amod+'"),
        ("", "empty bag label in configuration ''"),
    ],
)
def test_cli_train_rejects_an_unknown_or_empty_bag_label_with_exit_2(
    tmp_path, capsys, bags, message
):
    config = write_config(tmp_path)
    vectors = tmp_path / "vectors.txt"
    assert cli.main(["train", "-c", str(config), "--bags", bags, "--out", str(vectors)]) == 2
    assert message in capsys.readouterr().err
    assert not vectors.exists()


def test_cli_train_checks_the_output_directory_before_sgd(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path)
    (tmp_path / "file").write_text("")
    sgd_calls = []

    def no_sgd(*args):
        sgd_calls.append(args)
        raise RuntimeError("SGD ran")

    with monkeypatch.context() as mp:
        mp.setattr(sgns, "_sgd", no_sgd)
        for out in (tmp_path / "nodir" / "v.txt", tmp_path / "file" / "v.txt"):
            argv = ["train", "-c", str(config), "--bags", "amod+conj", "--out", str(out)]
            assert cli.main(argv + ["--save-context"]) == 1
            assert f"cannot write {out}: {out.parent} is not a directory" in capsys.readouterr().err
        # an existing directory as --out
        for flags in ([], ["--save-context"]):
            argv = ["train", "-c", str(config), "--bags", "amod+conj", "--out", str(tmp_path)]
            assert cli.main(argv + flags) == 1
            assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err
        assert sgd_calls == []
    # a valid --out writes what training and saving the model write
    out = tmp_path / "v.txt"
    assert cli.main(["train", "-c", str(config), "--bags", "amod+conj", "--out", str(out)]) == 0
    exp = Experiment(load_experiment_config(config))
    stream = exp.pair_stream(search.Configuration.from_string("amod+conj").bags)
    sgns.save_embeddings(sgns.train(stream, exp.cfg.trainer_config()), tmp_path / "expected.txt")
    assert out.read_bytes() == (tmp_path / "expected.txt").read_bytes()


def test_cli_train_refuses_a_token_holding_a_space_before_sgd(tmp_path, monkeypatch, capsys):
    text = TREEBANK.read_text(encoding="utf-8")
    # the form of the first sentence's adjective "old", and only that one
    old = "2\told\told\tADJ\t"
    assert old in text
    corpus = tmp_path / "spaced.conllu"
    corpus.write_text(text.replace(old, "2\told x\told\tADJ\t", 1), encoding="utf-8")
    config = write_config(tmp_path, corpus=corpus)
    out = tmp_path / "v.txt"

    def no_sgd(*args):
        raise RuntimeError("SGD ran")

    monkeypatch.setattr(sgns, "_sgd", no_sgd)
    for context in ([], ["--save-context"]):
        argv = ["train", "-c", str(config), "--bags", "amod+conj", "--out", str(out), *context]
        assert cli.main(argv) == 1
        assert "cannot save 'old x': a space separates fields" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "exp.txt", "spaced.conllu"]


def test_cli_train_bow_baseline(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    vectors = tmp_path / "bow.txt"
    streams = []
    real_encode = sgns.encode

    def recording_encode(pairs, min_count):
        streams.append(pairs)
        return real_encode(pairs, min_count)

    monkeypatch.setattr(sgns, "encode", recording_encode)
    assert cli.main(["train", "-c", str(config), "--bags", "bow", "--out", str(vectors)]) == 0
    header = vectors.read_text().splitlines()[0]
    assert int(header.split()[0]) > 0
    # the baseline reaches the trainer as a one-bag pair stream over its own directory
    (stream,) = streams
    exp = Experiment(load_experiment_config(config))
    assert isinstance(stream, extraction.PairStream)
    assert (stream.bag_dir, stream.bags) == (exp.bag_dir("bow"), ("bow",))
    assert len(stream) == exp.extract_window_pairs("bow").total()


def test_cli_extract_context_type_is_cached_and_forced(tmp_path, capsys):
    config = write_config(tmp_path)
    args = ["extract", "-c", str(config), "--context-type", "posit"]
    assert cli.main(args) == 0
    exp = Experiment(load_experiment_config(config))
    manifest = extraction.Manifest.load(exp.bag_dir("posit"))
    line = f"bags: 1  pairs: {manifest.total()}  dir: {exp.bag_dir('posit')}"
    assert capsys.readouterr().out.splitlines() == [line]
    pairs = exp.bag_dir("posit") / "posit.pairs"
    stamp = pairs.stat().st_mtime_ns
    time.sleep(0.01)
    assert cli.main(args) == 0
    assert capsys.readouterr().out.splitlines() == [line]
    assert pairs.stat().st_mtime_ns == stamp
    assert cli.main(args + ["--force"]) == 0
    assert capsys.readouterr().out.splitlines() == [line]
    assert pairs.stat().st_mtime_ns != stamp
    # a baseline extraction extracts no dependency bag
    assert not list((tmp_path / "cache").glob("bags-*/amod.pairs"))


def test_cli_report_after_search(tmp_path, monkeypatch, capsys):
    inject_oracle(monkeypatch, ADJ_ORACLE)
    config = write_config(tmp_path, classes="A")
    assert cli.main(["search", "-c", str(config)]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert cli.main(["report", "-c", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("configuration\t")


def test_cli_simlex_import(tmp_path, capsys):
    src = tmp_path / "SimLex-999.txt"
    src.write_text(
        "word1\tword2\tPOS\tSimLex999\nold\tnew\tA\t1.58\n", encoding="utf-8"
    )
    dest = tmp_path / "simlex.tsv"
    assert cli.main(["simlex-import", str(src), str(dest)]) == 0
    assert "wrote 1 pairs" in capsys.readouterr().out


def test_resolved_config_written_next_to_outputs(tmp_path, monkeypatch):
    inject_oracle(monkeypatch, ADJ_ORACLE)
    exp = Experiment(load_experiment_config(write_config(tmp_path, classes="A")))
    exp.run_search()
    resolved = (Path(exp.cfg.out_dir) / "resolved_config.txt").read_text()
    assert "strategy=alg1" in resolved
    assert f"fold_seed=7" in resolved


# -- training a lattice level in worker processes --

# with write_config's other values, the bundled smoke experiment
SMOKE = {"dim": 24, "epochs": 30}


def smoke_search(tmp_path, cpus, classes="A,V,N", train=None):
    """Run the smoke search seeing ``cpus`` CPUs, with ``train`` in place of
    ``sgns.train``; returns what the search wrote, and the bags of every
    training run in this process."""
    tmp_path.mkdir(exist_ok=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        trained = count_trainings(mp, train)
        exp = Experiment(load_experiment_config(write_config(tmp_path, classes=classes, **SMOKE)))
        exp.run_search()
    out = Path(exp.cfg.out_dir)
    written = {
        "report": (out / pipeline.SEARCH_REPORT_NAME).read_bytes(),
        "traces": {p.name: p.read_bytes() for p in sorted(out.glob("trace_*.tsv"))},
        "cache_dirs": sorted(p.name for p in Path(exp.cfg.cache_dir).iterdir()),
        "records": {
            key: (rec.rho, rec.pair_count) for key, rec in exp.fitness_cache.records().items()
        },
    }
    return written, trained


def record_rounds(monkeypatch) -> list:
    """Wrap ``Experiment.prefetch`` to record each search round: the
    canonical forms its runs asked for, and the manifest pairs of each
    configuration its prefetch trained, by canonical form."""
    rounds = []
    prefetch = Experiment.prefetch

    def recording_prefetch(exp, train, asks):
        before = set(exp._trained)
        prefetch(exp, train, asks)
        configs = {config.canonical: config for _, config in asks}
        trained = {c: exp.manifest.total(configs[c].bags) for c in exp._trained.keys() - before}
        rounds.append((set(configs), trained))

    monkeypatch.setattr(Experiment, "prefetch", recording_prefetch)
    return rounds


@pytest.fixture(scope="module")
def one_process_smoke(tmp_path_factory):
    return smoke_search(tmp_path_factory.mktemp("one-process"), cpus=1)


def test_smoke_search_report_is_pinned(one_process_smoke):
    # the bundled smoke experiment's report, byte for byte
    report = one_process_smoke[0]["report"]
    assert hashlib.sha256(report).hexdigest() == (
        "e818f07edc443c1ae2ff695c8e1cfde2f42c9fb415199a92e3f129e4989c084d"
    )


@needs_fork
def test_pooled_smoke_search_writes_what_one_process_writes(tmp_path, one_process_smoke):
    expected, trained_alone = one_process_smoke
    written, trained_here = smoke_search(tmp_path, cpus=2)
    assert written == expected
    assert len({canonical for canonical, _ in expected["records"]}) == len(trained_alone) == 37
    # with a pool, the workers train every configuration
    assert trained_here == []


@needs_fork
def test_one_worker_pool_per_search_and_none_for_a_cached_rerun(tmp_path, monkeypatch):
    started = count_process_starts(monkeypatch)
    smoke_search(tmp_path, cpus=2)
    assert len(started) == 2  # one worker per CPU, shared by all three classes
    started.clear()
    _, trained = smoke_search(tmp_path, cpus=2)
    assert started == [] and trained == []


def test_search_on_one_cpu_trains_in_this_process(tmp_path, monkeypatch):
    started = count_process_starts(monkeypatch)
    _, trained = smoke_search(tmp_path, cpus=1, classes="A")
    assert started == [] and trained


def test_search_writes_and_reads_no_model_files(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search saved or loaded a model file")

    monkeypatch.setattr(sgns, "save_embeddings", refuse)
    monkeypatch.setattr(sgns, "load_embeddings", refuse)
    written, _ = smoke_search(tmp_path, cpus=2)
    bags, fitness = written["cache_dirs"]
    assert bags.startswith("bags-")
    assert fitness.startswith("fitness-") and fitness.endswith(".tsv")


@needs_fork
def test_dead_worker_leaves_the_training_to_this_process(
    tmp_path, one_process_smoke, monkeypatch
):
    # this process trains the rest of the round in which a worker died, and
    # the next round forks new workers; the amod probe dies in the first round
    parent = os.getpid()
    real_train = sgns.train
    rounds = record_rounds(monkeypatch)
    for doomed in (("amod",), ("amod", "appos", "obj")):

        def dying_train(stream, config, doomed=doomed):
            if stream.bags == doomed and os.getpid() != parent:
                os._exit(1)
            return real_train(stream, config)

        rounds.clear()
        written, trained_here = smoke_search(tmp_path / doomed[-1], cpus=2, train=dying_train)
        assert written == one_process_smoke[0]
        assert doomed in trained_here
        died = next(asked for asked, _ in rounds if "+".join(doomed) in asked)
        here = {search.Configuration.from_bags(bags).canonical for bags in trained_here}
        assert here <= died, sorted(here - died)


def test_smoke_search_rounds_and_critical_path_are_pinned(tmp_path, monkeypatch):
    # the critical path of a cold smoke search, the sum over its rounds of
    # each round's largest training in manifest pairs, against all its pairs
    rounds = record_rounds(monkeypatch)
    smoke_search(tmp_path, cpus=1)
    trained = [pairs for _, pairs in rounds]
    assert [len(pairs) for pairs in trained] == [13, 5, 10, 9]
    assert sum(max(pairs.values()) for pairs in trained) == 2218
    assert sum(sum(pairs.values()) for pairs in trained) == 7906


@needs_fork
def test_diverging_training_fails_the_search_alike_with_and_without_workers(tmp_path):
    real_train = sgns.train

    def diverging_train(stream, config):
        if stream.bags == ("amod", "appos", "obj"):
            raise sgns.TrainingDivergedError("non-finite parameters during training")
        return real_train(stream, config)

    messages = []
    for cpus in (1, 2):
        with pytest.raises(RuntimeError, match="fitness evaluation failed") as caught:
            smoke_search(tmp_path / f"cpus{cpus}", cpus, classes="N", train=diverging_train)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "amod+appos+obj: non-finite" in messages[0]


@needs_fork
def test_two_diverging_trainings_in_one_round_fail_alike_with_and_without_workers(tmp_path):
    # Both probes train in the same round; the workers train subj (the
    # largest bag) first, but the search tells acl first, so acl's failure
    # is the one raised, on one CPU as on two.
    real_train = sgns.train

    def diverging_train(stream, config):
        if stream.bags in (("acl",), ("subj",)):
            raise sgns.TrainingDivergedError("non-finite parameters during training")
        return real_train(stream, config)

    messages = []
    for cpus in (1, 2):
        with pytest.raises(RuntimeError, match="fitness evaluation failed") as caught:
            smoke_search(tmp_path / f"cpus{cpus}", cpus, train=diverging_train)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "acl: non-finite" in messages[0]


@needs_fork
def test_a_diverged_training_is_trained_once_and_keeps_its_rounds_results(tmp_path):
    # subj, the largest probe, trains first in its round; its error comes
    # back with the round's other results, so this process trains no
    # configuration twice, on two CPUs none at all, and the search raises in
    # tell order
    real_train = sgns.train
    messages, trainings = [], []
    for cpus in (1, 2):
        trained = []  # a worker appends to its own copy

        def diverging_train(stream, config, trained=trained):
            trained.append(stream.bags)
            if stream.bags == ("subj",):
                raise sgns.TrainingDivergedError("non-finite parameters during training")
            return real_train(stream, config)

        with pytest.raises(RuntimeError, match="fitness evaluation failed") as caught:
            smoke_search(tmp_path / f"cpus{cpus}", cpus, train=diverging_train)
        messages.append(str(caught.value))
        trainings.append(trained)
    assert messages[0] == messages[1]
    assert "subj: non-finite" in messages[0]
    one_cpu, two_cpus = trainings
    assert ("subj",) in one_cpu and len(one_cpu) == len(set(one_cpu)) == 13
    assert two_cpus == []


def test_a_lone_untrained_configuration_trains_here(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = count_process_starts(monkeypatch)
    trained = count_trainings(monkeypatch)
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    exp.extract()
    config = search.Configuration.from_bags(["amod"])
    with workers.forked(exp.train_configuration) as train:
        exp.prefetch(train, [(("N", 0), config)])
        assert trained == [("amod",)]
        rho = exp.fitness_function("N", 0)(config)
    assert trained == [("amod",)] and started == []
    (tmp_path / "alone").mkdir()
    alone = Experiment(load_experiment_config(write_config(tmp_path / "alone")))
    assert alone.fitness_function("N", 0)(config) == rho
    assert trained == [("amod",), ("amod",)]


@needs_fork
def test_first_fitness_record_of_a_worker_trained_model_counts_its_training(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real_train = sgns.train

    def slow_train(stream, config):
        time.sleep(0.3)
        return real_train(stream, config)

    monkeypatch.setattr(sgns, "train", slow_train)
    exp = Experiment(load_experiment_config(write_config(tmp_path)))
    exp.extract()
    dev = exp.fitness_function("N", 0)
    test = exp.fitness_function("N", 1)
    configs = [search.Configuration.from_bags([bag]) for bag in ("amod", "obj")]
    with workers.forked(exp.train_configuration) as train:
        exp.prefetch(train, [(("N", 0), config) for config in configs])
        for config in configs:
            dev(config)
            test(config)
    for config in configs:
        assert exp.fitness_cache.get(config.canonical, "N:0").wall_time >= 0.3
        assert exp.fitness_cache.get(config.canonical, "N:1").wall_time < 0.3
