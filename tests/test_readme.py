import math
import re
from pathlib import Path

from depctx.pipeline import Experiment, bundled_path, load_experiment_config

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    """The python block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_use_example_runs_on_the_bundled_fixture(tmp_path, monkeypatch):
    code = library_use_block()
    corpus, gold = bundled_path("fixture_treebank.conllu"), bundled_path("toy_similarity.tsv")
    for old, new in [
        ('"corpus.conllu"', repr(str(corpus))),
        ('"simlex.tsv"', repr(str(gold))),
        ("min_count=100", "min_count=1"),
        ("dim=300", "dim=24"),
    ]:
        assert code.count(old) == 1, old
        code = code.replace(old, new)
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(code, str(README), "exec"), names)

    assert names["store"].dim == names["bow_store"].dim == 24
    assert math.isfinite(names["dev_rho"]) and names["adjectives"] > 0.3
    # the example writes the bag files the pipeline writes
    config = tmp_path / "exp.txt"
    config.write_text(f"corpus = {corpus}\ncache_dir = {tmp_path / 'cache'}\n", encoding="utf-8")
    exp = Experiment(load_experiment_config(config))
    for kind, ours in (("deps", tmp_path / "bags"), ("bow", tmp_path / "bow")):
        manifest = exp.extract(kind)
        assert {p.name for p in ours.glob("*.pairs")} == {f"{b}.pairs" for b in manifest.counts}
        for path in ours.glob("*.pairs"):
            assert path.read_bytes() == (exp.bag_dir(kind) / path.name).read_bytes(), path.name
