"""The three workloads: inputs, one timed pass with its checks, layer metrics.

Each pass is what one user does at the command line, run in a closed loop
by a single caller: ``depctx search`` on the smoke experiment, ``depctx
train`` plus ``depctx eval`` at paper dimensions, and ``depctx extract`` on a
large compressed corpus. Every pass starts from its own empty cache and
output directories.
"""

from __future__ import annotations

import logging
import os
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from clock import Calibrator
from tracing import Tracer
from depctx import conllu, evaluation, extraction, pipeline, search, sgns

# Picker seed of the bundled fixture treebank. The smoke search's shape
# (which configurations the beam visits, 19 to 50 trainings for other
# Picker seeds) depends on the drawn sentences, so search-smoke keeps the
# bundled sentences and the run seed only changes the corpus bytes.
SMOKE_FIXTURE_SEED = 20260810
TRAIN_SENTENCES = 8_000
EXTRACT_SENTENCES = 40_000
MALFORMED_BLOCKS = 60
VARIANTS = 300
GOLD_PAIRS_PER_CLASS = 40
# At paper settings a corpus of this size leaves SGNS on its initial
# plateau (the epoch loss stays within 0.1% of 16 ln 2), so rho on the
# planted set is noise around 0. The floor only rejects an inverted model.
RHO_FLOOR = -0.5
# Quality floors of the smoke search, whose sentences and trainer seed are
# the same for every run seed, so the current trainer's values repeat
# exactly: a median fitness rho of 0.40 over 47 feasible records, and mean
# test rhos of 0.78 (A), -0.15 (V) and 0.60 (N). Each test fold holds 5
# pairs, so one test rho moves in steps of 0.1; the class floors sit 0.5
# below, the fitness floor 0.15 below. Untrained vectors gave 0.00 and
# -0.60, -0.70 (A, N); a sixth of the epochs gave 0.10 and -0.80 (A).
SMOKE_FITNESS_FLOOR = 0.25
SMOKE_TEST_FLOORS = {"A": 0.28, "V": -0.65, "N": 0.1}

PAPER_OVERRIDES = {
    "dim": "300", "negatives": "15", "learning_rate": "0.025", "subsample": "1e-4",
    "epochs": "1", "min_count": "1",
}


class SkipCounter(logging.Handler):
    """Counts the sentences ``depctx.conllu`` reports as skipped."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("skipping sentence"):
            self.count += 1


@dataclass
class PassResult:
    """Raw wall seconds of one pass's steps: all of them, the warm step, and
    the step that processed ``items`` (pairs trained or sentences
    extracted)."""

    wall: list[float]
    warm: float
    items: float
    item_step: float
    operations: int
    checks: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def _snapshot(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def write_config(path: Path, **values) -> Path:
    """The bundled smoke experiment file with some keys replaced."""
    bundled = pipeline.bundled_path("smoke_experiment.txt").read_text(encoding="utf-8")
    lines = []
    for line in bundled.splitlines():
        key = line.partition("=")[0].strip()
        if key in values:
            line = f"{key} = {values.pop(key)}"
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class Stopwatch:
    """Times the benchmark's calls into the program in raw wall seconds, with
    a root span when the pass is traced, and measures the core's speed after
    each call."""

    def __init__(self, calibrator: Calibrator, tracer):
        self.calibrator = calibrator
        self.tracer = tracer

    @contextmanager
    def time(self, name: str, into: list):
        with self.tracer.span(name) if self.tracer else nullcontext():
            start = perf_counter()
            yield
            into.append(perf_counter() - start)
        self.calibrator.measure()


class Workload:
    name = ""

    def __init__(self, fixtures, workdir: Path, seed: int, skips: SkipCounter):
        self.fixtures = fixtures
        self.workdir = workdir
        self.seed = seed
        self.skips = skips
        self.facts: dict = {}

    def prepare(self) -> Path:
        """Write the inputs and the experiment file; returns its path."""
        raise NotImplementedError

    def run_pass(self, cfg: pipeline.ExperimentConfig, watch: Stopwatch) -> PassResult:
        raise NotImplementedError


class SearchSmoke(Workload):
    name = "search-smoke"

    def prepare(self):
        corpus = self.workdir / "smoke.conllu"
        writer = inputs.TreebankWriter(self.fixtures, SMOKE_FIXTURE_SEED)
        self.facts["sentences"] = inputs.write_blocks(
            corpus, writer.fixture_blocks(), header=f"# seed = {self.seed}"
        )
        dataset = self.workdir / "toy_similarity.tsv"
        dataset.write_bytes(pipeline.bundled_path("toy_similarity.tsv").read_bytes())
        return write_config(
            self.workdir / "smoke.txt", corpus=corpus.name, dataset=dataset.name, toefl=""
        )

    def run_pass(self, cfg, watch):
        cache, out = Path(cfg.cache_dir), Path(cfg.out_dir)
        checks = [("cold run starts from an empty cache", not cache.exists(), "fresh cache_dir")]
        cold, warm = [], []
        exp = pipeline.Experiment(cfg)
        with watch.time("pipeline.search_cold", cold):
            results = exp.run_search()
        report_path = out / pipeline.SEARCH_REPORT_NAME
        report = report_path.read_bytes()
        cache_files = _snapshot(cache)

        # Counts trainings and model loads during the rerun; a correct
        # program makes none, so the guard costs nothing there.
        guard = Tracer()
        undo = guard.install([
            (sgns, "train", "sgns.train", None), (sgns, "load_embeddings", "sgns.load", None),
        ])
        try:
            rerun = pipeline.Experiment(cfg)
            with watch.time("pipeline.search_warm", warm):
                rerun.run_search()
        finally:
            undo()
        checks += [
            ("rerun report is byte-identical", report_path.read_bytes() == report,
             pipeline.SEARCH_REPORT_NAME),
            ("rerun trains and loads nothing", not guard.spans,
             f"{len(guard.spans)} trainings or loads"),
            ("rerun leaves the cache untouched", _snapshot(cache) == cache_files,
             f"{len(cache_files)} files"),
        ]

        # Models are cached per configuration, so each configuration with a
        # fitness record was trained once.
        records = exp.fitness_cache.records()
        configs = {canonical for canonical, _ in records}
        trained_pairs = sum(
            exp.manifest.total(search.Configuration.from_string(c).bags) for c in configs
        ) * cfg.epochs
        infeasible = sum(1 for r in records.values() if r.rho == pipeline.INFEASIBLE)
        checks += quality_checks(results, records)
        facts = {
            "pairs": exp.manifest.total(), "trainings": len(configs),
            "trained_pairs": trained_pairs,
            "failed_ops_ratio": f"{infeasible}/{len(records)} fitness values infeasible",
            # what a trainer change must not lose: winners and test rhos
            "winners": {
                r.word_class: [run["best"].canonical if run["best"] else "-" for run in r.runs]
                for r in results
            },
            "test_rho": {
                r.word_class: [pipeline.format_float(run["test_rho"]) for run in r.runs
                               if run["test_rho"] is not None]
                for r in results
            },
        }
        return PassResult(
            wall=cold + warm, warm=warm[0], items=trained_pairs, item_step=cold[0],
            operations=2, checks=checks, facts=facts,
        )


class TrainPaper(Workload):
    name = "train-paper"

    def prepare(self):
        corpus = self.workdir / "paper.conllu"
        writer = inputs.TreebankWriter(self.fixtures, self.seed)
        self.facts["sentences"] = inputs.write_blocks(
            corpus, writer.large_blocks(TRAIN_SENTENCES, VARIANTS),
        )
        gold = self.workdir / "gold.tsv"
        self.facts["gold_pairs"] = inputs.write_gold_set(
            gold, self.fixtures, self.seed, GOLD_PAIRS_PER_CLASS
        )
        return write_config(
            self.workdir / "paper.txt", corpus=corpus.name, dataset=gold.name, toefl="",
            **PAPER_OVERRIDES,
        )

    def run_pass(self, cfg, watch):
        exp = pipeline.Experiment(cfg)
        trainer = cfg.trainer_config()
        model_path = Path(cfg.out_dir) / "vectors.txt"
        model_path.parent.mkdir(parents=True, exist_ok=True)
        command, training, evaluating = [], [], []
        with watch.time("pipeline.train_command.extract", command):
            manifest = exp.extract()
            stream = exp.pair_stream(sorted(manifest.counts))
        with watch.time("pipeline.train_command.train", training):
            store = sgns.train(stream, trainer)
        with watch.time("pipeline.train_command.save", command):
            sgns.save_embeddings(store, model_path)
        with watch.time("pipeline.eval_command", evaluating):
            loaded = sgns.load_embeddings(model_path)
            result = evaluation.evaluate(loaded, exp.dataset)

        checks = [
            ("matrices are finite",
             bool(np.isfinite(store.word_vectors).all() and np.isfinite(store.context_vectors).all()),
             f"{store.vocab.n_words}x{store.dim} words, {store.vocab.n_contexts} contexts"),
            ("loaded vectors equal the saved ones",
             loaded.vocab.words == store.vocab.words
             and np.array_equal(loaded.word_vectors, store.word_vectors), model_path.name),
            ("rho is above the floor", result.rho > RHO_FLOOR,
             f"rho {result.rho:.4f} > {RHO_FLOOR} on {result.n_scored}/{result.n_total} pairs"),
        ]
        facts = {
            "pairs": len(stream), "words": store.vocab.n_words,
            "contexts": store.vocab.n_contexts, "model_bytes": model_path.stat().st_size,
            "rho": result.rho, "final_loss": store.epoch_losses[-1],
        }
        return PassResult(
            wall=command + training + evaluating, warm=evaluating[0],
            items=len(stream) * trainer.epochs, item_step=training[0],
            operations=2, checks=checks, facts=facts,
        )


class ExtractCorpus(Workload):
    name = "extract-corpus"

    def prepare(self):
        corpus = self.workdir / "ingest.conllu.gz"
        writer = inputs.TreebankWriter(self.fixtures, self.seed)
        self.facts["sentences"] = inputs.write_blocks(
            corpus, writer.large_blocks(EXTRACT_SENTENCES, VARIANTS, MALFORMED_BLOCKS),
            compress=True,
        )
        self.facts["malformed"] = MALFORMED_BLOCKS
        self.facts["corpus_bytes"] = corpus.stat().st_size
        return write_config(
            self.workdir / "ingest.txt", corpus=corpus.name, dataset="", toefl="",
            **PAPER_OVERRIDES,
        )

    def run_pass(self, cfg, watch):
        exp = pipeline.Experiment(cfg)
        cold, rest, warm = [], [], []
        skipped = self.skips.count
        with watch.time("pipeline.extract_cold", cold):
            manifest = exp.extract()
        cold_skipped = self.skips.count - skipped
        with watch.time("pipeline.extract_bow", rest):
            exp.extract_window_pairs("bow")
        bow_skipped = self.skips.count - skipped - cold_skipped
        with watch.time("pipeline.build_vocab", rest):
            stream = exp.pair_stream(sorted(manifest.counts))
            vocab = sgns.build_vocab(stream, cfg.min_count)

        again = pipeline.Experiment(cfg)
        with watch.time("pipeline.extract_warm", warm):
            again_manifest = again.extract()
        streamed = int(vocab.word_counts.sum())
        checks = [
            ("skipped sentences equal the injected count",
             cold_skipped == bow_skipped == MALFORMED_BLOCKS,
             f"extract {cold_skipped}, bow {bow_skipped}, injected {MALFORMED_BLOCKS}"),
            ("pair stream length equals the manifest total",
             streamed == len(stream) == manifest.total(), f"{streamed} pairs"),
            ("warm extract returns the same manifest",
             (again_manifest.counts, again_manifest.meta) == (manifest.counts, manifest.meta),
             f"{len(manifest.counts)} bags"),
        ]
        facts = {
            "pairs": manifest.total(), "words": vocab.n_words, "contexts": vocab.n_contexts,
            "failed_ops_ratio": f"{cold_skipped}/{self.facts['sentences']} sentences skipped",
        }
        return PassResult(
            wall=cold + rest + warm, warm=warm[0],
            items=self.facts["sentences"] - MALFORMED_BLOCKS, item_step=cold[0],
            operations=4, checks=checks, facts=facts,
        )


WORKLOADS = {w.name: w for w in (SearchSmoke, TrainPaper, ExtractCorpus)}


def quality_checks(results, records) -> list:
    """The smoke search still learns, so no trainer buys speed with quality."""
    runs = [run for r in results for run in r.runs]
    found = sum(1 for run in runs if run["best"] is not None)
    feasible = [r.rho for r in records.values() if r.rho != pipeline.INFEASIBLE]
    fitness = statistics.median(feasible) if feasible else pipeline.INFEASIBLE
    checks = [
        ("every class search found a winner", found == len(runs), f"{found}/{len(runs)} runs"),
        ("median fitness rho is above the floor", fitness > SMOKE_FITNESS_FLOOR,
         f"{fitness:.4f} > {SMOKE_FITNESS_FLOOR} over {len(feasible)} feasible records"),
    ]
    for r in results:
        tests = [run["test_rho"] for run in r.runs
                 if run["test_rho"] not in (None, pipeline.INFEASIBLE)]
        mean = statistics.fmean(tests) if tests else pipeline.INFEASIBLE
        floor = SMOKE_TEST_FLOORS[r.word_class]
        checks.append((f"class {r.word_class} mean test rho is above the floor", mean > floor,
                       f"{mean:.4f} > {floor} over {len(tests)} feasible runs"))
    return checks


def trace_targets():
    """``(owner, attribute, span name, note)`` for every wrapped entry point."""
    exp, cache = pipeline.Experiment, search.FitnessCache

    def train_note(args, store):
        return {"pairs": len(args[0]) * args[1].epochs, "final_loss": store.epoch_losses[-1]}

    return [
        (conllu, "read_corpus", "conllu.read", None),
        (extraction, "write_bag_files", "extraction.write", lambda a, r: {"pairs": r.total()}),
        (extraction.PairStream, "__iter__", "extraction.stream", None),
        (exp, "extract", "pipeline.extract", None),
        (exp, "extract_window_pairs", "extraction.window", None),
        (exp, "extraction_fingerprint", "pipeline.fingerprint", None),
        (exp, "train_configuration", "pipeline.train_configuration", None),
        (sgns, "build_vocab", "sgns.vocab",
         lambda a, r: {"words": r.n_words, "contexts": r.n_contexts}),
        (sgns, "build_unigram_table", "sgns.unigram", None),
        (sgns, "train", "sgns.train", train_note),
        (sgns, "save_embeddings", "sgns.save", lambda a, r: {"bytes": os.path.getsize(a[1])}),
        (sgns, "load_embeddings", "sgns.load", None),
        (evaluation, "evaluate", "evaluation.evaluate",
         lambda a, r: {"scored": r.n_scored, "total": r.n_total}),
        (search, "best_configuration_search", "search.alg1", None),
        (search, "greedy_search", "search.greedy", None),
        (search, "exhaustive_search", "search.exhaustive", None),
        (search.MemoizedFitness, "__call__", "search.memo", None),
        (cache, "get", "search.fitness_cache.get",
         lambda a, r: {"key": f"{a[1]}|{a[2]}", "hit": r is not None}),
        (cache, "put", "search.fitness_cache.put",
         lambda a, r: {"key": f"{a[1]}|{a[2]}", "infeasible": a[3] == pipeline.INFEASIBLE}),
    ]


LAYERS = ("conllu", "extraction", "sgns", "evaluation", "search", "pipeline")


def layer_metrics(tracer, skipped: int) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, and the checks the spans allow."""
    spans = tracer.spans
    kids = tracer.children()
    self_time = tracer.self_times()
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def of(name):
        return named.get(name, [])

    def busy(name):
        return sum(s.covered for s in of(name))

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in of(name))

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    def child_names(s):
        return {c.name for c in kids.get(s.id, ())}

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        m[f"{s.layer}.self_s"] += self_time[s.id]
    sentences = sum(s.items for s in of("conllu.read"))
    m.update({
        "conllu.busy_s": busy("conllu.read"),
        "conllu.sentences": sentences,
        "conllu.sentences_per_s": rate(sentences, busy("conllu.read")),
        "conllu.skipped": skipped,
        "extraction.write.self_s": sum(self_time[s.id] for s in of("extraction.write")),
        "extraction.write.pairs": total("extraction.write", "pairs"),
        "extraction.window.self_s": sum(self_time[s.id] for s in of("extraction.window")),
        "extraction.stream.pairs": sum(s.items for s in of("extraction.stream")),
        "extraction.stream.pairs_per_s": rate(
            sum(s.items for s in of("extraction.stream")), busy("extraction.stream")
        ),
        "sgns.vocab.busy_s": busy("sgns.vocab"),
        "sgns.vocab.words": total("sgns.vocab", "words"),
        "sgns.vocab.contexts": total("sgns.vocab", "contexts"),
        "sgns.unigram.busy_s": busy("sgns.unigram"),
        "sgns.train.calls": len(of("sgns.train")),
        "sgns.train.busy_s": busy("sgns.train"),
        "sgns.train.self_s": sum(self_time[s.id] for s in of("sgns.train")),
        "sgns.train.pairs": total("sgns.train", "pairs"),
        "sgns.train.pairs_per_s": rate(total("sgns.train", "pairs"), busy("sgns.train")),
        "sgns.train.final_loss": (
            statistics.median(s.attrs["final_loss"] for s in of("sgns.train"))
            if of("sgns.train") else 0.0
        ),
        "sgns.save.calls": len(of("sgns.save")),
        "sgns.save.busy_s": busy("sgns.save"),
        "sgns.save.bytes": total("sgns.save", "bytes"),
        "sgns.load.calls": len(of("sgns.load")),
        "sgns.load.busy_s": busy("sgns.load"),
        "evaluation.calls": len(of("evaluation.evaluate")),
        "evaluation.busy_s": busy("evaluation.evaluate"),
        "evaluation.coverage": rate(
            total("evaluation.evaluate", "scored"), total("evaluation.evaluate", "total")
        ),
        "search.fitness_requests": len(of("search.memo")),
        "search.evaluations": sum(1 for s in of("search.memo") if kids.get(s.id)),
        "pipeline.fitness_cache.hits": total("search.fitness_cache.get", "hit"),
        "pipeline.fitness_cache.misses": len(of("search.fitness_cache.get"))
        - total("search.fitness_cache.get", "hit"),
        "pipeline.fitness_cache.hit_ratio": rate(
            total("search.fitness_cache.get", "hit"), len(of("search.fitness_cache.get"))
        ),
        "pipeline.model_cache.hits": sum(
            1 for s in of("pipeline.train_configuration") if "sgns.load" in child_names(s)
        ),
        "pipeline.model_cache.misses": sum(
            1 for s in of("pipeline.train_configuration") if "sgns.train" in child_names(s)
        ),
        "pipeline.infeasible": total("search.fitness_cache.put", "infeasible"),
        "pipeline.fingerprint.calls": len(of("pipeline.fingerprint")),
        "pipeline.fingerprint.busy_s": busy("pipeline.fingerprint"),
    })

    written, stale = set(), 0
    for s in spans:
        if s.name == "search.fitness_cache.put":
            written.add(s.attrs["key"])
        elif s.name == "search.fitness_cache.get" and s.attrs.get("hit"):
            stale += s.attrs["key"] not in written
    checks = [
        ("every fitness-cache hit was written earlier in the pass", stale == 0,
         f"{stale} hits on records from before the pass"),
    ]
    return m, checks
