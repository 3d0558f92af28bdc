"""Experiment orchestration: cached extraction, training, search, reporting.

Every fitness evaluation is a full SGNS training run, so everything is keyed
by content hashes and cached on disk: bag files by extraction fingerprint,
fitness values by (configuration, fold). A trained configuration is kept in
memory only as its gold-pair cosines, which score it on every class and fold.
Forked worker processes train one search step's independent configurations
and return those cosines; this process alone writes the fitness cache.
Reports deliberately exclude wall-clock times so identical experiments
reproduce byte-identical report files; timings stay available in the fitness
cache and via the report command's timing switch.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import conllu, evaluation, extraction, search, sgns

logger = logging.getLogger(__name__)

CACHE_ENV_VAR = "DEPCTX_CACHE_DIR"
SEARCH_REPORT_NAME = "search_report.tsv"
RESOLVED_CONFIG_NAME = "resolved_config.txt"

# sentinel fitness for configurations that cannot be trained or scored at all
# (e.g. a bag too small for the vocabulary threshold on a tiny corpus)
INFEASIBLE = float("-inf")


class ExperimentConfigError(ValueError):
    """Bad experiment file: unknown keys, missing paths, unparseable values."""


@dataclass
class ExperimentConfig:
    """Resolved experiment definition (flat key=value file on disk).

    Relative paths are resolved against the config file's directory.
    """

    corpus: tuple[str, ...] = ()
    bag_table: str = "default"
    window: int = extraction.ExtractionConfig.window
    conj_variant: str = extraction.ExtractionConfig.conj_variant
    collapse_targets: tuple[str, ...] = extraction.ExtractionConfig.collapse_targets
    dim: int = sgns.TrainerConfig.dim
    negatives: int = sgns.TrainerConfig.negatives
    learning_rate: float = sgns.TrainerConfig.learning_rate
    subsample: float = sgns.TrainerConfig.subsample
    epochs: int = sgns.TrainerConfig.epochs
    min_count: int = sgns.TrainerConfig.min_count
    unigram_power: float = sgns.TrainerConfig.unigram_power
    seed: int = sgns.TrainerConfig.seed
    dataset: str = ""
    toefl: str = ""
    classes: tuple[str, ...] = evaluation.WORD_CLASSES
    strategy: str = "alg1"
    threshold: float = search.DEFAULT_THRESHOLD
    fold_seed: int = 7
    cache_dir: str = "cache"
    out_dir: str = "out"

    def extraction_config(self) -> extraction.ExtractionConfig:
        return self._component(extraction.ExtractionConfig)

    def trainer_config(self) -> sgns.TrainerConfig:
        return self._component(sgns.TrainerConfig)

    def _component(self, cls):
        """Build a component config from the experiment keys of the same names."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})


def _parse_tuple(raw: str) -> tuple[str, ...]:
    """A tuple[str, ...] field's value: comma-separated, blanks dropped."""
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# value parser by field type; ``from __future__ import annotations`` makes every
# field type its annotation string, and the tuple fields take the fallback
_PARSERS = {"int": int, "float": float, "str": str}


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat, commented key=value experiment file."""
    path = Path(path)
    if not path.exists():
        raise ExperimentConfigError(f"config file not found: {path}")
    base = path.parent
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep:
            raise ExperimentConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        if key not in known:
            raise ExperimentConfigError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _PARSERS.get(known[key], _parse_tuple)(value)
        except ValueError as exc:
            raise ExperimentConfigError(f"{path}:{line_no}: {exc}") from None
    cfg = ExperimentConfig(**values)

    env_cache = os.environ.get(CACHE_ENV_VAR)
    if env_cache:
        cfg = replace(cfg, cache_dir=env_cache)

    def resolve(p: str) -> str:
        return str((base / p).resolve()) if p and not Path(p).is_absolute() else p

    cfg = replace(
        cfg,
        corpus=tuple(resolve(c) for c in cfg.corpus),
        bag_table=cfg.bag_table if cfg.bag_table == "default" else resolve(cfg.bag_table),
        dataset=resolve(cfg.dataset),
        toefl=resolve(cfg.toefl),
        cache_dir=resolve(cfg.cache_dir),
        out_dir=resolve(cfg.out_dir),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    for corpus_path in cfg.corpus:
        if not Path(corpus_path).exists():
            raise ExperimentConfigError(f"corpus path does not exist: {corpus_path}")
    if cfg.bag_table != "default" and not Path(cfg.bag_table).exists():
        raise ExperimentConfigError(f"bag table does not exist: {cfg.bag_table}")
    for name in ("dataset", "toefl"):
        p = getattr(cfg, name)
        if p and not Path(p).exists():
            raise ExperimentConfigError(f"{name} path does not exist: {p}")
    if cfg.strategy not in search.STRATEGIES:
        raise ExperimentConfigError(f"unknown strategy {cfg.strategy!r}")
    for cls in cfg.classes:
        if cls not in evaluation.WORD_CLASSES + ("ALL",):
            raise ExperimentConfigError(f"unknown word class {cls!r}")
    cfg.extraction_config()
    cfg.trainer_config()


def _sha256_update_file(h, path: str) -> None:
    with open(path, "rb") as f:
        while True:
            block = f.read(1 << 20)
            if not block:
                break
            h.update(block)


def _short_hash(parts: list[str], file_paths: list[str] = ()) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    for path in file_paths:
        _sha256_update_file(h, path)
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _format_setting(value) -> str:
    """One setting as it enters cache identities and resolved_config.txt."""
    return ",".join(value) if isinstance(value, tuple) else str(value)


def fold_mean(rhos) -> tuple[float, bool]:
    """Mean rho over the finite folds, and whether every fold was finite.

    An infeasible fold neither counts toward the mean nor drags it to -inf;
    rankings place a row with an infeasible fold after every complete row.
    The mean is INFEASIBLE when no fold is finite.
    """
    rhos = list(rhos)
    finite = [r for r in rhos if math.isfinite(r)]
    mean = sum(finite) / len(finite) if finite else INFEASIBLE
    return mean, len(finite) == len(rhos)


def format_float(x: float) -> str:
    if x == INFEASIBLE:
        return "-inf"
    return f"{x:.6f}"


@dataclass
class ReportRow:
    configuration: str
    fold_rhos: dict[str, float]
    mean_rho: float
    complete: bool  # every fold finite
    pair_count: int
    wall_time: float

    def fold_cell(self) -> str:
        return ";".join(f"{fold}={format_float(rho)}" for fold, rho in sorted(self.fold_rhos.items()))


@dataclass
class ClassSearchResult:
    word_class: str
    runs: list[dict] = field(default_factory=list)  # per-run summary
    mean_test_rho: float | None = None

    @property
    def infeasible(self) -> bool:
        """Whether some run's pool was empty, so it found no configuration."""
        return any(run["best"] is None for run in self.runs)


class Experiment:
    """Everything one experiment definition needs, lazily constructed."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.table = (
            extraction.BagMappingTable.default()
            if cfg.bag_table == "default"
            else extraction.BagMappingTable.from_file(cfg.bag_table)
        )
        self._dataset: evaluation.WordPairDataset | None = None
        self._manifest: extraction.Manifest | None = None
        self._fitness_cache: search.FitnessCache | None = None
        self._extraction_fingerprint: str | None = None
        # the worker pool of an open worker_pool block
        self._pool = None
        # canonical -> (gold-pair cosines, training seconds no fitness record
        # has counted yet)
        self._trained: dict[str, tuple[np.ndarray, float]] = {}

    # -- fingerprints and directories --

    def extraction_fingerprint(self) -> str:
        """Hash of the corpus bytes, extraction settings and bag table; computed once."""
        if self._extraction_fingerprint is None:
            settings = [_format_setting(v) for v in astuple(self.cfg.extraction_config())]
            parts = ["extraction", *settings, repr(sorted(self.table.rules))]
            self._extraction_fingerprint = _short_hash(parts, list(self.cfg.corpus))
        return self._extraction_fingerprint

    def trainer_fingerprint(self) -> str:
        """Hash of the trainer settings and the SGD kernel's batch size."""
        settings = [_format_setting(v) for v in astuple(self.cfg.trainer_config())]
        parts = ["trainer", f"batch={sgns.BATCH_SIZE}", *settings]
        return _short_hash(parts)

    def model_scope(self) -> str:
        return _short_hash(["models", self.extraction_fingerprint(), self.trainer_fingerprint()])

    def fitness_scope(self) -> str:
        parts = ["fitness", self.model_scope(), str(self.cfg.fold_seed)]
        return _short_hash(parts, [self.cfg.dataset] if self.cfg.dataset else [])

    @property
    def bag_dir(self) -> Path:
        return Path(self.cfg.cache_dir) / f"bags-{self.extraction_fingerprint()}"

    @property
    def fitness_cache(self) -> search.FitnessCache:
        if self._fitness_cache is None:
            path = Path(self.cfg.cache_dir) / f"fitness-{self.fitness_scope()}.tsv"
            self._fitness_cache = search.FitnessCache(path)
        return self._fitness_cache

    @property
    def dataset(self) -> evaluation.WordPairDataset:
        if self._dataset is None:
            if not self.cfg.dataset:
                raise ExperimentConfigError("this command requires a dataset path")
            self._dataset = evaluation.WordPairDataset.load(self.cfg.dataset)
        return self._dataset

    # -- extraction --

    def sentences(self):
        for path in self.cfg.corpus:
            yield from conllu.read_corpus(path)

    def extract(self, force: bool = False) -> extraction.Manifest:
        """Extract bag files unless an up-to-date manifest already exists."""
        if not self.cfg.corpus:
            raise ExperimentConfigError("extract requires at least one corpus path")
        fingerprint = self.extraction_fingerprint()
        out = self.bag_dir
        if not force and (out / extraction.MANIFEST_NAME).exists():
            try:
                manifest = extraction.Manifest.load(out)
            except RuntimeError:
                logger.warning("discarding partial extraction output in %s", out)
            else:
                if manifest.meta.get("config_hash") == fingerprint:
                    logger.info("extraction cache hit: %s", out)
                    self._manifest = manifest
                    return manifest
        logger.info("extracting to %s", out)
        manifest = extraction.write_bag_files(
            self.sentences(), self.table, self.cfg.extraction_config(), out, fingerprint
        )
        self._manifest = manifest
        return manifest

    def extract_window_pairs(self, kind: str) -> Path:
        """Write BOW or POSIT baseline pairs next to the bag files."""
        return extraction.write_window_pairs(self.sentences(), kind, self.cfg.window, self.bag_dir)

    @property
    def manifest(self) -> extraction.Manifest:
        if self._manifest is None:
            self._manifest = self.extract()
        return self._manifest

    # -- training --

    def pair_stream(self, bags) -> extraction.PairStream:
        return extraction.PairStream(self.bag_dir, bags, self.manifest)

    def train_configuration(self, config: search.Configuration) -> np.ndarray:
        """Train one configuration; returns the cosine of every gold pair, NaN
        where a word is out of vocabulary and everywhere when none is left."""
        try:
            store = sgns.train(self.pair_stream(config.bags), self.cfg.trainer_config())
        except sgns.VocabularyError as exc:
            logger.info("configuration %s cannot be trained: %s", config, exc)
            return np.full(len(self.dataset), np.nan)
        return evaluation.pair_cosines(store, self.dataset)

    # -- parallel training --

    @contextmanager
    def worker_pool(self):
        """Let prefetches train in forked worker processes until the block
        ends, which shuts the pool down. Outside it, on one CPU, or without
        fork, training stays in this process.

        The executor forks its workers at its first submit, so a block that
        never trains two configurations at once starts no process.
        """
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        # imported here, so that commands which never search do not pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if cpus > 1 and "fork" in multiprocessing.get_all_start_methods():
            # Forked workers inherit this experiment as it stands, its manifest
            # and gold dataset loaded, so a task sends only its configuration. A
            # spawned worker would import numpy and depctx afresh (about
            # 0.13 s), longer than most trainings of a small search.
            self.dataset
            self._pool = ProcessPoolExecutor(
                cpus, multiprocessing.get_context("fork"), _init_worker, (self,)
            )
        try:
            yield
        finally:
            if self._pool is not None:
                self._pool.shutdown(cancel_futures=True)
                self._pool = None

    def prefetch(self, configs, fold: str) -> None:
        """Train in parallel the configurations that ``fold`` will score and
        that have neither a fitness record there nor been trained yet.

        Only inside :meth:`worker_pool`, and only when two or more such
        configurations are left; otherwise the fitness calls train them in
        this process. Each worker returns the result of
        :meth:`train_configuration` with its training seconds, so the
        sequential fitness calls that follow train nothing and every value is
        unchanged. A worker's failure is dropped: the sequential call trains
        that configuration again and meets the same error.
        """
        if self._pool is None:
            return
        todo = [
            config for config in configs
            if self.fitness_cache.get(config.canonical, fold) is None
            and config.canonical not in self._trained
        ]
        if len(todo) < 2:
            return
        from concurrent.futures import BrokenExecutor

        # largest first, so that no long training starts last
        todo.sort(key=lambda config: self.manifest.total(config.bags), reverse=True)
        try:
            futures = [(config, self._pool.submit(_train_in_worker, config)) for config in todo]
        except BrokenExecutor:
            logger.debug("a training worker died earlier; training in this process")
            return
        for config, future in futures:
            try:
                self._trained[config.canonical] = future.result()
            except Exception as exc:
                logger.debug("training %s in a worker failed: %r", config, exc)

    # -- fitness plumbing --

    def fold_id(self, word_class: str, fold_index: int) -> str:
        return f"{word_class}:{fold_index}"

    def fitness_function(self, word_class: str, fold_indices, fold_index: int):
        """Config -> Spearman rho on one fold, through the fitness cache.

        A configuration is trained once per experiment, on its first fold.
        Untrainable or unscorable configurations come back as -inf so they
        lose to everything real instead of aborting the whole search. The
        function's ``prefetch`` trains a batch of configurations ahead of
        their calls (see :meth:`prefetch`).
        """
        fold = self.fold_id(word_class, fold_index)

        def fitness(config: search.Configuration) -> float:
            record = self.fitness_cache.get(config.canonical, fold)
            if record is not None:
                return record.rho
            pair_count = self.manifest.total(config.bags)
            start = time.perf_counter()
            if config.canonical not in self._trained:
                self._trained[config.canonical] = self.train_configuration(config), 0.0
            # a worker's training seconds count toward the first record only
            cosines, train_s = self._trained[config.canonical]
            self._trained[config.canonical] = cosines, 0.0
            try:
                rho = evaluation.correlate(cosines, self.dataset, word_class, fold_indices).rho
            except evaluation.UndefinedCorrelationError as exc:
                logger.info("configuration %s infeasible on %s: %s", config, fold, exc)
                rho = INFEASIBLE
            wall = time.perf_counter() - start + train_s
            self.fitness_cache.put(config.canonical, fold, rho, wall, pair_count)
            return rho

        fitness.prefetch = lambda configs: self.prefetch(configs, fold)
        return fitness

    # -- the search protocol --

    def search_class(self, word_class: str) -> ClassSearchResult:
        """Per-class protocol: 2-fold split, then per dev fold a pool build,
        descent and test score on the other fold; each fold is dev once.

        Called alone it trains in this process; :meth:`run_search` opens the
        worker pool around every class.
        """
        cfg = self.cfg
        folds = evaluation.split_folds(self.dataset, word_class, cfg.fold_seed)
        fold_indices = {0: folds.fold_a, 1: folds.fold_b}
        result = ClassSearchResult(word_class=word_class)
        runs = [(0, 1), (1, 0)]
        logger.info(
            "class %s: fold seed %d, runs %s (dev fold fixed for all search levels)",
            word_class, cfg.fold_seed, runs,
        )

        strategy = search.strategy_functions()[cfg.strategy]
        all_bags = extraction.effective_bags(self.table, cfg.extraction_config())
        test_rhos = []
        for dev, test in runs:
            dev_fitness = self.fitness_function(word_class, fold_indices[dev], dev)
            memo = search.MemoizedFitness(dev_fitness)
            probes = {bag: search.Configuration.from_bags([bag]) for bag in all_bags}
            memo.prefetch(probes.values())
            per_bag = {bag: memo(probe) for bag, probe in probes.items()}
            run = dict(dev=dev, best=None, dev_rho=None, test_rho=None, per_bag_fitness=per_bag)
            result.runs.append(run)
            try:
                space = search.build_pool(per_bag, cfg.threshold, all_bags)
            except search.SearchInfeasibleError:
                logger.warning(
                    "class %s fold %d: no bag reaches threshold %.3f",
                    word_class, dev, cfg.threshold,
                )
                continue
            best, trace = strategy(space, memo)
            dev_rho = memo(best)
            test_fitness = self.fitness_function(word_class, fold_indices[test], test)
            test_rho = test_fitness(best)
            test_rhos.append(test_rho)
            trace_path = Path(cfg.out_dir) / f"trace_{word_class}_dev{dev}.tsv"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace.to_tsv(trace_path)
            run.update(best=best, dev_rho=dev_rho, test_rho=test_rho)
        if test_rhos:
            result.mean_test_rho, _ = fold_mean(test_rhos)
        return result

    def run_search(self) -> list[ClassSearchResult]:
        """Run the full protocol for every configured class and write the report."""
        self.extract()
        with self.worker_pool():
            results = [self.search_class(word_class) for word_class in self.cfg.classes]
        self.write_search_report(results)
        self.write_resolved_config()
        return results

    def write_search_report(self, results: list[ClassSearchResult]) -> Path:
        lines = ["class\tdev_fold\tbest_configuration\tdev_rho\ttest_rho\tpairs"]
        for res in results:
            for run in res.runs:
                if run["best"] is None:
                    lines.append(f"{res.word_class}\t{run['dev']}\tINFEASIBLE\t-\t-\t-")
                    continue
                pairs = self.manifest.total(run["best"].bags)
                lines.append(
                    "\t".join(
                        [
                            res.word_class,
                            str(run["dev"]),
                            run["best"].canonical,
                            format_float(run["dev_rho"]),
                            format_float(run["test_rho"]),
                            str(pairs),
                        ]
                    )
                )
            mean = format_float(res.mean_test_rho) if res.mean_test_rho is not None else "-"
            lines.append(f"{res.word_class}\tmean\t-\t-\t{mean}\t-")
        out = Path(self.cfg.out_dir) / SEARCH_REPORT_NAME
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return out

    def write_resolved_config(self) -> Path:
        cfg = self.cfg
        pairs = [f"{f.name}={_format_setting(getattr(cfg, f.name))}" for f in fields(cfg)]
        out = Path(self.cfg.out_dir) / RESOLVED_CONFIG_NAME
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(pairs) + "\n", encoding="utf-8")
        return out

    # -- reporting over the fitness cache --

    def report_rows(self) -> list[ReportRow]:
        """One row per cached configuration: rows whose folds are all finite
        first, each group score-descending, ties by name."""
        grouped: dict[str, dict[str, search.CacheRecord]] = {}
        for (canonical, fold), record in self.fitness_cache.records().items():
            grouped.setdefault(canonical, {})[fold] = record
        rows = []
        for canonical, by_fold in grouped.items():
            rhos = {fold: rec.rho for fold, rec in by_fold.items()}
            mean, complete = fold_mean(rhos.values())
            config = search.Configuration.from_string(canonical)
            try:
                pair_count = self.manifest.total(config.bags)
            except KeyError:
                pair_count = -1
            wall = sum(rec.wall_time for rec in by_fold.values())
            rows.append(ReportRow(canonical, rhos, mean, complete, pair_count, wall))
        rows.sort(key=lambda r: (not r.complete, -r.mean_rho, r.configuration))
        return rows


# The experiment a pool worker trains for, set once in each worker process.
_worker_experiment: Experiment | None = None


def _init_worker(experiment: Experiment) -> None:
    global _worker_experiment
    _worker_experiment = experiment


def _train_in_worker(config: search.Configuration) -> tuple[np.ndarray, float]:
    """Train one configuration; returns its gold-pair cosines and training seconds."""
    start = time.perf_counter()
    cosines = _worker_experiment.train_configuration(config)
    return cosines, time.perf_counter() - start


def render_report(rows: list[ReportRow], timing: bool = False) -> str:
    header = "configuration\tfolds\tmean_rho\tpairs"
    if timing:
        header += "\twall_time_s"
    lines = [header]
    for row in rows:
        cells = [row.configuration, row.fold_cell(), format_float(row.mean_rho), str(row.pair_count)]
        if timing:
            cells.append(f"{row.wall_time:.2f}")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def bundled_path(name: str) -> Path:
    """Path to a bundled data file (fixture treebank, toy datasets, table)."""
    ref = resources.files("depctx.data").joinpath(name)
    with resources.as_file(ref) as path:
        return path
