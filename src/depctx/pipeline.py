"""Experiment orchestration: cached extraction, training, search, reporting.

Every fitness evaluation is a full SGNS training run, so everything is keyed
by content hashes and cached on disk: bag files by extraction fingerprint,
fitness values by (configuration, fold). A fold is a word class and 0 or 1,
one half of that class's gold pairs under ``fold_seed``, named "A:0" in the
fitness cache by :func:`fold_key` alone; :meth:`Experiment.fitness_function`
alone resolves it to entry indices. The dependency bags and each window
baseline have their own bag directory, keyed by the corpus bytes and the
settings that extraction reads. Extraction parses and extracts the chunks
of a corpus in forked worker processes (:func:`workers.forked`), and this
process writes their text to the bag files in corpus order. A trained
configuration is kept in memory only as its gold-pair cosines, which score
it on every class and fold.
A search advances every (class, dev fold) run together, in rounds: each
round trains what all runs asked for in one batch, in the forked workers
of one :func:`workers.forked` block that return those cosines, and then
every run is told the scores of its asks (:func:`search.run_rounds`).
This process alone writes the fitness cache.
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
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cached_property, partial
from itertools import chain
from importlib import resources
from pathlib import Path

import numpy as np

from . import conllu, evaluation, extraction, search, sgns, workers

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
    window: int = 2
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


def parse_tuple(raw: str) -> tuple[str, ...]:
    """A comma list, as a tuple[str, ...] key and ``depctx eval --classes``
    take it: items stripped, blanks dropped."""
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
    values, line_of = {}, {}
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
        if key in line_of:
            raise ExperimentConfigError(
                f"{path}:{line_no}: key {key!r} is already set on line {line_of[key]}"
            )
        line_of[key] = line_no
        try:
            values[key] = _PARSERS.get(known[key], parse_tuple)(value)
        except ValueError as exc:
            raise ExperimentConfigError(f"{path}:{line_no}: {exc}") from None
    cfg = ExperimentConfig(**values)

    env_cache = os.environ.get(CACHE_ENV_VAR)
    if env_cache:
        # a path from the environment resolves against the working directory
        cfg = replace(cfg, cache_dir=str(Path(env_cache).resolve()))

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
    check_classes(cfg.classes)
    if cfg.fold_seed < 0:
        raise ExperimentConfigError(f"fold_seed must be >= 0, got {cfg.fold_seed}")
    if cfg.window < 1:
        raise ExperimentConfigError(f"window must be >= 1, got {cfg.window}")
    if not math.isfinite(cfg.threshold):
        raise ExperimentConfigError(f"threshold must be a finite number, got {cfg.threshold!r}")
    try:
        cfg.extraction_config()
        cfg.trainer_config()
    except ValueError as exc:
        raise ExperimentConfigError(str(exc)) from None


def check_classes(classes: tuple[str, ...]) -> None:
    """Raise unless ``classes`` lists at least one word class, each known
    (A, V, N or ALL) and listed once."""
    if not classes:
        raise ExperimentConfigError("no word class is listed")
    for i, cls in enumerate(classes):
        if cls not in evaluation.WORD_CLASSES + ("ALL",):
            raise ExperimentConfigError(f"unknown word class {cls!r}")
        if cls in classes[:i]:
            raise ExperimentConfigError(f"word class {cls!r} is listed twice")


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


def fold_key(word_class: str, fold: int) -> str:
    """The fitness cache's name of fold ``fold`` (0 or 1) of ``word_class``, e.g. "A:0"."""
    return f"{word_class}:{fold}"


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


class Experiment:
    """Everything one experiment definition needs, lazily constructed."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        try:
            self.table = (
                extraction.BagMappingTable.default()
                if cfg.bag_table == "default"
                else extraction.BagMappingTable.from_file(cfg.bag_table)
            )
        except ValueError as exc:
            raise ExperimentConfigError(f"bag table {cfg.bag_table}: {exc}") from None
        # canonical -> (gold-pair cosines, training seconds no fitness record
        # has counted yet)
        self._trained: dict[str, tuple[np.ndarray | Exception, float]] = {}

    # -- fingerprints and directories --

    @cached_property
    def _corpus_hash(self) -> str:
        return _short_hash(["corpus"], list(self.cfg.corpus))

    def extraction_fingerprint(self, kind: str = "deps") -> str:
        """Hash of the corpus bytes and of the settings that ``kind``'s
        bags depend on (:meth:`_extraction`). The corpus is read once."""
        settings = self._extraction(kind)[2]
        return _short_hash(["extraction", kind, self._corpus_hash, *settings])

    def trainer_fingerprint(self) -> str:
        """Hash of the trainer settings and the SGD kernel's batch size."""
        settings = [_format_setting(v) for v in astuple(self.cfg.trainer_config())]
        parts = ["trainer", f"batch={sgns.BATCH_SIZE}", *settings]
        return _short_hash(parts)

    def fitness_scope(self) -> str:
        fingerprints = [self.extraction_fingerprint(), self.trainer_fingerprint()]
        parts = ["fitness", *fingerprints, str(self.cfg.fold_seed)]
        return _short_hash(parts, [self.cfg.dataset] if self.cfg.dataset else [])

    def bag_dir(self, kind: str = "deps") -> Path:
        """The cache directory of the dependency bags, or of the ``kind`` baseline."""
        return Path(self.cfg.cache_dir) / f"bags-{self.extraction_fingerprint(kind)}"

    @cached_property
    def fitness_cache(self) -> search.FitnessCache:
        return search.FitnessCache(Path(self.cfg.cache_dir) / f"fitness-{self.fitness_scope()}.tsv")

    @cached_property
    def dataset(self) -> evaluation.WordPairDataset:
        if not self.cfg.dataset:
            raise ExperimentConfigError("this command requires a dataset path")
        return evaluation.WordPairDataset.load(self.cfg.dataset)

    # -- extraction --

    def _extraction(self, kind: str):
        """``kind``'s extraction: the function from a sentence to its (bag,
        line) pairs, the bags it writes, and the formatted settings those bags
        depend on, which are the extraction settings and bag table for "deps"
        and the window for a BOW or POSIT kind. Another kind, or a window
        under 1, raises ValueError."""
        if kind == "deps":
            config = self.cfg.extraction_config()
            settings = [*map(_format_setting, astuple(config)), repr(sorted(self.table.rules))]
            pairs_of = partial(extraction.deps_pairs, self.table, config)
            return pairs_of, extraction.effective_bags(self.table, config), settings
        extraction.check_window(kind, self.cfg.window)
        pairs_of = partial(extraction.window_pairs, kind, self.cfg.window)
        return pairs_of, (kind,), [str(self.cfg.window)]

    def extract(self, kind: str = "deps", force: bool = False) -> extraction.Manifest:
        """The manifest of the dependency bags ("deps"), or of the BOW or
        POSIT baseline, one bag named ``kind``: from its bag directory when
        an up-to-date one is there and ``force`` is off, else from writing
        the directory afresh. The dependency bags' manifest is kept as
        :attr:`manifest`.

        The chunks are parsed and extracted in a :func:`workers.forked`
        block, whose tasks carry only their chunk; this process logs each
        chunk's skip warnings and writes its text, in corpus order, so the
        files are those of one process.
        """
        if not self.cfg.corpus:
            raise ExperimentConfigError("extract requires at least one corpus path")
        # a bad kind or window fails here, before any directory is named or made
        pairs_of, bags, _ = self._extraction(kind)
        fingerprint = self.extraction_fingerprint(kind)
        out = self.bag_dir(kind)
        manifest = None
        if not force and (out / extraction.MANIFEST_NAME).exists():
            try:
                manifest = extraction.Manifest.load(out)
            except RuntimeError:
                logger.warning("discarding partial extraction output in %s", out)
        if manifest is not None and manifest.meta.get("config_hash") == fingerprint:
            logger.info("extraction cache hit: %s", out)
        else:
            logger.info("extracting to %s", out)
            chunks = chain.from_iterable(map(conllu.read_chunks, self.cfg.corpus))
            with workers.forked(partial(_chunk_texts, pairs_of, bags)) as run:

                def texts():
                    for text, skipped in run((chunk,) for chunk in chunks):
                        for message in skipped:
                            conllu.logger.warning(message)
                        yield text

                manifest = extraction.write_bag_files(texts(), bags, out, fingerprint)
        if kind == "deps":
            self.manifest = manifest
        return manifest

    def extract_window_pairs(self, kind: str, force: bool = False) -> extraction.Manifest:
        """:meth:`extract` of a window kind, by the name the benchmark's
        extract-corpus workload calls and traces (perfbench/workloads.py)."""
        return self.extract(kind, force)

    @cached_property
    def manifest(self) -> extraction.Manifest:
        return self.extract()

    # -- training --

    def pair_stream(self, bags) -> extraction.PairStream:
        return extraction.PairStream(self.bag_dir(), bags, self.manifest)

    def train_configuration(
        self, config: search.Configuration
    ) -> tuple[np.ndarray | Exception, float]:
        """Train one configuration; returns the cosine of every gold pair, NaN
        where a word is out of vocabulary and everywhere when none is left,
        and the seconds it took. A failed training returns its exception in
        place of the cosines, which the fitness call that reads it raises."""
        start = time.perf_counter()
        try:
            store = sgns.train(self.pair_stream(config.bags), self.cfg.trainer_config())
        except sgns.VocabularyError as exc:
            logger.info("configuration %s cannot be trained: %s", config, exc)
            cosines = np.full(len(self.dataset), np.nan)
        except Exception as exc:
            cosines = exc
        else:
            cosines = evaluation.pair_cosines(store, self.dataset)
        return cosines, time.perf_counter() - start

    def prefetch(self, train, asks) -> None:
        """Train, largest first, the configurations of ``asks``, ((word
        class, fold), configuration) pairs, that have no fitness record on
        their fold and have not been trained yet, by ``train``: a
        :func:`workers.forked` run of :meth:`train_configuration`.

        The fitness calls that follow train none of them again, so every
        value is unchanged, and a failed training's fitness call raises its
        error, in tell order. If the workers fail, the fitness calls train
        what is left of this round in this process, and the next round
        forks new workers.
        """
        todo: dict[str, search.Configuration] = {}
        for fold, config in asks:
            if (
                config.canonical not in self._trained
                and self.fitness_cache.get(config.canonical, fold_key(*fold)) is None
            ):
                todo.setdefault(config.canonical, config)
        # largest first, so that no long training starts last
        configs = sorted(todo.values(), key=lambda c: self.manifest.total(c.bags), reverse=True)
        try:
            for config, trained in zip(configs, train((config,) for config in configs)):
                self._trained[config.canonical] = trained
        except Exception as exc:
            logger.warning("a round's workers failed: %r; this process trains the rest", exc)

    # -- fitness plumbing --

    def fitness_function(self, word_class: str, fold: int):
        """Config -> Spearman rho on fold ``fold`` (0 or 1) of ``word_class``'s
        2-fold split under ``fold_seed``, through the fitness cache.

        A configuration is trained once per experiment: by the
        :meth:`prefetch` of the search round that asked for it, else on its
        first fold, in this process. Untrainable or unscorable
        configurations come back as -inf so they lose to everything real
        instead of aborting the whole search.
        """
        indices = evaluation.split_folds(self.dataset, word_class, self.cfg.fold_seed)[fold]
        key = fold_key(word_class, fold)

        def fitness(config: search.Configuration) -> float:
            record = self.fitness_cache.get(config.canonical, key)
            if record is not None:
                return record.rho
            pair_count = self.manifest.total(config.bags)
            if config.canonical not in self._trained:
                self._trained[config.canonical] = self.train_configuration(config)
            # the training seconds count toward the first record only
            cosines, train_s = self._trained[config.canonical]
            if isinstance(cosines, Exception):
                raise cosines
            self._trained[config.canonical] = cosines, 0.0
            start = time.perf_counter()
            try:
                rho = evaluation.correlate(cosines, self.dataset, indices).rho
            except evaluation.UndefinedCorrelationError as exc:
                logger.info("configuration %s infeasible on %s: %s", config, key, exc)
                rho = INFEASIBLE
            wall = time.perf_counter() - start + train_s
            self.fitness_cache.put(config.canonical, key, rho, wall, pair_count)
            return rho

        return fitness

    # -- the search protocol --

    def _search_classes(self, classes, train) -> list[ClassSearchResult]:
        """Per-class protocol: 2-fold split, then per dev fold a pool build,
        descent and test score on the other fold; each fold is dev once.

        Every (class, dev fold) run advances together, in the rounds of
        :func:`search.run_rounds`: a round trains in one :meth:`prefetch`
        batch by ``train`` what all runs asked for, then each run is told the
        values of its asks on its dev fold and asks for more.
        """
        all_bags = sorted(self.manifest.counts)
        results, runs, dev_folds = [], [], []
        for word_class in classes:
            results.append(ClassSearchResult(word_class=word_class))
            logger.info(
                "class %s: fold seed %d, dev folds 0 and 1 (fixed for all search levels)",
                word_class, self.cfg.fold_seed,
            )
            for dev in (0, 1):
                steps = self._search_run(word_class, dev, all_bags)
                runs.append((steps, self.fitness_function(word_class, dev)))
                dev_folds.append((word_class, dev))

        def before_round(asks):
            self.prefetch(train, [(dev_folds[index], config) for index, config in asks])

        done = iter(search.run_rounds(runs, before_round))
        for result in results:
            result.runs = [next(done), next(done)]
            test_rhos = [run["test_rho"] for run in result.runs if run["best"] is not None]
            if test_rhos:
                result.mean_test_rho, _ = fold_mean(test_rhos)
        return results

    def _search_run(self, word_class, dev, all_bags):
        """One run: probe every bag on the dev fold, build the pool, search it
        and score the best on the test fold, ``1 - dev``; returns the run's
        summary.

        An ask-and-tell generator (see :func:`search.run_rounds`) whose asks
        are scored on the dev fold. The test score reuses the best's cosines
        from its dev score. An infeasible run's trace lists every probe as
        pool-excluded.
        """
        cfg = self.cfg
        # a 1-set's canonical form is its bag
        told = yield [search.Configuration.from_bags([bag]) for bag in all_bags]
        per_bag = {bag: told[bag] for bag in all_bags}
        run = dict(dev=dev, best=None, dev_rho=None, test_rho=None, per_bag_fitness=per_bag)
        pool = search.build_pool(per_bag, cfg.threshold)
        if not pool:
            logger.warning(
                "class %s fold %d: no bag reaches threshold %.3f",
                word_class, dev, cfg.threshold,
            )
            trace = search.probe_trace(per_bag)
        else:
            best, trace = yield from search.lattice_steps(cfg.strategy, pool, per_bag)
            run.update(
                best=best,
                dev_rho=next(entry.fitness for entry in trace if entry.status == "best"),
                test_rho=self.fitness_function(word_class, 1 - dev)(best),
            )
        trace_path = Path(cfg.out_dir) / f"trace_{word_class}_dev{dev}.tsv"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace.to_tsv(trace_path)
        return run

    def run_search(self) -> list[ClassSearchResult]:
        """Run the full protocol for every configured class and write the report."""
        self.extract()
        # loaded before the training workers fork, so that they inherit it
        self.dataset
        with workers.forked(self.train_configuration) as train:
            results = self._search_classes(self.cfg.classes, train)
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
            # every fold's record stores the configuration's manifest total
            pair_count = next(iter(by_fold.values())).pair_count
            wall = sum(rec.wall_time for rec in by_fold.values())
            rows.append(ReportRow(canonical, rhos, mean, complete, pair_count, wall))
        rows.sort(key=lambda r: (not r.complete, -r.mean_rho, r.configuration))
        return rows


def _chunk_texts(pairs_of, bags, chunk: tuple[bytes, int]):
    """One chunk of :func:`conllu.read_chunks`: its :func:`extraction.bag_texts`,
    and its skip warnings, logged by no one yet."""
    data, first_line = chunk
    skipped: list[str] = []
    sentences = conllu.parse_conllu(conllu.chunk_lines(data), first_line, skipped.append)
    return extraction.bag_texts(sentences, pairs_of, bags), skipped


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
