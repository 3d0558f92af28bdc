"""Experiment orchestration: cached extraction, training, search, reporting.

Every fitness evaluation is a full SGNS training run, so everything is keyed
by content hashes and cached on disk: bag files by extraction fingerprint,
trained vectors by configuration, fitness values by (configuration, fold).
Reports deliberately exclude wall-clock times so identical experiments
reproduce byte-identical report files; timings stay available in the fitness
cache and via the report command's timing switch.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from dataclasses import astuple, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

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
    collapse_prepositions: bool = extraction.ExtractionConfig.collapse_prepositions
    collapse_targets: tuple[str, ...] = extraction.ExtractionConfig.collapse_targets
    dim: int = sgns.TrainerConfig.dim
    negatives: int = sgns.TrainerConfig.negatives
    learning_rate: float = sgns.TrainerConfig.learning_rate
    subsample: float = sgns.TrainerConfig.subsample
    subsample_context: bool = sgns.TrainerConfig.subsample_context
    epochs: int = sgns.TrainerConfig.epochs
    min_count: int = sgns.TrainerConfig.min_count
    unigram_power: float = sgns.TrainerConfig.unigram_power
    seed: int = sgns.TrainerConfig.seed
    dataset: str = ""
    toefl: str = ""
    classes: tuple[str, ...] = ("A", "V", "N")
    strategy: str = "alg1"
    threshold: float = 0.2
    fold_seed: int = 7
    dev_fold: str = "per-fold"
    cache_dir: str = "cache"
    out_dir: str = "out"

    def extraction_config(self) -> extraction.ExtractionConfig:
        return self._component(extraction.ExtractionConfig)

    def trainer_config(self) -> sgns.TrainerConfig:
        return self._component(sgns.TrainerConfig)

    def _component(self, cls):
        """Build a component config from the experiment keys of the same names."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})


_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_value(name: str, kind, raw: str):
    if kind is bool:
        if raw.lower() not in _BOOL_VALUES:
            raise ExperimentConfigError(f"{name}: expected a boolean, got {raw!r}")
        return _BOOL_VALUES[raw.lower()]
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind is str:
        return raw
    # tuple[str, ...] fields use comma separation
    return tuple(part.strip() for part in raw.split(",") if part.strip())


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
        kind = known[key]
        type_map = {"int": int, "float": float, "bool": bool, "str": str}
        py_kind = type_map.get(kind, tuple) if isinstance(kind, str) else kind
        try:
            values[key] = _parse_value(key, py_kind, value)
        except (ValueError, TypeError) as exc:
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
    if cfg.dev_fold not in ("per-fold", "0", "1"):
        raise ExperimentConfigError("dev_fold must be per-fold, 0, or 1")
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


def format_float(x: float) -> str:
    if x == INFEASIBLE:
        return "-inf"
    return f"{x:.6f}"


@dataclass
class ReportRow:
    configuration: str
    fold_rhos: dict[str, float]
    mean_rho: float
    pair_count: int
    wall_time: float

    def fold_cell(self) -> str:
        return ";".join(f"{fold}={format_float(rho)}" for fold, rho in sorted(self.fold_rhos.items()))


@dataclass
class ClassSearchResult:
    word_class: str
    runs: list[dict] = field(default_factory=list)  # per-run summary
    mean_test_rho: float | None = None
    infeasible: bool = False


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

    # -- fingerprints and directories --

    def extraction_fingerprint(self) -> str:
        """Hash of the corpus bytes, extraction settings and bag table; computed once."""
        if self._extraction_fingerprint is None:
            settings = [_format_setting(v) for v in astuple(self.cfg.extraction_config())]
            parts = ["extraction", *settings, repr(sorted(self.table.rules))]
            self._extraction_fingerprint = _short_hash(parts, list(self.cfg.corpus))
        return self._extraction_fingerprint

    def trainer_fingerprint(self) -> str:
        parts = ["trainer"] + [_format_setting(v) for v in astuple(self.cfg.trainer_config())]
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
    def model_dir(self) -> Path:
        return Path(self.cfg.cache_dir) / f"models-{self.model_scope()}"

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

    def model_path(self, config: search.Configuration) -> Path:
        return self.model_dir / f"{config.canonical}.vec"

    def train_configuration(self, config: search.Configuration) -> sgns.EmbeddingStore:
        """Train (or load the cached) model for one configuration."""
        path = self.model_path(config)
        if path.exists():
            return sgns.load_embeddings(path)
        store = sgns.train(self.pair_stream(config.bags), self.cfg.trainer_config())
        self.model_dir.mkdir(parents=True, exist_ok=True)
        # a kill mid-write must not leave a truncated model under the cache name
        tmp = path.with_name(path.name + ".tmp")
        try:
            sgns.save_embeddings(store, tmp)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return store

    # -- fitness plumbing --

    def fold_id(self, word_class: str, fold_index: int) -> str:
        return f"{word_class}:{fold_index}"

    def fitness_function(self, word_class: str, fold_indices, fold_index: int):
        """Config -> Spearman rho on one fold, going through both caches.

        Untrainable or unscorable configurations come back as -inf so they
        lose to everything real instead of aborting the whole search.
        """
        fold = self.fold_id(word_class, fold_index)

        def fitness(config: search.Configuration) -> float:
            record = self.fitness_cache.get(config.canonical, fold)
            if record is not None:
                return record.rho
            pair_count = self.manifest.total(config.bags)
            start = time.perf_counter()
            try:
                store = self.train_configuration(config)
                rho = evaluation.evaluate(store, self.dataset, word_class, fold_indices).rho
            except (sgns.VocabularyError, evaluation.UndefinedCorrelationError) as exc:
                logger.info("configuration %s infeasible on %s: %s", config, fold, exc)
                rho = INFEASIBLE
            wall = time.perf_counter() - start
            self.fitness_cache.put(config.canonical, fold, rho, wall, pair_count)
            return rho

        return fitness

    # -- the search protocol --

    def search_class(self, word_class: str) -> ClassSearchResult:
        """Per-class protocol: 2-fold split, pool build, descent, test scores."""
        cfg = self.cfg
        folds = evaluation.split_folds(self.dataset, word_class, cfg.fold_seed)
        fold_indices = {0: folds.fold_a, 1: folds.fold_b}
        result = ClassSearchResult(word_class=word_class)
        if cfg.dev_fold == "per-fold":
            runs = [(0, 1), (1, 0)]
        else:
            dev = int(cfg.dev_fold)
            runs = [(dev, 1 - dev)]
        logger.info(
            "class %s: fold seed %d, mode %s, runs %s (dev fold fixed for all search levels)",
            word_class, cfg.fold_seed, cfg.dev_fold, runs,
        )

        strategy = search.strategy_functions()[cfg.strategy]
        all_bags = extraction.effective_bags(self.table, cfg.extraction_config())
        test_rhos = []
        for dev, test in runs:
            dev_fitness = self.fitness_function(word_class, fold_indices[dev], dev)
            memo = search.MemoizedFitness(dev_fitness)
            per_bag = {
                bag: memo(search.Configuration.from_bags([bag])) for bag in all_bags
            }
            run = dict(
                dev=dev, test=test, best=None, dev_rho=None, test_rho=None, per_bag_fitness=per_bag
            )
            result.runs.append(run)
            try:
                space = search.build_pool(per_bag, cfg.threshold, all_bags)
            except search.SearchInfeasibleError:
                logger.warning(
                    "class %s fold %d: no bag reaches threshold %.3f",
                    word_class, dev, cfg.threshold,
                )
                result.infeasible = True
                continue
            best, trace = strategy(space, memo)
            dev_rho = memo(best)
            test_fitness = self.fitness_function(word_class, fold_indices[test], test)
            test_rho = test_fitness(best)
            test_rhos.append(test_rho)
            trace_path = Path(cfg.out_dir) / f"trace_{word_class}_dev{dev}.tsv"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace.to_tsv(trace_path)
            run.update(
                best=best, dev_rho=dev_rho, test_rho=test_rho, pool=space.pool, visited=len(trace)
            )
        if test_rhos:
            result.mean_test_rho = sum(test_rhos) / len(test_rhos)
        return result

    def run_search(self) -> list[ClassSearchResult]:
        """Run the full protocol for every configured class and write the report."""
        self.extract()
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
        """One row per cached configuration, score-descending, ties by name."""
        grouped: dict[str, dict[str, search.CacheRecord]] = {}
        for (canonical, fold), record in self.fitness_cache.records().items():
            grouped.setdefault(canonical, {})[fold] = record
        rows = []
        for canonical, by_fold in grouped.items():
            rhos = {fold: rec.rho for fold, rec in by_fold.items()}
            finite = [r for r in rhos.values() if r != INFEASIBLE]
            mean = sum(finite) / len(finite) if finite else INFEASIBLE
            config = search.Configuration.from_string(canonical)
            try:
                pair_count = self.manifest.total(config.bags)
            except KeyError:
                pair_count = -1
            wall = sum(rec.wall_time for rec in by_fold.values())
            rows.append(ReportRow(canonical, rhos, mean, pair_count, wall))
        rows.sort(key=lambda r: (-r.mean_rho, r.configuration))
        return rows


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
