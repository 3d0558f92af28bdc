"""Searching the lattice of context-bag subsets for the best configuration.

The pool is the sorted tuple of bags whose standalone fitness reaches the
threshold (:func:`build_pool`); an empty pool means the run is infeasible.
The search is one walk, :func:`lattice_steps`: it starts from the full pool
and walks down the subset lattice one level at a time, asking for the
children of what the level above kept. The strategies differ only in which
children a level keeps: ``alg1`` (Algorithm 1, a conservative beam over a DAG
of configurations) keeps every child that scores at least as well as a
parent it came from, ``greedy`` only the best of those, and ``exhaustive``,
an oracle for small pools, every child.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Generator, Iterable, Iterator

from .extraction import CONJ_BAGS, CONJ_ROUTE

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 0.2
EXHAUSTIVE_GUARD = 12

@dataclass(frozen=True)
class Configuration:
    """A nonempty set of context-bag labels, identified by its canonical form."""

    bags: frozenset[str]

    def __post_init__(self):
        if not self.bags:
            raise ValueError("a configuration must contain at least one bag")

    @property
    def canonical(self) -> str:
        """Unique sorted "a+b+c" form, with conjlr+conjll merged to "conj"."""
        labels = set(self.bags)
        if labels.issuperset(CONJ_BAGS):
            labels.difference_update(CONJ_BAGS)
            labels.add(CONJ_ROUTE)
        return "+".join(sorted(labels))

    @property
    def size(self) -> int:
        return len(self.bags)

    def children(self) -> Iterator["Configuration"]:
        """All configurations one bag smaller, in deterministic order."""
        if self.size <= 1:
            return
        for bag in sorted(self.bags):
            yield Configuration(self.bags - {bag})

    @classmethod
    def from_bags(cls, bags: Iterable[str]) -> "Configuration":
        return cls(frozenset(bags))

    @classmethod
    def from_string(cls, canonical: str) -> "Configuration":
        labels = set(canonical.split("+"))
        if "" in labels:
            raise ValueError(f"empty bag label in configuration {canonical!r}")
        if CONJ_ROUTE in labels:
            labels.discard(CONJ_ROUTE)
            labels.update(CONJ_BAGS)
        return cls(frozenset(labels))

    def __str__(self) -> str:
        return self.canonical


def build_pool(
    per_bag_fitness: dict[str, float], threshold: float = DEFAULT_THRESHOLD
) -> tuple[str, ...]:
    """The bags whose standalone fitness reaches the threshold, sorted; ``()``
    when none does."""
    return tuple(sorted(b for b, v in per_bag_fitness.items() if v >= threshold))


@dataclass
class TraceEntry:
    canonical: str
    level: int
    fitness: float
    status: str
    origin: str | None = None


class SearchTrace:
    """Ordered log of evaluated configurations; no configuration repeats."""

    def __init__(self):
        self.entries: list[TraceEntry] = []
        self._by_canonical: dict[str, TraceEntry] = {}

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def record(
        self,
        config: Configuration,
        fitness: float,
        status: str,
        origin: str | None = None,
    ) -> TraceEntry:
        """Add a new entry, or restamp status/origin if the config reappears.

        A 1-set evaluated during pool construction may be revisited as a
        descent child; it keeps a single entry.
        """
        entry = self._by_canonical.get(config.canonical)
        if entry is None:
            entry = TraceEntry(config.canonical, config.size, fitness, status, origin)
            self.entries.append(entry)
            self._by_canonical[config.canonical] = entry
        else:
            entry.status = status
            entry.origin = origin
        return entry

    def to_tsv(self, path: str | Path) -> None:
        lines = ["configuration\tlevel\tfitness\tstatus\torigin"]
        for e in self.entries:
            lines.append(
                f"{e.canonical}\t{e.level}\t{e.fitness!r}\t{e.status}\t{e.origin or '-'}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class MemoizedFitness:
    """Memoizing wrapper so no configuration is ever evaluated twice per run."""

    def __init__(self, fn: Callable[[Configuration], float]):
        self._fn = fn
        self.cache: dict[str, float] = {}
        self.evaluations: list[str] = []

    def __call__(self, config: Configuration) -> float:
        key = config.canonical
        if key not in self.cache:
            try:
                value = float(self._fn(config))
            except Exception as exc:
                raise RuntimeError(f"fitness evaluation failed for {key}: {exc}") from exc
            self.cache[key] = value
            self.evaluations.append(key)
        return self.cache[key]


# The walk is a generator of asks (ask-and-tell, Collette et al. 2010, "On
# Object-Oriented Programming of Optimizers"). Each ask lists, once each, the
# configurations it needs values for next and that it has no value for yet.
# It is sent back their values by canonical form, by :func:`run_rounds`, and
# returns the best configuration and the trace.
Steps = Generator[list[Configuration], dict[str, float], tuple[Configuration, SearchTrace]]


def _ask(values: dict[str, float], configs: Iterable[Configuration]):
    """Ask for those of ``configs`` that have no value in ``values`` yet,
    then store the values sent back there; asks nothing when none is left."""
    todo: dict[str, Configuration] = {}
    for config in configs:
        if config.canonical not in values:
            todo.setdefault(config.canonical, config)
    if todo:
        told = yield list(todo.values())
        values.update((key, told[key]) for key in todo)


def probe_trace(per_bag_fitness: dict[str, float], pool: Iterable[str] = ()) -> SearchTrace:
    """A new trace of the per-bag probes, in bag order: "pool" for the bags
    of ``pool``, "pool-excluded" for the others."""
    pool = set(pool)
    trace = SearchTrace()
    for bag in sorted(per_bag_fitness):
        status = "pool" if bag in pool else "pool-excluded"
        trace.record(Configuration.from_bags([bag]), per_bag_fitness[bag], status)
    return trace


def _finish_search(trace: SearchTrace) -> tuple[Configuration, SearchTrace]:
    """Record the argmax over everything evaluated (pool-excluded 1-sets aside) as "best"."""
    candidates = [e for e in trace.entries if e.status != "pool-excluded"]
    best_entry = min(candidates, key=lambda e: (-e.fitness, e.level, e.canonical))
    best = Configuration.from_string(best_entry.canonical)
    trace.record(best, best_entry.fitness, "best", best_entry.origin)
    logger.info("search done: best %s (fitness %.4f)", best_entry.canonical, best_entry.fitness)
    return best, trace


STRATEGIES = ("alg1", "greedy", "exhaustive")


def lattice_steps(
    strategy: str, pool: tuple[str, ...], per_bag_fitness: dict[str, float]
) -> Steps:
    """Top-down walk over the subset lattice (Algorithm 1), keeping at each
    level the children that ``strategy`` keeps.

    Starting from the full pool configuration, each level asks, as one
    batch, for the children (origin minus one bag) of what the level above
    kept, deduplicated by canonical form. A child qualifies when its fitness
    is at least one of its origins'. ``alg1`` keeps every qualifying child,
    ``greedy`` the best of them alone (ties go to the earlier canonical form)
    and ``exhaustive`` every child, so it scores every subset of the pool;
    it refuses pools above EXHAUSTIVE_GUARD bags before its first ask. The
    walk stops at the first level that keeps no child. The returned best is
    the argmax over everything evaluated, the pool 1-sets included; ties
    break toward smaller, then lexicographically earlier configurations.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    K = len(pool)
    if strategy == "exhaustive" and K > EXHAUSTIVE_GUARD:
        raise ValueError(
            f"exhaustive search over K={K} means {2 ** K - 1} evaluations; "
            f"it is limited to pools of at most {EXHAUSTIVE_GUARD} bags: "
            "use strategy alg1 or greedy, or raise threshold"
        )
    # the values known before the walk, by canonical form: a 1-set's is its bag
    values, trace = dict(per_bag_fitness), probe_trace(per_bag_fitness, pool)

    root = Configuration.from_bags(pool)
    yield from _ask(values, [root])
    trace.record(root, values[root.canonical], "root")
    frontier = [root]
    level = root.size

    while level > 1 and frontier:
        edges: dict[str, tuple[Configuration, list[Configuration]]] = {}
        for origin in sorted(frontier, key=lambda c: c.canonical):
            for child in origin.children():
                key = child.canonical
                if key in edges:
                    edges[key][1].append(origin)
                else:
                    edges[key] = (child, [origin])
        keys = sorted(edges)
        yield from _ask(values, (edges[key][0] for key in keys))
        qualifying = {
            key: [o for o in origins if values[key] >= values[o.canonical]]
            for key, (_, origins) in edges.items()
        }
        kept = {key for key in keys if qualifying[key] or strategy == "exhaustive"}
        if strategy == "greedy" and kept:
            kept = {min(kept, key=lambda k: (-values[k], k))}
        for key in keys:
            child, origins = edges[key]
            status = "kept" if key in kept else "pruned"
            trace.record(child, values[key], status, (qualifying[key] or origins)[0].canonical)
        frontier = [edges[key][0] for key in kept]
        level -= 1

    return _finish_search(trace)


def run_rounds(runs, before_round=None) -> list:
    """Drive (ask-and-tell generator, fitness function) pairs together, in
    rounds; returns each generator's result, in the order of ``runs``.

    A round collects every unfinished run's ask, passes them to
    ``before_round`` as (run index, configuration) pairs, then tells each run,
    in run order, its ask's values through its fitness function, memoized. A
    failed evaluation raises RuntimeError naming the configuration.
    """
    memos = [fn if isinstance(fn, MemoizedFitness) else MemoizedFitness(fn) for _, fn in runs]
    results = [None] * len(runs)
    told = dict.fromkeys(range(len(runs)))
    while told:
        asks = {}
        for index, values in told.items():
            try:
                asks[index] = runs[index][0].send(values)
            except StopIteration as done:
                results[index] = done.value
        if before_round is not None and asks:
            before_round([(index, config) for index, ask in asks.items() for config in ask])
        told = {index: {c.canonical: memos[index](c) for c in ask} for index, ask in asks.items()}
    return results


@dataclass
class CacheRecord:
    rho: float
    wall_time: float
    pair_count: int


class FitnessCache:
    """Append-only persistent map (configuration canonical form, fold) -> rho.

    Records are write-once: a second put for an existing key is ignored, so
    reruns always see the original value. Wall time and pair count ride along
    for reporting.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: dict[tuple[str, str], CacheRecord] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        data = self.path.read_bytes()
        complete = data[: data.rfind(b"\n") + 1]
        if len(complete) < len(data):
            # a put killed mid-write; cut the torn record so the next append starts clean
            logger.warning(
                "%s: dropping unterminated last line %r", self.path, data[len(complete):]
            )
            with open(self.path, "r+b") as f:
                f.truncate(len(complete))
        for line_no, line in enumerate(complete.decode("utf-8").splitlines(), start=1):
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ValueError(f"{self.path}:{line_no}: expected 5 fields")
            canonical, fold, rho, wall, pairs = fields
            try:
                record = CacheRecord(float(rho), float(wall), int(pairs))
            except ValueError as exc:
                raise ValueError(f"{self.path}:{line_no}: {exc}") from None
            self._records.setdefault((canonical, fold), record)

    def get(self, canonical: str, fold: str) -> CacheRecord | None:
        return self._records.get((canonical, fold))

    def put(
        self, canonical: str, fold: str, rho: float, wall_time: float, pair_count: int
    ) -> CacheRecord:
        key = (canonical, fold)
        existing = self._records.get(key)
        if existing is not None:
            logger.debug("cache hit for %s/%s; keeping original record", canonical, fold)
            return existing
        record = CacheRecord(rho, wall_time, pair_count)
        self._records[key] = record
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(f"{canonical}\t{fold}\t{rho!r}\t{wall_time:.3f}\t{pair_count}\n")
        return record

    def records(self) -> dict[tuple[str, str], CacheRecord]:
        return dict(self._records)
