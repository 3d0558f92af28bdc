"""Searching the lattice of context-bag subsets for the best configuration.

The search starts from the full candidate pool and walks down the subset
lattice, keeping every child that scores at least as well as the parent it
came from (a conservative beam over a DAG of configurations). A greedy
variant keeps only the single best child per level, and an exhaustive oracle
enumerates every nonempty subset for small pools.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 0.2
EXHAUSTIVE_GUARD = 12

# conjlr and conjll are distinct pool members, but a configuration holding
# both reports them as the single merged label below.
CONJ_PAIR = frozenset(("conjlr", "conjll"))
CONJ_MERGED = "conj"


class SearchInfeasibleError(RuntimeError):
    """No bag reaches the pool threshold; carries the per-bag fitness table."""

    def __init__(self, per_bag_fitness: dict[str, float], threshold: float):
        self.per_bag_fitness = dict(per_bag_fitness)
        self.threshold = threshold
        table = ", ".join(f"{b}={v:.3f}" for b, v in sorted(per_bag_fitness.items()))
        super().__init__(f"no context bag reaches fitness threshold {threshold}: {table}")


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
        if CONJ_PAIR <= labels:
            labels -= CONJ_PAIR
            labels.add(CONJ_MERGED)
        return "+".join(sorted(labels))

    @property
    def size(self) -> int:
        return len(self.bags)

    def sort_key(self) -> tuple[int, str]:
        return (self.size, self.canonical)

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
        if CONJ_MERGED in labels:
            labels.discard(CONJ_MERGED)
            labels |= CONJ_PAIR
        return cls(frozenset(labels))

    def __str__(self) -> str:
        return self.canonical


@dataclass(frozen=True)
class ConfigurationSpace:
    """The full bag inventory, the threshold-passing pool, and its fitnesses."""

    all_bags: tuple[str, ...]
    pool: tuple[str, ...]
    threshold: float = DEFAULT_THRESHOLD
    per_bag_fitness: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.pool) - set(self.all_bags)
        if unknown:
            raise ValueError(f"pool bags not in all_bags: {sorted(unknown)}")

    @property
    def M(self) -> int:
        return len(self.all_bags)

    @property
    def K(self) -> int:
        return len(self.pool)


def build_pool(
    per_bag_fitness: dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
    all_bags: Iterable[str] | None = None,
) -> ConfigurationSpace:
    """Keep the bags whose standalone fitness reaches the threshold.

    Every bag needs a fitness value (one 1-set evaluation each); an empty
    pool raises :class:`SearchInfeasibleError` carrying the full table.
    """
    bags = tuple(sorted(all_bags)) if all_bags is not None else tuple(sorted(per_bag_fitness))
    missing = [b for b in bags if b not in per_bag_fitness]
    if missing:
        raise KeyError(f"missing per-bag fitness for: {', '.join(missing)}")
    pool = tuple(b for b in bags if per_bag_fitness[b] >= threshold)
    if not pool:
        raise SearchInfeasibleError(per_bag_fitness, threshold)
    return ConfigurationSpace(
        all_bags=bags,
        pool=pool,
        threshold=threshold,
        per_bag_fitness={b: per_bag_fitness[b] for b in bags},
    )


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

    def __len__(self) -> int:
        return len(self.entries)

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

    def seed(self, config: Configuration, fitness: float) -> None:
        self.cache.setdefault(config.canonical, fitness)

    def prefetch(self, configs: Iterable[Configuration]) -> None:
        """Announce configurations about to be evaluated, so that a fitness
        function with a ``prefetch`` of its own can prepare the ones not
        memoised yet in one batch. Values are the same either way."""
        prefetch = getattr(self._fn, "prefetch", None)
        if prefetch is not None:
            prefetch([c for c in configs if c.canonical not in self.cache])

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


def _start_search(space: ConfigurationSpace, fitness_fn) -> tuple[MemoizedFitness, SearchTrace]:
    """Memoize the fitness, then log the per-bag evaluations behind the pool in a new trace."""
    memo = fitness_fn if isinstance(fitness_fn, MemoizedFitness) else MemoizedFitness(fitness_fn)
    trace = SearchTrace()
    pool = set(space.pool)
    for bag in space.all_bags:
        single = Configuration.from_bags([bag])
        if bag in space.per_bag_fitness:
            memo.seed(single, space.per_bag_fitness[bag])
        if bag in pool:
            trace.record(single, memo(single), "pool")
        elif bag in space.per_bag_fitness:
            trace.record(single, space.per_bag_fitness[bag], "pool-excluded")
    return memo, trace


def _finish_search(trace: SearchTrace) -> tuple[Configuration, SearchTrace]:
    """Record the argmax over everything evaluated (pool-excluded 1-sets aside) as "best"."""
    candidates = [e for e in trace.entries if e.status != "pool-excluded"]
    best_entry = min(candidates, key=lambda e: (-e.fitness, e.level, e.canonical))
    best = Configuration.from_string(best_entry.canonical)
    trace.record(best, best_entry.fitness, "best", best_entry.origin)
    logger.info("search done: best %s (fitness %.4f)", best_entry.canonical, best_entry.fitness)
    return best, trace


def best_configuration_search(
    space: ConfigurationSpace, fitness_fn
) -> tuple[Configuration, SearchTrace]:
    """Conservative top-down beam over the subset lattice (Algorithm 1).

    Starting from the full pool configuration, each level keeps every child
    (origin minus one bag) whose fitness is at least its origin's; children
    are deduplicated by canonical form before evaluation. The descent stops
    at the first level that keeps no child. The returned best is the argmax
    over everything evaluated, the pool 1-sets included; ties break toward
    smaller, then lexicographically earlier configurations.
    """
    memo, trace = _start_search(space, fitness_fn)

    root = Configuration.from_bags(space.pool)
    trace.record(root, memo(root), "root")
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
        memo.prefetch(edges[key][0] for key in sorted(edges))
        next_frontier = []
        for key in sorted(edges):
            child, origins = edges[key]
            child_fitness = memo(child)
            qualifying = [o for o in origins if child_fitness >= memo(o)]
            if qualifying:
                trace.record(child, child_fitness, "kept", qualifying[0].canonical)
                next_frontier.append(child)
            else:
                trace.record(child, child_fitness, "pruned", origins[0].canonical)
        frontier = next_frontier
        level -= 1

    return _finish_search(trace)


def greedy_search(
    space: ConfigurationSpace, fitness_fn
) -> tuple[Configuration, SearchTrace]:
    """Like the beam descent, but at most one configuration survives per level."""
    memo, trace = _start_search(space, fitness_fn)

    current = Configuration.from_bags(space.pool)
    trace.record(current, memo(current), "root")

    while current.size > 1:
        current_fitness = memo(current)
        memo.prefetch(current.children())
        scored = [(child, memo(child)) for child in current.children()]
        best_child, best_fitness = min(scored, key=lambda it: (-it[1], it[0].sort_key()))
        for child, child_fitness in scored:
            if child is best_child and child_fitness >= current_fitness:
                trace.record(child, child_fitness, "kept", current.canonical)
            else:
                trace.record(child, child_fitness, "pruned", current.canonical)
        if best_fitness < current_fitness:
            break
        current = best_child

    return _finish_search(trace)


def exhaustive_search(
    space: ConfigurationSpace, fitness_fn
) -> tuple[Configuration, SearchTrace]:
    """Evaluate every nonempty subset of the pool; the true optimum.

    Pools above EXHAUSTIVE_GUARD bags raise ValueError before any evaluation.
    """
    if space.K > EXHAUSTIVE_GUARD:
        raise ValueError(
            f"exhaustive search over K={space.K} means {2 ** space.K - 1} evaluations; "
            f"it is limited to pools of at most {EXHAUSTIVE_GUARD} bags: "
            "use strategy alg1 or greedy, or raise threshold"
        )
    memo, trace = _start_search(space, fitness_fn)
    pool = sorted(space.pool)
    for size in range(1, len(pool) + 1):
        configs = [Configuration.from_bags(c) for c in itertools.combinations(pool, size)]
        memo.prefetch(configs)
        for config in configs:
            trace.record(config, memo(config), "visited")
    return _finish_search(trace)


def strategy_functions() -> dict[str, Callable]:
    """Strategy name -> search function.

    The functions are looked up at call time, so a search function replaced
    on this module (say, by a tracing wrapper) is the one that runs.
    """
    return {
        "alg1": best_configuration_search,
        "greedy": greedy_search,
        "exhaustive": exhaustive_search,
    }


STRATEGIES = tuple(strategy_functions())


def count_space(M: int, K: int) -> int:
    """Configurations the full protocol considers: every pool subset plus the
    non-pool 1-sets that still needed a probe evaluation."""
    if not 0 <= K <= M:
        raise ValueError(f"need 0 <= K <= M, got M={M}, K={K}")
    return (2**K - 1) + (M - K)


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
            self._records.setdefault(
                (canonical, fold), CacheRecord(float(rho), float(wall), int(pairs))
            )

    def __len__(self) -> int:
        return len(self._records)

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
