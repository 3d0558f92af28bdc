import itertools
import re

import numpy as np
import pytest

from conftest import count_space
from depctx.search import (
    Configuration,
    FitnessCache,
    MemoizedFitness,
    _ask,
    _finish_search,
    build_pool,
    lattice_steps,
    probe_trace,
    run_rounds,
)

ALL_13 = (
    "acl", "adv", "amod", "appos", "comp", "compound", "conjll",
    "conjlr", "nmod", "nummod", "obj", "prep", "subj",
)

# Published per-bag dev fitness for verbs where available; the other bags get
# values consistent with the published verb pool membership.
VERB_BAG_FITNESS = {
    "conjlr": 0.281,
    "obj": 0.309,
    "prep": 0.344,
    "amod": 0.058,
    "compound": -0.019,
    "adv": 0.342,
    "nummod": -0.065,
    "acl": 0.25,
    "comp": 0.22,
    "conjll": 0.27,
    "subj": 0.18,
    "appos": 0.05,
    "nmod": 0.15,
}

# Adjective walkthrough: three-bag pool, the full pool configuration wins.
ADJ_FITNESS = {
    "amod": 0.479,
    "conjlr": 0.415,
    "conjll": 0.42,
    "amod+conj": 0.546,
    "amod+conjlr": 0.527,
    "amod+conjll": 0.531,
    "conj": 0.470,
}


def dict_fitness(table):
    def fn(config: Configuration) -> float:
        return table[config.canonical]

    return fn


class CountingFitness:
    def __init__(self, table):
        self.table = dict(table)
        self.calls = []

    def __call__(self, config):
        self.calls.append(config.canonical)
        return self.table[config.canonical]


def run_alone(strategy, pool, per_bag, fitness_fn):
    """Drive one strategy's walk alone through run_rounds; returns (best, trace)."""
    return run_rounds([(lattice_steps(strategy, pool, per_bag), fitness_fn)])[0]


def adjective_space():
    """The adjective pool and its per-bag fitness table."""
    per_bag = {k: ADJ_FITNESS[k] for k in ("amod", "conjlr", "conjll")}
    return build_pool(per_bag, threshold=0.2), per_bag


# -- Configuration --


def test_configuration_canonical_sorts_and_merges_conj():
    c = Configuration.from_bags(["conjll", "amod", "conjlr"])
    assert c.canonical == "amod+conj"
    assert Configuration.from_bags(["conjlr", "amod"]).canonical == "amod+conjlr"
    assert Configuration.from_bags(["conjll", "conjlr"]).canonical == "conj"


def test_configuration_from_string_round_trip():
    for bags in (["amod"], ["amod", "conjlr"], ["conjlr", "conjll", "obj"]):
        c = Configuration.from_bags(bags)
        assert Configuration.from_string(c.canonical) == c


def test_configuration_rejects_empty():
    with pytest.raises(ValueError):
        Configuration(frozenset())


@pytest.mark.parametrize("text", ["", "amod+", "+amod", "amod++obj"])
def test_configuration_from_string_rejects_an_empty_label(text):
    with pytest.raises(ValueError, match="empty bag label"):
        Configuration.from_string(text)


def test_configuration_children():
    c = Configuration.from_bags(["a", "b", "c"])
    kids = {k.canonical for k in c.children()}
    assert kids == {"a+b", "a+c", "b+c"}
    assert list(Configuration.from_bags(["a"]).children()) == []


# -- pool construction --


def test_verb_pool_from_published_fitness():
    pool = build_pool(VERB_BAG_FITNESS, threshold=0.2)
    assert pool == ("acl", "adv", "comp", "conjll", "conjlr", "obj", "prep")
    for bag in ("amod", "compound", "nummod", "subj", "appos", "nmod"):
        assert bag not in pool
    assert len(pool) == 7


def test_pool_all_below_threshold_is_infeasible():
    per_bag = {"obj": 0.05, "amod": 0.1}
    assert build_pool(per_bag, threshold=0.2) == ()
    trace = probe_trace(per_bag)
    assert [(e.canonical, e.level, e.fitness, e.status) for e in trace] == [
        ("amod", 1, 0.1, "pool-excluded"),
        ("obj", 1, 0.05, "pool-excluded"),
    ]


def test_pool_threshold_minus_one_keeps_everything():
    assert build_pool(VERB_BAG_FITNESS, threshold=-1.0) == ALL_13


# -- Algorithm-1 style search --


def test_adjective_walkthrough_returns_pool_all():
    fitness = CountingFitness(ADJ_FITNESS)
    best, trace = run_alone("alg1", *adjective_space(), fitness)
    assert best.canonical == "amod+conj"
    level2 = [e for e in trace if e.level == 2]
    assert len(level2) == 3
    assert all(e.status == "pruned" for e in level2)
    # 1-sets come from the pool phase; the search itself evaluates the root
    # and exactly the 3 level-2 children, then stops
    assert sorted(fitness.calls) == sorted(["amod+conj", "amod+conjlr", "amod+conjll", "conj"])


def test_k_equals_one_returns_single_set_immediately():
    per_bag = {"amod": 0.5, "obj": 0.1}
    pool = build_pool(per_bag, threshold=0.2)
    fitness = CountingFitness({"amod": 0.5})
    best, trace = run_alone("alg1", pool, per_bag, fitness)
    assert best.canonical == "amod"
    assert fitness.calls == []  # seeded from pool construction


def test_additive_fitness_returns_pool_and_visits_k_children():
    weights = {"a": 0.5, "b": 0.4, "c": 0.3, "d": 0.25, "e": 0.1, "f": 0.05}

    def additive(config):
        return sum(weights[b] for b in config.bags)

    per_bag = {b: additive(Configuration.from_bags([b])) for b in weights}
    pool = build_pool(per_bag, threshold=0.2)
    assert len(pool) == 4
    memo = MemoizedFitness(additive)
    best, trace = run_alone("alg1", pool, per_bag, memo)
    assert best.canonical == "a+b+c+d"
    children = [e for e in trace if e.level == len(pool) - 1]
    assert len(children) == len(pool)
    assert all(e.status == "pruned" for e in children)
    # unique evaluations: M one-sets (all seeded? no: here pool phase provided
    # per-bag values, so the search evaluated root + K children only)
    assert sorted(memo.evaluations) == sorted(
        ["a+b+c+d"] + [e.canonical for e in children]
    )


def test_argmax_includes_pool_one_sets():
    # every multi-bag configuration is worse than the best single bag
    table = {
        "a": 0.6,
        "b": 0.3,
        "a+b": 0.2,
    }
    per_bag = {"a": 0.6, "b": 0.3}
    best, trace = run_alone("alg1", build_pool(per_bag, 0.2), per_bag, dict_fitness(table))
    assert best.canonical == "a"
    statuses = {e.canonical: e.status for e in trace}
    assert statuses["a"] == "best"


def test_tie_breaks_to_smaller_then_lexicographic():
    table = {
        "a": 0.5,
        "b": 0.5,
        "a+b": 0.5,
    }
    per_bag = {"a": 0.5, "b": 0.5}
    best, _ = run_alone("alg1", build_pool(per_bag, 0.2), per_bag, dict_fitness(table))
    assert best.canonical == "a"


def test_frontier_deduplicates_shared_children():
    # both 2-set children of the root keep the shared 1-set child "b";
    # it must be evaluated exactly once
    table = {
        "a": 0.25,
        "b": 0.3,
        "c": 0.25,
        "a+b+c": 0.4,
        "a+b": 0.45,
        "b+c": 0.45,
        "a+c": 0.1,
    }
    counting = CountingFitness(table)
    per_bag = {k: table[k] for k in "abc"}
    best, trace = run_alone("alg1", build_pool(per_bag, 0.2), per_bag, counting)
    assert counting.calls.count("b") <= 1
    assert len(counting.calls) == len(set(counting.calls))
    canonicals = [e.canonical for e in trace]
    assert len(canonicals) == len(set(canonicals))


def test_kept_children_satisfy_line_11_predicate():
    rng = np.random.default_rng(7)
    bags = list("abcdef")
    for _ in range(30):
        table = {}
        for size in range(1, len(bags) + 1):
            for combo in itertools.combinations(bags, size):
                table[Configuration.from_bags(combo).canonical] = float(rng.random())
        per_bag = {b: table[b] for b in bags}
        pool = build_pool(per_bag, threshold=-1.0)
        memo = MemoizedFitness(dict_fitness(table))
        best, trace = run_alone("alg1", pool, per_bag, memo)
        for entry in trace:
            if entry.status == "kept":
                assert entry.origin is not None
                assert entry.fitness >= table[entry.origin]
        # nothing evaluated twice
        assert len(memo.evaluations) == len(set(memo.evaluations))
        # the winner dominates the root and every pool 1-set
        root = Configuration.from_bags(pool)
        assert table[best.canonical] >= table[root.canonical]
        assert table[best.canonical] >= max(per_bag.values())


def test_failed_evaluations_poison_descent_but_not_search():
    table = {
        "a": 0.5,
        "b": 0.4,
        "a+b": float("-inf"),  # e.g. untrainable configuration
    }
    per_bag = {"a": 0.5, "b": 0.4}
    best, trace = run_alone("alg1", build_pool(per_bag, 0.2), per_bag, dict_fitness(table))
    assert best.canonical == "a"


def test_fitness_failure_names_configuration():
    def explode(config):
        raise RuntimeError("boom")

    per_bag = {"a": 0.5, "b": 0.4}
    with pytest.raises(RuntimeError, match="a\\+b"):
        run_alone("alg1", build_pool(per_bag, 0.2), per_bag, explode)


# -- greedy variant --


def test_greedy_matches_alg1_on_adjective_fixture():
    fitness = CountingFitness(ADJ_FITNESS)
    best, trace = run_alone("greedy", *adjective_space(), fitness)
    assert best.canonical == "amod+conj"
    level2 = [e for e in trace if e.level == 2]
    assert len(level2) == 3


GREEDY_TRAP = {
    # greedy follows abd (best 3-set) and stops at 0.48; the beam also keeps
    # abc, whose child a+c hides the real optimum
    "a": 0.25, "b": 0.22, "c": 0.21, "d": 0.2,
    "a+b+c+d": 0.40,
    "a+b+c": 0.45, "a+b+d": 0.48, "a+c+d": 0.1, "b+c+d": 0.1,
    "a+b": 0.3, "a+c": 0.7, "a+d": 0.3, "b+c": 0.3, "b+d": 0.3, "c+d": 0.1,
}


def test_greedy_strictly_worse_on_trap_landscape():
    per_bag = {b: GREEDY_TRAP[b] for b in "abcd"}
    pool = build_pool(per_bag, threshold=0.2)
    fitness = dict_fitness(GREEDY_TRAP)
    alg1_best, _ = run_alone("alg1", pool, per_bag, fitness)
    greedy_best, _ = run_alone("greedy", pool, per_bag, fitness)
    assert GREEDY_TRAP[alg1_best.canonical] == 0.7
    assert GREEDY_TRAP[greedy_best.canonical] == 0.48
    assert GREEDY_TRAP[greedy_best.canonical] < GREEDY_TRAP[alg1_best.canonical]


def test_greedy_k_equals_one():
    per_bag = {"a": 0.5, "b": 0.1}
    best, _ = run_alone("greedy", build_pool(per_bag, 0.2), per_bag, dict_fitness({"a": 0.5}))
    assert best.canonical == "a"


# -- exhaustive oracle --


def test_exhaustive_k3_evaluates_7_subsets():
    memo = MemoizedFitness(dict_fitness(ADJ_FITNESS))
    best, trace = run_alone("exhaustive", *adjective_space(), memo)
    assert best.canonical == "amod+conj"
    subsets = {e.canonical for e in trace}
    assert len(subsets) == 7
    # pool 1-sets were seeded, so only the 4 multi-bag subsets cost a call
    assert len(memo.evaluations) == 4


def test_exhaustive_k10_counts_1023():
    bags = [f"b{i:02d}" for i in range(10)]
    rng = np.random.default_rng(0)
    values = {}

    def fitness(config):
        return values.setdefault(config.canonical, float(rng.random()))

    per_bag = {b: 0.5 for b in bags}
    pool = build_pool(per_bag, threshold=0.2)
    memo = MemoizedFitness(fitness)
    _, trace = run_alone("exhaustive", pool, per_bag, memo)
    assert len({e.canonical for e in trace}) == 1023


def test_exhaustive_guard():
    bags = [f"b{i:02d}" for i in range(13)]
    per_bag = {b: 0.5 for b in bags}
    with pytest.raises(ValueError, match="at most 12 bags"):
        run_alone("exhaustive", build_pool(per_bag, 0.2), per_bag, dict_fitness({}))


def test_an_unknown_strategy_is_refused_before_the_first_ask():
    with pytest.raises(ValueError, match="unknown strategy 'beam'"):
        run_alone("beam", *adjective_space(), dict_fitness({}))


def test_exhaustive_dominates_alg1_on_random_landscapes():
    rng = np.random.default_rng(1234)
    strict = 0
    for _ in range(60):
        k = int(rng.integers(2, 7))
        bags = [f"b{i}" for i in range(k)]
        table = {}
        for size in range(1, k + 1):
            for combo in itertools.combinations(bags, size):
                table[Configuration.from_bags(combo).canonical] = float(rng.random())
        per_bag = {b: table[b] for b in bags}
        pool = build_pool(per_bag, threshold=-1.0)
        fitness = dict_fitness(table)
        exh_best, _ = run_alone("exhaustive", pool, per_bag, fitness)
        alg1_best, _ = run_alone("alg1", pool, per_bag, fitness)
        greedy_best, _ = run_alone("greedy", pool, per_bag, fitness)
        assert table[exh_best.canonical] >= table[alg1_best.canonical]
        assert table[alg1_best.canonical] >= table[greedy_best.canonical]
        strict += table[exh_best.canonical] > table[alg1_best.canonical]
    assert strict >= 1  # the beam is not guaranteed to be globally optimal


def random_landscape(rng, ties=False):
    """Bags and a fitness table over all their subsets; with ``ties``, the
    values are drawn from four levels, so many are equal."""
    k = int(rng.integers(2, 6))
    bags = [f"b{i}" for i in range(k)]
    table = {}
    for size in range(1, k + 1):
        for combo in itertools.combinations(bags, size):
            value = int(rng.integers(0, 4)) / 4 if ties else float(rng.random())
            table[Configuration.from_bags(combo).canonical] = value
    return bags, table


def tell_table(steps, table, asks):
    """Advance ``steps`` by one ask, told from ``table``; logs the ask in
    ``asks`` and returns the result once the strategy ends, else None."""
    try:
        asked = steps.send({c.canonical: table[c.canonical] for c in asks[-1]} if asks else None)
    except StopIteration as done:
        return done.value
    asks.append(asked)
    return None


def as_rows(result):
    best, trace = result
    return best.canonical, [vars(entry) for entry in trace]


@pytest.mark.parametrize("strategy", ["alg1", "greedy", "exhaustive"])
def test_strategies_ask_each_configuration_once_and_interleave_like_alone(strategy):
    rng = np.random.default_rng(99)
    for _ in range(30):
        bags, table = random_landscape(rng)
        # one bag's fitness as the threshold keeps that bag and may leave others out
        per_bag = {b: table[b] for b in bags}
        pool = build_pool(per_bag, threshold=table[rng.choice(bags)])
        other_bags, other_table = random_landscape(rng)
        other_per_bag = {b: other_table[b] for b in other_bags}
        other_pool = build_pool(other_per_bag, threshold=-1.0)

        asks, other_asks = [], []
        mine = lattice_steps(strategy, pool, per_bag)
        other = lattice_steps("alg1", other_pool, other_per_bag)
        result = other_result = None
        while result is None or other_result is None:
            if result is None:
                result = tell_table(mine, table, asks)
            if other_result is None:
                other_result = tell_table(other, other_table, other_asks)

        answered = set(per_bag)
        for asked in asks:
            keys = [c.canonical for c in asked]
            assert asked and len(keys) == len(set(keys)), "an ask repeats a configuration"
            assert not answered & set(keys), "an ask holds a configuration with a value"
            answered |= set(keys)
        # every asked configuration enters the trace with its value
        logged = {entry.canonical: entry.fitness for entry in result[1]}
        assert all(logged[key] == table[key] for key in answered)
        # driven alone, the search evaluates exactly what it asked for
        memo = MemoizedFitness(dict_fitness(table))
        assert as_rows(result) == as_rows(run_alone(strategy, pool, per_bag, memo))
        assert sorted(memo.evaluations) == sorted(answered - set(per_bag))
        assert as_rows(other_result) == as_rows(
            run_alone("alg1", other_pool, other_per_bag, dict_fitness(other_table))
        )


# -- the walk against separate greedy and exhaustive searches --


def greedy_oracle(pool, per_bag_fitness):
    """A separate greedy descent: each level asks for the children of the one
    current configuration and moves to the best of them, ties to the earlier
    canonical form, while it scores at least the current one's value."""
    values, trace = dict(per_bag_fitness), probe_trace(per_bag_fitness, pool)
    current = Configuration.from_bags(pool)
    yield from _ask(values, [current])
    trace.record(current, values[current.canonical], "root")
    while current.size > 1:
        current_fitness = values[current.canonical]
        children = list(current.children())
        yield from _ask(values, children)
        scored = [(child, values[child.canonical]) for child in children]
        best_child, best_fitness = min(scored, key=lambda it: (-it[1], it[0].canonical))
        for child, child_fitness in scored:
            if child is best_child and child_fitness >= current_fitness:
                trace.record(child, child_fitness, "kept", current.canonical)
            else:
                trace.record(child, child_fitness, "pruned", current.canonical)
        if best_fitness < current_fitness:
            break
        current = best_child
    return _finish_search(trace)


def exhaustive_oracle(pool, per_bag_fitness):
    """A separate bottom-up enumeration: every nonempty subset of the pool,
    one size per ask."""
    values, trace = dict(per_bag_fitness), probe_trace(per_bag_fitness, pool)
    for size in range(1, len(pool) + 1):
        configs = [Configuration.from_bags(c) for c in itertools.combinations(pool, size)]
        yield from _ask(values, configs)
        for config in configs:
            trace.record(config, values[config.canonical], "visited")
    return _finish_search(trace)


@pytest.mark.parametrize(
    "strategy, oracle", [("greedy", greedy_oracle), ("exhaustive", exhaustive_oracle)]
)
def test_walk_matches_a_separate_search_on_landscapes_with_ties(strategy, oracle):
    rng = np.random.default_rng(30)
    for _ in range(200):
        bags, table = random_landscape(rng, ties=True)
        per_bag = {b: table[b] for b in bags}
        pool = build_pool(per_bag, threshold=table[rng.choice(bags)])
        walk_memo = MemoizedFitness(dict_fitness(table))
        oracle_memo = MemoizedFitness(dict_fitness(table))
        best, trace = run_alone(strategy, pool, per_bag, walk_memo)
        oracle_best, oracle_trace = run_rounds([(oracle(pool, per_bag), oracle_memo)])[0]
        assert best == oracle_best
        assert sorted(walk_memo.evaluations) == sorted(oracle_memo.evaluations)
        assert {(e.canonical, e.fitness) for e in trace} == {
            (e.canonical, e.fitness) for e in oracle_trace
        }
        if strategy == "greedy":
            # the same rows, in canonical order within a level
            assert sorted(map(repr, trace)) == sorted(map(repr, oracle_trace))


# -- run_rounds --


def random_runs(rng, n):
    """``n`` (strategy, (pool, per-bag table), table) triples over random landscapes."""
    runs = []
    for strategy in rng.choice(["alg1", "greedy", "exhaustive"], n):
        bags, table = random_landscape(rng)
        per_bag = {b: table[b] for b in bags}
        space = (build_pool(per_bag, threshold=table[rng.choice(bags)]), per_bag)
        runs.append((strategy, space, table))
    return runs


def test_run_rounds_tells_runs_together_what_they_get_alone():
    rng = np.random.default_rng(5)
    for _ in range(20):
        runs = random_runs(rng, int(rng.integers(2, 5)))
        events = []

        def logged(index, table):
            def fn(config):
                events.append((index, config.canonical))
                return table[config.canonical]

            return fn

        together = [
            (lattice_steps(strategy, *space), logged(i, table))
            for i, (strategy, space, table) in enumerate(runs)
        ]
        results = run_rounds(together, lambda a: events.append([(i, c.canonical) for i, c in a]))
        rounds = [event for event in events if isinstance(event, list)]
        for index, ((strategy, space, table), result) in enumerate(zip(runs, results)):
            steps, asks, alone = lattice_steps(strategy, *space), [], None
            while alone is None:
                alone = tell_table(steps, table, asks)
            assert as_rows(result) == as_rows(alone)
            # its asks reach before_round in the rounds it made them in, and no later
            mine = [[c for i, c in asked if i == index] for asked in rounds]
            empty = [[]] * (len(rounds) - len(asks))
            assert mine == [[c.canonical for c in asked] for asked in asks] + empty
        assert all(rounds)

        # each round announces every run's ask, then evaluates exactly those,
        # in (run, ask) order
        position = 0
        for asked in rounds:
            assert events[position] == asked
            assert events[position + 1 : position + 1 + len(asked)] == asked
            assert [i for i, _ in asked] == sorted(i for i, _ in asked)
            position += 1 + len(asked)
        assert position == len(events)


def test_run_rounds_raises_the_first_failure_in_run_order():
    space = adjective_space()
    later_calls = []

    def fails_on(canonical, calls):
        def fn(config):
            calls.append(config.canonical)
            if config.canonical == canonical:
                raise FloatingPointError("diverged")
            return ADJ_FITNESS[config.canonical]

        return fn

    # both runs first ask for the root and its three pairs; a pair of each
    # run fails, but the first run's comes first in (run, ask) order, so the
    # second run evaluates nothing
    runs = [
        (lattice_steps("exhaustive", *space), fails_on("amod+conjlr", [])),
        (lattice_steps("exhaustive", *space), fails_on("amod+conjll", later_calls)),
    ]
    with pytest.raises(RuntimeError, match="evaluation failed for amod[+]conjlr: diverged"):
        run_rounds(runs)
    assert later_calls == []


def test_run_rounds_memoizes_plain_functions_and_keeps_a_passed_memo():
    def walk():
        return lattice_steps("alg1", *adjective_space())

    calls = []

    def counted(config):
        calls.append(config.canonical)
        return ADJ_FITNESS[config.canonical]

    # a plain function gets a memo per run, so two runs evaluate everything twice
    alone, again = run_rounds([(walk(), counted), (walk(), counted)])
    assert as_rows(alone) == as_rows(again)
    assert len(calls) == 2 * len(set(calls))
    # a MemoizedFitness is used as it is, and so is shared between runs
    memo = MemoizedFitness(counted)
    memo.cache["amod+conj"] = 0.9  # a value it already holds is not evaluated again
    calls.clear()
    best, _ = run_rounds([(walk(), memo), (walk(), memo)])[0]
    assert best.canonical == "amod+conj"
    assert sorted(calls) == sorted(set(calls)) == sorted(memo.evaluations)
    assert "amod+conj" not in calls

    # either way a failure is reported once, naming the configuration
    def fails(config):
        raise ValueError("boom")

    for fn in (fails, MemoizedFitness(fails)):
        with pytest.raises(RuntimeError, match=r"^fitness evaluation failed for amod\+conj: boom$"):
            run_rounds([(walk(), fn)])


# -- count_space --


@pytest.mark.parametrize("m,k,expected", [(13, 7, 133), (13, 10, 1026), (13, 3, 17)])
def test_count_space_published_sizes(m, k, expected):
    assert count_space(m, k) == expected


def test_count_space_validation():
    with pytest.raises(ValueError):
        count_space(5, 6)
    with pytest.raises(ValueError):
        count_space(5, -1)
    assert count_space(5, 0) == 5


def test_visited_never_exceeds_count_space():
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = int(rng.integers(3, 9))
        bags = [f"b{i}" for i in range(m)]
        table = {}
        for size in range(1, m + 1):
            for combo in itertools.combinations(bags, size):
                table[Configuration.from_bags(combo).canonical] = float(rng.random())
        per_bag = {b: table[b] for b in bags}
        threshold = float(rng.choice([0.2, 0.5, -1.0]))
        pool = build_pool(per_bag, threshold=threshold)
        if not pool:
            continue
        memo = MemoizedFitness(dict_fitness(table))
        run_alone("alg1", pool, per_bag, memo)
        # evaluations beyond the M pool probes stay within the lattice budget
        assert len(memo.evaluations) <= count_space(len(per_bag), len(pool))


# -- persistent fitness cache --


def test_fitness_cache_round_trip(tmp_path):
    path = tmp_path / "fitness.tsv"
    cache = FitnessCache(path)
    cache.put("amod+conj", "A:0", 0.546, wall_time=1.25, pair_count=42)
    cache.put("amod", "A:0", 0.479, wall_time=0.5, pair_count=10)
    reloaded = FitnessCache(path)
    assert reloaded.get("amod+conj", "A:0").rho == 0.546
    assert reloaded.get("amod", "A:0").pair_count == 10
    assert reloaded.get("amod", "A:1") is None
    assert len(reloaded.records()) == 2


def test_fitness_cache_write_once(tmp_path):
    path = tmp_path / "fitness.tsv"
    cache = FitnessCache(path)
    cache.put("amod", "A:0", 0.4, wall_time=1.0, pair_count=5)
    kept = cache.put("amod", "A:0", 0.9, wall_time=9.0, pair_count=5)
    assert kept.rho == 0.4
    assert FitnessCache(path).get("amod", "A:0").rho == 0.4


def test_fitness_cache_handles_minus_inf(tmp_path):
    path = tmp_path / "fitness.tsv"
    FitnessCache(path).put("nummod", "V:1", float("-inf"), 0.1, 3)
    assert FitnessCache(path).get("nummod", "V:1").rho == float("-inf")


def test_fitness_cache_names_the_line_of_a_corrupt_record(tmp_path):
    path = tmp_path / "fitness.tsv"
    FitnessCache(path).put("amod", "A:0", 0.4, wall_time=1.0, pair_count=5)
    with open(path, "a", encoding="utf-8") as f:
        f.write("obj\tA:0\tabc\t1.000\t7\nsubj\tA:0\t0.1\t1.000\t3\n")
    message = f"{path}:2: could not convert string to float: 'abc'"
    with pytest.raises(ValueError, match=re.escape(message)):
        FitnessCache(path)


def test_fitness_cache_drops_torn_tail(tmp_path, caplog):
    path = tmp_path / "fitness.tsv"
    cache = FitnessCache(path)
    cache.put("amod", "A:0", 0.4, wall_time=1.0, pair_count=5)
    cache.put("obj", "A:0", 0.2, wall_time=1.0, pair_count=7)
    with open(path, "a", encoding="utf-8") as f:
        f.write("amod+obj\tA:0\t0.3")  # a put killed mid-write
    with caplog.at_level("WARNING"):
        torn = FitnessCache(path)
    assert "unterminated" in caplog.text
    assert len(torn.records()) == 2
    torn.put("subj", "A:1", 0.1, wall_time=1.0, pair_count=3)
    reloaded = FitnessCache(path)
    assert {key: rec.rho for key, rec in reloaded.records().items()} == {
        ("amod", "A:0"): 0.4,
        ("obj", "A:0"): 0.2,
        ("subj", "A:1"): 0.1,
    }


def test_fitness_cache_malformed_complete_line_raises(tmp_path):
    path = tmp_path / "fitness.tsv"
    path.write_text("amod\tA:0\t0.3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 5 fields"):
        FitnessCache(path)
