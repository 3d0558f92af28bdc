import itertools

import numpy as np
import pytest

from depctx.search import (
    Configuration,
    FitnessCache,
    MemoizedFitness,
    SearchInfeasibleError,
    best_configuration_search,
    build_pool,
    count_space,
    exhaustive_search,
    greedy_search,
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


def adjective_space():
    return build_pool(
        {k: ADJ_FITNESS[k] for k in ("amod", "conjlr", "conjll")}, threshold=0.2
    )


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


def test_configuration_children():
    c = Configuration.from_bags(["a", "b", "c"])
    kids = {k.canonical for k in c.children()}
    assert kids == {"a+b", "a+c", "b+c"}
    assert list(Configuration.from_bags(["a"]).children()) == []


# -- pool construction --


def test_verb_pool_from_published_fitness():
    space = build_pool(VERB_BAG_FITNESS, threshold=0.2)
    assert set(space.pool) == {"prep", "acl", "obj", "comp", "adv", "conjlr", "conjll"}
    for bag in ("amod", "compound", "nummod", "subj", "appos", "nmod"):
        assert bag not in space.pool
    assert space.M == 13
    assert space.K == 7
    assert space.per_bag_fitness["prep"] == 0.344


def test_pool_requires_fitness_for_every_bag():
    with pytest.raises(KeyError, match="nmod"):
        build_pool({"amod": 0.5}, threshold=0.2, all_bags=["amod", "nmod"])


def test_pool_all_below_threshold_is_infeasible():
    with pytest.raises(SearchInfeasibleError) as exc:
        build_pool({"amod": 0.1, "obj": 0.05}, threshold=0.2)
    assert exc.value.per_bag_fitness == {"amod": 0.1, "obj": 0.05}


def test_pool_threshold_minus_one_keeps_everything():
    space = build_pool(VERB_BAG_FITNESS, threshold=-1.0)
    assert space.K == space.M == 13


# -- Algorithm-1 style search --


def test_adjective_walkthrough_returns_pool_all():
    fitness = CountingFitness(ADJ_FITNESS)
    best, trace = best_configuration_search(adjective_space(), fitness)
    assert best.canonical == "amod+conj"
    level2 = [e for e in trace if e.level == 2]
    assert len(level2) == 3
    assert all(e.status == "pruned" for e in level2)
    # 1-sets come from the pool phase; the search itself evaluates the root
    # and exactly the 3 level-2 children, then stops
    assert sorted(fitness.calls) == sorted(["amod+conj", "amod+conjlr", "amod+conjll", "conj"])


def test_k_equals_one_returns_single_set_immediately():
    space = build_pool({"amod": 0.5, "obj": 0.1}, threshold=0.2, all_bags=["amod", "obj"])
    fitness = CountingFitness({"amod": 0.5})
    best, trace = best_configuration_search(space, fitness)
    assert best.canonical == "amod"
    assert fitness.calls == []  # seeded from pool construction


def test_additive_fitness_returns_pool_and_visits_k_children():
    weights = {"a": 0.5, "b": 0.4, "c": 0.3, "d": 0.25, "e": 0.1, "f": 0.05}

    def additive(config):
        return sum(weights[b] for b in config.bags)

    per_bag = {b: additive(Configuration.from_bags([b])) for b in weights}
    space = build_pool(per_bag, threshold=0.2)
    assert space.K == 4
    memo = MemoizedFitness(additive)
    best, trace = best_configuration_search(space, memo)
    assert best.canonical == "a+b+c+d"
    children = [e for e in trace if e.level == space.K - 1]
    assert len(children) == space.K
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
    space = build_pool({"a": 0.6, "b": 0.3}, threshold=0.2)
    best, trace = best_configuration_search(space, dict_fitness(table))
    assert best.canonical == "a"
    statuses = {e.canonical: e.status for e in trace}
    assert statuses["a"] == "best"


def test_tie_breaks_to_smaller_then_lexicographic():
    table = {
        "a": 0.5,
        "b": 0.5,
        "a+b": 0.5,
    }
    space = build_pool({"a": 0.5, "b": 0.5}, threshold=0.2)
    best, _ = best_configuration_search(space, dict_fitness(table))
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
    space = build_pool({k: table[k] for k in "abc"}, threshold=0.2)
    best, trace = best_configuration_search(space, counting)
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
        space = build_pool(per_bag, threshold=-1.0)
        memo = MemoizedFitness(dict_fitness(table))
        best, trace = best_configuration_search(space, memo)
        for entry in trace:
            if entry.status == "kept":
                assert entry.origin is not None
                assert entry.fitness >= table[entry.origin]
        # nothing evaluated twice
        assert len(memo.evaluations) == len(set(memo.evaluations))
        # the winner dominates the root and every pool 1-set
        root = Configuration.from_bags(space.pool)
        assert table[best.canonical] >= table[root.canonical]
        assert table[best.canonical] >= max(per_bag.values())


def test_failed_evaluations_poison_descent_but_not_search():
    table = {
        "a": 0.5,
        "b": 0.4,
        "a+b": float("-inf"),  # e.g. untrainable configuration
    }
    space = build_pool({"a": 0.5, "b": 0.4}, threshold=0.2)
    best, trace = best_configuration_search(space, dict_fitness(table))
    assert best.canonical == "a"


def test_fitness_failure_names_configuration():
    def explode(config):
        raise RuntimeError("boom")

    space = build_pool({"a": 0.5, "b": 0.4}, threshold=0.2)
    with pytest.raises(RuntimeError, match="a\\+b"):
        best_configuration_search(space, explode)


# -- greedy variant --


def test_greedy_matches_alg1_on_adjective_fixture():
    fitness = CountingFitness(ADJ_FITNESS)
    best, trace = greedy_search(adjective_space(), fitness)
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
    space = build_pool(per_bag, threshold=0.2)
    fitness = dict_fitness(GREEDY_TRAP)
    alg1_best, _ = best_configuration_search(space, fitness)
    greedy_best, _ = greedy_search(space, fitness)
    assert GREEDY_TRAP[alg1_best.canonical] == 0.7
    assert GREEDY_TRAP[greedy_best.canonical] == 0.48
    assert GREEDY_TRAP[greedy_best.canonical] < GREEDY_TRAP[alg1_best.canonical]


def test_greedy_k_equals_one():
    space = build_pool({"a": 0.5, "b": 0.1}, threshold=0.2, all_bags=["a", "b"])
    best, _ = greedy_search(space, dict_fitness({"a": 0.5}))
    assert best.canonical == "a"


# -- exhaustive oracle --


def test_exhaustive_k3_evaluates_7_subsets():
    memo = MemoizedFitness(dict_fitness(ADJ_FITNESS))
    best, trace = exhaustive_search(adjective_space(), memo)
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
    space = build_pool(per_bag, threshold=0.2)
    memo = MemoizedFitness(fitness)
    _, trace = exhaustive_search(space, memo)
    assert len({e.canonical for e in trace}) == 1023


def test_exhaustive_guard():
    bags = [f"b{i:02d}" for i in range(13)]
    space = build_pool({b: 0.5 for b in bags}, threshold=0.2)
    with pytest.raises(ValueError, match="at most 12 bags"):
        exhaustive_search(space, dict_fitness({}))


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
        space = build_pool({b: table[b] for b in bags}, threshold=-1.0)
        fitness = dict_fitness(table)
        exh_best, _ = exhaustive_search(space, fitness)
        alg1_best, _ = best_configuration_search(space, fitness)
        greedy_best, _ = greedy_search(space, fitness)
        assert table[exh_best.canonical] >= table[alg1_best.canonical]
        assert table[alg1_best.canonical] >= table[greedy_best.canonical]
        strict += table[exh_best.canonical] > table[alg1_best.canonical]
    assert strict >= 1  # the beam is not guaranteed to be globally optimal


@pytest.mark.parametrize("strategy", [best_configuration_search, greedy_search, exhaustive_search])
def test_strategies_announce_what_they_evaluate_next(strategy):
    # every evaluation but the root's was announced to the fitness function's
    # prefetch, once, before it; nothing announced goes unevaluated
    rng = np.random.default_rng(99)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        bags = [f"b{i}" for i in range(k)]
        table = {}
        for size in range(1, k + 1):
            for combo in itertools.combinations(bags, size):
                table[Configuration.from_bags(combo).canonical] = float(rng.random())
        log = []

        def fitness(config):
            log.append(("evaluate", config.canonical))
            return table[config.canonical]

        fitness.prefetch = lambda configs: log.extend(("prefetch", c.canonical) for c in configs)
        space = build_pool({b: table[b] for b in bags}, threshold=-1.0)
        strategy(space, MemoizedFitness(fitness))
        root = Configuration.from_bags(bags).canonical
        announced, evaluated = set(), set()
        for kind, canonical in log:
            if kind == "prefetch":
                assert canonical not in announced | evaluated
                announced.add(canonical)
            else:
                assert canonical in announced or canonical == root
                evaluated.add(canonical)
        assert announced <= evaluated


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
        try:
            space = build_pool(per_bag, threshold=threshold)
        except SearchInfeasibleError:
            continue
        memo = MemoizedFitness(dict_fitness(table))
        best_configuration_search(space, memo)
        # evaluations beyond the M pool probes stay within the lattice budget
        assert len(memo.evaluations) <= count_space(space.M, space.K)


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
    assert len(reloaded) == 2


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
    assert len(torn) == 2
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
