"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with -s or -rA to see them) and enforcing its own
time budget. Expected values come from hand-checkable fixtures and
independent oracles, never from the code paths under test.
"""

import itertools
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_spearman
from depctx import cli
from depctx.extraction import (
    BagMappingTable,
    collapse_prepositions,
    extract_deps_pairs,
)
from depctx.pipeline import Experiment, bundled_path, load_experiment_config
from depctx.search import (
    Configuration,
    MemoizedFitness,
    beam_steps,
    build_pool,
    count_space,
    exhaustive_steps,
    greedy_steps,
    run_rounds,
)
from depctx.sgns import TrainerConfig, pair_loss_and_grad, train
from depctx.evaluation import spearman


@contextmanager
def criterion(name: str, budget_s: float):
    """Time-budgeted criterion block; the verdict line bypasses capture so it
    is visible even in tests that use capsys."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"{name}: took {elapsed:.1f}s, budget {budget_s}s"
    except BaseException:
        print(f"[FAIL] {name}", file=sys.__stdout__)
        raise
    print(f"[PASS] {name} ({time.perf_counter() - start:.1f}s)", file=sys.__stdout__)


# ---------------------------------------------------------------------------


def test_extraction_golden(fig1_sentence, boys_and_girls):
    with criterion("extraction golden: published contexts reproduced exactly", 1.0):
        table = BagMappingTable.default()

        def contexts(sentence):
            return {
                p.context for p in extract_deps_pairs(sentence, table) if p.word == "discovers"
            }

        assert contexts(fig1_sentence) == {
            "scientist_nsubj", "stars_dobj", "telescope_nmod",
        }
        assert contexts(collapse_prepositions(fig1_sentence)) == {
            "scientist_nsubj", "stars_dobj", "telescope_prep",
        }

        def conj(variant):
            return {
                (p.word, p.context)
                for p in extract_deps_pairs(boys_and_girls, table, conj_variant=variant)
                if p.bag == variant
            }

        assert conj("conjlr") == {("boys", "girls_conj"), ("girls", "boys_conj-1")}
        assert conj("conjll") == {("boys", "girls_conj"), ("girls", "boys_conj")}


def test_search_space_sizes():
    with criterion("count_space: published search-space sizes", 1.0):
        assert count_space(13, 7) == 133
        assert count_space(13, 10) == 1026
        assert count_space(13, 3) == 17


def test_verb_pool_construction():
    with criterion("pool construction from published verb fitness values", 1.0):
        per_bag = {
            "conjlr": 0.281, "obj": 0.309, "prep": 0.344, "amod": 0.058,
            "compound": -0.019, "adv": 0.342, "nummod": -0.065,
            "acl": 0.25, "comp": 0.22, "conjll": 0.27,
            "subj": 0.18, "appos": 0.05, "nmod": 0.15,
        }
        pool = build_pool(per_bag, threshold=0.2)
        for excluded in ("amod", "compound", "nummod"):
            assert excluded not in pool
        for included in ("obj", "prep", "adv", "conjlr"):
            assert included in pool
        assert set(pool) == {"prep", "acl", "obj", "comp", "adv", "conjlr", "conjll"}


def test_adjective_walkthrough():
    with criterion("beam search reproduces the adjective walkthrough", 1.0):
        table = {
            "amod": 0.479, "conjlr": 0.415, "conjll": 0.42,
            "amod+conj": 0.546, "amod+conjlr": 0.527,
            "amod+conjll": 0.531, "conj": 0.470,
        }
        per_bag = {k: table[k] for k in ("amod", "conjlr", "conjll")}
        memo = MemoizedFitness(lambda c: table[c.canonical])
        best, trace = run_rounds([(beam_steps(build_pool(per_bag, 0.2), per_bag), memo)])[0]
        assert best.canonical == "amod+conj"
        assert table[best.canonical] == 0.546
        level2 = [e for e in trace if e.level == 2]
        assert len(level2) == 3
        assert all(e.status == "pruned" for e in level2)
        assert sorted(memo.evaluations) == sorted(
            ["amod+conj", "amod+conjlr", "amod+conjll", "conj"]
        )


def test_strategy_ordering_over_random_landscapes():
    with criterion("exhaustive >= beam >= greedy over 200 random landscapes", 30.0):
        rng = np.random.default_rng(20260810)
        strict = 0
        for _ in range(200):
            k = int(rng.integers(2, 9))  # K <= 8
            bags = [f"b{i}" for i in range(k)]
            table = {}
            for size in range(1, k + 1):
                for combo in itertools.combinations(bags, size):
                    table[Configuration.from_bags(combo).canonical] = float(rng.random())

            outcomes = {}
            for name, strategy in (
                ("exhaustive", exhaustive_steps),
                ("alg1", beam_steps),
                ("greedy", greedy_steps),
            ):
                # the strategy is driven by hand, so every ask it makes is
                # seen here, and none is answered from a memo
                per_bag = {b: table[b] for b in bags}
                pool = build_pool(per_bag, threshold=-1.0)
                steps, told, asked = strategy(pool, per_bag), None, list(per_bag)
                while True:
                    try:
                        ask = steps.send(told)
                    except StopIteration as done:
                        best, _ = done.value
                        break
                    asked += [c.canonical for c in ask]
                    told = {c.canonical: table[c.canonical] for c in ask}
                assert len(asked) == len(set(asked)), "configuration evaluated twice"
                outcomes[name] = table[best.canonical]

            assert outcomes["exhaustive"] >= outcomes["alg1"] >= outcomes["greedy"]
            strict += outcomes["exhaustive"] > outcomes["alg1"]
        assert strict >= 1


def test_spearman_against_brute_force_oracle():
    with criterion("spearman matches brute-force rank oracle to 1e-12", 10.0):
        rng = np.random.default_rng(424242)
        checked = 0
        for _ in range(500):
            n = int(rng.integers(5, 120))
            xs = rng.integers(0, max(2, n // 3), size=n).astype(float)  # ties guaranteed
            ys = np.round(rng.normal(size=n), 1)  # occasional ties
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert spearman(xs, ys) == pytest.approx(
                brute_force_spearman(xs, ys), abs=1e-12
            )
            checked += 2  # two random vectors per case
        assert checked >= 900


def test_sgns_gradient_check():
    with criterion("analytic SGNS gradient matches finite differences", 10.0):
        rng = np.random.default_rng(7)
        d, k, h = 20, 6, 1e-5
        worst = 0.0
        for _ in range(20):
            w = rng.normal(scale=0.5, size=d)
            ctxs = rng.normal(scale=0.5, size=(k, d))
            labels = np.zeros(k)
            labels[0] = 1.0
            _, grad_w, grad_c = pair_loss_and_grad(w, ctxs, labels)

            def loss(wv, cv):
                return pair_loss_and_grad(wv, cv, labels)[0]

            fd_w = np.empty(d)
            for i in range(d):
                up, dn = w.copy(), w.copy()
                up[i] += h
                dn[i] -= h
                fd_w[i] = (loss(up, ctxs) - loss(dn, ctxs)) / (2 * h)
            fd_c = np.empty((k, d))
            for r in range(k):
                for i in range(d):
                    up, dn = ctxs.copy(), ctxs.copy()
                    up[r, i] += h
                    dn[r, i] -= h
                    fd_c[r, i] = (loss(w, up) - loss(w, dn)) / (2 * h)
            for analytic, numeric in ((grad_w, fd_w), (grad_c, fd_c)):
                denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
                worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        assert worst < 1e-5


def test_sgns_planted_cluster_separation():
    with criterion("planted clusters separate by >= 0.2 cosine for 5/5 seeds", 120.0):
        group_size, n_contexts, per_word = 5, 20, 5000  # 50k pairs total
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            pairs = []
            words = {}
            for prefix in ("x", "y"):
                members = [f"{prefix}{i}" for i in range(group_size)]
                ctxs = [f"c{prefix}{j}" for j in range(n_contexts)]
                words[prefix] = members
                for w in members:
                    for c in rng.choice(ctxs, size=per_word):
                        pairs.append((w, str(c)))
            assert len(pairs) >= 50_000
            cfg = TrainerConfig(
                dim=50, negatives=5, epochs=3, min_count=1,
                subsample=1.0, seed=seed,
            )
            store = train(pairs, cfg)

            def cos(a, b):
                va, vb = store.vector(a), store.vector(b)
                return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

            within = np.mean(
                [cos(a, b) for g in ("x", "y") for a, b in itertools.combinations(words[g], 2)]
            )
            cross = np.mean([cos(a, b) for a in words["x"] for b in words["y"]])
            assert within - cross >= 0.2, f"seed {seed}: margin {within - cross:.3f}"


def _write_smoke_config(tmp_path: Path) -> Path:
    text = bundled_path("smoke_experiment.txt").read_text(encoding="utf-8")
    for name in ("fixture_treebank.conllu", "toy_similarity.tsv", "toy_toefl.txt"):
        text = text.replace(name, str(bundled_path(name)))
    path = tmp_path / "exp.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_end_to_end_smoke_and_cache_soundness(tmp_path, monkeypatch, capsys):
    with criterion("end-to-end search is deterministic and cache-sound", 300.0):
        monkeypatch.chdir(tmp_path)
        config = _write_smoke_config(tmp_path)
        assert cli.main(["search", "-c", str(config)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "out"
        report = (out_dir / "search_report.tsv").read_bytes()
        traces = {
            p.name: p.read_bytes() for p in sorted(out_dir.glob("trace_*.tsv"))
        }
        assert report.decode().startswith("class\tdev_fold\tbest_configuration")
        for cls in ("A", "V", "N"):
            assert f"\n{cls}\tmean\t" in "\n" + report.decode()

        # a second run must ride the cache entirely and reproduce the report
        assert cli.main(["search", "-c", str(config)]) == 0
        capsys.readouterr()
        assert (out_dir / "search_report.tsv").read_bytes() == report

        # deleting the cache forces recomputation; deterministic training must
        # reproduce every byte
        shutil.rmtree(tmp_path / "cache")
        assert cli.main(["search", "-c", str(config)]) == 0
        capsys.readouterr()
        assert (out_dir / "search_report.tsv").read_bytes() == report
        for p in sorted(out_dir.glob("trace_*.tsv")):
            assert p.read_bytes() == traces[p.name]


def test_pair_count_additivity(tmp_path, monkeypatch, capsys):
    with criterion("reported pair counts equal sums of member bag counts", 60.0):
        monkeypatch.chdir(tmp_path)
        config = _write_smoke_config(tmp_path)
        assert cli.main(["search", "-c", str(config)]) == 0
        capsys.readouterr()
        exp = Experiment(load_experiment_config(config))
        manifest = exp.extract()
        rows = exp.report_rows()
        assert rows, "fitness cache unexpectedly empty after a search"
        for row in rows:
            member_bags = Configuration.from_string(row.configuration).bags
            assert row.pair_count == sum(manifest.counts[b] for b in member_bags)
        # the search report's pairs column agrees with the manifest too
        for line in (tmp_path / "out" / "search_report.tsv").read_text().splitlines()[1:]:
            fields = line.split("\t")
            if fields[2] in ("-", "INFEASIBLE") or fields[1] == "mean":
                continue
            bags = Configuration.from_string(fields[2]).bags
            assert int(fields[5]) == sum(manifest.counts[b] for b in bags)
