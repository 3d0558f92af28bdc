import math

import numpy as np
import pytest
from scipy import stats

from conftest import brute_force_spearman
from depctx.evaluation import (
    ToeflQuestion,
    UndefinedCorrelationError,
    WordPair,
    WordPairDataset,
    average_ranks,
    convert_simlex,
    correlate,
    cosine,
    evaluate,
    load_toefl,
    pair_cosines,
    spearman,
    split_folds,
    toefl_evaluate,
)
from depctx.sgns import EmbeddingStore, Vocabulary


def store_from_vectors(vectors: dict[str, np.ndarray]) -> EmbeddingStore:
    words = list(vectors)
    dim = len(next(iter(vectors.values())))
    vocab = Vocabulary(
        word_index={w: i for i, w in enumerate(words)},
        word_counts=np.ones(len(words), dtype=np.int64),
        context_counts=np.zeros(0, dtype=np.int64),
        words=words,
        contexts=[],
    )
    matrix = np.array([vectors[w] for w in words], dtype=np.float64)
    return EmbeddingStore(matrix, np.zeros((0, dim)), vocab)


def make_dataset(rows):
    return WordPairDataset(tuple(WordPair(*row) for row in rows))


# -- cosine --


def test_cosine_identical_vectors():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_cosine_arithmetic_oracle():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([4.0, 5.0, 6.0])
    expected = 32 / (math.sqrt(14) * math.sqrt(77))
    assert cosine(u, v) == pytest.approx(expected, abs=1e-9)
    assert cosine(u, v) == pytest.approx(0.974631, abs=1e-6)


def test_cosine_zero_vector_is_zero():
    assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine(np.ones(3), np.ones(4))


# -- spearman --


def test_spearman_identity_and_reverse():
    xs = [3.0, 1.0, 4.0, 1.5, 5.0]
    assert spearman(xs, xs) == pytest.approx(1.0)
    ranked = sorted(xs)
    assert spearman(ranked, ranked[::-1]) == pytest.approx(-1.0)


def test_spearman_tie_case_matches_oracle():
    xs = (1.0, 2.0, 3.0, 4.0)
    ys = (1.0, 1.0, 3.0, 4.0)
    assert spearman(xs, ys) == pytest.approx(brute_force_spearman(xs, ys), abs=1e-12)


def test_spearman_random_with_ties_against_oracle_and_scipy():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        xs = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        ys = rng.normal(size=n)
        if len(set(xs)) < 2:
            continue
        ours = spearman(xs, ys)
        assert ours == pytest.approx(brute_force_spearman(xs, ys), abs=1e-12)
        assert ours == pytest.approx(stats.spearmanr(xs, ys).statistic, abs=1e-10)


def test_spearman_errors():
    with pytest.raises(UndefinedCorrelationError):
        spearman([1.0], [2.0])
    with pytest.raises(UndefinedCorrelationError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0])


def test_spearman_invariant_under_monotone_transforms():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=30)
    ys = rng.normal(size=30)
    base = spearman(xs, ys)
    assert spearman(np.exp(xs), ys) == pytest.approx(base, abs=1e-12)
    assert spearman(xs, 100 * ys + 7) == pytest.approx(base, abs=1e-12)
    assert spearman(np.tanh(xs), ys ** 3) == pytest.approx(base, abs=1e-12)


def test_average_ranks():
    assert list(average_ranks([10.0, 20.0, 20.0, 30.0])) == [1.0, 2.5, 2.5, 4.0]


def test_average_ranks_match_counting_ranks_with_signed_zeros_and_nan():
    # -0.0 ties with 0.0; NaNs rank last, each on its own, in input order
    def counting_ranks(xs):
        finite = [u for u in xs if u == u]
        ranks, nans = [], 0
        for v in xs:
            if v != v:
                nans += 1
                ranks.append(len(finite) + nans)
            else:
                smaller = sum(1 for u in finite if u < v)
                ties = sum(1 for u in finite if u == v)
                ranks.append((2 * smaller + ties + 1) / 2)
        return ranks

    rng = np.random.default_rng(5)
    values = [-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan]
    for _ in range(200):
        xs = rng.choice(values, size=int(rng.integers(0, 80)))
        assert average_ranks(xs).tolist() == counting_ranks(xs.tolist())


# -- evaluate --


DATASET = make_dataset(
    [
        ("big", "large", 9.0, "A"),
        ("big", "small", 1.0, "A"),
        ("quick", "fast", 8.0, "A"),
        ("dog", "cat", 7.0, "N"),
        ("dog", "car", 1.0, "N"),
        ("house", "cabin", 7.5, "N"),
        ("run", "walk", 6.0, "V"),
        ("run", "sleep", 1.0, "V"),
        ("see", "watch", 8.0, "V"),
    ]
)


def geometric_store():
    # cosine ordering matches gold ordering per class by construction:
    # A: big-large .999 > quick-fast .958 > big-small -.98
    # N: house-cabin .999 > dog-cat .995 > dog-car -.45
    # V: see-watch .9997 > run-walk .9988 > run-sleep -.5
    return store_from_vectors(
        {
            "big": np.array([1.0, 0.0, 0.0]),
            "large": np.array([0.95, 0.05, 0.0]),
            "small": np.array([-1.0, 0.2, 0.0]),
            "quick": np.array([0.0, 1.0, 0.0]),
            "fast": np.array([0.3, 1.0, 0.0]),
            "dog": np.array([0.0, 0.0, 1.0]),
            "cat": np.array([0.1, 0.0, 1.0]),
            "car": np.array([1.0, 0.0, -0.5]),
            "house": np.array([0.5, 0.5, 0.5]),
            "cabin": np.array([0.5, 0.5, 0.55]),
            "run": np.array([1.0, 1.0, 0.0]),
            "walk": np.array([1.0, 0.9, 0.0]),
            "sleep": np.array([-1.0, 0.0, 1.0]),
            "see": np.array([0.0, 1.0, 1.0]),
            "watch": np.array([0.0, 1.0, 0.95]),
        }
    )


ADJECTIVES = DATASET.class_indices("A")
NOUNS = DATASET.class_indices("N")


def test_evaluate_perfect_ordering_gives_rho_one():
    result = evaluate(geometric_store(), DATASET, ADJECTIVES)
    assert result.rho == pytest.approx(1.0)
    assert result.n_scored == 3
    assert result.n_total == 3


def test_evaluate_counts_oov_pairs():
    vectors = geometric_store()
    del vectors.vocab.word_index["cabin"]
    result = evaluate(vectors, DATASET, NOUNS)
    assert result.n_scored == 2
    assert result.n_total == 3


def test_oov_and_non_finite_pairs_count_as_uncovered():
    store = geometric_store()
    del store.vocab.word_index["cabin"]
    store.word_vectors[store.vocab.word_index["car"]] = np.nan
    cosines = pair_cosines(store, DATASET)
    assert np.isnan(cosines).tolist() == [False] * 4 + [True, True] + [False] * 3
    assert cosines[0] == cosine(store.vector("big"), store.vector("large"))
    with pytest.raises(UndefinedCorrelationError, match="only 1 of 3"):
        correlate(cosines, DATASET, NOUNS)
    assert correlate(cosines, DATASET, [0, 1]) == evaluate(store, DATASET, [0, 1])


def test_evaluate_all_oov_is_an_error():
    empty = store_from_vectors({"unrelated": np.array([1.0, 0.0, 0.0])})
    with pytest.raises(UndefinedCorrelationError):
        evaluate(empty, DATASET, ADJECTIVES)


def test_evaluate_scale_invariance():
    store = geometric_store()
    base = evaluate(store, DATASET, NOUNS).rho
    store.word_vectors *= 37.5
    assert evaluate(store, DATASET, NOUNS).rho == pytest.approx(base, abs=1e-12)


def test_evaluate_random_vectors_near_zero_rho():
    """Null Monte-Carlo: 666 random pairs, |rho| < 0.1 in ~99% of seeds."""
    words = [f"w{i}" for i in range(400)]
    rows = []
    rng = np.random.default_rng(0)
    for i in range(666):
        a, b = rng.choice(len(words), size=2, replace=False)
        rows.append((words[a], words[b], float(rng.random()), "N"))
    dataset = make_dataset(rows)
    hits = 0
    n_seeds = 50
    for seed in range(n_seeds):
        r = np.random.default_rng(seed)
        store = store_from_vectors({w: r.normal(size=20) for w in words})
        if abs(evaluate(store, dataset).rho) < 0.1:
            hits += 1
    assert hits >= int(0.9 * n_seeds)


def test_fold_union_reconstruction():
    store = geometric_store()
    fold_0, fold_1 = split_folds(DATASET, "N", seed=5)
    full = evaluate(store, DATASET, NOUNS)
    assert evaluate(store, DATASET, fold_0 + fold_1) == full
    # scored once each and in entry order, whatever order the indices come in
    assert evaluate(store, DATASET, fold_1 + fold_0 + fold_1) == full


def test_evaluate_none_scores_every_entry_and_no_indices_is_an_error():
    store = geometric_store()
    assert evaluate(store, DATASET) == evaluate(store, DATASET, range(len(DATASET)))
    assert evaluate(store, DATASET).n_total == len(DATASET)
    with pytest.raises(UndefinedCorrelationError, match="no dataset entries"):
        evaluate(store, DATASET, [])


# -- folds --


def test_split_222_and_111():
    rows = [(f"a{i}", f"b{i}", float(i), "V") for i in range(222)]
    rows += [(f"c{i}", f"d{i}", float(i), "A") for i in range(111)]
    dataset = make_dataset(rows)
    verbs_0, verbs_1 = split_folds(dataset, "V", seed=1)
    assert (len(verbs_0), len(verbs_1)) == (111, 111)
    adjs_0, adjs_1 = split_folds(dataset, "A", seed=1)
    assert (len(adjs_0), len(adjs_1)) == (56, 55)
    assert set(adjs_0) | set(adjs_1) == set(dataset.class_indices("A"))
    assert set(adjs_0) & set(adjs_1) == set()


def test_split_deterministic_under_seed():
    assert split_folds(DATASET, "N", seed=9) == split_folds(DATASET, "N", seed=9)
    assert split_folds(DATASET, "N", seed=9) != split_folds(DATASET, "N", seed=10)


def test_split_requires_two_entries():
    with pytest.raises(ValueError):
        split_folds(make_dataset([("a", "b", 1.0, "A")]), "A", seed=0)


# -- TOEFL --


def test_toefl_identical_vector_wins():
    store = store_from_vectors(
        {
            "prompt": np.array([1.0, 0.0, 0.0]),
            "good": np.array([1.0, 0.0, 0.0]),
            "bad1": np.array([0.0, 1.0, 0.0]),
            "bad2": np.array([0.0, 0.0, 1.0]),
            "bad3": np.array([0.0, 1.0, 1.0]),
        }
    )
    q = ToeflQuestion("prompt", ("bad1", "good", "bad2", "bad3"), 1, "A")
    assert toefl_evaluate(store, [q]) == {"A": (1, 1)}


def test_toefl_oov_prompt_and_candidates_incorrect():
    store = store_from_vectors({"x": np.array([1.0, 0.0])})
    questions = [
        ToeflQuestion("missing", ("x", "x", "x", "x"), 0, "V"),
        ToeflQuestion("x", ("a", "b", "c", "d"), 2, "V"),
    ]
    assert toefl_evaluate(store, questions) == {"V": (0, 2)}


def test_toefl_tie_breaks_to_lowest_index():
    store = store_from_vectors(
        {
            "p": np.array([1.0, 0.0]),
            "t1": np.array([0.0, 1.0]),
            "t2": np.array([0.0, 1.0]),
        }
    )
    # both candidates score 0.0; index 0 wins
    q_first_gold = ToeflQuestion("p", ("t1", "t2", "t1", "t2"), 0, "N")
    q_second_gold = ToeflQuestion("p", ("t1", "t2", "t1", "t2"), 1, "N")
    assert toefl_evaluate(store, [q_first_gold])["N"] == (1, 1)
    assert toefl_evaluate(store, [q_second_gold])["N"] == (0, 1)


def test_toefl_five_question_fixture_geometry():
    rng = np.random.default_rng(17)
    vectors = {}
    questions = []
    for qi in range(5):
        base = rng.normal(size=8)
        vectors[f"p{qi}"] = base
        gold = qi % 4
        cands = []
        for ci in range(4):
            if ci == gold:
                vectors[f"q{qi}c{ci}"] = base + rng.normal(scale=0.01, size=8)
            else:
                vectors[f"q{qi}c{ci}"] = rng.normal(size=8) * 2
            cands.append(f"q{qi}c{ci}")
        questions.append(ToeflQuestion(f"p{qi}", tuple(cands), gold, "N"))
    store = store_from_vectors(vectors)
    correct, total = toefl_evaluate(store, questions)["N"]
    assert (correct, total) == (5, 5)


def test_toefl_accuracy_invariant_under_l2_normalization():
    rng = np.random.default_rng(23)
    vectors = {f"w{i}": rng.normal(size=6) for i in range(40)}
    questions = []
    names = list(vectors)
    for qi in range(10):
        picks = rng.choice(len(names), size=5, replace=False)
        questions.append(
            ToeflQuestion(names[picks[0]], tuple(names[p] for p in picks[1:]), int(qi % 4), "A")
        )
    raw = toefl_evaluate(store_from_vectors(vectors), questions)
    normalized = {w: v / np.linalg.norm(v) for w, v in vectors.items()}
    assert toefl_evaluate(store_from_vectors(normalized), questions) == raw


# -- file formats --


def test_dataset_load_and_validation(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text(
        "word1\tword2\tscore\tclass\nBig\tlarge\t9.0\tA\ndog\tcat\t7\tN\n",
        encoding="utf-8",
    )
    ds = WordPairDataset.load(path)
    assert len(ds) == 2
    assert ds.entries[0] == WordPair("big", "large", 9.0, "A")
    bad = tmp_path / "bad.tsv"
    bad.write_text("word1\tword2\tscore\tclass\na\tb\t1.0\tX\n", encoding="utf-8")
    with pytest.raises(ValueError):
        WordPairDataset.load(bad)


def test_toefl_load(tmp_path):
    path = tmp_path / "toefl.txt"
    path.write_text(
        "# comment\nprompt cand1 cand2 cand3 cand4 2 A\np2 a b c d 0\n",
        encoding="utf-8",
    )
    questions = load_toefl(path)
    assert questions[0].gold_index == 2
    assert questions[0].word_class == "A"
    assert questions[1].word_class == "ALL"
    bad = tmp_path / "bad.txt"
    bad.write_text("p a b c d 9\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_toefl(bad)


def test_convert_simlex(tmp_path):
    src = tmp_path / "SimLex-999.txt"
    src.write_text(
        "word1\tword2\tPOS\tSimLex999\tconc(w1)\tconc(w2)\n"
        "old\tNew\tA\t1.58\t2.72\t2.81\n"
        "smart\tintelligent\tA\t9.2\t1.75\t2.46\n",
        encoding="utf-8",
    )
    dest = tmp_path / "converted.tsv"
    assert convert_simlex(src, dest) == 2
    ds = WordPairDataset.load(dest)
    assert ds.entries[0] == WordPair("old", "new", 1.58, "A")
    assert ds.entries[1].gold_score == 9.2
