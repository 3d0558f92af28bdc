import itertools

import numpy as np
import pytest
from scipy import stats

from depctx.sgns import (
    EmbeddingFormatError,
    TrainerConfig,
    TrainingDivergedError,
    VocabularyError,
    build_unigram_table,
    build_vocab,
    keep_probabilities,
    load_embeddings,
    pair_loss_and_grad,
    save_embeddings,
    train,
)


def repeat_pairs(pairs, times):
    return [p for _ in range(times) for p in pairs]


FIG1_PAIRS = [
    ("scientist", "australian_amod"),
    ("australian", "scientist_amod-1"),
    ("discovers", "scientist_nsubj"),
    ("scientist", "discovers_nsubj-1"),
    ("discovers", "stars_dobj"),
    ("stars", "discovers_dobj-1"),
    ("discovers", "telescope_prep"),
    ("telescope", "discovers_prep-1"),
]


def planted_corpus(seed=0, pairs_per_word=5000, group_size=5, n_contexts=20):
    """Two word groups with disjoint context distributions."""
    rng = np.random.default_rng(seed)
    pairs = []
    groups = []
    for prefix in ("x", "y"):
        words = [f"{prefix}{i}" for i in range(group_size)]
        ctxs = [f"c{prefix}{j}" for j in range(n_contexts)]
        groups.append(words)
        for w in words:
            for c in rng.choice(ctxs, size=pairs_per_word):
                pairs.append((w, str(c)))
    return pairs, groups


# -- vocabulary --


def test_min_count_boundary():
    pairs = repeat_pairs([("a", "c")], 99) + repeat_pairs([("b", "c")], 100)
    vocab = build_vocab(pairs, min_count=100)
    assert "a" not in vocab.word_index
    assert "b" in vocab.word_index
    assert vocab.context_counts[vocab.context_index["c"]] == 199


def test_min_count_one_keeps_everything():
    pairs = [("a", "x"), ("b", "y"), ("a", "y")]
    vocab = build_vocab(pairs, min_count=1)
    assert set(vocab.word_index) == {"a", "b"}
    assert set(vocab.context_index) == {"x", "y"}


def test_fig1_times_100_all_retained():
    vocab = build_vocab(repeat_pairs(FIG1_PAIRS, 100), min_count=100)
    assert set(vocab.word_index) == {
        "scientist", "australian", "discovers", "stars", "telescope",
    }
    assert len(vocab.context_index) == 8
    assert all(n == 100 for n in vocab.context_counts)
    # words appearing in several pairs accumulate
    assert vocab.word_counts[vocab.word_index["discovers"]] == 300
    assert vocab.word_counts[vocab.word_index["scientist"]] == 200


def test_empty_vocab_is_an_error():
    with pytest.raises(VocabularyError):
        build_vocab([("a", "b")], min_count=2)


def test_ids_are_contiguous_and_count_ordered():
    pairs = repeat_pairs([("a", "x")], 5) + repeat_pairs([("b", "x")], 3) + [("c", "x")]
    vocab = build_vocab(pairs, min_count=1)
    assert [vocab.words[i] for i in range(3)] == ["a", "b", "c"]
    assert list(vocab.word_counts) == [5, 3, 1]


# -- subsampling --


def test_rare_words_always_kept():
    counts = np.array([9999, 1])
    keep = keep_probabilities(counts, t=1e-4)
    assert keep[1] == 1.0  # f(w) = 1e-4 <= t
    assert keep[0] < 1.0


def test_t_one_keeps_stream_unchanged():
    counts = np.array([500, 300, 200])
    assert keep_probabilities(counts, t=1.0).tolist() == [1.0, 1.0, 1.0]


def test_keep_rate_matches_formula():
    # f(w) = 0.01, t = 1e-4 -> keep rate sqrt(t/f) = 0.1
    keep = keep_probabilities(np.array([1000, 99000]), t=1e-4)
    assert keep[0] == 0.1


# -- negative-sampling distribution --


def test_unigram_table_chi_squared():
    rng = np.random.default_rng(123)
    counts = rng.integers(100, 10_000, size=50)
    table = build_unigram_table(counts, power=0.75)
    draws = table[rng.integers(0, len(table), size=1_000_000)]
    observed = np.bincount(draws, minlength=len(counts))
    expected = counts.astype(float) ** 0.75
    expected = expected / expected.sum() * len(draws)
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.01


def test_unigram_table_holds_one_run_per_id():
    rng = np.random.default_rng(7)
    for size, power in ((7, 0.75), (1000, 0.0), (100_003, 1.0)):
        counts = rng.integers(1, 5000, size=300)
        table = build_unigram_table(counts, power=power, table_size=size)
        cumulative = np.cumsum(counts.astype(np.float64) ** power)
        boundaries = np.rint(cumulative / cumulative[-1] * size).astype(np.int64)
        assert table.dtype == np.int32 and len(table) == size
        assert np.all(np.diff(table) >= 0)
        np.testing.assert_array_equal(
            np.bincount(table, minlength=len(counts)), np.diff(boundaries, prepend=0)
        )


# -- gradients --


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    d, k = 20, 6
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        w = rng.normal(scale=0.5, size=d)
        ctxs = rng.normal(scale=0.5, size=(k, d))
        labels = np.zeros(k)
        labels[0] = 1.0
        _, grad_w, grad_c = pair_loss_and_grad(w, ctxs, labels)

        def loss_at(wv, cv):
            return pair_loss_and_grad(wv, cv, labels)[0]

        fd_w = np.empty(d)
        for i in range(d):
            up, down = w.copy(), w.copy()
            up[i] += h
            down[i] -= h
            fd_w[i] = (loss_at(up, ctxs) - loss_at(down, ctxs)) / (2 * h)
        fd_c = np.empty((k, d))
        for r in range(k):
            for i in range(d):
                up, down = ctxs.copy(), ctxs.copy()
                up[r, i] += h
                down[r, i] -= h
                fd_c[r, i] = (loss_at(w, up) - loss_at(w, down)) / (2 * h)

        for analytic, numeric in ((grad_w, fd_w), (grad_c, fd_c)):
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst < 1e-5


def test_single_update_applies_analytic_gradient():
    """One training step must equal one gradient step of the pairwise loss."""
    pairs = [("w", "c")]
    cfg = TrainerConfig(
        dim=4, negatives=2, epochs=1, min_count=1, subsample=1.0,
        learning_rate=0.1, seed=9,
    )
    vocab = build_vocab(pairs * 2, min_count=1)  # single word/context
    store = train(pairs, cfg, vocab=vocab)
    # reproduce by hand: initial W from the same rng stream, C zero
    rng = np.random.default_rng(cfg.seed)
    W0 = ((rng.random((1, 4)) - 0.5) / 4).astype(np.float32)
    # negatives all equal the positive context id here, so they are dropped
    labels = np.array([1.0], dtype=np.float32)
    _, grad_w, grad_c = pair_loss_and_grad(W0[0], np.zeros((1, 4), np.float32), labels)
    lr = cfg.learning_rate * (1.0 - 1.0 / 1.0)
    lr = max(lr, cfg.learning_rate * 1e-4)
    expected_c = -lr * grad_c[0]
    expected_w = W0[0] - lr * grad_w
    np.testing.assert_allclose(store.context_vectors[0], expected_c, rtol=1e-6)
    np.testing.assert_allclose(store.word_vectors[0], expected_w, rtol=1e-6)


# -- training behavior --


def small_config(**overrides):
    base = dict(dim=16, negatives=5, epochs=3, min_count=1, subsample=1.0, seed=2)
    base.update(overrides)
    return TrainerConfig(**base)


def test_same_seed_single_worker_bit_identical():
    pairs, _ = planted_corpus(seed=1, pairs_per_word=200, group_size=3, n_contexts=8)
    a = train(pairs, small_config())
    b = train(pairs, small_config())
    assert np.array_equal(a.word_vectors, b.word_vectors)
    assert np.array_equal(a.context_vectors, b.context_vectors)
    assert a.epoch_losses == b.epoch_losses


def test_different_seed_differs():
    pairs, _ = planted_corpus(seed=1, pairs_per_word=200, group_size=3, n_contexts=8)
    a = train(pairs, small_config(seed=2))
    b = train(pairs, small_config(seed=3))
    assert not np.array_equal(a.word_vectors, b.word_vectors)


def test_planted_clusters_order_correctly():
    pairs, (xs, ys) = planted_corpus(seed=4, pairs_per_word=1000, group_size=2, n_contexts=10)
    store = train(pairs, small_config(epochs=2))

    def cos(a, b):
        va, vb = store.vector(a), store.vector(b)
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

    assert cos("x0", "x1") > cos("x0", "y0")


def test_epoch_loss_non_increasing_first_three():
    pairs, _ = planted_corpus(seed=6, pairs_per_word=500, group_size=3, n_contexts=10)
    store = train(pairs, small_config(epochs=3))
    losses = store.epoch_losses[:3]
    inversions = sum(
        1 for a, b in itertools.pairwise(losses) if b > a * 1.01
    )
    assert inversions == 0
    # at most one small (<1%) inversion tolerated
    small = sum(1 for a, b in itertools.pairwise(losses) if a < b <= a * 1.01)
    assert small <= 1


def test_pair_order_shuffle_never_breaks_training():
    pairs, _ = planted_corpus(seed=8, pairs_per_word=300, group_size=2, n_contexts=6)
    rng = np.random.default_rng(0)
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    store = train(shuffled, small_config())
    assert np.isfinite(store.word_vectors).all()
    assert np.isfinite(store.context_vectors).all()


def test_norms_stay_bounded_under_defaults():
    pairs, _ = planted_corpus(seed=9, pairs_per_word=2000, group_size=3, n_contexts=10)
    cfg = TrainerConfig(dim=32, min_count=1, seed=5, epochs=15)
    store = train(pairs, cfg)
    assert np.abs(store.word_vectors).max() < 1e3
    assert np.abs(store.context_vectors).max() < 1e3


def test_context_side_subsampling_option():
    # skewed context distribution: one context dominates and gets subsampled
    # on the context side once the option is enabled
    pairs = [("w", "c_common")] * 900 + [("w", f"c_{i}") for i in range(100)]
    a = train(pairs, small_config(subsample=1e-2, seed=4))
    b = train(pairs, small_config(subsample=1e-2, seed=4, subsample_context=True))
    assert np.isfinite(b.word_vectors).all()
    assert np.isfinite(b.context_vectors).all()
    assert not np.array_equal(a.context_vectors, b.context_vectors)
    # deterministic under a fixed seed like everything else
    b2 = train(pairs, small_config(subsample=1e-2, seed=4, subsample_context=True))
    assert np.array_equal(b.context_vectors, b2.context_vectors)


def test_divergence_detected():
    pairs, _ = planted_corpus(seed=12, pairs_per_word=500, group_size=3, n_contexts=10)
    with pytest.raises(TrainingDivergedError):
        train(pairs, small_config(learning_rate=1e30, epochs=2))


def test_no_pairs_after_filtering_is_an_error():
    vocab = build_vocab([("a", "x")] * 5, min_count=1)
    with pytest.raises(VocabularyError):
        train([("zzz", "qqq")], small_config(), vocab=vocab)


def test_trainer_config_validation():
    for bad in (
        dict(dim=0),
        dict(negatives=0),
        dict(learning_rate=0.0),
        dict(epochs=0),
        dict(subsample=0.0),
    ):
        with pytest.raises(ValueError):
            TrainerConfig(**bad)


# -- persistence --


def test_save_load_round_trip(tmp_path):
    pairs, _ = planted_corpus(seed=14, pairs_per_word=200, group_size=2, n_contexts=6)
    store = train(pairs, small_config())
    path = tmp_path / "vectors.txt"
    save_embeddings(store, path)
    loaded = load_embeddings(path)
    assert loaded.vocab.words == store.vocab.words

    def cos(s, a, b):
        va, vb = s.vector(a), s.vector(b)
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

    for a, b in (("x0", "x1"), ("x0", "y1")):
        assert abs(cos(loaded, a, b) - cos(store, a, b)) < 1e-6
    # 9 significant digits actually round-trip float32 exactly
    assert np.array_equal(loaded.word_vectors, store.word_vectors)


def test_save_context_vectors_suffix(tmp_path):
    pairs, _ = planted_corpus(seed=15, pairs_per_word=100, group_size=2, n_contexts=4)
    store = train(pairs, small_config())
    save_embeddings(store, tmp_path / "vec.txt", include_context=True)
    ctx = load_embeddings(tmp_path / "vec_ctx.txt")
    assert ctx.vocab.words == store.vocab.contexts


def test_empty_store_header(tmp_path):
    pairs = [("a", "x")] * 3
    store = train(pairs, small_config(dim=7))
    store.vocab.words.clear()
    store.vocab.word_index.clear()
    path = tmp_path / "empty.txt"
    save_embeddings(store, path)
    assert path.read_text().splitlines()[0] == "0 7"


def test_load_rejects_inconsistent_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\nw1 0.1 0.2 0.3\nw2 0.1 0.2\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="3"):
        load_embeddings(path)
    path.write_text("not a header\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(path)
