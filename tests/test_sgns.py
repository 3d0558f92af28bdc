import itertools
import multiprocessing
import os
import re
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy import stats

from conftest import count_process_starts, needs_fork, pair_loss_and_grad
from depctx import sgns
from depctx.sgns import (
    EmbeddingFormatError,
    EmbeddingStore,
    TrainerConfig,
    TrainingDivergedError,
    Vocabulary,
    VocabularyError,
    build_unigram_table,
    build_vocab,
    keep_probabilities,
    load_embeddings,
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
    assert vocab.context_counts[vocab.contexts.index("c")] == 199


def test_min_count_one_keeps_everything():
    pairs = [("a", "x"), ("b", "y"), ("a", "y")]
    vocab = build_vocab(pairs, min_count=1)
    assert set(vocab.word_index) == {"a", "b"}
    assert set(vocab.contexts) == {"x", "y"}


def test_fig1_times_100_all_retained():
    vocab = build_vocab(repeat_pairs(FIG1_PAIRS, 100), min_count=100)
    assert set(vocab.word_index) == {
        "scientist", "australian", "discovers", "stars", "telescope",
    }
    assert len(vocab.contexts) == 8
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


class CountingStream:
    """A re-iterable pair stream that counts how often it is read."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.reads = 0

    def __iter__(self):
        self.reads += 1
        return iter(self.pairs)


def test_train_reads_its_stream_once():
    stream = CountingStream(repeat_pairs(FIG1_PAIRS, 3))
    store = train(stream, small_config(min_count=2, epochs=2))
    assert stream.reads == 1
    assert store.vocab.n_words == 5


def test_one_pass_ids_equal_two_pass_encoding():
    # counts: words a 4, b 4, c 2 (a/b tie), d 1 (dropped); contexts x 4,
    # z 3, y 3 (y/z tie), w 1 (dropped), so pairs holding d or w drop out
    pairs = [
        ("b", "x"), ("a", "z"), ("d", "x"), ("c", "y"), ("a", "x"), ("b", "y"),
        ("a", "w"), ("b", "z"), ("c", "x"), ("a", "y"), ("b", "z"),
    ]
    min_count = 2
    vocab, word_ids, ctx_ids = sgns.encode(pairs, min_count)

    # the former two passes: count with Counters, then look every pair up
    def retain(counter):
        return sorted(
            ((tok, n) for tok, n in counter.items() if n >= min_count),
            key=lambda item: (-item[1], item[0]),
        )

    kept_words = retain(Counter(w for w, _ in pairs))
    kept_ctxs = retain(Counter(c for _, c in pairs))
    assert vocab.words == [tok for tok, _ in kept_words] == ["a", "b", "c"]
    assert vocab.contexts == [tok for tok, _ in kept_ctxs] == ["x", "y", "z"]
    assert vocab.word_counts.tolist() == [n for _, n in kept_words]
    assert vocab.context_counts.tolist() == [n for _, n in kept_ctxs]
    assert vocab.word_counts.dtype == vocab.context_counts.dtype == np.int64
    assert vocab.word_index == {tok: i for i, tok in enumerate(vocab.words)}
    context_index = {tok: i for i, tok in enumerate(vocab.contexts)}
    expected = [
        (vocab.word_index[w], context_index[c])
        for w, c in pairs
        if w in vocab.word_index and c in context_index
    ]
    assert word_ids.dtype == ctx_ids.dtype == np.int32
    assert list(zip(word_ids.tolist(), ctx_ids.tolist())) == expected
    counted = build_vocab(pairs, min_count)
    assert (counted.words, counted.contexts) == (vocab.words, vocab.contexts)
    assert np.array_equal(counted.word_counts, vocab.word_counts)
    assert np.array_equal(counted.context_counts, vocab.context_counts)


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
    store = train(pairs, cfg)
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

    # with negatives: a one-entry unigram table draws context 2 for all three
    # negatives, so the inline update must sum three gradient rows into C[2];
    # learning_rate 100 makes the floor rate 1e-2, so each step stands well
    # above float32 rounding
    cfg = TrainerConfig(dim=4, negatives=3, epochs=1, learning_rate=100.0, seed=9)
    rng = np.random.default_rng(3)
    W0 = (rng.random((2, 4)) - 0.5).astype(np.float32)
    C0 = (rng.random((3, 4)) - 0.5).astype(np.float32)
    W, C = W0.copy(), C0.copy()
    losses = sgns._sgd(
        W, C, np.array([1], np.int32), np.array([0], np.int32),
        np.array([2], np.int32), np.ones(2), cfg,
    )
    rows = [0, 2, 2, 2]
    loss, grad_w, grad_c = pair_loss_and_grad(
        W0[1].astype(np.float64), C0[rows].astype(np.float64), np.array([1.0, 0.0, 0.0, 0.0])
    )
    lr = cfg.learning_rate * 1e-4  # one pair, one epoch: the floor rate
    assert losses == [pytest.approx(loss, rel=1e-6)]
    np.testing.assert_allclose(W[1] - W0[1], -lr * grad_w, rtol=1e-4)
    np.testing.assert_array_equal(W[0], W0[0])
    np.testing.assert_allclose(C[0] - C0[0], -lr * grad_c[0], rtol=1e-4)
    np.testing.assert_allclose(C[2] - C0[2], -lr * grad_c[1:].sum(axis=0), rtol=1e-4)
    np.testing.assert_array_equal(C[1], C0[1])

    # one batch of four pairs: the first two share word 1, the second and
    # third draw negatives equal to their positive context 2 (masked out),
    # and word 2 keeps with probability 0, so the fourth pair only counts in
    # the schedule. Per-pair rates are 3/4, 2/4 and 1/4 of the base rate, and
    # the batch applies the sum of the three gradients taken at W0, C0.
    assert sgns.BATCH_SIZE >= 4
    cfg = TrainerConfig(dim=4, negatives=3, epochs=1, learning_rate=1.0, seed=9)
    W0 = (rng.random((3, 4)) - 0.5).astype(np.float32)
    W, C = W0.copy(), C0.copy()
    losses = sgns._sgd(
        W, C, np.array([1, 1, 0, 2], np.int32), np.array([0, 2, 2, 1], np.int32),
        np.array([2], np.int32), np.array([1.0, 1.0, 0.0]), cfg,
    )
    expected_w = W0.astype(np.float64)
    expected_c = C0.astype(np.float64)
    expected_loss = 0.0
    for w, rows, lr in (
        (1, [0, 2, 2, 2], 0.75),
        (1, [2], 0.5),
        (0, [2], 0.25),
    ):
        labels = np.zeros(len(rows))
        labels[0] = 1.0
        loss, grad_w, grad_c = pair_loss_and_grad(
            W0[w].astype(np.float64), C0[rows].astype(np.float64), labels
        )
        expected_loss += loss
        expected_w[w] -= lr * grad_w
        np.add.at(expected_c, rows, -lr * grad_c)
    assert losses == [pytest.approx(expected_loss / 3, rel=1e-6)]
    np.testing.assert_allclose(W, expected_w, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(C, expected_c, rtol=1e-6, atol=1e-7)
    np.testing.assert_array_equal(W[2], W0[2])
    np.testing.assert_array_equal(C[1], C0[1])


def test_batch_step_at_paper_shapes_matches_float64_reference():
    """One full batch of 64 pairs with 15 negatives each, drawn from a
    3-id unigram table, so negatives repeat within and across pairs and
    some equal their positive; the summed update must match np.add.at over
    per-pair float64 gradients."""
    B, K, d = 64, 15, 300
    rng = np.random.default_rng(21)
    W0 = (rng.random((10, d)) - 0.5).astype(np.float32)
    C0 = (rng.random((5, d)) - 0.5).astype(np.float32)
    table = build_unigram_table(np.array([50, 30, 20]), table_size=100)
    words = rng.integers(0, 10, size=B).astype(np.int32)
    rows = np.concatenate(
        (rng.integers(0, 5, size=(B, 1)), table[rng.integers(0, len(table), size=(B, K))]),
        axis=1,
    ).astype(np.int32)
    lrs = rng.uniform(0.01, 0.05, size=B)
    assert (rows[:, 1:] == rows[:, :1]).any() and len(np.unique(rows[:, 1:])) == 3
    # the batch's plans, masked rates, labels and score buffer, as _sgd makes them
    (w_plan,) = sgns._plan(words[:, None], np.array([0, B]), len(W0), W0.dtype)
    (c_plan,) = sgns._plan(rows, np.array([0, B]), len(C0))
    live = np.ones(rows.shape, dtype=bool)
    live[:, 1:] = rows[:, 1:] != rows[:, :1]
    labels = np.zeros(K + 1, dtype=np.float32)
    labels[0] = 1.0
    scores = np.empty((B, K + 1), dtype=np.float32)
    W, C = W0.copy(), C0.copy()
    sgns._batch_step(W, C, words, rows, labels, live * lrs[:, None], scores, w_plan, c_plan)
    # the batch's loss comes from its scores; a window of this one batch
    # makes the same update
    W1, C1 = W0.copy(), C0.copy()
    (loss,) = sgns._train_window(W1, C1, [sgns._Chunk(B, words, rows, lrs)], 1.0)
    assert np.array_equal(W1, W) and np.array_equal(C1, C)

    expected_w = W0.astype(np.float64)
    expected_c = C0.astype(np.float64)
    expected_loss = 0.0
    expected_scores = np.einsum(
        "bkd,bd->bk", C0[rows].astype(np.float64), W0[words].astype(np.float64)
    )
    for w, pair_rows, lr in zip(words, rows, lrs):
        # negatives equal to the positive are masked out
        pair_rows = pair_rows[np.r_[True, pair_rows[1:] != pair_rows[0]]]
        labels = np.zeros(len(pair_rows))
        labels[0] = 1.0
        pair_loss, grad_w, grad_c = pair_loss_and_grad(
            W0[w].astype(np.float64), C0[pair_rows].astype(np.float64), labels
        )
        expected_loss += pair_loss
        np.add.at(expected_w, w, -lr * grad_w)
        np.add.at(expected_c, pair_rows, -lr * grad_c)
    assert loss == pytest.approx(expected_loss, rel=1e-5)
    np.testing.assert_allclose(scores, expected_scores, rtol=1e-5, atol=1e-6)
    # atol only covers float32 rounding of entries that cancel to near zero
    np.testing.assert_allclose(W, expected_w, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(C, expected_c, rtol=1e-5, atol=1e-6)


def reference_plan(ids, starts):
    """Each batch's unique ids, slots and float32 counts, from np.unique and
    np.bincount of the batch alone."""
    for start, stop in zip(starts[:-1], starts[1:]):
        batch = ids[start:stop]
        B = len(batch)
        uniq, inv = np.unique(batch.ravel(), return_inverse=True)
        slots = inv * B + np.repeat(np.arange(B), batch.shape[1])
        counts = np.bincount(slots, minlength=len(uniq) * B).reshape(len(uniq), B)
        yield uniq, slots, counts.astype(np.float32)


def plan_windows():
    """(batch sizes, width, n_rows) of edge windows, then random ones."""
    yield [64], 1, 1  # one batch, one row
    yield [1], 16, 1
    yield [64, 64, 17], 6, 30  # ends in a partial batch
    yield [64, 9, 64, 64, 40], 16, 20_000  # a partial batch inside, and at the end
    yield [64] * 3, 1, 5_000
    rng = np.random.default_rng(5)
    for _ in range(40):
        sizes = [sgns.BATCH_SIZE if rng.random() < 0.7 else int(rng.integers(1, 64))
                 for _ in range(rng.integers(1, 9))]
        yield sizes, int(rng.choice([1, 2, 6, 16])), int(rng.choice([1, 2, 7, 30, 500, 20_000]))


def test_plan_sides_agree_with_per_batch_unique(monkeypatch):
    """The counting and sorting sides of _plan give every batch the ids,
    slots and counts of np.unique over the batch alone."""
    rule = sgns._by_counting
    natural_sides = set()
    for sizes, width, n_rows in plan_windows():
        starts = np.concatenate(([0], np.cumsum(sizes)))
        rng = np.random.default_rng(len(sizes) * width + n_rows)
        ids = rng.integers(0, n_rows, size=(starts[-1], width)).astype(np.int32)
        ids[-1, -1] = n_rows - 1  # the window's last key, at the end of its span
        natural_sides.add(rule(len(sizes) * n_rows, ids.size))
        expected = list(reference_plan(ids, starts))
        for counting in (True, False):
            monkeypatch.setattr(sgns, "_by_counting", lambda span, n_keys: counting)
            slot_plans = sgns._plan(ids, starts, n_rows)
            count_plans = sgns._plan(ids, starts, n_rows, np.float32)
            assert len(slot_plans) == len(count_plans) == len(sizes)
            for (uniq, slots), (count_uniq, counts), (ref_uniq, ref_slots, ref_counts) in zip(
                slot_plans, count_plans, expected
            ):
                assert np.array_equal(uniq, ref_uniq) and np.array_equal(count_uniq, ref_uniq)
                assert np.array_equal(slots, ref_slots)
                assert counts.dtype == np.float32 and np.array_equal(counts, ref_counts)
    assert natural_sides == {True, False}


def test_plan_counts_at_search_scale_and_sorts_at_paper_scale():
    # search-smoke: about 80 batches of at most 150 contexts against 25k keys
    assert sgns._by_counting(80 * 150, 25_000)
    # train-paper: about 40 batches of 21.8k contexts against 40k keys
    assert not sgns._by_counting(40 * 21_800, 40_000)
    # one key sorts, as a span holds at least one row
    assert not sgns._by_counting(1, 1)


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


def test_word_side_subsampling_is_seeded():
    # one frequent word is mostly dropped at t = 1e-2, so the draws matter
    pairs = [("w_common", f"c_{i % 10}") for i in range(900)]
    pairs += [(f"w_{i}", f"c_{i % 10}") for i in range(100)]
    a = train(pairs, small_config(subsample=1e-2, seed=4))
    b = train(pairs, small_config(subsample=1e-2, seed=4))
    assert np.isfinite(a.word_vectors).all()
    assert np.isfinite(a.context_vectors).all()
    assert np.array_equal(a.word_vectors, b.word_vectors)
    assert np.array_equal(a.context_vectors, b.context_vectors)
    assert a.epoch_losses == b.epoch_losses
    # the subsampling draws did drop pairs
    unsampled = train(pairs, small_config(subsample=1.0, seed=4))
    assert not np.array_equal(a.context_vectors, unsampled.context_vectors)


@pytest.mark.parametrize(
    "n_pairs, t",
    [
        (12, 1.0),  # shorter than one batch
        (sgns._CHUNK + 2 * sgns.BATCH_SIZE + 5, 1.0),  # no multiple of either
        (300, 1e-2),  # subsampling drops pairs inside batches
    ],
)
def test_edge_shapes_train_deterministically(n_pairs, t):
    rng = np.random.default_rng(n_pairs)
    # word 0 is frequent, so t = 1e-2 keeps about a tenth of its pairs
    word_ids = np.where(rng.random(n_pairs) < 0.8, 0, rng.integers(1, 6, n_pairs)).astype(np.int32)
    ctx_ids = rng.integers(0, 4, n_pairs).astype(np.int32)
    keep_prob = np.ones(6)
    if t < 1.0:
        keep_prob = keep_probabilities(np.bincount(word_ids, minlength=6), t)
        assert keep_prob[0] < 0.2
    # context 4 appears in no pair, so no negative is masked
    table = np.array([4], np.int32)

    def run(learning_rate):
        cfg = small_config(subsample=t, negatives=3, learning_rate=learning_rate)
        W = (np.random.default_rng(1).random((6, 16)) - 0.5).astype(np.float32)
        C = np.zeros((5, 16), np.float32)
        losses = sgns._sgd(W, C, word_ids, ctx_ids, table, keep_prob, cfg)
        return W, C, losses

    W, C, losses = run(0.025)
    assert np.isfinite(W).all() and np.isfinite(C).all()
    W2, C2, losses2 = run(0.025)
    assert np.array_equal(W, W2) and np.array_equal(C, C2) and losses == losses2
    # a vanishing rate keeps every score at 0, so each updated pair costs
    # (1 + negatives) ln 2 and so does the mean over updated pairs
    _, _, losses = run(1e-12)
    assert losses == pytest.approx([4 * np.log(2)] * 3, rel=1e-6)


def test_train_logs_sgd_throughput(caplog):
    with caplog.at_level("INFO", logger="depctx.sgns"):
        train(FIG1_PAIRS, small_config())
    assert re.search(r"in \d+\.\d\d s of SGD, \d+ pairs/s", caplog.text)


def test_divergence_detected():
    pairs, _ = planted_corpus(seed=12, pairs_per_word=500, group_size=3, n_contexts=10)
    with pytest.raises(TrainingDivergedError):
        train(pairs, small_config(learning_rate=1e30, epochs=2))


def test_no_pairs_after_filtering_is_an_error():
    # min_count=2 keeps word a and context x, but no pair holds both
    pairs = [("a", "y"), ("a", "z"), ("b", "x"), ("c", "x")]
    with pytest.raises(VocabularyError, match="no training pairs"):
        train(pairs, small_config(min_count=2))


def test_trainer_config_validation():
    for bad in (
        dict(dim=0),
        dict(negatives=0),
        dict(learning_rate=0.0),
        dict(epochs=0),
        dict(subsample=0.0),
        dict(learning_rate=float("nan")),
        dict(subsample=float("nan")),
        dict(subsample=float("inf")),
        dict(unigram_power=float("nan")),
        dict(unigram_power=float("-inf")),
    ):
        with pytest.raises(ValueError):
            TrainerConfig(**bad)


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainerConfig(seed=-1)
    assert TrainerConfig(seed=0).seed == 0


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


EDGE_VALUES = [0.0, -0.0, 1e-45, float(np.finfo(np.float32).max), -1 / 3, 1e7]


def edge_store(words, contexts, dim=len(EDGE_VALUES)):
    """A store of ``words`` and ``contexts`` whose rows are rotations of
    EDGE_VALUES, cut to ``dim`` values; context rows are negated."""

    def rows(n):
        k = len(EDGE_VALUES)
        rotations = [EDGE_VALUES[i % k:] + EDGE_VALUES[: i % k] for i in range(n)]
        return np.array(rotations, dtype=np.float32).reshape(n, k)[:, :dim]

    vocab = Vocabulary(
        word_index={w: i for i, w in enumerate(words)},
        word_counts=np.ones(len(words), np.int64), context_counts=np.ones(len(contexts), np.int64),
        words=list(words), contexts=list(contexts),
    )
    return EmbeddingStore(rows(len(words)), -rows(len(contexts)), vocab)


def per_value_text(tokens, matrix):
    """The saved text of one side, formatted one value at a time."""
    rows = (" ".join([tok, *(f"{x:.9g}" for x in row)]) for tok, row in zip(tokens, matrix))
    return f"{len(tokens)} {matrix.shape[1]}\n" + "".join(row + "\n" for row in rows)


def assert_saved_per_value(store, path):
    ctx_path = path.with_name(path.stem + "_ctx" + path.suffix)
    assert path.read_bytes() == per_value_text(store.vocab.words, store.word_vectors).encode()
    assert ctx_path.read_bytes() == per_value_text(
        store.vocab.contexts, store.context_vectors
    ).encode()


def test_saved_bytes_match_per_value_formatting(tmp_path, monkeypatch):
    edge = EDGE_VALUES
    W = np.array([edge, edge[::-1]], dtype=np.float32)
    C = -W[:1]
    vocab = Vocabulary(
        word_index={"a": 0, "b%s": 1},
        word_counts=np.ones(2, np.int64), context_counts=np.ones(1, np.int64),
        words=["a", "b%s"], contexts=["x"],
    )
    save_embeddings(EmbeddingStore(W, C, vocab), tmp_path / "v.txt", include_context=True)
    assert_saved_per_value(EmbeddingStore(W, C, vocab), tmp_path / "v.txt")
    assert "1.40129846e-45" in (tmp_path / "v.txt").read_text()

    # in blocks of 3 rows, in this process on one CPU and in workers on two
    monkeypatch.setattr(sgns, "_ROWS_PER_BLOCK", 3)
    words = ["a", "b%s"] + [f"w{i}" for i in range(2, 8)]
    contexts = [f"x{i}_amod" for i in range(7)]
    stores = {
        "blocks": edge_store(words, contexts),
        "no-rows": edge_store([], []),
        "no-dims": edge_store(words, contexts, dim=0),
    }
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for name, store in stores.items():
            path = tmp_path / f"{name}-{cpus}.txt"
            save_embeddings(store, path, include_context=True)
            assert_saved_per_value(store, path)


@pytest.mark.parametrize(
    "words, contexts, first",
    [(["a", "1 000", "b c"], ["x"], "1 000"), (["a"], ["x", "1 000_nummod"], "1 000_nummod")],
    ids=["words", "contexts"],
)
def test_a_token_holding_a_space_is_refused_before_any_file_opens(
    tmp_path, words, contexts, first
):
    store = edge_store(words, contexts)
    path = tmp_path / "v.txt"
    path.write_text("an earlier model\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=re.escape(repr(first))):
        save_embeddings(store, path, include_context=True)
    assert path.read_text(encoding="utf-8") == "an earlier model\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.txt"]


_TEST_PROCESS = os.getpid()
_real_format_rows = sgns._format_rows


def _format_rows_dying_in_a_worker(tokens, rows):
    if os.getpid() != _TEST_PROCESS:
        os._exit(1)
    return _real_format_rows(tokens, rows)


def _format_rows_failing_on_boom(tokens, rows):
    if "boom" in tokens:
        raise ValueError("formatting failed")
    return _real_format_rows(tokens, rows)


@pytest.mark.parametrize(
    "failure, side, cpus, error",
    [
        ("killed", "words", 2, BrokenProcessPool),
        ("raises", "words", 2, ValueError),
        ("raises", "contexts", 2, ValueError),
        ("raises", "words", 1, ValueError),
        ("raises", "contexts", 1, ValueError),
    ],
)
def test_a_failed_save_leaves_no_model_and_no_worker(
    tmp_path, monkeypatch, failure, side, cpus, error
):
    if cpus > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the save forks no worker without fork")
    monkeypatch.setattr(sgns, "_ROWS_PER_BLOCK", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    words = [f"w{i}" for i in range(8)]
    contexts = [f"x{i}" for i in range(8)]
    # "boom" sits in the second block of its side, after one block is written
    (words if side == "words" else contexts)[4] = "boom"
    store = edge_store(words, contexts)
    path = tmp_path / "v.txt"
    failing = {"killed": _format_rows_dying_in_a_worker, "raises": _format_rows_failing_on_boom}
    monkeypatch.setattr(sgns, "_format_rows", failing[failure])
    with pytest.raises(error):
        save_embeddings(store, path, include_context=True)
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(sgns, "_format_rows", _real_format_rows)
    save_embeddings(store, path, include_context=True)
    assert_saved_per_value(store, path)


def test_load_rejects_inconsistent_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\nw1 0.1 0.2 0.3\nw2 0.1 0.2\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="3"):
        load_embeddings(path)
    path.write_text("not a header\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(path)


def tiny_model(count, rows=7, faults=()):
    """A dim-3 model text whose header declares ``count`` rows, holding
    ``rows`` rows of 15 bytes, with row i replaced by the text of each
    (i, text) of ``faults``. Loaded at _ROWS_PER_BLOCK = 1, its ranges are of
    64 bytes cut after a line feed, so they hold rows 0-4 and 5-9."""
    lines = [f"w{i} 0.1 0.2 0.3" for i in range(rows)]
    for i, text in faults:
        lines[i] = text
    return f"{count} 3\n" + "".join(line + "\n" for line in lines)


def test_tiny_model_ranges_cut_after_five_rows(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(tiny_model(10, rows=10), encoding="utf-8")
    with open(path, "rb") as f:
        header = len(f.readline())
        # the range size of load_embeddings at _ROWS_PER_BLOCK = 1 and dim 3
        ranges = sgns._ranges(f, header, path.stat().st_size, 1 * (3 + 1) * 16)
    assert ranges == [(header, header + 5 * 15), (header + 5 * 15, header + 10 * 15)]


@pytest.mark.parametrize(
    "text, where",
    [
        ("2 3\nw1 0.1 0.2 0.3\nw2 0.1 0.2 0.3 0.4\n", ":3: expected 4 fields, got 5"),
        ("1 3\nw1 0.1 0.2 0.3\nw2 0.1 0.2 0.3\n", ":3: more rows than header declares"),
        ("3 3\nw1 0.1 0.2 0.3\nw2 0.1 0.2 0.3\n", ": header declares 3 rows, found 2"),
        ("0 3\nw1 0.1 0.2 0.3\n", ":2: more rows than header declares"),
        ("2 x\n", ":1: bad header"),
        ("2 -3\n", ":1: bad header"),
        ("2 3\nw1 0.1 x 0.3\nw2 0.1 0.2 0.3\n", ":2: bad value 'x'"),
        ("2 1\nw1 \nw2 0.1\n", ":2: bad value ''"),
        # at _ROWS_PER_BLOCK = 1 the ranges hold rows 0-4 and 5-9: each fault
        # sits at the cut (row 5) or inside the second range (row 6)
        (tiny_model(7, faults=[(5, "w5 0.1 0.2 0.3 0.4")]), ":7: expected 4 fields, got 5"),
        (tiny_model(7, faults=[(6, "w6 0.1")]), ":8: expected 4 fields, got 2"),
        (tiny_model(5), ":7: more rows than header declares"),
        (tiny_model(6), ":8: more rows than header declares"),
        (tiny_model(8), ": header declares 8 rows, found 7"),
        (tiny_model(7, faults=[(5, "w5 0.1 x 0.3")]), ":7: bad value 'x'"),
        (tiny_model(7, faults=[(6, "w6 0.1 0.2 0.3y")]), ":8: bad value '0.3y'"),
        # a row beyond the declared count is an extra row, malformed or not
        (tiny_model(5, faults=[(5, "w5 x")]), ":7: more rows than header declares"),
        # the first fault in file order is the one raised
        (tiny_model(7, faults=[(3, "w3 0.1 0.2 x"), (6, "w6")]), ":5: bad value 'x'"),
        # a header no file could fill raises without allocating its rows
        (tiny_model(999_999_999, rows=2), ": header declares 999999999 rows, found 2"),
    ],
)
def test_load_errors_name_the_line(tmp_path, monkeypatch, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    # one range and tiny ranges, parsed in this process and in workers
    for rows_per_block, cpus in itertools.product((sgns._ROWS_PER_BLOCK, 1), (1, 2)):
        monkeypatch.setattr(sgns, "_ROWS_PER_BLOCK", rows_per_block)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        with pytest.raises(EmbeddingFormatError, match=re.escape(f"{path}{where}")):
            load_embeddings(path)


def test_load_round_trips_float32_edge_values(tmp_path):
    edge = [0.0, -0.0, 1e-45, float(np.finfo(np.float32).max), -1 / 3, 1e7, np.nan, -np.inf]
    W = np.array([edge, edge[::-1]], dtype=np.float32)
    vocab = Vocabulary(
        word_index={"a": 0, "#b": 1},
        word_counts=np.ones(2, np.int64), context_counts=np.zeros(0, np.int64),
        words=["a", "#b"], contexts=[],
    )
    save_embeddings(EmbeddingStore(W, np.zeros((0, 8), np.float32), vocab), tmp_path / "v.txt")
    loaded = load_embeddings(tmp_path / "v.txt")
    assert loaded.vocab.words == ["a", "#b"]
    assert loaded.word_vectors.dtype == np.float32
    assert np.array_equal(loaded.word_vectors, W, equal_nan=True)
    assert np.array_equal(np.signbit(loaded.word_vectors), np.signbit(W))


def test_load_keeps_the_shape_of_empty_models(tmp_path):
    (tmp_path / "none.txt").write_text("0 7\n", encoding="utf-8")
    assert load_embeddings(tmp_path / "none.txt").word_vectors.shape == (0, 7)
    (tmp_path / "flat.txt").write_text("2 0\na\nb\n", encoding="utf-8")
    flat = load_embeddings(tmp_path / "flat.txt")
    assert flat.word_vectors.shape == (2, 0)
    assert flat.vocab.words == ["a", "b"]


LOAD_EDGE_VALUES = EDGE_VALUES + [float("nan"), float("-inf")]


def loaded_models(tmp_path):
    """(name, path, words, matrix) of models whose loads are compared at one
    and at two CPUs, with the words and values each must load as."""
    k = len(LOAD_EDGE_VALUES)
    edge = np.array(
        [LOAD_EDGE_VALUES[i % k:] + LOAD_EDGE_VALUES[:i % k] for i in range(12)], dtype=np.float32
    )
    words = ["a", "é", "日本", "car\rriage", "#b"] + [f"w{i}" for i in range(5, 12)]
    models = []
    for name, tokens, matrix in [
        ("edge", words, edge), ("no-rows", [], edge[:0, :7]), ("no-dims", words[:2], edge[:2, :0]),
    ]:
        vocab = Vocabulary(
            word_index={w: i for i, w in enumerate(tokens)},
            word_counts=np.ones(len(tokens), np.int64), context_counts=np.zeros(0, np.int64),
            words=list(tokens), contexts=[],
        )
        path = tmp_path / f"{name}.txt"
        save_embeddings(EmbeddingStore(matrix, matrix[:0], vocab), path)
        models.append((name, path, tokens, matrix))
    unended = tmp_path / "unended.txt"
    unended.write_bytes(models[0][1].read_bytes().rstrip(b"\n"))
    models.append(("unended", unended, words, edge))
    return models


def test_load_on_one_and_two_cpus_gives_the_saved_store(tmp_path, monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the load forks no worker without fork")
    models = loaded_models(tmp_path)
    assert (tmp_path / "no-rows.txt").read_text(encoding="utf-8") == "0 7\n"
    assert (tmp_path / "no-dims.txt").read_text(encoding="utf-8") == "2 0\na\né\n"
    # ranges of one or two rows
    monkeypatch.setattr(sgns, "_ROWS_PER_BLOCK", 1)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for name, path, words, matrix in models:
            loaded = load_embeddings(path)
            assert loaded.vocab.words == words, (name, cpus)
            vectors = loaded.word_vectors
            assert vectors.dtype == np.float32 and vectors.flags.c_contiguous, (name, cpus)
            assert vectors.shape == matrix.shape, (name, cpus)
            assert np.array_equal(vectors, matrix, equal_nan=True), (name, cpus)
            assert np.array_equal(np.signbit(vectors), np.signbit(matrix)), (name, cpus)
            assert loaded.context_vectors.shape == (0, matrix.shape[1])
    assert multiprocessing.active_children() == []


def test_a_one_range_file_or_one_cpu_loads_without_a_process(tmp_path, monkeypatch):
    _, path, words, matrix = loaded_models(tmp_path)[0]

    def no_fork():
        raise AssertionError("the load started a process")

    monkeypatch.setattr(os, "fork", no_fork)
    # one range on two CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert load_embeddings(path).vocab.words == words
    # many ranges on one CPU
    monkeypatch.setattr(sgns, "_ROWS_PER_BLOCK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    loaded = load_embeddings(path)
    assert np.array_equal(loaded.word_vectors, matrix, equal_nan=True)


@needs_fork
def test_only_a_file_of_several_ranges_loads_in_workers(tmp_path, monkeypatch):
    path = tmp_path / "v.txt"
    path.write_text(
        "10 3\n" + "".join(f"w{i} {i}.5 -{i} {i}e-3\n" for i in range(10)), encoding="utf-8"
    )
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = count_process_starts(monkeypatch)
    one = load_embeddings(path)
    assert started == []
    monkeypatch.setattr(sgns, "_ROWS_PER_BLOCK", 1)
    several = load_embeddings(path)
    assert len(started) == 2
    assert one.vocab.words == several.vocab.words == [f"w{i}" for i in range(10)]
    assert np.array_equal(one.word_vectors, several.word_vectors)
    assert one.word_vectors[3].tolist() == np.float32([3.5, -3, 3e-3]).tolist()


_real_parse_range = sgns._parse_range


def _parse_range_dying_in_a_worker(path, start, stop, dim):
    if os.getpid() != _TEST_PROCESS:
        os._exit(1)
    return _real_parse_range(path, start, stop, dim)


def _parse_range_failing_after_the_first(path, start, stop, dim):
    block = _real_parse_range(path, start, stop, dim)
    if "w0" not in block[0]:
        raise OSError("reading failed")
    return block


@pytest.mark.parametrize(
    "failure, cpus, error",
    [("killed", 2, BrokenProcessPool), ("raises", 2, OSError), ("raises", 1, OSError)],
)
def test_a_failed_load_raises_and_leaves_no_worker(tmp_path, monkeypatch, failure, cpus, error):
    if cpus > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the load forks no worker without fork")
    path = tmp_path / "v.txt"
    path.write_text(tiny_model(10, rows=10), encoding="utf-8")
    monkeypatch.setattr(sgns, "_ROWS_PER_BLOCK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    failing = {"killed": _parse_range_dying_in_a_worker, "raises": _parse_range_failing_after_the_first}
    monkeypatch.setattr(sgns, "_parse_range", failing[failure])
    with pytest.raises(error):
        load_embeddings(path)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(sgns, "_parse_range", _real_parse_range)
    assert load_embeddings(path).vocab.words == [f"w{i}" for i in range(10)]


def test_check_savable_refuses_a_spaced_context_only_with_contexts():
    store = edge_store(["a", "b"], ["x", "1 000_nummod"])
    sgns.check_savable(store.vocab)
    with pytest.raises(EmbeddingFormatError, match=re.escape("cannot save '1 000_nummod'")):
        sgns.check_savable(store.vocab, include_context=True)


def load_through_a_pipe(data: bytes):
    """:func:`load_embeddings` of ``data`` written to a pipe."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        return load_embeddings(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_load_reads_a_pipe(tmp_path, monkeypatch):
    # several load ranges on two CPUs, were it a file
    monkeypatch.setattr(sgns, "_ROWS_PER_BLOCK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    data = tiny_model(10, rows=10).encode("utf-8")
    path = tmp_path / "v.txt"
    path.write_bytes(data)
    from_file, from_pipe = load_embeddings(path), load_through_a_pipe(data)
    assert from_pipe.vocab.words == from_file.vocab.words == [f"w{i}" for i in range(10)]
    assert np.array_equal(from_pipe.word_vectors, from_file.word_vectors)
    assert from_pipe.word_vectors.shape == (10, 3)
    bad = tiny_model(10, rows=10, faults=[(4, "w4 0.1 0.2")]).encode("utf-8")
    with pytest.raises(EmbeddingFormatError, match=r":6: expected 4 fields, got 3"):
        load_through_a_pipe(bad)
