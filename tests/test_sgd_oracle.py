"""`sgns._sgd` against a per-batch reference, bit for bit.

The reference below is the trainer's loop as it was before the index work of
the updates was planned per window: every batch takes its own `np.unique` in
`_scatter_add` and computes its own loss. Both make the same draws and the
same GEMM calls on the same operands, so W, C and the epoch losses must be
equal, not close, on any BLAS kernel. The trainer finds a window's unique
ids by counting or by sorting, as the window's sizes decide; the cases take
each side on each matrix.
"""

import numpy as np
import pytest

from depctx import sgns
from depctx.sgns import TrainerConfig, TrainingDivergedError, keep_probabilities


def reference_sgd(W, C, word_ids, ctx_ids, table, keep_prob, config):
    rng = np.random.default_rng((config.seed, 0))
    n = len(word_ids)
    total = config.epochs * n
    table_len = len(table)
    epoch_losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss_sum = 0.0
            n_updates = 0
            for start in range(0, n, sgns._CHUNK):
                stop = min(start + sgns._CHUNK, n)
                m = stop - start
                keep_draws = rng.random(m)
                neg_draws = table[rng.integers(0, table_len, size=(m, config.negatives))]
                words = word_ids[start:stop]
                kept = np.flatnonzero(keep_draws < keep_prob[words])
                consumed = epoch * n + start + 1 + kept
                lrs = config.learning_rate * np.maximum(
                    1.0 - consumed / total, sgns.LR_FLOOR_FRACTION
                )
                rows = np.concatenate((ctx_ids[start:stop, None], neg_draws), axis=1)[kept]
                words = words[kept]
                for b in range(0, len(kept), sgns.BATCH_SIZE):
                    batch = slice(b, b + sgns.BATCH_SIZE)
                    loss_sum += reference_batch_step(W, C, words[batch], rows[batch], lrs[batch])
                n_updates += len(kept)
            if not (np.isfinite(W).all() and np.isfinite(C).all()):
                raise TrainingDivergedError("non-finite parameters during training")
            epoch_losses.append(loss_sum / n_updates if n_updates else 0.0)
    return epoch_losses


def reference_batch_step(W, C, words, rows, lrs):
    w_vecs = W[words]
    c_vecs = C[rows]
    scores = np.matmul(c_vecs, w_vecs[:, :, None])[:, :, 0]
    np.clip(scores, -sgns.MAX_SCORE, sgns.MAX_SCORE, out=scores)
    live = np.ones(rows.shape, dtype=bool)
    live[:, 1:] = rows[:, 1:] != rows[:, :1]
    residual = -1.0 / (1.0 + np.exp(-scores))
    residual[:, 0] += 1.0
    residual *= live
    losses = np.logaddexp(0.0, scores) * live
    losses[:, 0] -= scores[:, 0]
    g = (residual * lrs[:, None]).astype(W.dtype)
    grad_w = np.matmul(g[:, None, :], c_vecs)[:, 0]
    reference_scatter_add(W, words[:, None], np.ones((len(words), 1)), grad_w)
    reference_scatter_add(C, rows, g, w_vecs)
    return float(losses.sum(dtype=np.float64))


def reference_scatter_add(M, ids, coef, vecs):
    B = len(vecs)
    uniq, inv = np.unique(ids.ravel(), return_inverse=True)
    slots = inv * B + np.repeat(np.arange(B), ids.shape[1])
    G = np.bincount(slots, weights=coef.ravel(), minlength=len(uniq) * B)
    M[uniq] += G.reshape(len(uniq), B).astype(M.dtype) @ vecs


@pytest.mark.parametrize(
    "n_pairs, epochs, dim, negatives, subsample, n_words, n_ctxs, counted",
    [
        (16, 30, 24, 5, 1.0, 40, 30, (True, True)),  # an epoch shorter than one batch
        # windows of 14 epochs, so a window closes mid-run
        (300, 30, 24, 5, 1e-2, 40, 30, (True, True)),
        # some epochs keep no pair at all, and too few words are kept to count them
        (16, 30, 8, 3, 1e-3, 40, 30, (False, True)),
        # several chunks per epoch
        (sgns._CHUNK + 2 * sgns.BATCH_SIZE + 5, 2, 16, 5, 1.0, 40, 30, (True, True)),
        (1000, 2, 300, 15, 1e-2, 40, 30, (True, True)),  # paper dim and negatives
        # a context range that _plan sorts, as at paper scale; the words it counts
        (300, 30, 24, 5, 1.0, 40, 20_000, (True, False)),
        # both ranges sorted
        (300, 30, 24, 5, 1.0, 5_000, 20_000, (False, False)),
    ],
    ids=[
        "short-epochs", "window-boundary", "empty-epochs", "many-chunks", "paper-shape",
        "sorted-contexts", "sorted-both",
    ],
)
def test_sgd_matches_the_per_batch_reference_bit_for_bit(
    monkeypatch, n_pairs, epochs, dim, negatives, subsample, n_words, n_ctxs, counted
):
    rng = np.random.default_rng(n_pairs + dim)
    # a frequent word 0 and context 0, so ids repeat inside batches, and a
    # small table, so negatives repeat and some equal the positive
    word_ids = np.where(rng.random(n_pairs) < 0.5, 0, rng.integers(1, n_words, n_pairs))
    ctx_ids = np.where(rng.random(n_pairs) < 0.3, 0, rng.integers(1, n_ctxs, n_pairs))
    word_ids, ctx_ids = word_ids.astype(np.int32), ctx_ids.astype(np.int32)
    keep_prob = keep_probabilities(np.bincount(word_ids, minlength=n_words) + 1, subsample)
    table = sgns.build_unigram_table(np.arange(1, 8), table_size=100)
    config = TrainerConfig(
        dim=dim, negatives=negatives, epochs=epochs, learning_rate=0.1, subsample=subsample,
        seed=n_pairs,
    )
    W0 = ((rng.random((n_words, dim)) - 0.5) / dim).astype(np.float32)
    C0 = ((rng.random((n_ctxs, dim)) - 0.5) / dim).astype(np.float32)

    # each window plans W, then C; record the side of the plan each takes
    sides = []
    rule = sgns._by_counting

    def recorded(span, n_keys):
        sides.append(rule(span, n_keys))
        return sides[-1]

    monkeypatch.setattr(sgns, "_by_counting", recorded)
    W, C = W0.copy(), C0.copy()
    losses = sgns._sgd(W, C, word_ids, ctx_ids, table, keep_prob, config)
    assert (set(sides[0::2]), set(sides[1::2])) == ({counted[0]}, {counted[1]})
    W_ref, C_ref = W0.copy(), C0.copy()
    ref_losses = reference_sgd(W_ref, C_ref, word_ids, ctx_ids, table, keep_prob, config)

    assert np.array_equal(W, W_ref)
    assert np.array_equal(C, C_ref)
    assert losses == ref_losses
    assert len(losses) == epochs and not np.array_equal(W, W0) and not np.array_equal(C, C0)
    if subsample == 1e-3:
        assert 0.0 in losses and max(losses) > 0.0
