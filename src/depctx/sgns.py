"""Skip-gram negative-sampling trainer for arbitrary (word, context) pairs.

Follows the word2vecf training semantics (sigmoid loss, negatives drawn
from the context unigram distribution raised to a power, per-pair linear
learning-rate decay, frequent-word subsampling on the word side,
uniform/zero initialization) with three departures:
- Pairs are updated in minibatches of BATCH_SIZE, each pair's gradient
  taken at the batch's starting parameters and the batch applying their
  sum, instead of one pair at a time. Each pair keeps its own negatives; a
  batch's updates reach the matrices as one dense GEMM per matrix over the
  rows the batch touches (the minibatch scheme of Ji et al. 2016, without
  their shared negatives).
- Subsampling keeps a pair with probability min(1, sqrt(t/f)), the formula
  of Mikolov et al. 2013's paper; the word2vec C code, which word2vecf
  copies, keeps it with sqrt(t/f) + t/f.
- Pairs are trained in stream order, which for a configuration's
  :class:`extraction.PairStream` is bag by bag in sorted bag-name order,
  not corpus order; so the bag that sorts last trains at the lowest
  learning rates of each epoch.
Training reads the pair stream once and is one single-threaded pass over
one seeded random stream, so a model is a pure function of the pair stream
and the configuration. The stream is drawn one chunk of _CHUNK pairs at a
time, and the index work of the updates (which rows each batch touches) is
planned once per window of successive chunks holding at least _CHUNK drawn
pairs, across epoch boundaries: a window is one chunk at paper scale, and
about _CHUNK / n epochs for a stream of n < _CHUNK pairs. A window's plan
finds the rows each batch touches by marking them in an array of flags when
the window's key range is small next to its key count, as on the smoke
search, and by sorting otherwise, as at paper scale; it also holds each
batch's word counts, and a window's batch losses are summed in one
reduction. Windows change no draw and no arithmetic, so no GEMM operand,
and finiteness is still checked after each epoch.
Matrices are float32.

A model is saved as word2vec text, formatted in blocks of _ROWS_PER_BLOCK
rows on every CPU (:func:`workers.forked`) and written in row order, so
the bytes are those of one process and at most two blocks per CPU are in
memory as text. It is loaded on every CPU as well: each worker reads and
parses its own byte range of about _ROWS_PER_BLOCK rows, and this process
copies the ranges' rows, in file order, into one matrix, so the vectors are
those of one parse and this process never holds the text. Like every stage,
a side of one block or a file of one range starts no process; nor does a
model read from a pipe, which this process parses as one range.
"""

from __future__ import annotations

import logging
import math
import os
import stat
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from . import workers

logger = logging.getLogger(__name__)

# Scores are clipped before the sigmoid in the hot loop; at +-30 the sigmoid
# is saturated to ~1e-13 so the clip is numerically invisible.
MAX_SCORE = 30.0
LR_FLOOR_FRACTION = 1e-4
_CHUNK = 4096
# Pairs per minibatch update; part of a trained model's identity.
BATCH_SIZE = 64
# Rows per task of a parallel model save, and about the rows per byte range of
# a parallel load; neither the bytes saved nor the store loaded depends on it.
_ROWS_PER_BLOCK = 256


class VocabularyError(ValueError):
    """Empty vocabulary or empty training stream after filtering."""


class TrainingDivergedError(RuntimeError):
    """Non-finite parameters detected during training."""


class EmbeddingFormatError(ValueError):
    """Malformed embedding text file."""


@dataclass
class Vocabulary:
    """Dense ids and raw counts for words and contexts, min-count filtered.

    Ids are assigned by descending count, ties broken lexicographically, so
    a vocabulary is a pure function of the pair multiset; a context's id is
    its position in ``contexts``.
    """

    word_index: dict[str, int]
    word_counts: np.ndarray
    context_counts: np.ndarray
    words: list[str]
    contexts: list[str]

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_contexts(self) -> int:
        return len(self.contexts)


@dataclass
class TrainerConfig:
    """SGNS hyperparameters; every field is part of a model's identity.

    ``subsample`` drops pairs by target-word frequency only, as word2vecf
    does; contexts are never subsampled.
    """

    dim: int = 300
    negatives: int = 15
    learning_rate: float = 0.025
    subsample: float = 1e-4
    epochs: int = 15
    min_count: int = 100
    unigram_power: float = 0.75
    seed: int = 1

    def __post_init__(self):
        for name in ("learning_rate", "subsample", "unigram_power"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.subsample <= 0:
            raise ValueError("subsample must be positive (use 1.0 to disable)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EmbeddingStore:
    """Word and context vector matrices sharing one vocabulary."""

    word_vectors: np.ndarray
    context_vectors: np.ndarray
    vocab: Vocabulary
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return int(self.word_vectors.shape[1])

    def __contains__(self, word: str) -> bool:
        return word in self.vocab.word_index

    def vector(self, word: str) -> np.ndarray:
        return self.word_vectors[self.vocab.word_index[word]]


def build_vocab(
    pair_stream: Iterable[tuple[str, str]], min_count: int = TrainerConfig.min_count
) -> Vocabulary:
    """Count words and contexts over the stream and drop entries below min_count."""
    return encode(pair_stream, min_count)[0]


def encode(
    pair_stream: Iterable[tuple[str, str]], min_count: int
) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    """The vocabulary and the stream as id arrays, in one read of the stream.

    Pairs whose word or context min_count filtered out are dropped. A caller
    that must vet the vocabulary before SGD, such as ``depctx train`` with
    :func:`check_savable`, trains the result with :func:`fit`.
    """
    # raw ids number tokens in first-seen order
    word_index: dict[str, int] = {}
    ctx_index: dict[str, int] = {}
    word_buf, ctx_buf = array("i"), array("i")
    for word, context in pair_stream:
        word_buf.append(word_index.setdefault(word, len(word_index)))
        ctx_buf.append(ctx_index.setdefault(context, len(ctx_index)))
    raw_words = np.frombuffer(word_buf, dtype=np.intc)
    raw_ctxs = np.frombuffer(ctx_buf, dtype=np.intc)
    words, word_counts, word_lookup = _rank(list(word_index), raw_words, min_count)
    contexts, ctx_counts, ctx_lookup = _rank(list(ctx_index), raw_ctxs, min_count)
    if not words or not contexts:
        raise VocabularyError(
            f"vocabulary empty after min_count={min_count} filtering "
            f"({len(word_index)} raw words, {len(ctx_index)} raw contexts)"
        )
    vocab = Vocabulary(
        word_index={tok: i for i, tok in enumerate(words)},
        word_counts=word_counts,
        context_counts=ctx_counts,
        words=words,
        contexts=contexts,
    )
    word_ids, ctx_ids = word_lookup[raw_words], ctx_lookup[raw_ctxs]
    del word_buf, ctx_buf, raw_words, raw_ctxs  # spent: freed before the copies below
    both = (word_ids >= 0) & (ctx_ids >= 0)
    return vocab, word_ids[both], ctx_ids[both]


def _rank(
    tokens: list[str], raw_ids: np.ndarray, min_count: int
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Kept tokens by descending count, ties lexicographic; their counts; and
    the lookup from raw id to vocabulary id (-1 for a dropped token)."""
    counts = np.bincount(raw_ids, minlength=len(tokens))
    n = counts.tolist()
    kept = [i for i in range(len(tokens)) if n[i] >= min_count]
    # two stable sorts instead of (-count, token) tuples, which cost memory
    kept.sort(key=tokens.__getitem__)
    kept.sort(key=n.__getitem__, reverse=True)
    lookup = np.full(len(tokens), -1, dtype=np.int32)
    lookup[kept] = np.arange(len(kept), dtype=np.int32)
    return [tokens[i] for i in kept], counts[kept], lookup


def keep_probabilities(counts: np.ndarray, t: float) -> np.ndarray:
    """Per-id keep probability min(1, sqrt(t / f)), f = count / total count:
    the formula of Mikolov et al. 2013's paper, not the word2vec C code's
    sqrt(t / f) + t / f, which word2vecf keeps."""
    freqs = counts / counts.sum()
    return np.minimum(1.0, np.sqrt(t / freqs))


def build_unigram_table(
    context_counts: np.ndarray,
    power: float = TrainerConfig.unigram_power,
    table_size: int = 1_000_000,
) -> np.ndarray:
    """Cumulative-allocation sampling table over counts**power.

    Drawing uniform indices into the table reproduces the powered unigram
    distribution up to 1/table_size quantization.
    """
    weights = np.asarray(context_counts, dtype=np.float64) ** power
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    # cumulative[-1] is exactly 1.0, so the last boundary is table_size
    boundaries = np.rint(cumulative * table_size).astype(np.int64)
    return np.repeat(np.arange(len(weights), dtype=np.int32), np.diff(boundaries, prepend=0))


def _sgd(
    W: np.ndarray,
    C: np.ndarray,
    word_ids: np.ndarray,
    ctx_ids: np.ndarray,
    table: np.ndarray,
    keep_prob: np.ndarray,
    config: TrainerConfig,
) -> list[float]:
    """Run all epochs of minibatch SGD in place on W and C; return per-epoch mean losses.

    Pairs are subsampled in stream order, then the kept ones are updated in
    batches of BATCH_SIZE: every pair of a batch computes its gradient from
    the batch's starting W and C, and the batch applies the sum of those
    gradients, so repeated word or context ids accumulate. Each pair keeps
    its own learning rate, which decays linearly over epochs * pairs,
    counting every consumed pair (subsampled-away ones included) so the
    schedule does not depend on the subsampling draws. A drawn negative equal
    to the pair's positive context is masked out. The epoch loss is the mean
    over updated pairs. Overflow in a single update is not an error by
    itself; finiteness of the matrices is checked after each epoch.

    The stream is drawn one chunk of _CHUNK pairs at a time, in stream order
    (:func:`_draws`), and no draw depends on the parameters. So the index
    work of the updates is planned once per window of successive chunks that
    holds at least _CHUNK drawn pairs, across epoch boundaries
    (:func:`_train_window`). A batch makes the same arithmetic as with a plan
    of its own, so the model does not depend on the windows.
    """
    epoch_losses: list[float] = []
    loss_sum, n_updates = 0.0, 0
    for window in _windows(_draws(word_ids, ctx_ids, table, keep_prob, config)):
        batch_losses = iter(_train_window(W, C, window, config.learning_rate))
        for chunk in window:
            if chunk is None:
                epoch_losses.append(loss_sum / n_updates if n_updates else 0.0)
                loss_sum, n_updates = 0.0, 0
                continue
            for _ in range(0, len(chunk.words), BATCH_SIZE):
                loss_sum += next(batch_losses)
            n_updates += len(chunk.words)
    return epoch_losses


class _Chunk(NamedTuple):
    """One (epoch, _CHUNK) of the stream, drawn: the pairs it consumed, and
    its kept pairs' words, rows and learning rates. ``rows`` holds each kept
    pair's positive context id followed by its drawn negatives."""

    drawn: int
    words: np.ndarray
    rows: np.ndarray
    lrs: np.ndarray


def _draws(word_ids, ctx_ids, table, keep_prob, config: TrainerConfig):
    """Yield each (epoch, _CHUNK) of the stream as a :class:`_Chunk`, and
    None at the end of each epoch.

    The random stream is drawn one chunk at a time, in stream order, so it
    does not depend on how the chunks are grouped for training.
    """
    # keyed apart from the initialisation stream default_rng(seed)
    rng = np.random.default_rng((config.seed, 0))
    n = len(word_ids)
    total = config.epochs * n
    table_len = len(table)
    for epoch in range(config.epochs):
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            m = stop - start
            keep_draws = rng.random(m)
            neg_draws = table[rng.integers(0, table_len, size=(m, config.negatives))]
            words = word_ids[start:stop]
            kept = np.flatnonzero(keep_draws < keep_prob[words])
            # the consumed count of pair i, 1-based, as the schedule sees it
            consumed = epoch * n + start + 1 + kept
            lrs = config.learning_rate * np.maximum(1.0 - consumed / total, LR_FLOOR_FRACTION)
            rows = np.concatenate((ctx_ids[start:stop, None], neg_draws), axis=1)[kept]
            yield _Chunk(m, words[kept], rows, lrs)
        yield None


def _windows(draws):
    """Group the draws into lists that each close once they hold at least
    _CHUNK drawn pairs; the last list holds what is left."""
    window, drawn = [], 0
    for chunk in draws:
        window.append(chunk)
        if chunk is not None:
            drawn += chunk.drawn
            if drawn >= _CHUNK:
                yield window
                window, drawn = [], 0
    if window:
        yield window


def _train_window(W: np.ndarray, C: np.ndarray, window: list, learning_rate: float) -> list[float]:
    """Update W and C in place with every batch of the window's chunks, in
    order, checking finiteness at each epoch end (None); return each batch's
    summed loss.

    Batches of BATCH_SIZE kept pairs are cut inside each chunk. Everything
    that does not depend on W and C is done once for the window: the plans
    of both matrices (:func:`_plan`), the masked learning rates, and the
    losses, from the scores the batches leave in one buffer. The full
    batches' losses are summed in one reduction, a row per batch, and each
    partial batch, which ends a chunk, alone; every sum is the float64
    pairwise sum of the batch's own ``.sum``.
    """
    chunks = [chunk for chunk in window if chunk is not None]
    bounds: list[tuple[int, int]] = []  # each batch's [start, stop) in the window
    offset = 0
    for chunk in chunks:
        k = len(chunk.words)
        bounds += [(offset + b, offset + min(b + BATCH_SIZE, k)) for b in range(0, k, BATCH_SIZE)]
        offset += k
    if bounds:
        words = np.concatenate([chunk.words for chunk in chunks])
        rows = np.concatenate([chunk.rows for chunk in chunks])
        lrs = np.concatenate([chunk.lrs for chunk in chunks])
        starts = np.array([start for start, _ in bounds] + [offset])
        w_plans = _plan(words[:, None], starts, len(W), W.dtype)
        c_plans = _plan(rows, starts, len(C))
        live = np.ones(rows.shape, dtype=bool)
        live[:, 1:] = rows[:, 1:] != rows[:, :1]
        live_lrs = live * lrs[:, None]
        labels = np.zeros(rows.shape[1], dtype=W.dtype)
        labels[0] = 1.0
        scores = np.empty(rows.shape, dtype=W.dtype)
    b = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in window:
            if chunk is None:
                if not (np.isfinite(W).all() and np.isfinite(C).all()):
                    raise TrainingDivergedError(
                        "non-finite parameters during training "
                        f"(learning_rate={learning_rate}); lower the learning rate"
                    )
                continue
            for _ in range(0, len(chunk.words), BATCH_SIZE):
                batch = slice(*bounds[b])
                _batch_step(
                    W, C, words[batch], rows[batch], labels, live_lrs[batch], scores[batch],
                    w_plans[b], c_plans[b],
                )
                b += 1
        if not bounds:
            return []
        # -log s(x) = logaddexp(0, -x) = logaddexp(0, x) - x
        losses = np.logaddexp(0.0, scores) * live
        losses[:, 0] -= scores[:, 0]
    full = np.diff(starts) == BATCH_SIZE
    first_rows = starts[:-1][full]
    # each full batch's losses as one row of the block
    block = losses[first_rows[:, None] + np.arange(BATCH_SIZE)]
    block = block.reshape(len(first_rows), BATCH_SIZE * rows.shape[1])
    sums = np.empty(len(bounds))
    sums[full] = block.sum(axis=1, dtype=np.float64)
    for j in np.flatnonzero(~full).tolist():
        sums[j] = losses[slice(*bounds[j])].sum(dtype=np.float64)
    return sums.tolist()


def _by_counting(span: int, n_keys: int) -> bool:
    """Whether :func:`_plan` finds the unique keys of a window by marking
    them among ``span`` flags, about ``span`` steps, rather than by sorting
    its ``n_keys`` keys, about n log2 n steps. Only the window's sizes
    decide, and both sides give the same plan."""
    return span <= n_keys * math.log2(n_keys)


def _plan(
    ids: np.ndarray, starts: np.ndarray, n_rows: int, dtype: np.dtype | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per batch, the (unique ids, bincount slots) that :func:`_scatter_add`
    takes, from one pass over the window's ids; with a ``dtype``, the
    (unique ids, counts) that :func:`_batch_step` takes instead.

    Batch j holds the rows ``ids[starts[j]:starts[j + 1]]``. Its unique ids
    are sorted, as ``np.unique`` of the batch alone gives them, and the
    entry (b, k) of the batch goes to slot ``u * len(batch) + b``, where u
    is the position of ``ids[b, k]`` among them. The counts are those slots
    counted in ``dtype``, shaped (unique ids) x len(batch): the coefficients
    of an update whose every coefficient is 1.

    The keys ``batch * n_rows + id`` lie below ``span = batches * n_rows``.
    When ``span <= keys * log2(keys)`` (:func:`_by_counting`), as on
    search-smoke (about 80 batches of at most 150 contexts against 25k
    keys), the keys are marked in ``span`` flags, and the flags' running
    count gives each key's rank and each batch's first unique key, with no
    sort and no search. Otherwise, as on train-paper (about 40 batches of
    21.8k contexts against 40k keys), they are sorted by ``np.unique``.
    """
    sizes = np.diff(starts)
    batch = np.repeat(np.arange(len(sizes)), sizes)
    keys = (batch[:, None] * n_rows + ids).ravel()
    span = len(sizes) * n_rows
    if _by_counting(span, len(keys)):
        marked = np.zeros(span, dtype=bool)
        marked[keys] = True
        rank = np.cumsum(marked)  # unique keys up to each key
        uniq_keys = np.flatnonzero(marked)
        inv = rank[keys] - 1
        # first unique key of each batch, and the end
        first = np.concatenate(([0], rank[n_rows - 1::n_rows]))
    else:
        uniq_keys, inv = np.unique(keys, return_inverse=True)
        first = np.searchsorted(uniq_keys, np.arange(len(starts)) * n_rows)
    n_uniq = np.diff(first)
    uniq = uniq_keys - np.repeat(np.arange(len(sizes)) * n_rows, n_uniq)
    local = inv.reshape(ids.shape) - first[batch][:, None]
    position = np.arange(len(ids)) - starts[batch]
    slots = local * sizes[batch][:, None] + position[:, None]
    cuts = first.tolist()
    uniq_of = [uniq[i:j] for i, j in zip(cuts, cuts[1:])]
    if dtype is None:
        flat, entry_cuts = slots.ravel(), (starts * ids.shape[1]).tolist()
        return list(zip(uniq_of, [flat[i:j] for i, j in zip(entry_cuts, entry_cuts[1:])]))
    # the batches' count matrices, one after another in one array
    ends = np.cumsum(n_uniq * sizes)
    begins = ends - n_uniq * sizes
    counts = np.bincount((slots + begins[batch][:, None]).ravel(), minlength=ends[-1])
    counts = counts.astype(dtype)
    shapes = zip(begins.tolist(), ends.tolist(), n_uniq.tolist(), sizes.tolist())
    return [(u, counts[i:j].reshape(n, size)) for u, (i, j, n, size) in zip(uniq_of, shapes)]


def _batch_step(
    W: np.ndarray,
    C: np.ndarray,
    words: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    live_lrs: np.ndarray,
    scores: np.ndarray,
    w_plan: tuple[np.ndarray, np.ndarray],
    c_plan: tuple[np.ndarray, np.ndarray],
) -> None:
    """Apply one minibatch update in place, leaving the clipped scores in ``scores``.

    ``rows`` holds each pair's positive context id followed by its drawn
    negatives, ``labels`` is 1 for the positive and 0 for a negative, and
    ``live_lrs`` holds each pair's learning rate where the row is live and 0
    where a negative equals the positive. Pair b's step on context row
    ``rows[b, j]`` is ``g[b, j] * W[words[b]]``, with ``g`` its rate-scaled
    residual, so the context update is a sum of word vectors;
    ``_scatter_add`` applies it, along the plan of :func:`_plan`, as one
    GEMM instead of 1 + K rows per pair. ``w_plan`` holds the batch's unique
    words and their counts per pair, so the word update is one GEMM too.
    """
    w_vecs = W[words]
    c_vecs = C[rows]
    np.maximum(np.matmul(c_vecs, w_vecs[:, :, None])[:, :, 0], -MAX_SCORE, out=scores)
    np.minimum(scores, MAX_SCORE, out=scores)
    residual = labels - 1.0 / (1.0 + np.exp(-scores))
    g = np.multiply(residual, live_lrs, out=residual)
    grad_w = np.matmul(g[:, None, :], c_vecs)[:, 0]
    uniq, counts = w_plan
    W[uniq] += counts @ grad_w
    _scatter_add(C, c_plan, g.ravel(), w_vecs)


def _scatter_add(
    M: np.ndarray, plan: tuple[np.ndarray, np.ndarray], coef: np.ndarray, vecs: np.ndarray
) -> None:
    """M[ids[b, j]] += coef[b, j] * vecs[b] for every (b, j), repeated ids summing.

    ``plan`` is the (unique ids, slots) of ``ids`` from :func:`_plan`. The
    coefficients are summed into one dense (unique ids) x B matrix, so the
    whole update is a single GEMM over the distinct rows it touches. This is
    the context update of :func:`_batch_step`; the word update, whose
    coefficients are all 1, takes that matrix from its plan.
    """
    uniq, slots = plan
    B = len(vecs)
    G = np.bincount(slots, weights=coef, minlength=len(uniq) * B)
    M[uniq] += G.reshape(len(uniq), B).astype(M.dtype) @ vecs


def train(pair_stream: Iterable[tuple[str, str]], config: TrainerConfig) -> EmbeddingStore:
    """Train SGNS embeddings from a (word, context) pair stream.

    The stream is read once, and the vocabulary is built from it in the same
    pass that encodes the pairs as ids (:func:`encode`); :func:`fit` then
    trains on the ids. The result is a
    deterministic function of the stream and the config: the same inputs
    give bit-identical matrices and epoch losses. Raises TrainingDivergedError
    once the matrices go non-finite.
    """
    return fit(*encode(pair_stream, config.min_count), config)


def fit(
    vocab: Vocabulary, word_ids: np.ndarray, ctx_ids: np.ndarray, config: TrainerConfig
) -> EmbeddingStore:
    """Train SGNS embeddings on a stream encoded by :func:`encode`."""
    if len(word_ids) == 0:
        raise VocabularyError("no training pairs survive vocabulary filtering")

    rng = np.random.default_rng(config.seed)
    d = config.dim
    W = ((rng.random((vocab.n_words, d)) - 0.5) / d).astype(np.float32)
    C = np.zeros((vocab.n_contexts, d), dtype=np.float32)
    table = build_unigram_table(vocab.context_counts, config.unigram_power)
    keep_prob = keep_probabilities(vocab.word_counts, config.subsample)
    started = time.perf_counter()
    epoch_losses = _sgd(W, C, word_ids, ctx_ids, table, keep_prob, config)
    sgd_s = time.perf_counter() - started
    consumed = config.epochs * len(word_ids)
    logger.info(
        "trained %d words x %dd from %d pairs (%d epochs) in %.2f s of SGD, %.0f pairs/s",
        vocab.n_words, d, len(word_ids), config.epochs, sgd_s, consumed / max(sgd_s, 1e-9),
    )
    return EmbeddingStore(W, C, vocab, epoch_losses)


def _format_rows(tokens: list[str], rows: np.ndarray) -> str:
    """The "token v1 ... vd" lines of ``tokens`` and their rows of values."""
    line = "%s" + " %.9g" * rows.shape[1] + "\n"
    return "".join([line % (token, *row) for token, row in zip(tokens, rows.tolist())])


def _write_rows(f: TextIO, tokens: list[str], matrix: np.ndarray, run) -> None:
    """The "count dim" header, then the rows of ``tokens``, formatted in
    blocks of _ROWS_PER_BLOCK rows by ``run``, a :func:`workers.forked` run
    of :func:`_format_rows`. This process writes the blocks in row order, so
    the bytes do not depend on where they were formatted."""
    f.write(f"{len(tokens)} {matrix.shape[1]}\n")
    blocks = (
        (tokens[start:start + _ROWS_PER_BLOCK], matrix[start:start + _ROWS_PER_BLOCK])
        for start in range(0, len(tokens), _ROWS_PER_BLOCK)
    )
    for text in run(blocks):
        f.write(text)


def check_savable(vocab: Vocabulary, include_context: bool = False) -> None:
    """Raise EmbeddingFormatError if a word, or with include_context a
    context, holds a space: a space separates the fields of the text format,
    so :func:`save_embeddings` cannot write such a token."""
    for tokens in (vocab.words, vocab.contexts) if include_context else (vocab.words,):
        spaced = next((token for token in tokens if " " in token), None)
        if spaced is not None:
            raise EmbeddingFormatError(f"cannot save {spaced!r}: a space separates fields")


def save_embeddings(store: EmbeddingStore, path: str | Path, include_context: bool = False) -> None:
    """Write word vectors in word2vec text format ("count dim" header).

    9 significant digits round-trip float32 exactly. With include_context the
    context matrix goes to a sibling file with a "_ctx" suffix. Only a line
    feed ends a row, here and in :func:`load_embeddings`, so a word may hold a
    carriage return; a space separates fields, so a word or context that
    holds one raises EmbeddingFormatError (:func:`check_savable`) before any
    file is opened.

    Each side's blocks of _ROWS_PER_BLOCK rows are formatted in one
    :func:`workers.forked` block, so at most two blocks per CPU are in
    memory as text; a side of one block formats in this process. A save
    that fails removes the files it was writing, stops its workers and
    raises the error.
    """
    path = Path(path)
    check_savable(store.vocab, include_context)
    sides = [(path, store.vocab.words, store.word_vectors)]
    if include_context:
        ctx_path = path.with_name(path.stem + "_ctx" + path.suffix)
        sides.append((ctx_path, store.vocab.contexts, store.context_vectors))
    opened: list[Path] = []
    try:
        with workers.forked(_format_rows) as run:
            for out, tokens, matrix in sides:
                with open(out, "w", encoding="utf-8", newline="\n") as f:
                    opened.append(out)
                    _write_rows(f, tokens, matrix, run)
    except BaseException:
        for out in opened:
            # never a device or a link, such as /dev/stdout
            if out.is_file() and not out.is_symlink():
                out.unlink()
        raise


def _loadtxt(texts: list[str], dim: int) -> np.ndarray:
    """The value texts of rows, parsed as one float32 matrix of ``dim`` columns."""
    if not texts or not dim:
        return np.zeros((len(texts), dim), dtype=np.float32)
    return np.loadtxt(texts, dtype=np.float32, delimiter=" ", comments=None, ndmin=2)


def _value_fault(text: str, dim: int) -> str | None:
    """None if one row's value text parses as ``dim`` values, else why not."""
    try:
        if text and _loadtxt([text], dim).shape == (1, dim):
            return None
    except ValueError:
        pass
    for value in text.split(" "):
        try:
            if value and _loadtxt([value], 1).shape == (1, 1):
                continue
        except ValueError:
            pass
        return f"bad value {value!r}"
    return f"bad values {text!r}"


def _parse_range(path: Path, start: int, stop: int, dim: int):
    """:func:`_parse_rows` of bytes [start, stop) of ``path``, which begin a
    line and end one."""
    with open(path, "rb") as f:
        f.seek(start)
        return _parse_rows(f.read(stop - start), dim)


def _parse_rows(data: bytes, dim: int):
    """The rows of ``data``, whole lines: (words, float32 values, fault).
    ``fault`` says what is wrong with the first malformed row, or is None;
    the words and values are those of the rows before it."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] == "":  # the range ends with a line feed
        lines.pop()
    n = next((i for i, line in enumerate(lines) if line.count(" ") != dim), len(lines))
    fault = None if n == len(lines) else f"expected {dim + 1} fields, got {lines[n].count(' ') + 1}"
    rows = [line.partition(" ") for line in lines[:n]]
    texts = [values for _, _, values in rows]
    try:
        values = _loadtxt(texts, dim)
    except ValueError:
        values = None
    if values is None or values.shape != (n, dim):
        # a row that does not parse: find the first, one row at a time
        for i, text in enumerate(texts):
            if (bad := _value_fault(text, dim)) is not None:
                n, fault = i, bad
                break
        values = _loadtxt(texts[:n], dim)
    return [word for word, _, _ in rows[:n]], values, fault


def _ranges(f, start: int, end: int, step: int) -> list[tuple[int, int]]:
    """Bytes [start, end) of ``f`` cut after a line feed into ranges of whole
    lines: each ends with the line that holds its step-th byte."""
    ranges = []
    while start < end:
        f.seek(min(start + step, end) - 1)
        stop = f.tell() + len(f.readline())
        ranges.append((start, stop))
        start = stop
    return ranges


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Load a word2vec-format text file saved by :func:`save_embeddings`.

    This process reads and checks the header; the rows after it are cut at
    line feeds into byte ranges of about _ROWS_PER_BLOCK rows, which are
    parsed by ``np.loadtxt`` in a :func:`workers.forked` block. Each worker
    reads its own range, so this process never holds the text, and at most
    two ranges per CPU are in flight. This process copies each range's rows
    into one float32 matrix, allocated from the header but never larger than
    the file's bytes could fill, so the words, values and layout are those
    of one parse of the whole file; a file of one range parses in this
    process. The workers reopen the file, so a file that is not a regular
    one, such as a pipe, is read by this process and parsed as one range.
    The first malformed row, in file order, raises EmbeddingFormatError
    naming its line, as do more or fewer rows than the header declares.
    """
    path = Path(path)
    with open(path, "rb") as f:
        first = f.readline()
        header = first.decode("utf-8").rstrip("\n")
        try:
            count, dim = map(int, header.split())
        except ValueError:  # not two fields, or not two integers
            count = dim = -1
        if count < 0 or dim < 0:
            raise EmbeddingFormatError(f"{path}:1: bad header {header!r}")
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode):
            size = info.st_size - len(first)
            # a saved value takes at most 16 bytes: a space and "%.9g" of a float32
            ranges = _ranges(f, len(first), info.st_size, _ROWS_PER_BLOCK * (dim + 1) * 16)
            parse, jobs = _parse_range, ((path, start, stop, dim) for start, stop in ranges)
        else:
            data = f.read()
            size, parse, jobs = len(data), _parse_rows, [(data, dim)]
    # a row holds dim spaces and, unless it is the last, a line feed
    matrix = np.empty((min(count, (size + 1) // (dim + 1)), dim), np.float32)
    words: list[str] = []
    with workers.forked(parse) as run:
        for block, values, fault in run(jobs):
            row = len(words)
            # the rows this range reached, its malformed row included
            reached = row + len(block) + (fault is not None)
            if reached > count:
                raise EmbeddingFormatError(f"{path}:{count + 2}: more rows than header declares")
            if fault is not None:
                raise EmbeddingFormatError(f"{path}:{reached + 1}: {fault}")
            matrix[row:row + len(block)] = values
            words += block
    if len(words) != count:
        raise EmbeddingFormatError(f"{path}: header declares {count} rows, found {len(words)}")
    vocab = Vocabulary(
        word_index={w: i for i, w in enumerate(words)},
        word_counts=np.zeros(len(words), dtype=np.int64),
        context_counts=np.zeros(0, dtype=np.int64),
        words=words,
        contexts=[],
    )
    return EmbeddingStore(matrix, np.zeros((0, dim), dtype=np.float32), vocab)
