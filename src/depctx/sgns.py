"""Skip-gram negative-sampling trainer for arbitrary (word, context) pairs.

Follows the word2vecf training semantics (sigmoid loss, negatives drawn
from the context unigram distribution raised to a power, per-pair linear
learning-rate decay, frequent-word subsampling on the word side,
uniform/zero initialization) with one departure: pairs are updated in
minibatches of BATCH_SIZE, each pair's gradient taken at the batch's
starting parameters and the batch applying their sum, instead of one pair
at a time. Each pair keeps its own negatives; a batch's updates reach the
matrices as one dense GEMM per matrix over the rows the batch touches (the
minibatch scheme of Ji et al. 2016, without their shared negatives).
Training reads the pair stream once and is one single-threaded pass over
one seeded random stream, so a model is a pure function of the pair stream
and the configuration. Matrices are float32; the gradient-check helper runs
at whatever precision its inputs carry.

A model is saved as word2vec text, formatted in blocks of _ROWS_PER_BLOCK
rows on every CPU (:func:`workers.fork_pool`) and written in row order, so
the bytes are those of one process and at most two blocks per CPU are in
memory as text.
"""

from __future__ import annotations

import logging
import math
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, TextIO

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
# Rows per task of a parallel model save; the bytes saved do not depend on it.
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
    return _count(pair_stream, min_count)[0]


def _count(
    pair_stream: Iterable[tuple[str, str]], min_count: int
) -> tuple[Vocabulary, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Read the stream once into a vocabulary and, per side, (raw ids, lookup).

    Raw ids number tokens in first-seen order; ``lookup[raw]`` is the token's
    vocabulary id, or -1 when min_count filtered it out.
    """
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
    return vocab, (raw_words, word_lookup), (raw_ctxs, ctx_lookup)


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


def _encode(
    pair_stream: Iterable[tuple[str, str]], min_count: int
) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    """The vocabulary and the stream as id arrays, in one read of the stream.

    Pairs whose word or context min_count filtered out are dropped.
    """
    vocab, (raw_words, word_lookup), (raw_ctxs, ctx_lookup) = _count(pair_stream, min_count)
    word_ids, ctx_ids = word_lookup[raw_words], ctx_lookup[raw_ctxs]
    both = (word_ids >= 0) & (ctx_ids >= 0)
    return vocab, word_ids[both], ctx_ids[both]


def keep_probabilities(counts: np.ndarray, t: float) -> np.ndarray:
    """Per-id keep probability min(1, sqrt(t / f)), f = count / total count."""
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


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def pair_loss_and_grad(
    word_vec: np.ndarray, ctx_vecs: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and analytic gradients of one positive-plus-negatives update.

    loss = -sum_i [ y_i log s(w.c_i) + (1 - y_i) log s(-w.c_i) ] with
    s the sigmoid. Returns (loss, d loss/d w, d loss/d ctx_vecs). Computation
    stays in the dtype of the inputs, so a float64 harness gets float64 math.
    """
    word_vec = np.asarray(word_vec)
    ctx_vecs = np.asarray(ctx_vecs)
    labels = np.asarray(labels, dtype=word_vec.dtype)
    scores = ctx_vecs @ word_vec
    probs = _stable_sigmoid(scores)
    # -log s(x) = logaddexp(0, -x); -log s(-x) = logaddexp(0, x)
    loss = float(
        np.sum(labels * np.logaddexp(0.0, -scores) + (1.0 - labels) * np.logaddexp(0.0, scores))
    )
    residual = labels - probs
    grad_word = -(ctx_vecs.T @ residual)
    grad_ctx = -np.outer(residual, word_vec)
    return loss, grad_word, grad_ctx


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
    """
    # keyed apart from the initialisation stream default_rng(seed)
    rng = np.random.default_rng((config.seed, 0))
    n = len(word_ids)
    total = config.epochs * n
    table_len = len(table)
    epoch_losses: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss_sum = 0.0
            n_updates = 0
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
                words = words[kept]
                for b in range(0, len(kept), BATCH_SIZE):
                    batch = slice(b, b + BATCH_SIZE)
                    loss_sum += _batch_step(W, C, words[batch], rows[batch], lrs[batch])
                n_updates += len(kept)
            if not (np.isfinite(W).all() and np.isfinite(C).all()):
                raise TrainingDivergedError(
                    "non-finite parameters during training "
                    f"(learning_rate={config.learning_rate}); lower the learning rate"
                )
            epoch_losses.append(loss_sum / n_updates if n_updates else 0.0)
    return epoch_losses


def _batch_step(
    W: np.ndarray, C: np.ndarray, words: np.ndarray, rows: np.ndarray, lrs: np.ndarray
) -> float:
    """Apply one minibatch update in place; return the batch's summed loss.

    ``rows`` holds each pair's positive context id followed by its drawn
    negatives; ``lrs`` holds each pair's learning rate. Pair b's step on
    context row ``rows[b, j]`` is ``g[b, j] * W[words[b]]``, with ``g`` its
    rate-scaled residual, so the context update is a sum of word vectors;
    ``_scatter_add`` applies it as one GEMM instead of 1 + K rows per pair.
    """
    w_vecs = W[words]
    c_vecs = C[rows]
    scores = np.matmul(c_vecs, w_vecs[:, :, None])[:, :, 0]
    np.clip(scores, -MAX_SCORE, MAX_SCORE, out=scores)
    live = np.ones(rows.shape, dtype=bool)
    live[:, 1:] = rows[:, 1:] != rows[:, :1]
    residual = -1.0 / (1.0 + np.exp(-scores))
    residual[:, 0] += 1.0
    residual *= live
    # -log s(x) = logaddexp(0, -x) = logaddexp(0, x) - x
    losses = np.logaddexp(0.0, scores) * live
    losses[:, 0] -= scores[:, 0]
    g = (residual * lrs[:, None]).astype(W.dtype)
    grad_w = np.matmul(g[:, None, :], c_vecs)[:, 0]
    _scatter_add(W, words[:, None], np.ones((len(words), 1)), grad_w)
    _scatter_add(C, rows, g, w_vecs)
    return float(losses.sum(dtype=np.float64))


def _scatter_add(M: np.ndarray, ids: np.ndarray, coef: np.ndarray, vecs: np.ndarray) -> None:
    """M[ids[b, j]] += coef[b, j] * vecs[b] for every (b, j), repeated ids summing.

    The coefficients are summed into one dense (unique ids) x B matrix, so
    the whole update is a single GEMM over the distinct rows it touches.
    """
    B = len(vecs)
    # a 1-D input keeps inv 1-D on every numpy version
    uniq, inv = np.unique(ids.ravel(), return_inverse=True)
    slots = inv * B + np.repeat(np.arange(B), ids.shape[1])
    G = np.bincount(slots, weights=coef.ravel(), minlength=len(uniq) * B)
    M[uniq] += G.reshape(len(uniq), B).astype(M.dtype) @ vecs


def train(pair_stream: Iterable[tuple[str, str]], config: TrainerConfig) -> EmbeddingStore:
    """Train SGNS embeddings from a (word, context) pair stream.

    The stream is read once, and the vocabulary is built from it in the same
    pass that encodes the pairs as ids. The result is a
    deterministic function of the stream and the config: the same inputs
    give bit-identical matrices and epoch losses. Raises TrainingDivergedError
    once the matrices go non-finite.
    """
    vocab, word_ids, ctx_ids = _encode(pair_stream, config.min_count)
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


def _write_rows(f: TextIO, tokens: list[str], matrix: np.ndarray, pool) -> None:
    """The "count dim" header, then the rows of ``tokens``, formatted in
    blocks of _ROWS_PER_BLOCK rows: in ``pool`` when there is one, with at
    most two blocks per CPU in flight, else in this process. This process
    writes the blocks in row order, so the bytes do not depend on the pool."""
    f.write(f"{len(tokens)} {matrix.shape[1]}\n")
    blocks = (
        (tokens[start:start + _ROWS_PER_BLOCK], matrix[start:start + _ROWS_PER_BLOCK])
        for start in range(0, len(tokens), _ROWS_PER_BLOCK)
    )
    if pool is None:
        texts = (_format_rows(*block) for block in blocks)
    else:
        texts = workers.in_order(pool, _format_rows, blocks)
    for text in texts:
        f.write(text)


def save_embeddings(store: EmbeddingStore, path: str | Path, include_context: bool = False) -> None:
    """Write word vectors in word2vec text format ("count dim" header).

    9 significant digits round-trip float32 exactly. With include_context the
    context matrix goes to a sibling file with a "_ctx" suffix. Only a line
    feed ends a row, here and in :func:`load_embeddings`, so a word may hold a
    carriage return; a space separates fields, so a word or context that
    holds one raises EmbeddingFormatError before any file is opened.

    A model of more than one block of _ROWS_PER_BLOCK rows is formatted in a
    :func:`workers.fork_pool`, so at most two blocks per CPU are in memory as
    text. One CPU, no ``fork`` or a one-block model formats in this process.
    A save that fails removes the files it was writing, stops its workers
    and raises the error.
    """
    path = Path(path)
    sides = [(path, store.vocab.words, store.word_vectors)]
    if include_context:
        ctx_path = path.with_name(path.stem + "_ctx" + path.suffix)
        sides.append((ctx_path, store.vocab.contexts, store.context_vectors))
    for _, tokens, _ in sides:
        spaced = next((token for token in tokens if " " in token), None)
        if spaced is not None:
            raise EmbeddingFormatError(f"cannot save {spaced!r}: a space separates fields")
    many = any(len(tokens) > _ROWS_PER_BLOCK for _, tokens, _ in sides)
    opened: list[Path] = []
    try:
        with (workers.fork_pool() if many else nullcontext()) as pool:
            for out, tokens, matrix in sides:
                with open(out, "w", encoding="utf-8", newline="\n") as f:
                    opened.append(out)
                    _write_rows(f, tokens, matrix, pool)
    except BaseException:
        for out in opened:
            # never a device or a link, such as /dev/stdout
            if out.is_file() and not out.is_symlink():
                out.unlink()
        raise


def _row_values(f: TextIO, path: Path, count: int, dim: int, words: list[str]):
    """Yield each row's value text, collecting its word and checking its shape."""
    for line_no, line in enumerate(f, start=2):
        if line_no - 2 >= count:
            raise EmbeddingFormatError(f"{path}:{line_no}: more rows than header declares")
        row = line.rstrip("\n")
        n_fields = row.count(" ") + 1
        if n_fields != dim + 1:
            raise EmbeddingFormatError(
                f"{path}:{line_no}: expected {dim + 1} fields, got {n_fields}"
            )
        word, _, values = row.partition(" ")
        words.append(word)
        yield values


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Load a word2vec-format text file saved by :func:`save_embeddings`.

    The values of all rows are parsed by one streaming ``np.loadtxt`` call.
    """
    path = Path(path)
    with open(path, encoding="utf-8", newline="\n") as f:
        header = f.readline().rstrip("\n")
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingFormatError(f"{path}:1: bad header {header!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmbeddingFormatError(f"{path}:1: bad header {header!r}") from None
        words: list[str] = []
        values = _row_values(f, path, count, dim, words)
        if count and dim:
            rows = np.loadtxt(values, dtype=np.float32, delimiter=" ", comments=None, ndmin=2)
        else:  # nothing to parse, but the rows are still checked
            rows = np.zeros((sum(1 for _ in values), dim), dtype=np.float32)
        if len(words) != count:
            raise EmbeddingFormatError(f"{path}: header declares {count} rows, found {len(words)}")
    vocab = Vocabulary(
        word_index={w: i for i, w in enumerate(words)},
        word_counts=np.zeros(len(words), dtype=np.int64),
        context_counts=np.zeros(0, dtype=np.int64),
        words=words,
        contexts=[],
    )
    return EmbeddingStore(rows, np.zeros((0, dim), dtype=np.float32), vocab)
