"""Skip-gram negative-sampling trainer for arbitrary (word, context) pairs.

Follows the word2vecf training semantics (sigmoid loss, negatives drawn
from the context unigram distribution raised to a power, per-pair linear
learning-rate decay, frequent-word subsampling on the word side,
uniform/zero initialization) with one departure: pairs are updated in
minibatches of BATCH_SIZE, each pair's gradient taken at the batch's
starting parameters and the batch applying their sum, instead of one pair
at a time. Training is one single-threaded pass over one seeded random
stream, so a model is a pure function of the pair stream and the
configuration. Matrices are float32; the gradient-check helper runs at
whatever precision its inputs carry.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)

# Scores are clipped before the sigmoid in the hot loop; at +-30 the sigmoid
# is saturated to ~1e-13 so the clip is numerically invisible.
MAX_SCORE = 30.0
LR_FLOOR_FRACTION = 1e-4
_CHUNK = 4096
# Pairs per minibatch update; part of a trained model's identity.
BATCH_SIZE = 64


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
    a vocabulary is a pure function of the pair multiset.
    """

    word_index: dict[str, int]
    context_index: dict[str, int]
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
    word_counter: Counter[str] = Counter()
    ctx_counter: Counter[str] = Counter()
    for word, context in pair_stream:
        word_counter[word] += 1
        ctx_counter[context] += 1

    def retain(counter: Counter) -> list[tuple[str, int]]:
        kept = [(tok, n) for tok, n in counter.items() if n >= min_count]
        kept.sort(key=lambda item: (-item[1], item[0]))
        return kept

    kept_words = retain(word_counter)
    kept_ctxs = retain(ctx_counter)
    if not kept_words or not kept_ctxs:
        raise VocabularyError(
            f"vocabulary empty after min_count={min_count} filtering "
            f"({len(word_counter)} raw words, {len(ctx_counter)} raw contexts)"
        )
    return Vocabulary(
        word_index={tok: i for i, (tok, _) in enumerate(kept_words)},
        context_index={tok: i for i, (tok, _) in enumerate(kept_ctxs)},
        word_counts=np.array([n for _, n in kept_words], dtype=np.int64),
        context_counts=np.array([n for _, n in kept_ctxs], dtype=np.int64),
        words=[tok for tok, _ in kept_words],
        contexts=[tok for tok, _ in kept_ctxs],
    )


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


def _encode_pairs(
    pair_stream: Iterable[tuple[str, str]], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray]:
    """Map the stream to id arrays, dropping pairs with filtered words/contexts."""
    word_ids: list[int] = []
    ctx_ids: list[int] = []
    w_index = vocab.word_index
    c_index = vocab.context_index
    for word, context in pair_stream:
        wi = w_index.get(word)
        if wi is None:
            continue
        ci = c_index.get(context)
        if ci is None:
            continue
        word_ids.append(wi)
        ctx_ids.append(ci)
    return (np.array(word_ids, dtype=np.int32), np.array(ctx_ids, dtype=np.int32))


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
    negatives; ``lrs`` holds each pair's learning rate.
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
    _scatter_add(W, words, np.matmul(g[:, None, :], c_vecs)[:, 0])
    _scatter_add(C, rows.ravel(), (g[:, :, None] * w_vecs[:, None, :]).reshape(-1, W.shape[1]))
    return float(losses.sum(dtype=np.float64))


def _scatter_add(M: np.ndarray, ids: np.ndarray, updates: np.ndarray) -> None:
    """M[ids] += updates, summing the updates of repeated ids.

    Sorting once and reducing runs of equal ids is faster than np.add.at's
    row-at-a-time loop for these batch shapes.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
    M[sorted_ids[starts]] += np.add.reduceat(updates[order], starts, axis=0)


def train(pair_stream: Iterable[tuple[str, str]], config: TrainerConfig) -> EmbeddingStore:
    """Train SGNS embeddings from a re-iterable (word, context) pair stream.

    The vocabulary is built from the stream itself. The result is a
    deterministic function of the stream and the config: the same inputs
    give bit-identical matrices and epoch losses. Raises TrainingDivergedError
    once the matrices go non-finite.
    """
    vocab = build_vocab(pair_stream, config.min_count)
    word_ids, ctx_ids = _encode_pairs(pair_stream, vocab)
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


def _format_row(word: str, vec: np.ndarray) -> str:
    return word + " " + " ".join(f"{x:.9g}" for x in vec)


def save_embeddings(store: EmbeddingStore, path: str | Path, include_context: bool = False) -> None:
    """Write word vectors in word2vec text format ("count dim" header).

    9 significant digits round-trip float32 exactly. With include_context the
    context matrix goes to a sibling file with a "_ctx" suffix.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{store.vocab.n_words} {store.dim}\n")
        for i, word in enumerate(store.vocab.words):
            f.write(_format_row(word, store.word_vectors[i]) + "\n")
    if include_context:
        ctx_path = path.with_name(path.stem + "_ctx" + path.suffix)
        with open(ctx_path, "w", encoding="utf-8") as f:
            f.write(f"{store.vocab.n_contexts} {store.dim}\n")
            for i, context in enumerate(store.vocab.contexts):
                f.write(_format_row(context, store.context_vectors[i]) + "\n")


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Load a word2vec-format text file saved by :func:`save_embeddings`."""
    path = Path(path)
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingFormatError(f"{path}:1: bad header {header!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmbeddingFormatError(f"{path}:1: bad header {header!r}") from None
        words: list[str] = []
        rows = np.empty((count, dim), dtype=np.float32)
        for line_no, line in enumerate(f, start=2):
            i = line_no - 2
            if i >= count:
                raise EmbeddingFormatError(f"{path}:{line_no}: more rows than header declares")
            fields = line.rstrip("\n").split(" ")
            if len(fields) != dim + 1:
                raise EmbeddingFormatError(
                    f"{path}:{line_no}: expected {dim + 1} fields, got {len(fields)}"
                )
            words.append(fields[0])
            rows[i] = np.array(fields[1:], dtype=np.float32)
        if len(words) != count:
            raise EmbeddingFormatError(f"{path}: header declares {count} rows, found {len(words)}")
    vocab = Vocabulary(
        word_index={w: i for i, w in enumerate(words)},
        context_index={},
        word_counts=np.zeros(len(words), dtype=np.int64),
        context_counts=np.zeros(0, dtype=np.int64),
        words=words,
        contexts=[],
    )
    return EmbeddingStore(rows, np.zeros((0, dim), dtype=np.float32), vocab)
