"""Scoring embeddings against gold word-similarity data and TOEFL questions.

Pairs are scored with cosine similarity and compared to human judgments by
Spearman rank correlation (average ranks for ties). Gold datasets carry a
word-class tag per pair (A, V, N). Every score is taken over one list of entry
indices: a word class (:meth:`WordPairDataset.class_indices`) or one fold of
its 2-fold split (:func:`split_folds`), used for configuration selection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sgns import EmbeddingStore

logger = logging.getLogger(__name__)

WORD_CLASSES = ("A", "V", "N")


class UndefinedCorrelationError(ValueError):
    """Correlation is undefined: too few points or zero rank variance."""


class DatasetFormatError(ValueError):
    """Malformed similarity or TOEFL file."""


@dataclass(frozen=True)
class WordPair:
    word1: str
    word2: str
    gold_score: float
    word_class: str


@dataclass(frozen=True)
class WordPairDataset:
    """Gold similarity pairs with scores and word-class tags."""

    entries: tuple[WordPair, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def class_indices(self, class_filter: str | None) -> list[int]:
        """Entry indices for one word class; None or "ALL" selects everything."""
        if class_filter in (None, "ALL"):
            return list(range(len(self.entries)))
        return [i for i, e in enumerate(self.entries) if e.word_class == class_filter]

    @classmethod
    def load(cls, path: str | Path) -> "WordPairDataset":
        """Read the tab-separated "word1 word2 score class" format (header line)."""
        path = Path(path)
        entries = []
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines:
            raise DatasetFormatError(f"{path}: empty dataset file")
        for line_no, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise DatasetFormatError(
                    f"{path}:{line_no}: expected 4 tab-separated fields, got {len(fields)}"
                )
            word1, word2, score_str, word_class = fields
            try:
                score = float(score_str)
            except ValueError:
                raise DatasetFormatError(f"{path}:{line_no}: bad score {score_str!r}") from None
            if not np.isfinite(score):
                raise DatasetFormatError(f"{path}:{line_no}: non-finite score")
            if word_class not in WORD_CLASSES:
                raise DatasetFormatError(
                    f"{path}:{line_no}: word class must be one of {WORD_CLASSES}, "
                    f"got {word_class!r}"
                )
            entries.append(WordPair(word1.lower(), word2.lower(), score, word_class))
        return cls(tuple(entries))


@dataclass(frozen=True)
class EvalResult:
    rho: float
    n_scored: int
    n_total: int


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; a zero-vector operand yields 0 by convention."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        logger.warning("cosine of zero vector defined as 0")
        return 0.0
    return float(u @ v / (nu * nv))


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties averaged."""
    a = np.asarray(values, dtype=np.float64)
    # A run of c ties ending at sorted position e (1-based) shares rank
    # e - (c - 1) / 2. Every NaN is a run of its own and -0.0 ties with 0.0;
    # return_index makes np.unique sort stably, so NaNs rank in input order.
    _, _, inv, counts = np.unique(
        a, return_index=True, return_inverse=True, return_counts=True, equal_nan=False
    )
    return (np.cumsum(counts) - (counts - 1) / 2)[inv]


def spearman(xs, ys) -> float:
    """Spearman's rho: Pearson correlation of average-ranked data."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise UndefinedCorrelationError("need at least 2 points")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    sx = np.sqrt((rx * rx).sum())
    sy = np.sqrt((ry * ry).sum())
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero rank variance (all values tied)")
    return float((rx * ry).sum() / (sx * sy))


def pair_cosines(store: EmbeddingStore, dataset: WordPairDataset) -> np.ndarray:
    """Cosine of every dataset pair in entry order, NaN where a word is out of vocabulary."""
    return np.array([
        cosine(store.vector(e.word1), store.vector(e.word2))
        if e.word1 in store and e.word2 in store else np.nan
        for e in dataset.entries
    ])


def correlate(cosines: np.ndarray, dataset: WordPairDataset, indices=None) -> EvalResult:
    """Spearman rho of ``pair_cosines`` against gold scores over the entries
    ``indices`` names, every entry when None.

    The entries are scored once each, in entry order, whatever order
    ``indices`` lists them in: Spearman's sums depend on that order in their
    last bits. Pairs with a NaN cosine (out of vocabulary) are excluded from
    the correlation but counted, so coverage (n_scored vs n_total) stays
    visible.
    """
    indices = range(len(dataset)) if indices is None else sorted(set(indices))
    if not indices:
        raise UndefinedCorrelationError("no dataset entries selected")
    scored = [i for i in indices if not np.isnan(cosines[i])]
    if len(scored) < 2:
        raise UndefinedCorrelationError(
            f"only {len(scored)} of {len(indices)} pairs in vocabulary; "
            "cannot compute a correlation"
        )
    gold = [dataset.entries[i].gold_score for i in scored]
    return EvalResult(spearman(gold, cosines[scored]), len(scored), len(indices))


def evaluate(store: EmbeddingStore, dataset: WordPairDataset, indices=None) -> EvalResult:
    """Spearman rho of cosine scores against gold scores over ``indices``."""
    return correlate(pair_cosines(store, dataset), dataset, indices)


def split_folds(
    dataset: WordPairDataset, class_filter: str | None, seed: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Random 2-fold split of one class's entry indices, deterministic under
    seed: two disjoint tuples covering the class, sizes differing by <= 1.
    Fold 0 is the first."""
    indices = dataset.class_indices(class_filter)
    if len(indices) < 2:
        raise ValueError(f"class {class_filter!r} has {len(indices)} entries; need >= 2")
    rng = np.random.default_rng(seed)
    shuffled = tuple(indices[i] for i in rng.permutation(len(indices)))
    half = (len(shuffled) + 1) // 2
    return shuffled[:half], shuffled[half:]


@dataclass(frozen=True)
class ToeflQuestion:
    prompt: str
    candidates: tuple[str, str, str, str]
    gold_index: int
    word_class: str = "ALL"


def load_toefl(path: str | Path) -> list[ToeflQuestion]:
    """Read "prompt cand1 cand2 cand3 cand4 gold_index [class]" lines."""
    path = Path(path)
    questions = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (6, 7):
            raise DatasetFormatError(
                f"{path}:{line_no}: expected 6 or 7 fields, got {len(fields)}"
            )
        try:
            gold = int(fields[5])
        except ValueError:
            raise DatasetFormatError(f"{path}:{line_no}: bad gold index {fields[5]!r}") from None
        if not 0 <= gold <= 3:
            raise DatasetFormatError(f"{path}:{line_no}: gold index must be 0..3")
        word_class = fields[6] if len(fields) == 7 else "ALL"
        questions.append(
            ToeflQuestion(
                prompt=fields[0].lower(),
                candidates=tuple(c.lower() for c in fields[1:5]),
                gold_index=gold,
                word_class=word_class,
            )
        )
    return questions


def toefl_evaluate(
    store: EmbeddingStore, questions: list[ToeflQuestion]
) -> dict[str, tuple[int, int]]:
    """Per-class (correct, total) over multiple-choice questions.

    The answer is the in-vocabulary candidate with the highest cosine to the
    prompt; ties go to the lowest candidate index. Questions whose prompt (or
    every candidate) is out of vocabulary count as incorrect.
    """
    results: dict[str, list[int]] = {}
    for q in questions:
        correct = 0
        if q.prompt in store:
            prompt_vec = store.vector(q.prompt)
            best_idx = None
            best_score = 0.0
            for idx, cand in enumerate(q.candidates):
                if cand not in store:
                    continue
                score = cosine(prompt_vec, store.vector(cand))
                if best_idx is None or score > best_score:
                    best_idx = idx
                    best_score = score
            if best_idx is not None and best_idx == q.gold_index:
                correct = 1
        tally = results.setdefault(q.word_class, [0, 0])
        tally[0] += correct
        tally[1] += 1
    return {cls: (c, t) for cls, (c, t) in sorted(results.items())}


def convert_simlex(src: str | Path, dest: str | Path) -> int:
    """One-shot conversion of a SimLex-999 distribution file to our format.

    Expects the original header with word1, word2, POS and SimLex999 columns;
    returns the number of pairs written.
    """
    src = Path(src)
    lines = src.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DatasetFormatError(f"{src}: empty file")
    header = lines[0].split("\t")
    try:
        i_w1 = header.index("word1")
        i_w2 = header.index("word2")
        i_pos = header.index("POS")
        i_score = header.index("SimLex999")
    except ValueError:
        raise DatasetFormatError(
            f"{src}: missing expected SimLex-999 columns in header: {lines[0]!r}"
        ) from None
    out_lines = ["word1\tword2\tscore\tclass"]
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split("\t")
        out_lines.append(
            f"{fields[i_w1].lower()}\t{fields[i_w2].lower()}\t{fields[i_score]}\t{fields[i_pos]}"
        )
    Path(dest).write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    return len(out_lines) - 1
