"""Turning parsed sentences into (word, context) training pairs.

Dependency arcs are grouped into labeled context bags after prepositional
arc collapsing and label merging; coordination arcs come in two directional
variants. Window-based (BOW/POSIT) baseline contexts live here too, sharing
the pair-stream shape so the trainer does not care where pairs came from.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .conllu import Sentence, Token

logger = logging.getLogger(__name__)

DISCARD = "DISCARD"
# Routing label: conj arcs are split into the conjlr/conjll bags by variant,
# not by the mapping table itself.
CONJ_ROUTE = "conj"
# Deprel assigned to case arcs consumed by collapsing; never extracted.
COLLAPSED = "_collapsed"

CONJ_VARIANTS = ("conjlr", "conjll", "both")

MANIFEST_NAME = "manifest.txt"
INCOMPLETE_MARKER = "_INCOMPLETE"
PAIR_FILE_SUFFIX = ".pairs"


class Direction(Enum):
    NORMAL = "normal"
    INVERSE = "inverse"


@dataclass(frozen=True)
class DependencyPair:
    """One (word, context) training pair from a single dependency arc.

    ``relation`` keeps the raw label (e.g. ``prep:with``); the serialized
    context string subsumes all ``prep:X`` into plain ``prep`` so vocabulary
    statistics match bag granularity, and marks inverse arcs with ``-1``.
    """

    word: str
    context_token: str
    relation: str
    bag: str
    direction: Direction

    @property
    def context(self) -> str:
        rel = "prep" if self.relation.startswith("prep:") else self.relation
        marker = "-1" if self.direction is Direction.INVERSE else ""
        return f"{self.context_token}_{rel}{marker}"

    def as_tuple(self) -> tuple[str, str]:
        return (self.word, self.context)


class BagMappingTable:
    """Ordered first-match-wins rules from raw deprel to bag label.

    Rules are exact labels or prefix patterns (trailing ``*``). The last rule
    must be the catch-all ``*`` so every input label matches something.
    """

    def __init__(self, rules: list[tuple[str, str]]):
        if not rules or rules[-1][0] != "*":
            raise ValueError("mapping table requires a final catch-all '*' rule")
        self.rules = list(rules)
        self._exact: dict[str, str] = {}
        self._prefixes: list[tuple[str, str]] = []
        for pattern, target in self.rules:
            if pattern.endswith("*"):
                self._prefixes.append((pattern[:-1], target))
            elif pattern not in self._exact:
                self._exact[pattern] = target

    def map_label(self, deprel: str) -> str:
        """Map a raw deprel to its bag label, CONJ_ROUTE, or DISCARD."""
        hit = self._exact.get(deprel)
        if hit is not None:
            return hit
        for prefix, target in self._prefixes:
            if deprel.startswith(prefix):
                return target
        raise AssertionError("catch-all rule failed to match")  # pragma: no cover

    @property
    def bag_labels(self) -> frozenset[str]:
        """Effective bag labels: the rule image with conj split into its variants."""
        labels = {t for _, t in self.rules if t != DISCARD}
        if CONJ_ROUTE in labels:
            labels.discard(CONJ_ROUTE)
            labels.update(("conjlr", "conjll"))
        return frozenset(labels)

    @classmethod
    def from_file(cls, path: str | Path) -> "BagMappingTable":
        rules = []
        for raw in Path(path).read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"bad mapping rule (want 'pattern<TAB>target'): {raw!r}")
            rules.append((parts[0], parts[1]))
        return cls(rules)

    @classmethod
    def default(cls) -> "BagMappingTable":
        ref = resources.files("depctx.data").joinpath("default_bag_table.tsv")
        with resources.as_file(ref) as path:
            return cls.from_file(path)


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs for pair extraction.

    ``collapse_targets`` lists the base labels whose case-marked dependents
    get collapsed into prep pseudo-arcs; add "obl" for UD v2 corpora. An
    empty tuple turns collapsing off.
    """

    window: int = 2
    conj_variant: str = "both"
    collapse_targets: tuple[str, ...] = ("nmod",)

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.conj_variant not in CONJ_VARIANTS:
            raise ValueError(f"conj_variant must be one of {CONJ_VARIANTS}")


def _base_label(deprel: str) -> str:
    return deprel.split(":", 1)[0]


def collapse_prepositions(
    sentence: Sentence, targets: tuple[str, ...] = ExtractionConfig.collapse_targets
) -> Sentence:
    """Collapse case-marking arcs into prep pseudo-arcs.

    For every arc h --t--> m with t in ``targets`` where m has a ``case``
    dependent c, the case arc is removed (marked with a reserved deprel) and
    m's relation becomes ``prep:`` + form(c). With several case dependents the
    linearly first one supplies the preposition and all of them are removed.
    Sentences without the pattern, and every sentence when ``targets`` is
    empty, come back unchanged.
    """
    case_of: dict[int, list[Token]] = {}
    for tok in sentence:
        if _base_label(tok.deprel) == "case" and tok.head != 0:
            case_of.setdefault(tok.head, []).append(tok)
    if not case_of:
        return sentence

    new_deprels: dict[int, str] = {}
    for tok in sentence:
        if _base_label(tok.deprel) in targets and tok.head != 0:
            cases = case_of.get(tok.index)
            if cases:
                new_deprels[tok.index] = "prep:" + cases[0].form.lower()
                for c in cases:
                    new_deprels[c.index] = COLLAPSED
    if not new_deprels:
        return sentence
    tokens = tuple(
        Token(t.index, t.form, t.lemma, t.upos, t.head, new_deprels.get(t.index, t.deprel))
        for t in sentence
    )
    return Sentence(tokens)


def _conj_arc_pairs(head: Token, dep: Token, variant: str) -> Iterator[DependencyPair]:
    if variant in ("conjlr", "both"):
        yield DependencyPair(head.form, dep.form, "conj", "conjlr", Direction.NORMAL)
        yield DependencyPair(dep.form, head.form, "conj", "conjlr", Direction.INVERSE)
    if variant in ("conjll", "both"):
        yield DependencyPair(head.form, dep.form, "conj", "conjll", Direction.NORMAL)
        yield DependencyPair(dep.form, head.form, "conj", "conjll", Direction.NORMAL)


def extract_conj_pairs(sentence: Sentence, variant: str = "both") -> Iterator[DependencyPair]:
    """Coordination pairs: conjlr marks the head-direction pair inverse, conjll does not."""
    if variant not in CONJ_VARIANTS:
        raise ValueError(f"variant must be one of {CONJ_VARIANTS}")
    for tok in sentence:
        if tok.head != 0 and _base_label(tok.deprel) == "conj":
            yield from _conj_arc_pairs(sentence.token(tok.head), tok, variant)


def extract_deps_pairs(
    sentence: Sentence,
    table: BagMappingTable,
    conj_variant: str = "both",
) -> Iterator[DependencyPair]:
    """All dependency pairs of one sentence, both arc directions.

    Every non-discarded arc h --r--> m yields (h, m_r) and (m, h_r-1);
    conj arcs are routed through the coordination variants instead.
    """
    for tok in sentence:
        if tok.head == 0 or tok.deprel == COLLAPSED:
            continue
        bag = table.map_label(tok.deprel)
        if bag == DISCARD:
            continue
        head = sentence.token(tok.head)
        if bag == CONJ_ROUTE:
            yield from _conj_arc_pairs(head, tok, conj_variant)
            continue
        yield DependencyPair(head.form, tok.form, tok.deprel, bag, Direction.NORMAL)
        yield DependencyPair(tok.form, head.form, tok.deprel, bag, Direction.INVERSE)


def extract_bow_pairs(sentence: Sentence, window: int = 2) -> Iterator[tuple[str, str]]:
    """Plain bag-of-words pairs: every neighbor within +-window, same sentence."""
    if window < 1:
        raise ValueError("window must be >= 1")
    forms = [t.form for t in sentence]
    n = len(forms)
    for i in range(n):
        for j in range(max(0, i - window), min(n, i + window + 1)):
            if j != i:
                yield (forms[i], forms[j])


def extract_posit_pairs(sentence: Sentence, window: int = 2) -> Iterator[tuple[str, str]]:
    """BOW pairs with the literal signed token offset appended to the context.

    Offsets are recomputed from token positions ("stars_+1" for an adjacent
    right neighbor), not copied from any published rendering of them.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    forms = [t.form for t in sentence]
    n = len(forms)
    for i in range(n):
        for j in range(max(0, i - window), min(n, i + window + 1)):
            if j != i:
                yield (forms[i], f"{forms[j]}_{j - i:+d}")


WINDOW_EXTRACTORS = {"bow": extract_bow_pairs, "posit": extract_posit_pairs}


def write_window_pairs(
    corpus: Iterable[Sentence], kind: str, window: int, out_dir: str | Path
) -> Path:
    """Write the BOW or POSIT baseline pairs of a corpus to ``<kind>.pairs`` in out_dir."""
    if kind not in WINDOW_EXTRACTORS:
        raise ValueError(f"kind must be one of {tuple(WINDOW_EXTRACTORS)}")
    extract = WINDOW_EXTRACTORS[kind]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{kind}{PAIR_FILE_SUFFIX}"
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for sentence in corpus:
            for word, context in extract(sentence, window):
                f.write(f"{word}\t{context}\n")
                n += 1
    logger.info("wrote %d %s pairs to %s", n, kind, path)
    return path


def effective_bags(table: BagMappingTable, config: ExtractionConfig) -> tuple[str, ...]:
    """Bag labels actually produced under the given config, sorted."""
    labels = set(table.bag_labels)
    if config.conj_variant == "conjlr":
        labels.discard("conjll")
    elif config.conj_variant == "conjll":
        labels.discard("conjlr")
    return tuple(sorted(labels))


@dataclass
class Manifest:
    """Per-bag pair counts plus the fingerprint of the extraction that produced them."""

    counts: dict[str, int]
    meta: dict[str, str] = field(default_factory=dict)

    def total(self, bags: Iterable[str] | None = None) -> int:
        if bags is None:
            return sum(self.counts.values())
        missing = [b for b in bags if b not in self.counts]
        if missing:
            raise KeyError(f"unknown bag label(s): {', '.join(sorted(missing))}")
        return sum(self.counts[b] for b in bags)

    def save(self, out_dir: str | Path) -> Path:
        path = Path(out_dir) / MANIFEST_NAME
        lines = [f"{k}={v}" for k, v in sorted(self.meta.items())]
        lines += [f"bag.{bag}={n}" for bag, n in sorted(self.counts.items())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, out_dir: str | Path) -> "Manifest":
        out = Path(out_dir)
        if (out / INCOMPLETE_MARKER).exists():
            raise RuntimeError(
                f"partial extraction output in {out}: a previous run aborted; re-extract"
            )
        counts: dict[str, int] = {}
        meta: dict[str, str] = {}
        for line in (out / MANIFEST_NAME).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            key, _, value = line.partition("=")
            if key.startswith("bag."):
                counts[key[4:]] = int(value)
            else:
                meta[key] = value
        return cls(counts=counts, meta=meta)


def write_bag_files(
    corpus: Iterable[Sentence],
    table: BagMappingTable,
    config: ExtractionConfig,
    out_dir: str | Path,
    config_hash: str = "",
) -> Manifest:
    """Stream a corpus into one append-only pair file per bag, plus a manifest.

    Lines are "word<TAB>context". An ``_INCOMPLETE`` marker guards the output
    directory while writing, so an aborted run is detected on reload.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / INCOMPLETE_MARKER
    marker.write_text("extraction in progress\n", encoding="utf-8")

    bags = effective_bags(table, config)
    counts = {bag: 0 for bag in bags}
    handles = {bag: open(out / f"{bag}{PAIR_FILE_SUFFIX}", "w", encoding="utf-8") for bag in bags}
    try:
        for sentence in corpus:
            sentence = collapse_prepositions(sentence, config.collapse_targets)
            for pair in extract_deps_pairs(sentence, table, config.conj_variant):
                handles[pair.bag].write(f"{pair.word}\t{pair.context}\n")
                counts[pair.bag] += 1
    finally:
        for h in handles.values():
            h.close()

    manifest = Manifest(counts=counts, meta={"config_hash": config_hash})
    manifest.save(out)
    marker.unlink()
    return manifest


def read_pairs(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield the (word, context) pairs of one "word<TAB>context" pair file."""
    with open(path, encoding="utf-8") as f:
        for line in f:
            word, _, context = line.rstrip("\n").partition("\t")
            yield (word, context)


class PairStream:
    """Re-iterable (word, context) stream over the multiset union of member bag files.

    Iteration order is deterministic: member bags in sorted order, each file
    start to end. Length comes from the manifest, so it is known without a
    scan; a bag the manifest does not list raises KeyError.
    """

    def __init__(self, bag_dir: str | Path, bags: Iterable[str], manifest: Manifest):
        self.bag_dir = Path(bag_dir)
        self.bags = tuple(sorted(bags))
        if not self.bags:
            raise ValueError("empty configuration: at least one bag is required")
        self._length = manifest.total(self.bags)
        for bag in self.bags:
            path = self.bag_dir / f"{bag}{PAIR_FILE_SUFFIX}"
            if not path.exists():
                raise FileNotFoundError(f"missing pair file for bag {bag!r}: {path}")

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[tuple[str, str]]:
        for bag in self.bags:
            yield from read_pairs(self.bag_dir / f"{bag}{PAIR_FILE_SUFFIX}")

