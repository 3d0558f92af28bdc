"""Turning parsed sentences into (word, context) training pairs.

Dependency arcs are grouped into labeled context bags after prepositional
arc collapsing and label merging; coordination arcs come in two directional
variants. :func:`window_pairs` gives the window baselines of
:data:`WINDOW_KINDS`, BOW and POSIT, POSIT offsets recomputed from token
positions. :func:`bag_texts` turns sentences into the text of each bag's
file, from the ``(word, context, bag)`` triples of either kind, a baseline
as one bag named by its kind; :func:`write_bag_files` appends such texts,
one per chunk of a corpus and in corpus order, to the bag files and writes
their manifest. The pipeline runs :func:`bag_texts` on each chunk, in a
worker process when there is more than one, with a ``functools.partial`` of
:func:`deps_pairs` or :func:`window_pairs` as its ``pairs_of``.

A :class:`DependencyPair` is ``(word, context, bag)``: the context is the
typed string a bag file stores, such as ``australian_amod`` or
``scientist_amod-1`` (``-1`` marks the inverse arc), built once per arc.

Extraction touches every pair of a corpus, so it keeps the Python work per
pair small: a pair is a ``NamedTuple`` built with ``tuple.__new__``,
collapsing rebuilds only the tokens whose deprel changes,
:meth:`BagMappingTable.map_label` runs each label's prefix scan once, and
:func:`bag_texts` joins each bag's lines of a chunk into one string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .conllu import Sentence, Token, new_token

DISCARD = "DISCARD"
# Routing label: the arcs the bag table maps here, and only those, are split
# into the conjlr/conjll bags by variant.
CONJ_ROUTE = "conj"
# Deprel assigned to case arcs consumed by collapsing; never extracted.
COLLAPSED = "_collapsed"

# The bags of the coordination variants; no rule may target them directly.
CONJ_BAGS = ("conjlr", "conjll")
CONJ_VARIANTS = (*CONJ_BAGS, "both")

MANIFEST_NAME = "manifest.txt"
INCOMPLETE_MARKER = "_INCOMPLETE"
PAIR_FILE_SUFFIX = ".pairs"

# The window baselines; each is one bag, named by its kind.
WINDOW_KINDS = ("bow", "posit")


class DependencyPair(NamedTuple):
    """One (word, context) training pair from a single dependency arc, and its bag."""

    word: str
    context: str
    bag: str


# DependencyPair from one 3-tuple, without NamedTuple.__new__'s Python frame.
_new_pair = partial(tuple.__new__, DependencyPair)


class BagMappingTable:
    """Ordered first-match-wins rules from raw deprel to bag label.

    Rules are exact labels or prefix patterns (trailing ``*``). The last rule
    must be the catch-all ``*`` so every input label matches something.
    """

    def __init__(self, rules: list[tuple[str, str]]):
        if not rules or rules[-1][0] != "*":
            raise ValueError("mapping table requires a final catch-all '*' rule")
        for pattern, target in rules:
            # "+" joins bags in a configuration's name and "/" would leave the bag directory
            if not target or "+" in target or "/" in target:
                raise ValueError(
                    f"bad bag label in rule {pattern!r} -> {target!r}: "
                    "a label must be nonempty and hold no '+' or '/'"
                )
            if target in CONJ_BAGS:
                raise ValueError(
                    f"bad bag label in rule {pattern!r} -> {target!r}: conjlr and conjll are "
                    f"reserved for the conj variants; map coordination arcs to {CONJ_ROUTE!r}"
                )
        self.rules = list(rules)
        # Exact rules, then every label a prefix scan has resolved.
        self._mapped: dict[str, str] = {}
        self._prefixes: list[tuple[str, str]] = []
        for pattern, target in self.rules:
            if pattern.endswith("*"):
                self._prefixes.append((pattern[:-1], target))
            elif pattern not in self._mapped:
                self._mapped[pattern] = target

    def map_label(self, deprel: str) -> str:
        """Map a raw deprel to its bag label, CONJ_ROUTE, or DISCARD."""
        hit = self._mapped.get(deprel)
        if hit is not None:
            return hit
        for prefix, target in self._prefixes:
            if deprel.startswith(prefix):
                self._mapped[deprel] = target
                return target
        raise AssertionError("catch-all rule failed to match")  # pragma: no cover

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


def _check_conj_variant(variant: str) -> None:
    if variant not in CONJ_VARIANTS:
        raise ValueError(f"conj_variant must be one of {CONJ_VARIANTS}, got {variant!r}")


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs for dependency pair extraction.

    ``collapse_targets`` lists the base labels whose case-marked dependents
    get collapsed into prep pseudo-arcs; add "obl" for UD v2 corpora. An
    empty tuple turns collapsing off.
    """

    conj_variant: str = "both"
    collapse_targets: tuple[str, ...] = ("nmod",)

    def __post_init__(self):
        _check_conj_variant(self.conj_variant)


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
    for index in sorted(case_of):
        tok, cases = sentence.token(index), case_of[index]
        if _base_label(tok.deprel) in targets and tok.head != 0:
            new_deprels[index] = "prep:" + cases[0].form.lower()
            for c in cases:
                new_deprels[c.index] = COLLAPSED
    if not new_deprels:
        return sentence
    tokens = tuple(
        new_token((*t[:5], new_deprels[t.index])) if t.index in new_deprels else t
        for t in sentence.tokens
    )
    return Sentence(tokens)


def _conj_arc_pairs(head: Token, dep: Token, variant: str) -> Iterator[DependencyPair]:
    """conjlr marks the head-direction pair inverse, conjll does not."""
    if variant in ("conjlr", "both"):
        yield _new_pair((head.form, dep.form + "_conj", "conjlr"))
        yield _new_pair((dep.form, head.form + "_conj-1", "conjlr"))
    if variant in ("conjll", "both"):
        yield _new_pair((head.form, dep.form + "_conj", "conjll"))
        yield _new_pair((dep.form, head.form + "_conj", "conjll"))


def extract_deps_pairs(
    sentence: Sentence,
    table: BagMappingTable,
    conj_variant: str = "both",
) -> Iterator[DependencyPair]:
    """All dependency pairs of one sentence, both arc directions.

    Every non-discarded arc h --r--> m yields (h, m_r) and (m, h_r-1), with
    every ``prep:X`` written as plain ``prep`` so contexts match bag
    granularity; arcs the table maps to ``conj`` are routed through the
    coordination variants instead. An unknown ``conj_variant`` raises ValueError.
    """
    _check_conj_variant(conj_variant)
    tokens = sentence.tokens
    for tok in tokens:
        if tok.head == 0 or tok.deprel == COLLAPSED:
            continue
        bag = table.map_label(tok.deprel)
        if bag == DISCARD:
            continue
        head = tokens[tok.head - 1]
        if bag == CONJ_ROUTE:
            yield from _conj_arc_pairs(head, tok, conj_variant)
            continue
        rel = "prep" if tok.deprel.startswith("prep:") else tok.deprel
        yield _new_pair((head.form, f"{tok.form}_{rel}", bag))
        yield _new_pair((tok.form, f"{head.form}_{rel}-1", bag))


def deps_pairs(
    table: BagMappingTable, config: ExtractionConfig, sentence: Sentence
) -> Iterator[DependencyPair]:
    """The dependency pairs of one sentence under ``config``: its prepositions
    collapsed, then its arcs extracted."""
    sentence = collapse_prepositions(sentence, config.collapse_targets)
    return extract_deps_pairs(sentence, table, config.conj_variant)


def window_pairs(kind: str, window: int, sentence: Sentence) -> list[tuple[str, str, str]]:
    """The (word, context, bag) triples of one sentence in the ``kind``
    baseline, one bag named ``kind``: every neighbor within +-``window`` in
    the same sentence. A "bow" context is the neighbor's form; a "posit"
    context appends the signed offset, recomputed from token positions
    ("stars_+1" for an adjacent right neighbor), not copied from any
    published rendering of it. An unknown ``kind`` or a ``window`` below 1
    raises ValueError."""
    if kind not in WINDOW_KINDS:
        raise ValueError(f"window kind must be one of {WINDOW_KINDS}, got {kind!r}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    forms = [t.form for t in sentence]
    n = len(forms)
    posit = kind == "posit"
    return [
        (forms[i], f"{forms[j]}_{j - i:+d}" if posit else forms[j], kind)
        for i in range(n)
        for j in range(max(0, i - window), min(n, i + window + 1))
        if j != i
    ]


def effective_bags(table: BagMappingTable, config: ExtractionConfig) -> tuple[str, ...]:
    """Bag labels actually produced under the given config, sorted: the
    table's targets, DISCARD aside, with conj replaced by its variants' bags."""
    labels = {target for _, target in table.rules if target != DISCARD}
    if CONJ_ROUTE in labels:
        labels.discard(CONJ_ROUTE)
        labels.update(CONJ_BAGS if config.conj_variant == "both" else (config.conj_variant,))
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


def bag_texts(
    sentences: Iterable[Sentence],
    pairs_of: Callable[[Sentence], Iterable[tuple[str, str, str]]],
    bags: Iterable[str],
) -> dict[str, str]:
    """The lines each of ``bags`` gets from ``sentences``, one string per bag.

    ``pairs_of(sentence)`` gives that sentence's (word, context, bag) triples;
    every bag it names must be in ``bags``. A line is "word<TAB>context".
    """
    pending: dict[str, list[str]] = {bag: [] for bag in bags}
    for sentence in sentences:
        for word, context, bag in pairs_of(sentence):
            pending[bag].append(f"{word}\t{context}\n")
    return {bag: "".join(lines) for bag, lines in pending.items()}


def write_bag_files(
    texts: Iterable[dict[str, str]],
    bags: Iterable[str],
    out_dir: str | Path,
    config_hash: str = "",
) -> Manifest:
    """Write one pair file per bag, plus a manifest, from :func:`bag_texts` results.

    Each of ``texts`` maps bags to the lines they get next; every bag it
    names must be in ``bags``, and every bag in ``bags`` gets a file, empty
    or not. A bag's count in the manifest is its number of lines. An
    ``_INCOMPLETE`` marker guards the output directory while writing, so an
    aborted run is detected on reload.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / INCOMPLETE_MARKER
    marker.write_text("extraction in progress\n", encoding="utf-8")

    counts = {bag: 0 for bag in bags}
    # only "\n" ends a line, so a form that holds a "\r" stays one field
    handles = {
        bag: open(out / f"{bag}{PAIR_FILE_SUFFIX}", "w", encoding="utf-8", newline="\n")
        for bag in counts
    }
    try:
        for chunk in texts:
            for bag, text in chunk.items():
                handles[bag].write(text)
                counts[bag] += text.count("\n")
    finally:
        for h in handles.values():
            h.close()

    manifest = Manifest(counts=counts, meta={"config_hash": config_hash})
    manifest.save(out)
    marker.unlink()
    return manifest


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
            path = self.bag_dir / f"{bag}{PAIR_FILE_SUFFIX}"
            with open(path, encoding="utf-8", newline="\n") as f:
                for line in f:
                    word, _, context = line.rstrip("\n").partition("\t")
                    yield (word, context)

