r"""Reading dependency-parsed corpora in CoNLL-U format.

Sentences are parsed lazily, one blank-line-delimited block at a time, so
memory stays bounded by the largest sentence rather than the corpus. Surface
forms are lowercased at parse time; lemma and POS columns are kept as-is.

:func:`read_corpus` decodes UTF-8 in C, in an ``io.TextIOWrapper`` with
``newline="\n"`` over the (possibly gzipped) byte stream. Only ``\n`` ends a
line there, as it does for the byte lines :func:`parse_conllu` also accepts:
a form holding U+2028, a form feed or a lone ``\r`` stays in one token, and
the ``\r`` of a CRLF line end is stripped. A :class:`Token` is a
``NamedTuple``, built by one C call to ``tuple.__new__``.
"""

from __future__ import annotations

import codecs
import gzip
import io
import logging
import re
from dataclasses import dataclass
from functools import partial
from typing import IO, Iterable, Iterator, NamedTuple

logger = logging.getLogger(__name__)

GZIP_MAGIC = b"\x1f\x8b"

# Under skip, a byte that is not valid UTF-8 decodes to a lone surrogate and
# sets this process-wide flag. Only once it is set does the skip path search
# token lines for such a surrogate, so valid input, ASCII or not, pays for no
# search; strict decoding never yields one, so raise mode runs none either.
_invalid_utf8_seen = False
UNDECODABLE = re.compile("[\udc80-\udcff]")
_surrogateescape = codecs.lookup_error("surrogateescape")


def _escape_invalid_utf8(exc: UnicodeDecodeError) -> tuple[str, int]:
    global _invalid_utf8_seen
    _invalid_utf8_seen = True
    return _surrogateescape(exc)


codecs.register_error("depctx.conllu.skip", _escape_invalid_utf8)
# The UTF-8 decoding of each ``errors`` mode.
DECODE_ERRORS = {"skip": "depctx.conllu.skip", "raise": "strict"}


class ConlluError(Exception):
    """Malformed CoNLL-U input, carrying the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Token(NamedTuple):
    """One syntactic word: 1-based index, lowercased form, head and deprel.

    ``head`` is 0 for the sentence root.
    """

    index: int
    form: str
    lemma: str
    upos: str
    head: int
    deprel: str


# Token from one 6-tuple, without NamedTuple.__new__'s Python frame.
new_token = partial(tuple.__new__, Token)


@dataclass(frozen=True)
class Sentence:
    """An ordered sequence of tokens with consecutive indices 1..n."""

    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def token(self, index: int) -> Token:
        """Look up a token by its 1-based index."""
        return self.tokens[index - 1]


def _parse_token(line: str, line_number: int) -> Token | None:
    """Parse one token line; returns None for multiword ranges / empty nodes."""
    try:
        tok_id, form, lemma, upos, _, _, head, deprel, _, _ = line.split("\t")
    except ValueError:
        n_cols = line.count("\t") + 1
        raise ConlluError(f"expected 10 columns, got {n_cols}", line_number) from None
    if "-" in tok_id or "." in tok_id:
        # Multiword token ranges and empty nodes carry no basic arc.
        return None
    try:
        index = int(tok_id)
    except ValueError:
        raise ConlluError(f"non-numeric token ID {tok_id!r}", line_number) from None
    try:
        head_index = int(head)
    except ValueError:
        raise ConlluError(f"non-numeric HEAD {head!r}", line_number) from None
    if not deprel:
        raise ConlluError("empty DEPREL", line_number)
    return new_token((index, form.lower(), lemma, upos, head_index, deprel))


def _reject_undecodable(line: str, line_number: int) -> None:
    """Raise if a line decoded under ``surrogateescape`` held invalid UTF-8."""
    bad = UNDECODABLE.search(line)
    if bad is not None:
        byte = ord(bad.group()) - 0xDC00
        raise ConlluError(f"invalid UTF-8 (byte 0x{byte:02x})", line_number)


def _build_sentence(tokens: list[Token], line_number: int) -> Sentence:
    """Validate structural invariants of a finished token block."""
    n = len(tokens)
    roots = 0
    for pos, (index, _, _, _, head, _) in enumerate(tokens, start=1):
        if index != pos:
            raise ConlluError(
                f"token indices not consecutive: expected {pos}, got {index}",
                line_number,
            )
        if head > n:
            raise ConlluError(f"HEAD {head} out of range (n={n})", line_number)
        if head == index:
            raise ConlluError(f"token {index} is its own head", line_number)
        if head == 0:
            roots += 1
    if roots != 1:
        raise ConlluError(f"expected exactly one root, got {roots}", line_number)
    return Sentence(tuple(tokens))


def parse_conllu(
    stream: Iterable,
    errors: str = "skip",
    stats: dict | None = None,
) -> Iterator[Sentence]:
    """Yield one Sentence per CoNLL-U block read from ``stream``.

    ``stream`` is any iterable of lines (bytes or text); byte lines are
    decoded as UTF-8. Comment lines, multiword ranges and empty nodes are
    dropped. On a malformed line the enclosing sentence is either skipped
    with a warning (``errors="skip"``, counted under
    ``stats["skipped_sentences"]``) or a :class:`ConlluError` is raised
    (``errors="raise"``). A byte token line that is not valid UTF-8 is
    malformed.
    """
    if errors not in DECODE_ERRORS:
        raise ValueError(f"errors must be 'skip' or 'raise', got {errors!r}")
    skip = errors == "skip"
    tokens: list[Token] = []
    block_bad = False
    line_number = 0

    def finish(at_line: int) -> Sentence | None:
        nonlocal block_bad
        if block_bad:
            block_bad = False
            tokens.clear()
            return None
        if not tokens:
            return None
        try:
            sentence = _build_sentence(tokens, at_line)
        except ConlluError as exc:
            if not skip:
                raise
            _count_skip(stats, exc)
            return None
        finally:
            tokens.clear()
        return sentence

    for raw in stream:
        line_number += 1
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8", DECODE_ERRORS[errors])
            except UnicodeDecodeError as exc:
                raise ConlluError(f"invalid UTF-8 ({exc.reason})", line_number) from None
        line = raw.rstrip("\r\n")
        if not line:
            sentence = finish(line_number)
            if sentence is not None:
                yield sentence
            continue
        if line.startswith("#"):
            continue
        if block_bad:
            continue
        try:
            if _invalid_utf8_seen and skip and not line.isascii():
                _reject_undecodable(line, line_number)
            token = _parse_token(line, line_number)
        except ConlluError as exc:
            if not skip:
                raise
            _count_skip(stats, exc)
            block_bad = True
            continue
        if token is not None:
            tokens.append(token)
    sentence = finish(line_number + 1)
    if sentence is not None:
        yield sentence


def _count_skip(stats: dict | None, exc: ConlluError) -> None:
    logger.warning("skipping sentence: %s", exc)
    if stats is not None:
        stats["skipped_sentences"] = stats.get("skipped_sentences", 0) + 1


def sentence_to_conllu(sentence: Sentence) -> str:
    """Serialize a Sentence back to a 10-column block (no trailing blank line)."""
    lines = []
    for tok in sentence:
        lines.append(
            "\t".join(
                [
                    str(tok.index),
                    tok.form,
                    tok.lemma,
                    tok.upos,
                    "_",
                    "_",
                    str(tok.head),
                    tok.deprel,
                    "_",
                    "_",
                ]
            )
        )
    return "\n".join(lines)


def open_corpus(path: str) -> IO[bytes]:
    """Open a corpus file for reading, transparently handling gzip.

    Compression is detected from the magic bytes, not the file extension.
    Closing the returned stream closes the file.
    """
    with open(path, "rb") as f:
        magic = f.read(2)
    if magic == GZIP_MAGIC:
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_corpus(
    path: str,
    errors: str = "skip",
    stats: dict | None = None,
) -> Iterator[Sentence]:
    """Parse sentences from a (possibly gzipped) UTF-8 CoNLL-U file.

    Under ``errors="skip"`` a token line that is not valid UTF-8 skips its
    sentence like any malformed line; under ``errors="raise"`` invalid UTF-8
    anywhere raises :class:`ConlluError` naming the file and the line.
    """
    decoding = DECODE_ERRORS.get(errors, "strict")
    try:
        with io.TextIOWrapper(
            open_corpus(path), encoding="utf-8", errors=decoding, newline="\n"
        ) as stream:
            yield from parse_conllu(stream, errors=errors, stats=stats)
    except UnicodeDecodeError as exc:
        # The decoder works on blocks of many lines, so find the line again
        # in the raw bytes; valid input never comes here.
        with open_corpus(path) as raw:
            for line_number, line in enumerate(raw, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise ConlluError(f"invalid UTF-8 in {path} ({exc.reason})", line_number) from None
