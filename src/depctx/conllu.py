r"""Reading dependency-parsed corpora in CoNLL-U format.

:func:`read_chunks` is the one reader of corpus files: it reads a
(possibly gzipped) file as chunks of about :data:`CHUNK_BYTES` bytes, each
ending just after a blank line, so no sentence spans two chunks and
:func:`parse_conllu` parses each chunk's :func:`chunk_lines` on its own, in
any process. :func:`read_corpus` parses the chunks in turn; the pipeline
parses them in its worker processes. Memory is bounded by the chunks in
flight, not by the corpus. Surface forms are lowercased at parse time; lemma
and POS columns are kept as-is.

A sentence with a malformed line is skipped with one ``skipping sentence:
line N: <reason>`` warning, N counted from the start of the file. That
warning is the one count of skipped sentences. :func:`parse_conllu` logs it
on this module's logger, or hands it to a caller that logs it there later,
in corpus order.

A chunk is decoded as UTF-8 in C, and only ``\n`` ends a line: a form
holding U+2028, a form feed or a lone ``\r`` stays in one token, and the
``\r`` of a CRLF line end is stripped. A :class:`Token` is a
``NamedTuple``, built by one C call to ``tuple.__new__``.
"""

from __future__ import annotations

import codecs
import gzip
import logging
import re
from dataclasses import dataclass
from functools import partial
from typing import IO, Callable, Iterable, Iterator, NamedTuple

logger = logging.getLogger(__name__)

GZIP_MAGIC = b"\x1f\x8b"
# The bytes read_chunks reads at a time; a chunk is cut after the last blank
# line in them.
CHUNK_BYTES = 1 << 18

# A byte that is not valid UTF-8 decodes to a lone surrogate and sets this
# process-wide flag. Only once it is set does the parser search token lines
# for such a surrogate, so valid input, ASCII or not, pays for no search.
_invalid_utf8_seen = False
UNDECODABLE = re.compile("[\udc80-\udcff]")
_surrogateescape = codecs.lookup_error("surrogateescape")


def _escape_invalid_utf8(exc: UnicodeDecodeError) -> tuple[str, int]:
    global _invalid_utf8_seen
    _invalid_utf8_seen = True
    return _surrogateescape(exc)


codecs.register_error("depctx.conllu.skip", _escape_invalid_utf8)


class ConlluError(Exception):
    """Malformed CoNLL-U input; the message leads with the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")


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
    stream: Iterable[str],
    first_line: int = 1,
    warn: Callable[[str], object] = logger.warning,
) -> Iterator[Sentence]:
    """Yield one Sentence per CoNLL-U block read from ``stream``.

    ``stream`` is any iterable of text lines, the first of them line
    ``first_line`` of its file. Comment lines, multiword ranges and empty
    nodes are dropped. A sentence with a malformed line is skipped, and
    ``warn`` gets one ``skipping sentence`` message, which names the line
    that failed (for a fault of the whole block, the line after it). A
    token line holding a byte that :func:`chunk_lines` could not decode is
    malformed.
    """
    tokens: list[Token] = []
    block_bad = False
    line_number = first_line - 1

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
            warn(f"skipping sentence: {exc}")
            return None
        finally:
            tokens.clear()
        return sentence

    for raw in stream:
        line_number += 1
        try:
            line = raw.rstrip("\r\n")
        except TypeError:
            raise TypeError(
                f"line {line_number}: parse_conllu takes text lines, got "
                f"{type(raw).__name__}; read a corpus file with read_corpus"
            ) from None
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
            if _invalid_utf8_seen and not line.isascii():
                _reject_undecodable(line, line_number)
            token = _parse_token(line, line_number)
        except ConlluError as exc:
            warn(f"skipping sentence: {exc}")
            block_bad = True
            continue
        if token is not None:
            tokens.append(token)
    sentence = finish(line_number + 1)
    if sentence is not None:
        yield sentence


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


def _blank_line_end(data: bytes) -> int:
    """The index just past the last blank line in ``data``, or 0 if it has none."""
    at = data.rfind(b"\n\n")
    if at >= 0:
        return at + 2
    at = data.rfind(b"\n\r\n")  # CRLF line ends
    return at + 3 if at >= 0 else 0


def read_chunks(path: str) -> Iterator[tuple[bytes, int]]:
    """A (possibly gzipped) corpus file as ``(chunk, first line number)`` pairs.

    The file is read :data:`CHUNK_BYTES` at a time, and each chunk ends just
    after the last blank line read so far; the last chunk ends at the end of
    the file, which a short read marks. A file shorter than one read is one
    chunk.
    """
    first_line, rest = 1, b""
    with open_corpus(path) as f:
        while True:
            block = f.read(CHUNK_BYTES)
            data = rest + block
            if len(block) < CHUNK_BYTES:
                if data:
                    yield data, first_line
                return
            end = _blank_line_end(data)
            # with no blank line yet, one sentence outgrows a read: read on
            chunk, rest = data[:end], data[end:]
            if chunk:
                yield chunk, first_line
                first_line += chunk.count(b"\n")


def chunk_lines(data: bytes) -> list[str]:
    """The text lines of a chunk of :func:`read_chunks`, line ends stripped.

    A byte that is not valid UTF-8 becomes a lone surrogate, which makes
    :func:`parse_conllu` skip the sentence of its token line.
    """
    lines = data.decode("utf-8", "depctx.conllu.skip").split("\n")
    if not lines[-1]:
        lines.pop()  # the text after the last line end
    return lines


def read_corpus(path: str) -> Iterator[Sentence]:
    """Parse sentences from a (possibly gzipped) UTF-8 CoNLL-U file, one
    chunk at a time, logging each skipped sentence's warning."""
    for data, first_line in read_chunks(path):
        yield from parse_conllu(chunk_lines(data), first_line)
