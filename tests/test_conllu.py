import gc
import gzip
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sentence_to_conllu
from depctx import conllu
from depctx.conllu import (
    Token,
    open_corpus,
    parse_conllu,
    read_corpus,
)


def parse_all(text):
    return list(parse_conllu(io.StringIO(text)))


def skip_warnings(caplog):
    """The ``skipping sentence`` warnings logged so far, the one skip count."""
    return [
        r.getMessage() for r in caplog.records
        if r.name == "depctx.conllu" and r.getMessage().startswith("skipping sentence")
    ]


def test_fig1_block(fig1_conllu_text):
    sentences = parse_all(fig1_conllu_text)
    assert len(sentences) == 1
    sent = sentences[0]
    assert len(sent) == 6
    arcs = {(t.form, t.head, t.deprel) for t in sent}
    assert ("australian", 2, "amod") in arcs
    assert ("scientist", 3, "nsubj") in arcs
    assert ("discovers", 0, "root") in arcs
    assert ("stars", 3, "dobj") in arcs
    assert ("with", 6, "case") in arcs
    assert ("telescope", 3, "nmod") in arcs


def test_forms_lowercased_lemma_preserved(fig1_conllu_text):
    sent = parse_all(fig1_conllu_text)[0]
    assert sent[0].form == "australian"
    assert sent[0].lemma == "australian"
    assert sent[2].lemma == "discover"
    assert sent[2].upos == "VERB"


def test_empty_stream():
    assert parse_all("") == []
    assert parse_all("\n\n\n") == []


def test_comments_skipped():
    text = "# sent_id = 1\n# text = hi\n1\thi\thi\tINTJ\t_\t_\t0\troot\t_\t_\n"
    sentences = parse_all(text)
    assert len(sentences) == 1
    assert sentences[0][0].form == "hi"


def test_multiword_and_empty_nodes_skipped():
    text = (
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\tde\tADP\t_\t_\t2\tcase\t_\t_\n"
        "2\tel\tel\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    sentences = parse_all(text)
    assert len(sentences) == 1
    assert [t.form for t in sentences[0]] == ["de", "el"]


def test_nine_column_line_skip_mode_continues(fig1_conllu_text, caplog):
    bad_block = "1\ta\ta\tX\t_\t_\t0\troot\t_\n"
    sentences = parse_all(bad_block + "\n" + fig1_conllu_text)
    assert len(sentences) == 1
    assert len(sentences[0]) == 6
    assert len(skip_warnings(caplog)) == 1


def test_bytes_lines_raise_a_type_error_naming_the_line():
    stream = io.BytesIO(b"1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n")
    with pytest.raises(TypeError, match="^line 1: parse_conllu takes text lines, got bytes;"):
        list(parse_conllu(stream))


def row(*columns):
    """One token line of 10 columns, unless given another count."""
    return "\t".join(columns if len(columns) != 8 else (*columns, "_", "_"))


# (reader, malformed block, warning after "skipping sentence: "); a fault of
# the whole block names the blank line after it
MALFORMED = {
    "non-numeric-id": (
        "text", row("x", "a", "a", "X", "_", "_", "0", "root"), "line 1: non-numeric token ID 'x'"
    ),
    "non-numeric-head": (
        "text", row("1", "a", "a", "X", "_", "_", "z", "root"), "line 1: non-numeric HEAD 'z'"
    ),
    "empty-deprel": ("text", row("1", "a", "a", "X", "_", "_", "0", ""), "line 1: empty DEPREL"),
    # also no root
    "head-out-of-range": (
        "text", row("1", "a", "a", "X", "_", "_", "5", "dep"), "line 2: HEAD 5 out of range (n=1)"
    ),
    "self-headed": (
        "text", row("1", "a", "a", "X", "_", "_", "1", "dep"), "line 2: token 1 is its own head"
    ),
    # int() reads "-00" as 0, which would make token 1 the root
    "signed-zero-root": (
        "text",
        row("1", "a", "a", "X", "_", "_", "-00", "root") + "\n"
        + row("2", "b", "b", "X", "_", "_", "1", "dep"),
        "line 1: signed zero HEAD '-00'",
    ),
    "nine-columns": (
        "text", row("1", "a", "a", "X", "_", "_", "0", "root", "_"),
        "line 1: expected 10 columns, got 9",
    ),
    "two-roots": (
        "text",
        row("1", "a", "a", "X", "_", "_", "0", "root") + "\n"
        + row("2", "b", "b", "X", "_", "_", "0", "root"),
        "line 3: expected exactly one root, got 2",
    ),
    "non-consecutive": (
        "text",
        row("1", "a", "a", "X", "_", "_", "0", "root") + "\n"
        + row("3", "b", "b", "X", "_", "_", "1", "dep"),
        "line 3: token indices not consecutive: expected 2, got 3",
    ),
}
# the surrogate is written back as the byte 0xff
INVALID_UTF8 = (
    row("1", "a", "a", "X", "_", "_", "2", "amod") + "\n"
    + row("2", "st\udcffrs", "star", "X", "_", "_", "0", "root"),
    "line 2: invalid UTF-8 (byte 0xff)",
)
MALFORMED["invalid-utf8-plain"] = ("plain", *INVALID_UTF8)
MALFORMED["invalid-utf8-gzip"] = ("gzip", *INVALID_UTF8)


@pytest.mark.parametrize("reader,bad,reason", MALFORMED.values(), ids=MALFORMED)
def test_malformed_sentence_is_skipped_with_one_warning(
    tmp_path, fig1_conllu_text, caplog, monkeypatch, reader, bad, reason
):
    expected = parse_all(fig1_conllu_text)
    text = bad + "\n\n" + fig1_conllu_text
    if reader == "text":
        sentences = parse_all(text)
    else:
        # as in a process that has not yet decoded a bad byte
        monkeypatch.setattr(conllu, "_invalid_utf8_seen", False)
        data = text.encode("utf-8", "surrogateescape")
        path = tmp_path / "bad.conllu"
        path.write_bytes(gzip.compress(data) if reader == "gzip" else data)
        sentences = list(read_corpus(str(path)))
    assert sentences == expected
    assert skip_warnings(caplog) == [f"skipping sentence: {reason}"]


# (the second token line of a block, warning after "skipping sentence: line N: ")
TOKEN_FAULTS = {
    "nine-columns": (row("2", "b", "b", "X", "_", "_", "1", "dep", "_"),
                     "expected 10 columns, got 9"),
    "non-numeric-id": (row("2x", "b", "b", "X", "_", "_", "1", "dep"),
                       "non-numeric token ID '2x'"),
    "non-numeric-head": (row("2", "b", "b", "X", "_", "_", "1z", "dep"),
                         "non-numeric HEAD '1z'"),
    # int() takes each of these IDs and HEADs
    "underscored-id": (row("0_2", "b", "b", "X", "_", "_", "1", "dep"),
                       "non-numeric token ID '0_2'"),
    "non-ascii-digit-id": (row("\u0662", "b", "b", "X", "_", "_", "1", "dep"),
                           "non-numeric token ID '\u0662'"),
    "signed-head": (row("2", "b", "b", "X", "_", "_", "+1", "dep"), "non-numeric HEAD '+1'"),
    "spaced-head": (row("2", "b", "b", "X", "_", "_", " 1", "dep"), "non-numeric HEAD ' 1'"),
    "empty-head": (row("2", "b", "b", "X", "_", "_", "", "dep"), "non-numeric HEAD ''"),
    # int() reads it as 0, the root
    "signed-zero-head": (row("2", "b", "b", "X", "_", "_", "-0", "dep"),
                         "signed zero HEAD '-0'"),
    "empty-deprel": (row("2", "b", "b", "X", "_", "_", "1", ""), "empty DEPREL"),
    "invalid-utf8": (row("2", "b\udcfe", "b", "X", "_", "_", "1", "dep"),
                     "invalid UTF-8 (byte 0xfe)"),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("bad,reason", TOKEN_FAULTS.values(), ids=TOKEN_FAULTS)
def test_a_token_fault_after_a_comment_names_its_line(
    tmp_path, fig1_conllu_text, caplog, monkeypatch, newline, bad, reason
):
    # lines 1-7 a sentence, 8 blank, 9 a comment, 10 a good token, 11 the bad
    # one, 12 a good token again, 13 blank, then the first sentence again
    block = "# sent_id = 2\n" + row("1", "a", "a", "X", "_", "_", "0", "root") + "\n"
    block += bad + "\n" + row("3", "c", "c", "X", "_", "_", "1", "dep") + "\n"
    text = fig1_conllu_text + "\n" + block + "\n" + fig1_conllu_text
    path = tmp_path / "bad.conllu"
    path.write_bytes(text.replace("\n", newline).encode("utf-8", "surrogateescape"))
    # as in a process that has not yet decoded a bad byte
    monkeypatch.setattr(conllu, "_invalid_utf8_seen", False)
    sentences = list(read_corpus(str(path)))
    assert sentences == parse_all(fig1_conllu_text) * 2
    assert skip_warnings(caplog) == [f"skipping sentence: line 11: {reason}"]


def test_round_trip_fig1(fig1_conllu_text):
    sent = parse_all(fig1_conllu_text)[0]
    again = parse_all(sentence_to_conllu(sent) + "\n")[0]
    assert again == sent


def test_parsing_is_lazy(fig1_conllu_text):
    """Pulling one sentence must not consume the rest of the stream."""

    def blocks():
        yield from fig1_conllu_text.splitlines(keepends=True)
        yield "\n"
        raise AssertionError("second block should not be touched")

    gen = parse_conllu(blocks())
    first = next(gen)
    assert len(first) == 6


def test_open_corpus_gzip_magic_detection(tmp_path, fig1_conllu_text):
    plain = tmp_path / "plain.conllu"
    plain.write_text(fig1_conllu_text, encoding="utf-8")
    # deliberately misleading extension: detection is by magic bytes
    zipped = tmp_path / "zipped.conllu"
    zipped.write_bytes(gzip.compress(fig1_conllu_text.encode("utf-8")))
    for path in (plain, zipped):
        assert len(list(read_corpus(str(path)))) == 1
    with open_corpus(str(plain)) as f:
        assert f.read(1) == b"#"


# -- property tests over randomly generated valid sentences --


@st.composite
def valid_sentences(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    root = draw(st.integers(min_value=1, max_value=n))
    tokens = []
    for i in range(1, n + 1):
        if i == root:
            head, deprel = 0, "root"
        else:
            head = draw(
                st.integers(min_value=1, max_value=n).filter(lambda h, i=i: h != i)
            )
            deprel = draw(st.sampled_from(["amod", "nsubj", "dobj", "nmod", "case", "dep"]))
        form = draw(st.from_regex(r"[a-z]{1,6}", fullmatch=True))
        lemma = draw(st.from_regex(r"[a-z]{1,6}", fullmatch=True))
        upos = draw(st.sampled_from(["NOUN", "VERB", "ADJ", "X"]))
        tokens.append(Token(i, form, lemma, upos, head, deprel))
    return tuple(tokens)


@given(valid_sentences())
@settings(max_examples=80)
def test_round_trip_random_sentences(sentence):
    text = sentence_to_conllu(sentence) + "\n"
    parsed = parse_all(text)
    assert parsed == [sentence]


@given(st.lists(valid_sentences(), min_size=1, max_size=5))
@settings(max_examples=40)
def test_token_invariants_hold_on_parsed_output(sentences):
    corpus = "\n\n".join(sentence_to_conllu(s) for s in sentences) + "\n"
    for sent in parse_all(corpus):
        n = len(sent)
        roots = 0
        for pos, tok in enumerate(sent, start=1):
            assert tok.index == pos
            assert 0 <= tok.head <= n
            assert tok.head != tok.index
            assert tok.deprel
            roots += tok.head == 0
        assert roots == 1


@st.composite
def messy_corpora(draw):
    """CoNLL-U bytes with malformed blocks, comments, CRLF lines, runs of
    blank lines and at most one invalid UTF-8 byte."""
    newline = st.sampled_from(["\n", "\r\n"])
    text = ""
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        n = draw(st.integers(min_value=1, max_value=5))
        # token i + 1 heads token i, the last one is the root
        lines = [
            row(str(i), draw(st.sampled_from(["a", "Bé", "c"])), "x", "X", "_", "_",
                str((i + 1) % (n + 1)), "dep" if i < n else "root")
            for i in range(1, n + 1)
        ]
        at = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        cols = lines[at].split("\t")
        fault = draw(st.sampled_from(["none", "head", "columns", "roots"]))
        if fault == "head":
            lines[at] = "\t".join(cols[:6] + ["z"] + cols[7:])
        elif fault == "columns":
            lines[at] = "\t".join(cols[:5])
        elif fault == "roots":  # a fault of the whole block
            lines.append(row(str(n + 1), "d", "x", "X", "_", "_", "0", "root"))
        if draw(st.booleans()):
            lines.insert(0, "# text = a comment")
        text += "".join(line + draw(newline) for line in lines)
        text += "".join(draw(st.lists(newline, min_size=1, max_size=3)))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end at the end of the file
    data = text.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@given(messy_corpora(), st.integers(min_value=1, max_value=300))
@settings(max_examples=150, deadline=None)
def test_chunks_parse_as_one_pass_does(tmp_path_factory, data, chunk_bytes):
    path = tmp_path_factory.getbasetemp() / "messy.conllu"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        # as in a process that has not yet decoded a bad byte
        mp.setattr(conllu, "_invalid_utf8_seen", False)
        mp.setattr(conllu, "CHUNK_BYTES", chunk_bytes)
        chunked, chunked_skips, read = [], [], b""
        for chunk, first_line in conllu.read_chunks(str(path)):
            assert first_line == read.count(b"\n") + 1
            read += chunk
            lines = conllu.chunk_lines(chunk)
            chunked += parse_conllu(lines, first_line, chunked_skips.append)
        assert read == data
        mp.setattr(conllu, "_invalid_utf8_seen", False)
        one_pass_skips = []
        stream = io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="depctx.conllu.skip", newline="\n"
        )
        one_pass = list(parse_conllu(stream, warn=one_pass_skips.append))
    assert chunked == one_pass
    assert chunked_skips == one_pass_skips


# -- reader semantics of the text layer --


def write_corpus(path, text, compress=False, newline="\n"):
    data = text.replace("\n", newline).encode("utf-8")
    path.write_bytes(gzip.compress(data) if compress else data)
    return str(path)


def test_crlf_corpus_parses_like_its_lf_twin(tmp_path, fig1_conllu_text):
    text = fig1_conllu_text + "\n" + fig1_conllu_text.replace("telescope", "lens")
    lf = write_corpus(tmp_path / "lf.conllu", text)
    crlf = write_corpus(tmp_path / "crlf.conllu", text, newline="\r\n")
    expected = list(read_corpus(lf))
    assert len(expected) == 2
    assert list(read_corpus(crlf)) == expected


def test_gzip_and_plain_agree_on_a_malformed_block(tmp_path, fig1_conllu_text, caplog):
    bad = "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n2\tb\tb\tX\t_\t_\tz\tdep\t_\t_\n"
    text = fig1_conllu_text + "\n" + bad + "\n" + fig1_conllu_text
    plain = write_corpus(tmp_path / "plain.conllu", text)
    zipped = write_corpus(tmp_path / "zipped.conllu.gz", text, compress=True)
    runs = []
    for path in (plain, zipped):
        caplog.clear()
        runs.append((list(read_corpus(path)), skip_warnings(caplog)))
    assert runs[0] == runs[1]
    sentences, warned = runs[0]
    assert len(sentences) == 2
    assert warned == ["skipping sentence: line 10: non-numeric HEAD 'z'"]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_negative_head_skips_its_sentence(tmp_path, fig1_conllu_text, caplog, newline):
    # HEAD -1 must not reach the extraction, which would read tokens[-2] as its head
    bad = "".join(
        row(*columns) + "\n"
        for columns in [
            ("1", "the", "the", "DET", "_", "_", "2", "det"),
            ("2", "dog", "dog", "NOUN", "_", "_", "3", "nsubj"),
            ("3", "barks", "bark", "VERB", "_", "_", "0", "root"),
            ("4", "loud", "loud", "ADV", "_", "_", "-1", "advmod"),
        ]
    )
    path = write_corpus(tmp_path / "bad.conllu", bad + "\n" + fig1_conllu_text, newline=newline)
    assert list(read_corpus(path)) == parse_all(fig1_conllu_text)
    assert skip_warnings(caplog) == ["skipping sentence: line 5: HEAD -1 out of range (n=4)"]


def test_an_id_of_more_digits_than_int_takes_skips_its_sentence(fig1_conllu_text, caplog):
    bad = row("1" * 5000, "a", "a", "X", "_", "_", "0", "root") + "\n"
    assert parse_all(bad + "\n" + fig1_conllu_text) == parse_all(fig1_conllu_text)
    assert len(skip_warnings(caplog)) == 1


@pytest.mark.parametrize("odd", ["\u2028", "\u2029", "\x0c", "\r", "\x85", "\x1c"])
def test_only_newline_ends_a_line(tmp_path, odd):
    form = f"a{odd}b"
    text = f"1\t{form}\t{form}\tX\t_\t_\t0\troot\t_\t_\n"
    path = write_corpus(tmp_path / "odd.conllu", text)
    (sentence,) = read_corpus(path)
    assert len(sentence) == 1
    assert sentence[0].form == form.lower()
    assert sentence[0].lemma == form


def test_invalid_utf8_skips_its_sentence_in_both_readers(
    tmp_path, fig1_conllu_text, caplog, monkeypatch
):
    # the bad byte sits far past the decoder's first block of text, between
    # two sentences of their own
    block = fig1_conllu_text + "\n"
    before = block.replace("telescope", "lens")
    bad = block.replace("4\tstars", "4\tst\udcffrs")
    after = block.replace("scientist", "astronomer")
    data = (block * 2000 + before + bad + after).encode("utf-8", "surrogateescape")
    line = 2001 * block.count("\n") + 5
    good, lens, astronomer = (parse_all(text)[0] for text in (block, before, after))
    plain, zipped = tmp_path / "bad.conllu", tmp_path / "bad.conllu.gz"
    plain.write_bytes(data)
    zipped.write_bytes(gzip.compress(data))
    for path in (plain, zipped):
        # as in a process that has not yet decoded a bad byte
        monkeypatch.setattr(conllu, "_invalid_utf8_seen", False)
        caplog.clear()
        sentences = list(read_corpus(str(path)))
        assert sentences == [good] * 2000 + [lens, astronomer], path.name
        assert skip_warnings(caplog) == [
            f"skipping sentence: line {line}: invalid UTF-8 (byte 0xff)"
        ], path.name


def test_valid_utf8_runs_no_surrogate_search(tmp_path, fig1_conllu_text, monkeypatch):
    searched = []
    monkeypatch.setattr(conllu, "_reject_undecodable", lambda line, n: searched.append(n))
    text = fig1_conllu_text.replace("stars", "étoiles").replace("telescope", "télescope")
    path = write_corpus(tmp_path / "accented.conllu", text + "\n")
    expected = parse_all(text)
    assert expected[0][3].form == "étoiles"
    # valid non-ASCII input, in a process that has seen no bad byte
    monkeypatch.setattr(conllu, "_invalid_utf8_seen", False)
    assert list(read_corpus(path)) == expected
    assert not conllu._invalid_utf8_seen
    assert searched == []
    # after a bad byte, only the non-ASCII token lines are searched
    monkeypatch.setattr(conllu, "_invalid_utf8_seen", True)
    assert list(read_corpus(path)) == expected
    assert searched == [5, 7]  # the lines of tokens 4 and 6


def test_tokens_are_immutable(fig1_conllu_text):
    token = parse_all(fig1_conllu_text)[0][0]
    assert token == Token(1, "australian", "australian", "ADJ", 2, "amod")
    with pytest.raises(AttributeError):
        token.form = "other"
    with pytest.raises(TypeError):
        token[1] = "other"


def test_read_corpus_closes_the_file_of_a_gzip_corpus(tmp_path, fig1_conllu_text):
    path = write_corpus(tmp_path / "zipped.conllu", fig1_conllu_text, compress=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert len(list(read_corpus(path))) == 1
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
