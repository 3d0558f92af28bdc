import gc
import gzip
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depctx import conllu
from depctx.conllu import (
    ConlluError,
    Sentence,
    Token,
    open_corpus,
    parse_conllu,
    read_corpus,
    sentence_to_conllu,
)


def parse_all(text, **kwargs):
    return list(parse_conllu(io.StringIO(text), **kwargs))


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
    assert sent.token(1).form == "australian"
    assert sent.token(1).lemma == "australian"
    assert sent.token(3).lemma == "discover"
    assert sent.token(3).upos == "VERB"


def test_empty_stream():
    assert parse_all("") == []
    assert parse_all("\n\n\n") == []


def test_comments_skipped():
    text = "# sent_id = 1\n# text = hi\n1\thi\thi\tINTJ\t_\t_\t0\troot\t_\t_\n"
    sentences = parse_all(text)
    assert len(sentences) == 1
    assert sentences[0].token(1).form == "hi"


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


def test_nine_column_line_raises_with_line_number():
    bad = "1\ta\ta\tX\t_\t_\t0\troot\t_\n"
    with pytest.raises(ConlluError) as exc:
        parse_all(bad, errors="raise")
    assert exc.value.line_number == 1
    assert "columns" in str(exc.value)


def test_nine_column_line_skip_mode_continues(fig1_conllu_text):
    bad_block = "1\ta\ta\tX\t_\t_\t0\troot\t_\n"
    stats = {}
    sentences = parse_all(bad_block + "\n" + fig1_conllu_text, stats=stats)
    assert len(sentences) == 1
    assert len(sentences[0]) == 6
    assert stats["skipped_sentences"] == 1


@pytest.mark.parametrize(
    "row",
    [
        "x\ta\ta\tX\t_\t_\t0\troot\t_\t_",  # non-numeric ID
        "1\ta\ta\tX\t_\t_\tz\troot\t_\t_",  # non-numeric HEAD
        "1\ta\ta\tX\t_\t_\t0\t\t_\t_",  # empty DEPREL
        "1\ta\ta\tX\t_\t_\t5\tdep\t_\t_",  # HEAD out of range (also no root)
        "1\ta\ta\tX\t_\t_\t1\tdep\t_\t_",  # self-headed
    ],
)
def test_malformed_rows_raise(row):
    with pytest.raises(ConlluError):
        parse_all(row + "\n", errors="raise")


def test_two_roots_rejected():
    text = (
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n"
        "2\tb\tb\tX\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(ConlluError):
        parse_all(text, errors="raise")
    assert parse_all(text, errors="skip") == []


def test_non_consecutive_indices_rejected():
    text = (
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n"
        "3\tb\tb\tX\t_\t_\t1\tdep\t_\t_\n"
    )
    with pytest.raises(ConlluError):
        parse_all(text, errors="raise")


def test_bytes_stream_accepted(fig1_conllu_text):
    stream = io.BytesIO(fig1_conllu_text.encode("utf-8"))
    assert len(list(parse_conllu(stream))) == 1


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
    return Sentence(tuple(tokens))


@given(valid_sentences())
@settings(max_examples=80)
def test_round_trip_random_sentences(sentence):
    text = sentence_to_conllu(sentence) + "\n"
    parsed = parse_all(text, errors="raise")
    assert parsed == [sentence]


@given(st.lists(valid_sentences(), min_size=1, max_size=5))
@settings(max_examples=40)
def test_token_invariants_hold_on_parsed_output(sentences):
    corpus = "\n\n".join(sentence_to_conllu(s) for s in sentences) + "\n"
    for sent in parse_all(corpus, errors="raise"):
        n = len(sent)
        roots = 0
        for pos, tok in enumerate(sent, start=1):
            assert tok.index == pos
            assert 0 <= tok.head <= n
            assert tok.head != tok.index
            assert tok.deprel
            roots += tok.head == 0
        assert roots == 1


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
    crlf_bytes = io.BytesIO(text.replace("\n", "\r\n").encode("utf-8"))
    assert list(parse_conllu(crlf_bytes)) == expected


def test_gzip_and_plain_agree_on_a_malformed_block(tmp_path, fig1_conllu_text):
    bad = "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n2\tb\tb\tX\t_\t_\tz\tdep\t_\t_\n"
    text = fig1_conllu_text + "\n" + bad + "\n" + fig1_conllu_text
    plain = write_corpus(tmp_path / "plain.conllu", text)
    zipped = write_corpus(tmp_path / "zipped.conllu.gz", text, compress=True)
    runs = []
    for path in (plain, zipped):
        stats = {}
        sentences = list(read_corpus(path, stats=stats))
        with pytest.raises(ConlluError) as exc:
            list(read_corpus(path, errors="raise"))
        runs.append((sentences, stats, exc.value.line_number))
    assert runs[0] == runs[1]
    sentences, stats, line_number = runs[0]
    assert len(sentences) == 2
    assert stats == {"skipped_sentences": 1}
    assert line_number == 10


@pytest.mark.parametrize("odd", ["\u2028", "\u2029", "\x0c", "\r", "\x85", "\x1c"])
def test_only_newline_ends_a_line(tmp_path, odd):
    form = f"a{odd}b"
    text = f"1\t{form}\t{form}\tX\t_\t_\t0\troot\t_\t_\n"
    path = write_corpus(tmp_path / "odd.conllu", text)
    (sentence,) = read_corpus(path, errors="raise")
    assert len(sentence) == 1
    assert sentence.token(1).form == form.lower()
    assert sentence.token(1).lemma == form
    assert list(parse_conllu(io.BytesIO(text.encode("utf-8")), errors="raise")) == [sentence]


def test_invalid_utf8_raises_in_both_readers(tmp_path, fig1_conllu_text):
    # the bad byte sits far past the decoder's first block of text
    block = fig1_conllu_text + "\n"
    bad = block.replace("4\tstars", "4\tst\udcffrs")
    data = (block * 2000 + bad + block).encode("utf-8", "surrogateescape")
    line = 2000 * block.count("\n") + 5
    for compress in (False, True):
        path = tmp_path / f"bad{'.gz' if compress else ''}.conllu"
        path.write_bytes(gzip.compress(data) if compress else data)
        with pytest.raises(ConlluError) as caught:
            list(read_corpus(str(path), errors="raise"))
        assert str(caught.value).startswith(f"line {line}: invalid UTF-8 in {path} (")
    with pytest.raises(ConlluError, match=rf"^line {line}: invalid UTF-8 \("):
        list(parse_conllu(io.BytesIO(data), errors="raise"))


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
    readers = {
        "plain": lambda stats: read_corpus(str(plain), stats=stats),
        "gzip": lambda stats: read_corpus(str(zipped), stats=stats),
        "bytes": lambda stats: parse_conllu(io.BytesIO(data), stats=stats),
    }
    for name, read in readers.items():
        # as in a process that has not yet decoded a bad byte
        monkeypatch.setattr(conllu, "_invalid_utf8_seen", False)
        caplog.clear()
        stats = {}
        sentences = list(read(stats))
        assert sentences == [good] * 2000 + [lens, astronomer], name
        assert stats == {"skipped_sentences": 1}, name
        assert f"skipping sentence: line {line}: invalid UTF-8 (byte 0xff)" in caplog.text


def test_valid_utf8_runs_no_surrogate_search(tmp_path, fig1_conllu_text, monkeypatch):
    searched = []
    monkeypatch.setattr(conllu, "_reject_undecodable", lambda line, n: searched.append(n))
    text = fig1_conllu_text.replace("stars", "étoiles").replace("telescope", "télescope")
    path = write_corpus(tmp_path / "accented.conllu", text + "\n")
    expected = parse_all(text)
    assert expected[0].token(4).form == "étoiles"
    # valid non-ASCII input under skip, in a process that has seen no bad byte
    monkeypatch.setattr(conllu, "_invalid_utf8_seen", False)
    assert list(read_corpus(path)) == expected
    assert list(parse_conllu(io.BytesIO(text.encode("utf-8")))) == expected
    assert not conllu._invalid_utf8_seen
    # raise decodes strictly, so it never searches, even after a bad byte
    monkeypatch.setattr(conllu, "_invalid_utf8_seen", True)
    assert list(read_corpus(path, errors="raise")) == expected
    assert searched == []


def test_tokens_are_immutable(fig1_conllu_text):
    token = parse_all(fig1_conllu_text)[0].token(1)
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
