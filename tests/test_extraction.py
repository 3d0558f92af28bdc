import collections
import gc
import re
import warnings
from functools import partial

import numpy as np
import pytest

from depctx.extraction import (
    CONJ_VARIANTS,
    BagMappingTable,
    DISCARD,
    ExtractionConfig,
    Manifest,
    PairStream,
    WINDOW_KINDS,
    bag_texts,
    collapse_prepositions,
    deps_pairs,
    effective_bags,
    window_pairs,
    write_bag_files,
)
from conftest import make_sentence
from depctx.conllu import read_corpus
from depctx.pipeline import bundled_path
from depctx.sgns import TrainerConfig, load_embeddings, save_embeddings, train

TABLE = BagMappingTable.default()


def write_deps(corpus, out_dir, table=TABLE, config=ExtractionConfig(), config_hash=""):
    """The dependency bag files of a corpus, written as ``depctx extract`` writes them."""
    bags = effective_bags(table, config)
    texts = bag_texts(corpus, partial(deps_pairs, table, config), bags)
    return write_bag_files([texts], bags, out_dir, config_hash)


BAG13 = {
    "subj", "obj", "comp", "nummod", "appos", "nmod", "acl",
    "amod", "prep", "adv", "compound", "conjlr", "conjll",
}


def uncollapsed(sentence, conj_variant="both"):
    """The (bag, line) pairs of the arcs of ``sentence`` as it stands."""
    config = ExtractionConfig(conj_variant=conj_variant, collapse_targets=())
    return list(deps_pairs(TABLE, config, sentence))


def split_line(line):
    """The (word, context) of a bag-file line."""
    return tuple(line[:-1].split("\t"))


def line_pairs(pairs):
    """The set of (word, context) of (bag, line) pairs."""
    return {split_line(line) for _, line in pairs}


def line_contexts(word, pairs):
    """The contexts of ``word`` in (bag, line) pairs."""
    return {line[len(word) + 1 : -1] for _, line in pairs if line.startswith(f"{word}\t")}


# -- bag mapping table --


def test_default_table_image_is_the_13_bags():
    assert effective_bags(TABLE, ExtractionConfig(conj_variant="both")) == tuple(sorted(BAG13))
    for variant, other in (("conjlr", "conjll"), ("conjll", "conjlr")):
        bags = effective_bags(TABLE, ExtractionConfig(conj_variant=variant))
        assert bags == tuple(sorted(BAG13 - {other})), variant


@pytest.mark.parametrize(
    "deprel,expected",
    [
        ("dobj", "obj"),
        ("iobj", "obj"),
        ("nsubj", "subj"),
        ("nsubjpass", "subj"),
        ("ccomp", "comp"),
        ("xcomp", "comp"),
        ("advmod", "adv"),
        ("advcl", "adv"),
        ("acl", "acl"),
        ("acl:relcl", "acl"),
        ("nmod", "nmod"),
        ("nmod:poss", "nmod"),
        ("prep:with", "prep"),
        ("prep:of", "prep"),
        ("punct", DISCARD),
        ("goeswith", DISCARD),
        ("cc", DISCARD),
        ("case", DISCARD),
        ("frobnicate", DISCARD),  # catch-all
    ],
)
def test_map_label(deprel, expected):
    assert TABLE.map_label(deprel) == expected


def test_table_requires_catch_all():
    with pytest.raises(ValueError):
        BagMappingTable([("amod", "amod")])


def test_table_from_file_rejects_bad_rows(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("amod amod\n*\tDISCARD\n", encoding="utf-8")
    with pytest.raises(ValueError):
        BagMappingTable.from_file(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# rules\nnsubj\tsubj\namod amod\n*\tDISCARD\n",
         "{path}:3: bad mapping rule (want 'pattern<TAB>target'): 'amod amod'"),
        ("nsubj\tsubj\namod\ta+b\n*\tDISCARD\n", "{path}:2: bad bag label in rule 'amod' -> 'a+b'"),
        ("amod\tamod\n", "{path}: mapping table requires a final catch-all '*' rule"),
    ],
)
def test_table_file_errors_name_their_line(tmp_path, text, message):
    path = tmp_path / "table.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        BagMappingTable.from_file(path)
    assert str(exc.value).startswith(message.format(path=path))


@pytest.mark.parametrize("target", ["amod+obj", "../amod", "a/b", "", "conjlr", "conjll"])
def test_table_rejects_labels_that_clash_with_names_or_paths(tmp_path, target):
    rule = re.escape(f"rule 'amod' -> {target!r}")
    with pytest.raises(ValueError, match=rule):
        BagMappingTable([("amod", target), ("*", DISCARD)])
    if target:  # a file line cannot end in an empty target: the line is stripped
        path = tmp_path / "table.tsv"
        path.write_text(f"nsubj\tsubj\namod\t{target}\n*\tDISCARD\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rule):
            BagMappingTable.from_file(path)
    # the same characters in a rule's pattern are fine
    assert BagMappingTable([("a/b+c", "amod"), ("*", DISCARD)]).map_label("a/b+c") == "amod"


@pytest.mark.parametrize("target", WINDOW_KINDS)
def test_table_reserves_the_window_kinds(target):
    with pytest.raises(ValueError, match="reserved for the window baselines"):
        BagMappingTable([("amod", target), ("*", DISCARD)])


# -- prepositional arc collapsing --


def test_collapse_fig1(fig1_sentence):
    collapsed = collapse_prepositions(fig1_sentence)
    assert collapsed[5].deprel == "prep:with"
    assert collapsed[5].head == 3
    # the case arc is gone: its token no longer carries an extractable arc
    assert collapsed[4].deprel == "_collapsed"
    # everything else untouched
    assert collapsed[:4] == fig1_sentence[:4]


def test_collapse_identity_without_pattern(boys_and_girls):
    assert collapse_prepositions(boys_and_girls) is boys_and_girls


def test_collapse_two_case_dependents():
    # contrived: one nmod token with two case dependents; the linearly first
    # supplies the preposition and both case arcs are removed
    sent = make_sentence(
        [
            (1, "walked", "VERB", 0, "root"),
            (2, "out", "ADP", 4, "case"),
            (3, "of", "ADP", 4, "case"),
            (4, "town", "NOUN", 1, "nmod"),
        ]
    )
    collapsed = collapse_prepositions(sent)
    assert collapsed[3].deprel == "prep:out"
    assert collapsed[1].deprel == "_collapsed"
    assert collapsed[2].deprel == "_collapsed"


def test_collapse_only_configured_targets():
    # a case dependent of a dobj token is not a collapsing pattern
    sent = make_sentence(
        [
            (1, "saw", "VERB", 0, "root"),
            (2, "with", "ADP", 3, "case"),
            (3, "stars", "NOUN", 1, "dobj"),
        ]
    )
    assert collapse_prepositions(sent) is sent
    # but obl is collapsed once listed (UD v2 switch)
    sent2 = make_sentence(
        [
            (1, "saw", "VERB", 0, "root"),
            (2, "with", "ADP", 3, "case"),
            (3, "stars", "NOUN", 1, "obl"),
        ]
    )
    collapsed = collapse_prepositions(sent2, targets=("nmod", "obl"))
    assert collapsed[2].deprel == "prep:with"


def test_collapse_reads_a_case_label_up_to_its_colon():
    # a case:loc dependent of an nmod:tmod head collapses: both labels are
    # read up to their colon
    sent = make_sentence(
        [
            (1, "left", "VERB", 0, "root"),
            (2, "in", "ADP", 3, "case:loc"),
            (3, "may", "NOUN", 1, "nmod:tmod"),
        ]
    )
    assert [t.deprel for t in collapse_prepositions(sent)] == ["root", "_collapsed", "prep:in"]
    # but "cases" is not a case label
    sent = make_sentence(
        [
            (1, "left", "VERB", 0, "root"),
            (2, "in", "ADP", 3, "cases"),
            (3, "may", "NOUN", 1, "nmod"),
        ]
    )
    assert collapse_prepositions(sent) is sent


def test_collapse_preserves_other_arc_count(fig1_sentence):
    def other_arcs(sent):
        return [
            (t.index, t.head, t.deprel)
            for t in sent
            if t.deprel.split(":")[0] not in ("case", "nmod")
            and not t.deprel.startswith("prep:")
            and t.deprel != "_collapsed"
        ]

    collapsed = collapse_prepositions(fig1_sentence)
    assert other_arcs(collapsed) == other_arcs(fig1_sentence)


# -- DEPS pair extraction --


def test_fig1_deps_contexts_before_collapsing(fig1_sentence):
    pairs = uncollapsed(fig1_sentence)
    assert line_contexts("discovers", pairs) == {
        "scientist_nsubj",
        "stars_dobj",
        "telescope_nmod",
    }


def test_fig1_deps_contexts_after_collapsing(fig1_sentence):
    pairs = list(deps_pairs(TABLE, ExtractionConfig(), fig1_sentence))
    assert line_contexts("discovers", pairs) == {
        "scientist_nsubj",
        "stars_dobj",
        "telescope_prep",
    }
    # inverse pairs point back at the head with the -1 marker
    assert line_contexts("scientist", pairs) == {"discovers_nsubj-1", "australian_amod"}
    assert line_contexts("telescope", pairs) == {"discovers_prep-1"}


def test_amod_pair_symmetry_lands_in_amod_bag(fig1_sentence):
    pairs = [(bag, line) for bag, line in uncollapsed(fig1_sentence) if bag == "amod"]
    assert line_pairs(pairs) == {
        ("scientist", "australian_amod"),
        ("australian", "scientist_amod-1"),
    }


def test_single_token_sentence_is_empty():
    sent = make_sentence([(1, "hi", "INTJ", 0, "root")])
    assert uncollapsed(sent) == []


def test_pair_symmetry_property():
    """Every pair from an arc has the matching inverse pair, whose context ends in -1."""
    rng = np.random.default_rng(11)
    labels = ["amod", "nsubj", "dobj", "nmod", "advmod", "compound", "appos", "punct"]
    for _ in range(50):
        n = int(rng.integers(2, 10))
        root = int(rng.integers(1, n + 1))
        rows = []
        for i in range(1, n + 1):
            if i == root:
                rows.append((i, f"w{i}", "X", 0, "root"))
            else:
                head = int(rng.choice([h for h in range(1, n + 1) if h != i]))
                rows.append((i, f"w{i}", "X", head, str(rng.choice(labels))))
        sent = make_sentence(rows)
        normals = set()
        inverses = set()
        for _, line in uncollapsed(sent):
            word, context = split_line(line)
            token, _, relation = context.rpartition("_")
            if relation.endswith("-1"):
                inverses.add((token, word, relation[:-2]))
            else:
                normals.add((word, token, relation))
        assert normals == inverses


def test_deps_pairs_are_the_bag_file_lines_in_arc_order(fig1_sentence):
    # collapsed: "with" is consumed and "telescope" hangs off a prep arc
    lines = list(deps_pairs(TABLE, ExtractionConfig(), fig1_sentence))
    assert lines == [
        ("amod", "scientist\taustralian_amod\n"),
        ("amod", "australian\tscientist_amod-1\n"),
        ("subj", "discovers\tscientist_nsubj\n"),
        ("subj", "scientist\tdiscovers_nsubj-1\n"),
        ("obj", "discovers\tstars_dobj\n"),
        ("obj", "stars\tdiscovers_dobj-1\n"),
        ("prep", "discovers\ttelescope_prep\n"),
        ("prep", "telescope\tdiscovers_prep-1\n"),
    ]
    # they are the lines of the collapsed sentence's arcs as it stands
    assert uncollapsed(collapse_prepositions(fig1_sentence)) == lines


# -- coordination variants --


def conj_pairs(sentence, variant):
    return [
        (bag, line) for bag, line in uncollapsed(sentence, variant)
        if bag in ("conjlr", "conjll")
    ]


def test_conjlr_pairs(boys_and_girls):
    pairs = conj_pairs(boys_and_girls, "conjlr")
    assert line_pairs(pairs) == {("boys", "girls_conj"), ("girls", "boys_conj-1")}
    assert all(bag == "conjlr" for bag, _ in pairs)


def test_conjll_pairs(boys_and_girls):
    pairs = conj_pairs(boys_and_girls, "conjll")
    assert line_pairs(pairs) == {("boys", "girls_conj"), ("girls", "boys_conj")}
    assert all(bag == "conjll" for bag, _ in pairs)


def test_conj_both_is_the_union(boys_and_girls):
    pairs = conj_pairs(boys_and_girls, "both")
    assert len(pairs) == 4
    by_bag = collections.Counter(bag for bag, _ in pairs)
    assert by_bag == {"conjlr": 2, "conjll": 2}


def test_no_conj_arcs_empty(fig1_sentence):
    assert conj_pairs(fig1_sentence, "both") == []


@pytest.mark.parametrize("variant", ["conjLR", "sideways", ""])
def test_unknown_conj_variant_raises(boys_and_girls, fig1_sentence, variant):
    for sentence in (boys_and_girls, fig1_sentence):
        with pytest.raises(ValueError, match=re.escape(str(CONJ_VARIANTS))):
            uncollapsed(sentence, variant)


def test_deps_extraction_routes_conj(boys_and_girls):
    pairs = uncollapsed(boys_and_girls, "conjlr")
    assert line_pairs(pairs) == {("boys", "girls_conj"), ("girls", "boys_conj-1")}


def copied_table(tmp_path, old, new):
    """The default bag table file, copied with one text edit."""
    text = bundled_path("default_bag_table.tsv").read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "table.tsv"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return BagMappingTable.from_file(path)


def bag_file_pairs(out_dir):
    """The set of (word, context) lines of each nonempty bag file."""
    return {
        path.stem: {tuple(line.split("\t")) for line in path.read_text(encoding="utf-8").splitlines()}
        for path in out_dir.glob("*.pairs")
        if path.stat().st_size
    }


def test_the_bag_table_alone_routes_a_subtyped_conj_arc(tmp_path):
    and_arc = make_sentence(
        [(1, "boys", "NOUN", 0, "root"), (2, "and", "CONJ", 3, "cc"),
         (3, "girls", "NOUN", 1, "conj:and")]
    )
    assert uncollapsed(and_arc) == []  # the default table discards it
    table = copied_table(tmp_path, "conj\tconj\n", "conj\tconj\nconj:*\tconj\n")
    manifest = write_deps([and_arc], tmp_path / "bags", table)
    assert manifest.counts["conjlr"] == manifest.counts["conjll"] == 2
    assert bag_file_pairs(tmp_path / "bags") == {
        "conjlr": {("boys", "girls_conj"), ("girls", "boys_conj-1")},
        "conjll": {("boys", "girls_conj"), ("girls", "boys_conj")},
    }


def test_a_conj_arc_mapped_to_a_plain_label_is_an_ordinary_arc(boys_and_girls, tmp_path):
    table = copied_table(tmp_path, "conj\tconj\n", "conj\tcoord\n")
    manifest = write_deps([boys_and_girls], tmp_path / "bags", table)
    assert manifest.counts["coord"] == 2
    assert not {"conjlr", "conjll"} & set(manifest.counts)
    assert not list((tmp_path / "bags").glob("conj*"))
    assert bag_file_pairs(tmp_path / "bags") == {
        "coord": {("boys", "girls_conj"), ("girls", "boys_conj-1")},
    }


# -- BOW and POSIT windows --


def test_bow_window2_fig1(fig1_sentence):
    pairs = window_pairs("bow", 2, fig1_sentence)
    neighbors = line_contexts("discovers", pairs)
    assert neighbors == {"australian", "scientist", "stars", "with"}
    assert {bag for bag, _ in pairs} == {"bow"}
    assert all(line.count("\t") == 1 and line.endswith("\n") for _, line in pairs)


def test_posit_window2_fig1_literal_offsets(fig1_sentence):
    pairs = window_pairs("posit", 2, fig1_sentence)
    contexts = line_contexts("discovers", pairs)
    # literal signed offsets recomputed from token positions
    assert contexts == {"australian_-2", "scientist_-1", "stars_+1", "with_+2"}
    assert {bag for bag, _ in pairs} == {"posit"}


def test_window1_single_token():
    sent = make_sentence([(1, "hi", "INTJ", 0, "root")])
    assert window_pairs("bow", 1, sent) == []
    assert window_pairs("posit", 1, sent) == []


def test_windows_do_not_cross_sentences(fig1_sentence):
    pairs = window_pairs("bow", 3, fig1_sentence)
    # leftmost token sees at most 3 right neighbors, nothing from elsewhere
    assert line_contexts("australian", pairs) == {"scientist", "discovers", "stars"}


def test_bow_is_posit_with_suffix_stripped(fig1_sentence):
    bow = [line for _, line in window_pairs("bow", 2, fig1_sentence)]
    posit = [line.rsplit("_", 1)[0] + "\n" for _, line in window_pairs("posit", 2, fig1_sentence)]
    assert bow == posit


@pytest.mark.parametrize(
    "kind, window, message",
    [
        ("bow", 0, "window must be >= 1, got 0"),
        ("posit", -1, "window must be >= 1, got -1"),
        ("deps", 2, "window kind must be one of ('bow', 'posit'), got 'deps'"),
        ("BOW", 2, "window kind must be one of ('bow', 'posit'), got 'BOW'"),
    ],
)
def test_window_pairs_rejects_a_bad_kind_or_window(fig1_sentence, kind, window, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        window_pairs(kind, window, fig1_sentence)


def test_a_window_baseline_is_one_bag_of_the_one_writer(fig1_sentence, tmp_path):
    texts = [bag_texts([fig1_sentence], partial(window_pairs, "posit", 2), ["posit"])] * 2
    manifest = write_bag_files(texts, ["posit"], tmp_path, "h")
    lines = [line for _, line in window_pairs("posit", 2, fig1_sentence)] * 2
    expected = [tuple(line[:-1].split("\t")) for line in lines]
    assert manifest.counts == {"posit": len(expected)}
    assert list(PairStream(tmp_path, ["posit"], Manifest.load(tmp_path))) == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.txt", "posit.pairs"]


# -- bag files, manifest, composition --


def run_write(corpus, tmp_path, config=None):
    config = config or ExtractionConfig()
    return write_deps(corpus, tmp_path / "bags", config=config, config_hash="h")


def test_write_bag_files_fig1_counts(fig1_sentence, tmp_path):
    manifest = run_write([fig1_sentence], tmp_path)
    assert manifest.counts["amod"] == 2
    assert manifest.counts["subj"] == 2
    assert manifest.counts["obj"] == 2
    assert manifest.counts["prep"] == 2
    assert manifest.counts["nmod"] == 0
    assert sum(manifest.counts.values()) == 8
    on_disk = Manifest.load(tmp_path / "bags")
    assert on_disk.counts == manifest.counts
    assert on_disk.meta["config_hash"] == "h"


@pytest.mark.parametrize("odd", ["\r", "\x85", "\u2028"])
def test_a_form_holding_a_line_separator_round_trips(tmp_path, odd):
    # only "\n" ends a line, in a bag file and in a vectors file as in the corpus
    form = f"ca{odd}t"
    corpus = tmp_path / "odd.conllu"
    corpus.write_bytes(
        f"1\tbig\tbig\tADJ\t_\t_\t2\tamod\t_\t_\n"
        f"2\t{form}\t{form}\tNOUN\t_\t_\t0\troot\t_\t_\n".encode("utf-8")
    )
    (sentence,) = read_corpus(str(corpus))
    triples = [split_line(line) for bag, line in uncollapsed(sentence) if bag == "amod"]
    assert triples == [(form, "big_amod"), ("big", f"{form}_amod-1")]
    manifest = run_write([sentence], tmp_path)
    assert manifest.counts["amod"] == 2
    stream = PairStream(tmp_path / "bags", ["amod"], manifest)
    assert len(stream) == 2
    assert list(stream) == triples

    config = TrainerConfig(dim=4, negatives=1, epochs=1, min_count=1, subsample=1.0)
    store = train(stream, config)
    save_embeddings(store, tmp_path / "vectors.txt", include_context=True)
    loaded = load_embeddings(tmp_path / "vectors.txt")
    assert sorted(loaded.vocab.words) == sorted([form, "big"])
    assert np.array_equal(loaded.word_vectors, store.word_vectors)
    contexts = load_embeddings(tmp_path / "vectors_ctx.txt")
    assert contexts.vocab.words == store.vocab.contexts


def test_empty_collapse_targets_turn_collapsing_off(fig1_sentence, tmp_path):
    manifest = run_write([fig1_sentence], tmp_path, ExtractionConfig(collapse_targets=()))
    assert manifest.counts["prep"] == 0
    assert manifest.counts["nmod"] == 2
    pairs = set(PairStream(tmp_path / "bags", ["nmod"], manifest))
    assert pairs == {("discovers", "telescope_nmod"), ("telescope", "discovers_nmod-1")}


def test_write_bag_files_empty_corpus(tmp_path):
    manifest = run_write([], tmp_path)
    assert set(manifest.counts) == BAG13
    assert all(n == 0 for n in manifest.counts.values())


def test_write_bag_files_closes_the_files_it_opened_when_an_open_fails(tmp_path):
    # the bags open in order, so acl and amod are open when nmod fails
    (tmp_path / "nmod.pairs").mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IsADirectoryError):
            write_bag_files([], ["acl", "amod", "nmod", "obj"], tmp_path)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert not (tmp_path / "obj.pairs").exists()


def test_write_bag_files_linearity(fig1_sentence, tmp_path):
    once = write_deps([fig1_sentence], tmp_path / "one")
    tenfold = write_deps([fig1_sentence] * 10, tmp_path / "ten")
    for bag in once.counts:
        assert tenfold.counts[bag] == 10 * once.counts[bag]


def test_write_bag_files_deterministic_bytes(fig1_sentence, boys_and_girls, tmp_path):
    corpus = [fig1_sentence, boys_and_girls] * 3
    m1 = write_deps(corpus, tmp_path / "a")
    m2 = write_deps(corpus, tmp_path / "b")
    assert m1.counts == m2.counts
    for bag in m1.counts:
        a = (tmp_path / "a" / f"{bag}.pairs").read_bytes()
        b = (tmp_path / "b" / f"{bag}.pairs").read_bytes()
        assert a == b


def test_deps_all_equals_union_of_13_bags(fig1_sentence, boys_and_girls, tmp_path):
    corpus = [fig1_sentence, boys_and_girls] * 2
    manifest = write_deps(corpus, tmp_path / "bags")
    stream = PairStream(tmp_path / "bags", sorted(BAG13), manifest)
    composed = collections.Counter(stream)
    direct = collections.Counter()
    for sent in corpus:
        for _, line in uncollapsed(collapse_prepositions(sent), "both"):
            direct[split_line(line)] += 1
    assert composed == direct
    assert len(stream) == sum(manifest.counts.values())


def test_compose_additivity_and_identity(fig1_sentence, tmp_path):
    manifest = run_write([fig1_sentence] * 4, tmp_path)
    union = PairStream(tmp_path / "bags", ["amod", "subj", "obj"], manifest)
    assert len(union) == manifest.counts["amod"] + manifest.counts["subj"] + manifest.counts["obj"]
    assert len(list(union)) == len(union)
    single = PairStream(tmp_path / "bags", ["amod"], manifest)
    assert sorted(single) == sorted(
        tuple(line.split("\t"))
        for line in (tmp_path / "bags" / "amod.pairs").read_text().splitlines()
    )


def test_compose_rejects_unknown_and_empty(fig1_sentence, tmp_path):
    manifest = run_write([fig1_sentence], tmp_path)
    with pytest.raises(KeyError, match="nosuchbag"):
        PairStream(tmp_path / "bags", ["amod", "nosuchbag"], manifest)
    with pytest.raises(ValueError):
        PairStream(tmp_path / "bags", [], manifest)


def test_a_stream_over_a_deleted_pair_file_names_it(fig1_sentence, tmp_path):
    manifest = run_write([fig1_sentence], tmp_path)
    path = tmp_path / "bags" / "amod.pairs"
    path.unlink()
    with pytest.raises(FileNotFoundError) as exc:
        PairStream(tmp_path / "bags", ["amod", "subj"], manifest)
    assert str(exc.value) == f"missing pair file for bag 'amod': {path}"


def test_incomplete_marker_detected(fig1_sentence, tmp_path):
    run_write([fig1_sentence], tmp_path)
    (tmp_path / "bags" / "_INCOMPLETE").write_text("aborted")
    with pytest.raises(RuntimeError, match="partial"):
        Manifest.load(tmp_path / "bags")


def test_conj_variant_limits_bag_files(fig1_sentence, boys_and_girls, tmp_path):
    config = ExtractionConfig(conj_variant="conjlr")
    manifest = write_deps([boys_and_girls], tmp_path / "bags", config=config)
    assert "conjll" not in manifest.counts
    assert manifest.counts["conjlr"] == 2


def test_extraction_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(conj_variant="sideways")


def test_map_label_memo_leaves_the_rules_alone():
    table = BagMappingTable([("nsubj", "subj"), ("nmod*", "nmod"), ("*", DISCARD)])
    rules = list(table.rules)
    for _ in range(2):
        assert table.map_label("nmod:poss") == "nmod"
        assert table.map_label("nsubj") == "subj"
        assert table.map_label("punct") == DISCARD
    assert table.rules == rules
