"""Parser, serializer and label tests."""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from npstat.givenness import NotAnNP, classify_np
from npstat.queries import ClauseContext, GrammaticalPosition, NPOccurrence
from npstat.treebank import (
    EmptyConstituent,
    Internal,
    Leaf,
    NodeLabel,
    SourceSpan,
    Tree,
    TreebankSyntaxError,
    UnbalancedBrackets,
    is_empty_category,
    is_punctuation,
    parse_trees,
    serialize_tree,
)

from oracles import oracle_parse
from treegen import random_trees, same_trees

WRAPPED = "( (S (NP-SBJ (DT The) (NN maid)) (VP (VBD disclosed) (NP (DT the) (NN location))) (. .)) )"
UNWRAPPED = "(S (NP-SBJ (DT The) (NN maid)) (VP (VBD disclosed) (NP (DT the) (NN location))) (. .))"


class TestLabels:
    @pytest.mark.parametrize("raw,category,tags,coindex", [
        ("NP", "NP", (), None),
        ("NP-SBJ", "NP", ("SBJ",), None),
        ("NP-SBJ-1", "NP", ("SBJ",), 1),
        ("PP-LOC-CLR-3", "PP", ("LOC", "CLR"), 3),
        ("VP=2", "VP", ("=2",), None),
        ("NP-SBJ=3", "NP", ("SBJ", "=3"), None),
        ("NP-1=2", "NP", ("=2",), 1),
        ("S", "S", (), None),
    ])
    def test_decomposition(self, raw, category, tags, coindex):
        label = NodeLabel.from_string(raw)
        assert label.category == category
        assert label.function_tags == tags
        assert label.coindex == coindex

    @pytest.mark.parametrize("raw", [
        "NP", "NP-SBJ", "NP-SBJ-1", "VP=2", "NP-SBJ=3", "NP-1=2",
        "PP-LOC-CLR-3", "WHNP-1", "S-TPC-2", "ADVP-TMP",
    ])
    def test_round_trip(self, raw):
        assert str(NodeLabel.from_string(raw)) == raw

    def test_category_property_strips_tags(self):
        tree = parse_trees("(NP-SBJ-1 (PRP it))")[0]
        assert tree.category == "NP"
        assert tree.label.function_tags == ("SBJ",)

    def test_parses_share_one_label_object(self):
        first = parse_trees("(NP-SBJ-7 (PRP it))")[0]
        second = parse_trees("(S (NP-SBJ-7 (PRP they)) (VP (VBD left)))")[0]
        assert second.children[0].label is first.label

    def test_label_table_keeps_its_bound(self):
        bound = NodeLabel.from_string.cache_info().maxsize
        parse_trees(" ".join(f"(NP-{i} (PRP it))" for i in range(bound + 100)))
        assert NodeLabel.from_string.cache_info().currsize == bound

    def test_each_raw_label_is_derived_once_per_process(self, tmp_path, perfbench_gen):
        perfbench_gen.generate("many-small", 101, tmp_path)
        texts = [path.read_bytes().decode("utf-8", "replace")
                 for path in sorted((tmp_path / "corpus").rglob("*.mrg"))]
        assert len(texts) == 300
        NodeLabel.from_string.cache_clear()
        raw_labels = set()
        for _ in range(2):
            for text in texts:
                try:
                    trees = parse_trees(text)
                except TreebankSyntaxError:
                    continue
                raw_labels |= {str(node.label) for tree in trees
                               for node in tree.iter_nodes() if isinstance(node, Internal)}
        assert NodeLabel.from_string.cache_info().misses == len(raw_labels)


class TestParsing:
    def test_wrapped_and_unwrapped_agree(self):
        assert same_trees(parse_trees(WRAPPED), parse_trees(UNWRAPPED))

    def test_sequence_of_wrapped_sentences(self, fixture_corpus):
        trees = parse_trees((fixture_corpus / "a.mrg").read_text())
        assert len(trees) == 4
        assert all(t.category == "S" for t in trees)

    def test_one_wrapper_holding_two_trees(self):
        trees = parse_trees("( (S (NP (PRP it)) (VP (VBZ seems))) (S (NP (PRP we)) (VP (VBD ran))) )")
        assert len(trees) == 2
        assert [t.text() for t in trees] == ["it seems", "we ran"]

    def test_leaf_nodes(self):
        tree = parse_trees("(NP (DT the) (NN dog))")[0]
        assert isinstance(tree, Internal)
        assert same_trees(tree.children, (Leaf("DT", "the"), Leaf("NN", "dog")))

    def test_leaves_in_surface_order_and_text(self):
        tree = parse_trees(
            "(S (NP-SBJ (DT the) (NN dog)) (VP (VBD ran) (NP (-NONE- *))) (. .))"
        )[0]
        assert [l.token for l in tree.leaves()] == ["the", "dog", "ran", "*", "."]
        assert tree.text() == "the dog ran ."

    def test_empty_input_yields_no_trees(self):
        assert parse_trees("") == []
        assert parse_trees("   \n\t ") == []

    def test_unclosed_bracket(self):
        with pytest.raises(UnbalancedBrackets) as exc:
            parse_trees("(S (NP")
        assert exc.value.position == 3

    def test_unmatched_close(self):
        source = "(S (NP (PRP it)) (VP (VBZ seems))))"
        with pytest.raises(UnbalancedBrackets) as exc:
            parse_trees(source)
        assert exc.value.position == len(source) - 1

    def test_empty_constituent(self):
        with pytest.raises(EmptyConstituent):
            parse_trees("()")

    def test_label_without_children(self):
        with pytest.raises(EmptyConstituent):
            parse_trees("(S)")

    def test_stray_word_between_trees(self):
        with pytest.raises(TreebankSyntaxError):
            parse_trees("junk (S (NP (PRP it)) (VP (VBZ seems)))")

    def test_stray_word_inside_constituent(self):
        with pytest.raises(TreebankSyntaxError):
            parse_trees("(S word (NP (PRP it)) (VP (VBZ seems)))")

    def test_stray_word_inside_wrapper(self):
        with pytest.raises(TreebankSyntaxError):
            parse_trees("( (S (NP (PRP it)) (VP (VBZ seems))) junk )")

    def test_error_carries_offset(self):
        with pytest.raises(TreebankSyntaxError) as exc:
            parse_trees("()")
        assert exc.value.position == 0
        assert "offset 0" in str(exc.value)

    def test_first_defect_in_reading_order_is_reported(self):
        # The word error at offset 4 comes before the unmatched ')' at 21.
        with pytest.raises(TreebankSyntaxError) as exc:
            parse_trees("(NP DT the) (NN dog))")
        assert type(exc.value) is TreebankSyntaxError
        assert str(exc.value) == "word 'DT' outside a preterminal at offset 4"

    def test_offset_of_a_word_whose_text_the_label_holds(self):
        # "P" first occurs inside the label "NP", at offset 2.
        with pytest.raises(TreebankSyntaxError) as exc:
            parse_trees("(NP P x)")
        assert str(exc.value) == "word 'P' outside a preterminal at offset 4"


def assert_parses_like_oracle(text):
    """``parse_trees`` builds the reference parser's trees, or raises its error
    with the same class, message and offset."""
    try:
        expected = oracle_parse(text)
    except TreebankSyntaxError as err:
        with pytest.raises(TreebankSyntaxError) as exc:
            parse_trees(text)
        got = exc.value
        assert (type(got), str(got), got.position) == (type(err), str(err), err.position)
    else:
        assert same_trees(parse_trees(text), expected)


# Whitespace other than space, tab and newline; ``str.split()`` and ``re``'s
# ``\s`` both split on each (see ``test_whitespace_parity``).
ODD_SPACES = "\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"
# Characters a mutation may insert: brackets, whitespace and label or word text.
MUTATION_CHARS = "() \n\tNPS-1=*x" + ODD_SPACES


@st.composite
def mutated_slices(draw, texts):
    """A slice of one of ``texts`` with up to four characters deleted, inserted,
    replaced or repeated."""
    text = draw(st.sampled_from(texts))
    start = draw(st.integers(0, len(text) - 1))
    piece = list(text[start:start + draw(st.integers(1, 300))])
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(piece)))
        edit = draw(st.sampled_from(("delete", "insert", "replace", "repeat")))
        if edit == "insert":
            piece.insert(at, draw(st.sampled_from(MUTATION_CHARS)))
        elif at == len(piece):
            continue
        elif edit == "delete":
            del piece[at]
        elif edit == "replace":
            piece[at] = draw(st.sampled_from(MUTATION_CHARS))
        else:
            piece[at:at] = piece[at:at + draw(st.integers(1, 8))]
    return "".join(piece)


class TestParserProperties:
    @settings(deadline=None, max_examples=500)
    @given(st.one_of(st.text(), st.text(alphabet="() \nNPx" + ODD_SPACES)))
    def test_any_text_parses_or_raises_syntax_error(self, text):
        try:
            trees = parse_trees(text)
        except TreebankSyntaxError as err:
            assert not text[err.position].isspace()
        else:
            assert isinstance(trees, list)
        assert_parses_like_oracle(text)

    def test_whitespace_parity(self):
        # The parser splits words with ``str.split()``, its reference with
        # ``re``'s ``\s``; over every code point both see the same words.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"[^\s]+", every) == every.split()

    def test_corpus_files_parse_like_the_reference(self, smoke_corpus, fixture_corpus,
                                                   broken_dir):
        paths = [*smoke_corpus.glob("*.mrg"), *fixture_corpus.glob("*.mrg"),
                 *broken_dir.glob("*.mrg")]
        for path in sorted(paths):
            assert_parses_like_oracle(path.read_text())

    @settings(deadline=None, max_examples=500)
    @given(data=st.data())
    def test_mutated_corpus_text_parses_like_the_reference(self, smoke_corpus, data):
        texts = [path.read_text() for path in sorted(smoke_corpus.glob("*.mrg"))]
        assert_parses_like_oracle(data.draw(mutated_slices(texts)))

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_round_trip_of_large_random_trees(self, seed):
        (tree,) = random_trees(seed=seed, count=1, max_nodes=200)
        assert same_trees(parse_trees(serialize_tree(tree)), [tree])


class TestRoundTrip:
    def test_thousand_random_trees(self):
        trees = random_trees(seed=90125, count=1000)
        mismatches = 0
        for tree in trees:
            if not same_trees(parse_trees(serialize_tree(tree)), [tree]):
                mismatches += 1
        assert mismatches == 0

    def test_fixture_files(self, fixture_corpus):
        for path in sorted(fixture_corpus.glob("*.mrg")):
            for tree in parse_trees(path.read_text()):
                assert same_trees(parse_trees(serialize_tree(tree)), [tree])

    @pytest.mark.parametrize("shape", ["right", "left"])
    def test_ten_thousand_levels(self, shape):
        depth = 10_000
        if shape == "right":
            source = "(S " * depth + "(NN x)" + ")" * depth
        else:
            source = "(S " * depth + "(NP (PRP it))" + " (VP (VBD ran)))" * depth
        (tree,) = parse_trees(source)
        assert serialize_tree(tree) == source
        assert same_trees(parse_trees(source), [tree])
        assert len(tree.leaves()) == (1 if shape == "right" else depth + 1)
        # Nodes hash by identity and repr without their subtree, so nothing
        # that hashes or prints a deep node recurses.
        assert hash(tree) == hash(tree)
        assert repr(tree) == f"<Internal S children={1 if shape == 'right' else 2}>"
        occurrence = NPOccurrence(tree, GrammaticalPosition.SUBJECT,
                                  ClauseContext.MATRIX, SourceSpan("deep.mrg", 0, 0, 1))
        assert hash(occurrence) == hash(occurrence)
        with pytest.raises(NotAnNP, match="got <Internal S children="):
            classify_np(tree)

    def test_structural_comparison_sees_each_difference(self):
        source = "(S (NP-1 (DT the) (NN dog)) (VP (VBD ran)))"
        (tree,) = parse_trees(source)
        assert same_trees([tree], parse_trees(source))
        variants = [parse_trees(other)[0] for other in (
            "(S (NP-2 (DT the) (NN dog)) (VP (VBD ran)))",
            "(S (NP-1 (DT the) (NNS dog)) (VP (VBD ran)))",
            "(S (NP-1 (DT the) (NN cat)) (VP (VBD ran)))",
            "(S (NP-1 (DT the) (NN dog)) (VP (VBD ran) (NP (PRP it))))",
            "(S (NP-1 (DT the) (NN dog)) (VBD ran))",
        )]
        # Serializes as ``source`` but carries "1" as a function tag.
        subject = Internal(NodeLabel("NP", ("1",)), tree.children[0].children)
        variants.append(Internal(tree.label, (subject, tree.children[1])))
        assert serialize_tree(variants[-1]) == source
        for other in variants:
            assert not same_trees([tree], [other])
        assert not same_trees([tree], [tree, tree])

    def test_serialized_form_is_canonical(self):
        noisy = "(S   (NP-SBJ (PRP it))\n\t(VP (VBZ seems)))"
        tree = parse_trees(noisy)[0]
        assert serialize_tree(tree) == "(S (NP-SBJ (PRP it)) (VP (VBZ seems)))"
        again = parse_trees(serialize_tree(tree))[0]
        assert serialize_tree(again) == serialize_tree(tree)


class TestPredicatesAndSpans:
    def test_punctuation_tags(self):
        assert is_punctuation(Leaf(",", ","))
        assert is_punctuation(Leaf("``", "``"))
        assert not is_punctuation(Leaf("NN", "dog"))
        assert is_punctuation(Leaf("$", "$"))

    def test_empty_category_detection(self):
        assert is_empty_category(parse_trees("(NP (-NONE- *))")[0])
        assert is_empty_category(Leaf("-NONE-", "*T*-1"))
        assert not is_empty_category(parse_trees("(NP (-NONE- *) (NN dog))")[0])

    def test_span_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SourceSpan("f.mrg", 0, 3, 3)
        span = SourceSpan("f.mrg", 2, 0, 4)
        assert (span.file_id, span.sentence_index, span.start, span.end) == ("f.mrg", 2, 0, 4)

    def test_internal_requires_children(self):
        with pytest.raises(ValueError):
            Internal(label=NodeLabel.from_string("NP"), children=())

    def test_iter_nodes_preorder(self):
        tree = parse_trees("(S (NP (PRP it)) (VP (VBZ seems)))")[0]
        kinds = [n.category if isinstance(n, Internal) else n.pos for n in tree.iter_nodes()]
        assert kinds == ["S", "NP", "PRP", "VP", "VBZ"]
