"""Structural query tests: NP positions, clause contexts, late-closure
configurations, fronted adverbials, verb frames."""

from collections import Counter

import pytest

from npstat.cli import main
from npstat.corpus import aggregate
from npstat.givenness import GivennessCategory
from npstat.queries import (
    ClauseContext,
    EmptyInflectionSet,
    FrameType,
    GrammaticalPosition,
    extract_np_occurrences,
    find_late_closure_configs,
    profile_verb_frames,
    survey_fronted_adverbials,
    walk_late_closure,
    walk_np_occurrences,
    walk_sentence,
)
from npstat.report import parse_records
from npstat.treebank import Internal, Leaf, SourceSpan, Tree, parse_trees, serialize_tree

from oracles import (
    late_closure_match_is_sound,
    oracle_late_closure,
    oracle_leaf_ranges,
    oracle_occurrences,
    oracle_verb_frames,
    with_comma_after,
)
from treegen import WORDS, random_trees

SUBJ = GrammaticalPosition.SUBJECT
NONSUBJ = GrammaticalPosition.NON_SUBJECT

# Every word of the random trees, plus verbs of the smoke corpus, the
# deep-clauses corpus and the chains; the two corpora use them in all four
# complement frames.
FRAME_FORMS = {*WORDS, "disclosed", "said", "worked", "ended", "left"}


def occ_summary(tree):
    """(text, position value, context value) triples in extraction order."""
    return [
        (occ.node.text(), occ.position.value, occ.context.value)
        for occ in extract_np_occurrences(tree)
    ]


class TestPositions:
    def test_transitive_sentence(self, fixture_corpus):
        tree = parse_trees((fixture_corpus / "a.mrg").read_text())[0]
        assert occ_summary(tree) == [
            ("The maid", "subject", "matrix"),
            ("the location", "non-subject", "matrix"),
        ]

    def test_np_without_vp_sibling_is_non_subject(self):
        tree = parse_trees("(S (NP (PRP it)))")[0]
        assert occ_summary(tree) == [("it", "non-subject", "matrix")]

    def test_np_inside_pp_is_not_an_occurrence(self):
        tree = parse_trees(
            "(S (NP-SBJ (PRP we)) (VP (VBD sat) (PP (IN on) (NP (DT the) (NN porch)))))"
        )[0]
        assert occ_summary(tree) == [("we", "subject", "matrix")]

    def test_np_inside_np_is_not_an_occurrence(self):
        tree = parse_trees("(NP (NP (NNP Smith) (POS 's)) (NN lawyer))")[0]
        assert extract_np_occurrences(tree) == []

    def test_intervening_siblings_allowed_before_vp(self):
        tree = parse_trees(
            "(S (NP-SBJ (DT the) (NN dog)) (, ,) (ADVP (RB however)) (, ,) (VP (VBD ran)))"
        )[0]
        assert occ_summary(tree)[0] == ("the dog", "subject", "matrix")

    def test_spans_cover_exactly_the_nps_leaves(self, fixture_corpus):
        tree = parse_trees((fixture_corpus / "a.mrg").read_text())[0]
        spans = [(occ.node.text(), occ.span.start, occ.span.end)
                 for occ in extract_np_occurrences(tree, "a.mrg", 0)]
        assert spans == [("The maid", 0, 2), ("the location", 3, 5)]
        for occ in extract_np_occurrences(tree, "a.mrg", 0):
            assert occ.span.file_id == "a.mrg"
            assert occ.span.sentence_index == 0


class TestClauseContexts:
    def test_that_clause_complement(self, fixture_corpus):
        tree = parse_trees((fixture_corpus / "a.mrg").read_text())[1]
        assert occ_summary(tree) == [
            ("The maid", "subject", "matrix"),
            ("the location", "subject", "embedded-tc"),
        ]

    def test_reduced_complement(self, fixture_corpus):
        tree = parse_trees((fixture_corpus / "a.mrg").read_text())[2]
        assert occ_summary(tree) == [
            ("The maid", "subject", "matrix"),
            ("the location", "subject", "embedded-rc"),
        ]

    def test_bare_s_complement_is_reduced(self):
        tree = parse_trees(
            "(S (NP-SBJ (PRP he)) (VP (VBD disclosed)"
            " (S (NP-SBJ (DT the) (NN plan)) (VP (VBD failed)))))"
        )[0]
        assert ("the plan", "subject", "embedded-rc") in occ_summary(tree)

    def test_sbar_under_np_is_other(self):
        tree = parse_trees(
            "(S (NP-SBJ (DT the) (NN claim)"
            " (SBAR (IN that) (S (NP-SBJ (PRP we)) (VP (VBD lied)))))"
            " (VP (VBZ stands)))"
        )[0]
        assert ("we", "subject", "embedded-other") in occ_summary(tree)

    def test_non_that_complementizer_is_other(self):
        tree = parse_trees(
            "(S (NP-SBJ (PRP he)) (VP (VBD asked)"
            " (SBAR (IN whether) (S (NP-SBJ (PRP we)) (VP (VBD lied))))))"
        )[0]
        assert ("we", "subject", "embedded-other") in occ_summary(tree)

    def test_coordinated_clauses_are_other(self):
        # Conjunct clauses have an S ancestor, so by the literal definition
        # their NPs are not matrix even though neither clause is subordinate.
        tree = parse_trees(
            "(S (S (NP-SBJ (PRP we)) (VP (VBD ran))) (CC and)"
            " (S (NP-SBJ (PRP they)) (VP (VBD slept))))"
        )[0]
        assert occ_summary(tree) == [
            ("we", "subject", "embedded-other"),
            ("they", "subject", "embedded-other"),
        ]

    def test_adverbial_clause_subject_is_other(self, fixture_corpus):
        tree = parse_trees((fixture_corpus / "b.mrg").read_text())[2]
        assert ("the cannibals", "subject", "embedded-other") in occ_summary(tree)


def frame_counts(trees: list[Tree]) -> dict[str, int]:
    profile = profile_verb_frames(trees, "any", FRAME_FORMS)
    return {frame.value: n for frame, n in profile.counts.items()}


class TestOracleEquivalence:
    def test_thousand_random_trees(self):
        disagreements = 0
        matches = 0
        trees = random_trees(seed=417, count=1000)
        for tree in trees:
            expected = oracle_occurrences(tree)
            occs = extract_np_occurrences(tree)
            actual = {
                id(o.node): (o.position.value, o.context.value) for o in occs
            }
            assert len(actual) == len(occs), "an NP was reported twice"
            if actual != expected:
                disagreements += 1
            triples = oracle_late_closure(tree)
            assert [(m.vp_node, m.final_verb, m.critical_np)
                    for m in find_late_closure_configs(tree)] == triples
            matches += len(triples)
        assert disagreements == 0
        assert matches > 0
        frames = oracle_verb_frames(trees, FRAME_FORMS)
        assert frame_counts(trees) == frames
        assert all(frames.values()), frames

    def test_smoke_corpus_and_large_random_trees(self, smoke_corpus):
        trees = [
            tree
            for path in sorted(smoke_corpus.rglob("*.mrg"))
            for tree in parse_trees(path.read_text(encoding="utf-8"))
        ]
        assert len(trees) == 200
        trees += random_trees(seed=419, count=300, max_nodes=200)
        matches = 0
        for tree in trees:
            actual = {
                id(o.node): (o.position.value, o.context.value)
                for o in extract_np_occurrences(tree)
            }
            assert actual == oracle_occurrences(tree)
            for match in find_late_closure_configs(tree):
                assert late_closure_match_is_sound(tree, match)
                matches += 1
        assert matches > 0

    def test_partition_no_np_in_both_classes(self):
        for tree in random_trees(seed=418, count=200):
            seen: dict[int, GrammaticalPosition] = {}
            for occ in extract_np_occurrences(tree):
                assert seen.setdefault(id(occ.node), occ.position) == occ.position
                assert occ.node.category == "NP"


def right_branching_chain(clauses: int) -> Tree:
    """One sentence of ``clauses`` nested reduced complements.

    The root and the innermost clause each open with an uncommaed adverbial
    clause whose final verb is string-adjacent to the next subject, so the
    sentence holds exactly two late-closure configurations at any depth.
    """
    ambiguous = "(SBAR (IN when) (S (NP-SBJ (PRP it)) (VP (VBD ended))))"
    text = (
        f"(S {ambiguous} (NP-SBJ (PRP we)) (VP (VBD said) (SBAR (-NONE- 0) "
        + "(S (NP-SBJ (PRP they)) (VP (VBD said) (SBAR (-NONE- 0) " * (clauses - 2)
        + f"(S {ambiguous} (NP-SBJ (DT the) (NNS guests)) (VP (VBD left)))"
        + ")))" * (clauses - 2)
        + ")) (. .))"
    )
    (tree,) = parse_trees(text)
    return tree


def right_branching_np_chain(depth: int) -> Tree:
    """One sentence whose object NP opens ``depth`` nested relative clauses.

    Each level is ``(NP (NP (DT the) (NN man)) (SBAR (WHNP-1 (WP who)) (S
    (NP-SBJ (-NONE- *T*-1)) (VP (VBD saw) ...``, so every level adds a
    definite object NP whose leaves run to the end of the chain, and an empty
    subject.
    """
    level = ("(NP (NP (DT the) (NN man)) (SBAR (WHNP-1 (WP who))"
             " (S (NP-SBJ (-NONE- *T*-1)) (VP (VBD saw) ")
    (tree,) = parse_trees("(S (NP-SBJ (PRP we)) (VP (VBD saw) " + level * depth
                          + "(NP (PRP it))" + "))))" * depth + ") (. .))")
    return tree


def np_chain_cells(depth: int) -> dict:
    """The non-zero cells of :func:`right_branching_np_chain`: the matrix
    subject and object, then the relative clauses' objects and empty subjects,
    and the innermost pronoun object."""
    other = ClauseContext.EMBEDDED_OTHER
    return {
        (GivennessCategory.PRONOUN, SUBJ, ClauseContext.MATRIX): 1,
        (GivennessCategory.DEFINITE, NONSUBJ, ClauseContext.MATRIX): 1,
        (GivennessCategory.DEFINITE, NONSUBJ, other): depth - 1,
        (GivennessCategory.EMPTY_CATEGORY, SUBJ, other): depth,
        (GivennessCategory.PRONOUN, NONSUBJ, other): 1,
    }


def left_branching_np_chain(depth: int) -> Tree:
    """One sentence whose subject NP holds a clause whose subject NP holds a
    clause, ``depth`` levels down to ``(NP (PRP it))``: every NP's left edge
    runs through every NP below it."""
    (tree,) = parse_trees("(S " + "(NP (S " * depth + "(NP (PRP it))"
                          + " (VP (VBD ran))))" * depth + " (VP (VBD ran)))")
    return tree


def left_np_chain_cells(depth: int) -> dict:
    """The non-zero cells of :func:`left_branching_np_chain`: each NP that
    holds a clause starts with "it ran", which no rule decides."""
    other = ClauseContext.EMBEDDED_OTHER
    return {
        (GivennessCategory.NOT_CLASSIFIED, SUBJ, ClauseContext.MATRIX): 1,
        (GivennessCategory.NOT_CLASSIFIED, SUBJ, other): depth - 1,
        (GivennessCategory.PRONOUN, SUBJ, other): 1,
    }


def count_reads(monkeypatch) -> Counter:
    """Reads of ``Leaf.pos`` and ``Internal.children`` per node, for every
    node however it was made, until ``monkeypatch`` is undone."""
    reads: Counter = Counter()
    for cls, name in ((Leaf, "pos"), (Internal, "children")):
        slot = cls.__dict__[name]

        def read(node, slot=slot, cls=cls):
            reads[node] += 1
            return slot.__get__(node, cls)

        monkeypatch.setattr(cls, name, property(read, slot.__set__))
    return reads


def check_against_oracles(tree: Tree, checked: Counter) -> None:
    """The sentence walk and every query on one sentence against the oracles:
    positions and contexts, every span, late-closure soundness and
    completeness, and verb frames; ``checked`` counts what was compared."""
    ranges = oracle_leaf_ranges(tree)
    leaves = tree.leaves()
    walked: list = []
    entries = walk_sentence(tree, walked)
    assert walked == leaves
    # The oracle settles ranges in reverse pre-order; the walk gives NPs.
    nodes = {id(node): node for node in tree.iter_nodes()}
    assert [(id(node), start, end) for node, start, end in entries] == [
        (node_id, *ranges[node_id]) for node_id in reversed(ranges)
        if nodes[node_id].category == "NP"
    ]
    # Occurrences in pre-order, as the oracle finds them.
    expected = oracle_occurrences(tree)
    assert [(id(node), (position.value, context.value))
            for node, position, context in walk_np_occurrences(tree)] == list(expected.items())
    occurrences = extract_np_occurrences(tree)
    actual = {id(o.node): (o.position.value, o.context.value) for o in occurrences}
    assert len(actual) == len(occurrences), "an NP was reported twice"
    assert actual == expected
    for occ in occurrences:
        assert (occ.span.start, occ.span.end) == ranges[id(occ.node)]
        checked["occurrences"] += 1
    matches = find_late_closure_configs(tree)
    assert [(m.vp_node, m.final_verb, m.critical_np) for m in matches] \
        == oracle_late_closure(tree)
    for match in matches:
        assert late_closure_match_is_sound(tree, match)
        assert leaves[match.span.start] is match.final_verb
        assert match.span.end == ranges[id(match.critical_np)][1]
        checked["matches"] += 1
    for record in survey_fronted_adverbials(tree):
        assert (record.span.start, record.span.end) in {
            ranges[id(child)]
            for child in tree.children
            if child.category == record.category
        }
        checked["adverbials"] += 1
    frames = oracle_verb_frames([tree], FRAME_FORMS)
    assert frame_counts([tree]) == frames
    checked.update({f"frame {frame}": n for frame, n in frames.items() if n})


CHECKED_ALL = {"occurrences", "matches", "adverbials", "frame np-complement",
               "frame that-clause", "frame reduced-clause", "frame intransitive"}


class TestLeafSpans:
    def test_agrees_with_oracle(self, smoke_corpus):
        trees = [
            tree
            for path in sorted(smoke_corpus.rglob("*.mrg"))
            for tree in parse_trees(path.read_text(encoding="utf-8"))
        ]
        trees += random_trees(seed=420, count=300, max_nodes=200)
        checked: Counter = Counter()
        for tree in trees:
            check_against_oracles(tree, checked)
        assert set(checked) == CHECKED_ALL, checked

    @pytest.mark.parametrize("clauses", [2_000, 10_000])
    def test_agrees_with_oracle_on_deep_chains(self, clauses):
        checked: Counter = Counter()
        check_against_oracles(right_branching_chain(clauses), checked)
        assert checked == {"occurrences": clauses + 2, "matches": 2, "adverbials": 1,
                           "frame reduced-clause": clauses - 1, "frame intransitive": 3}

    def test_agrees_with_oracle_on_deep_clauses_corpus(self, deep_clauses_trees):
        assert len(deep_clauses_trees) == 6
        checked: Counter = Counter()
        for tree in deep_clauses_trees:
            check_against_oracles(tree, checked)
        assert set(checked) == CHECKED_ALL, checked

    def test_queries_do_not_rewalk_subtrees_at_depth(self, monkeypatch, capsys, tmp_path):
        collect = Tree.leaves
        calls = 0

        def counting_leaves(self):
            nonlocal calls
            calls += 1
            return collect(self)

        chains = {(make, depth): make(depth) for depth in (20, 2_000)
                  for make in (right_branching_chain, right_branching_np_chain)}
        for (make, depth), tree in chains.items():
            (tmp_path / f"{make.__name__}-{depth}").mkdir()
            (tmp_path / f"{make.__name__}-{depth}" / "chain.mrg").write_text(
                serialize_tree(tree) + "\n")
        monkeypatch.setattr(Tree, "leaves", counting_leaves)
        counts = {}
        results = {}
        for (make, depth), tree in chains.items():
            calls = 0
            results[make, depth] = (
                find_late_closure_configs(tree),
                extract_np_occurrences(tree),
                survey_fronted_adverbials(tree),
                aggregate([("chain", tree)]),  # table1's extract + classify path
                main(["late-closure", "--corpus", str(tmp_path / f"{make.__name__}-{depth}"),
                      "--format", "records"]),
            )
            counts[make, depth] = calls
        monkeypatch.undo()
        for make in (right_branching_chain, right_branching_np_chain):
            assert counts[make, 2_000] == counts[make, 20] <= 3
        # The NP chain has no verb-final VP, so no late-closure row.
        late_rows = parse_records(capsys.readouterr().out)
        assert [(r["verb"], r["np"], r["givenness"]) for r in late_rows] == [
            ("ended", "we", "pronoun"), ("ended", "the guests", "definite"),
        ] * 2
        for depth in (20, 2_000):
            matches, occurrences, _, agg, code = results[right_branching_np_chain, depth]
            assert (matches, code) == ([], 0)
            assert len(occurrences) == 2 * depth + 2
            assert {key: n for key, n in agg.cells.items() if n} == np_chain_cells(depth)
        for (make, depth), tree in chains.items():
            if make is not right_branching_chain:
                continue
            matches, occurrences, adverbials, agg, code = results[make, depth]
            assert code == 0
            pronoun = GivennessCategory.PRONOUN
            assert {key: n for key, n in agg.cells.items() if n} == {
                (pronoun, SUBJ, ClauseContext.EMBEDDED_OTHER): 2,
                (pronoun, SUBJ, ClauseContext.MATRIX): 1,
                (pronoun, SUBJ, ClauseContext.EMBEDDED_RC): depth - 2,
                (GivennessCategory.DEFINITE, SUBJ, ClauseContext.EMBEDDED_RC): 1,
            }
            assert [(m.final_verb.token, m.critical_np.text()) for m in matches] == [
                ("ended", "we"), ("ended", "the guests"),
            ]
            assert all(late_closure_match_is_sound(tree, m) for m in matches)
            # The contexts written out (test_agrees_with_oracle_on_deep_chains
            # checks them against the oracle): the root's adverbial clause, the
            # root, the reduced complements, then the innermost adverbial
            # clause and the innermost complement.
            assert [(o.position.value, o.context.value) for o in occurrences] == (
                [("subject", "embedded-other"), ("subject", "matrix")]
                + [("subject", "embedded-rc")] * (depth - 2)
                + [("subject", "embedded-other"), ("subject", "embedded-rc")]
            )
            assert [(a.category, a.comma_delimited) for a in adverbials] == [("SBAR", False)]
            # Leaf ranges by identity in the sentence's leaf list.
            position = {id(leaf): i for i, leaf in enumerate(tree.leaves())}
            for occ in occurrences:
                node_leaves = occ.node.leaves()
                assert (occ.span.start, occ.span.end) == (
                    position[id(node_leaves[0])], position[id(node_leaves[-1])] + 1
                )


    @pytest.mark.parametrize("make, cells", [
        (right_branching_np_chain, np_chain_cells),
        (left_branching_np_chain, left_np_chain_cells),
    ])
    def test_np_classification_reads_a_bounded_left_edge(self, monkeypatch, capsys,
                                                          tmp_path, make, cells):
        # In the right chain each level's object NP holds every later level, so
        # a per-NP copy of its leaves would read the innermost leaves once per
        # level; in the left chain an NP's left edge runs through every NP
        # below it, so a scan that went down again for each NP would read the
        # deepest nodes once per level.
        reads_at = {}
        for depth in (50, 5_000):
            tree = make(depth)
            nodes = sum(1 for _ in tree.iter_nodes())
            corpus = tmp_path / str(depth)
            corpus.mkdir()
            (corpus / "chain.mrg").write_text(serialize_tree(tree) + "\n")
            with monkeypatch.context() as patch:
                reads = count_reads(patch)
                agg = aggregate([("chain", tree)])
                in_memory = reads.copy()
                reads.clear()
                code = main(["table1", "--corpus", str(corpus), "--format", "records"])
                from_disk = reads.copy()
            assert {key: n for key, n in agg.cells.items() if n} == cells(depth)
            assert code == 0
            capsys.readouterr()
            # Per path: the most reads of one leaf's tag, and reads per node.
            reads_at[depth] = [
                (max(n for node, n in path.items() if type(node) is Leaf),
                 sum(path.values()) / nodes)
                for path in (in_memory, from_disk)
            ]
        assert max(per_node for paths in reads_at.values() for _, per_node in paths) <= 3, \
            reads_at
        if make is right_branching_np_chain:
            assert [most for most, _ in reads_at[5_000]] == [most for most, _ in reads_at[50]]

    @pytest.mark.parametrize("make", [
        right_branching_chain, right_branching_np_chain, left_branching_np_chain,
    ])
    def test_late_closure_reads_each_tag_once(self, monkeypatch, capsys, tmp_path, make):
        # A walk that looked back from each VP for its last content leaf would
        # read the innermost verb's tag once per enclosing VP, and one that
        # looked forward from each NP for its first overt leaf would read the
        # innermost leaves once per enclosing NP.
        expected = [("ended", "we", "pronoun"), ("ended", "the guests", "definite")] \
            if make is right_branching_chain else []
        most = {}
        for depth in (50, 5_000):
            tree = make(depth)
            nodes = sum(1 for _ in tree.iter_nodes())
            corpus = tmp_path / str(depth)
            corpus.mkdir()
            (corpus / "chain.mrg").write_text(serialize_tree(tree) + "\n")
            leaves: list = []
            with monkeypatch.context() as patch:
                reads = count_reads(patch)
                matches = walk_late_closure(tree, leaves)
                walked = reads.copy()
                reads.clear()
                code = main(["late-closure", "--corpus", str(corpus), "--format", "records"])
                from_disk = reads.copy()
            assert max(walked.values()) == 1
            assert sum(from_disk.values()) / nodes <= 3
            most[depth] = max(n for node, n in from_disk.items() if type(node) is Leaf)
            assert leaves == tree.leaves()
            assert [(verb.token, np.text()) for _, verb, np, _, _ in matches] \
                == [(verb, np) for verb, np, _ in expected]
            assert [(vp, verb, np) for vp, verb, np, _, _ in matches] \
                == oracle_late_closure(tree)
            rows = parse_records(capsys.readouterr().out)
            assert code == 0
            assert [(r["verb"], r["np"], r["givenness"]) for r in rows] == expected
        assert most[5_000] == most[50], most


class TestLateClosure:
    def test_subordinate_final_verb_before_main_subject(self, fixture_corpus):
        tree = parse_trees((fixture_corpus / "b.mrg").read_text())[0]
        matches = find_late_closure_configs(tree, "b.mrg", 0)
        assert len(matches) == 1
        match = matches[0]
        assert match.final_verb.token == "worked"
        assert match.critical_np.text() == "it"
        assert match.vp_node.category == "VP"

    def test_gerund_final_pp_before_proper_subject(self, fixture_corpus):
        tree = parse_trees((fixture_corpus / "b.mrg").read_text())[1]
        matches = find_late_closure_configs(tree)
        assert [(m.final_verb.token, m.critical_np.text()) for m in matches] == [
            ("winning", "Larson")
        ]

    def test_comma_blocks_match(self, fixture_corpus):
        tree = parse_trees((fixture_corpus / "b.mrg").read_text())[2]
        assert find_late_closure_configs(tree) == []

    def test_trace_is_transparent_for_adjacency(self):
        # The verb-final VP ends in an empty element; adjacency skips it.
        tree = parse_trees(
            "(S (SBAR (IN When) (S (NP-SBJ (PRP we)) (VP (VBD ate)"
            " (NP (-NONE- *)))))"
            " (NP-SBJ (DT the) (NNS guests)) (VP (VBD left)) (. .))"
        )[0]
        matches = find_late_closure_configs(tree)
        assert [(m.final_verb.token, m.critical_np.text()) for m in matches] == [
            ("ate", "the guests")
        ]

    def test_maximal_np_is_chosen(self):
        tree = parse_trees(
            "(S (SBAR (IN When) (S (NP-SBJ (PRP we)) (VP (VBD ate))))"
            " (NP-SBJ (NP (NNP Smith)) (CC and) (NP (NNP Jones)))"
            " (VP (VBD left)) (. .))"
        )[0]
        matches = find_late_closure_configs(tree)
        assert [m.critical_np.text() for m in matches] == ["Smith and Jones"]

    # Each edge of the walk's state: (verb, np, span start, span end) per row.
    @pytest.mark.parametrize("text, rows", [
        pytest.param("(S (SBAR (IN When) (S (NP-SBJ (PRP we)) (VP (VBD ate) (, ,))))"
                     " (NP-SBJ (DT the) (NNS guests)) (VP (VBD left)) (. .))",
                     [], id="vp-ends-in-comma"),
        pytest.param("(S (SBAR (IN When) (S (NP-SBJ (PRP we)) (VP (VBD ate))))"
                     " (NP (-NONE- *)) (NP-SBJ (DT the) (NNS guests)) (VP (VBD left)) (. .))",
                     [("ate", "the guests", 2, 6)], id="empty-np-before-the-np"),
        pytest.param("(S (SBAR (IN When) (S (NP-SBJ (PRP we)) (VP (MD would) (VP (VB eat)))))"
                     " (NP-SBJ (PRP it)) (VP (VBD went)) (. .))",
                     [("eat", "it", 3, 5)] * 2, id="nested-vps-one-verb"),
        pytest.param("(S (NP-SBJ (PRP we)) (VP (VBD left) (NP (-NONE- *T*-1))))",
                     [], id="verb-is-the-last-overt-leaf"),
        pytest.param("(S (SBAR (IN When) (S (NP-SBJ (PRP we)) (VP (VBD ate))))"
                     " (NP-SBJ (-NONE- *) (NP (DT the) (NNS guests)) (PP (IN from) (NP (NNP Ohio))))"
                     " (VP (VBD left)) (. .))",
                     [("ate", "the guests from Ohio", 2, 8)], id="np-opens-with-an-empty-leaf"),
        pytest.param("(S (SBAR (IN When) (S (NP-SBJ (PRP we)) (VP (VBD ate))))"
                     " (NP-SBJ (`` ``) (NNP Smith) ('' '')) (VP (VBD left)) (. .))",
                     [], id="quote-after-the-verb"),
        pytest.param("(S (S (VP (VBG Running) (NP (NN track)))) (NP-SBJ (PRP he))"
                     " (VP (VBD left)) (. .))",
                     [], id="vp-from-leaf-0-ends-in-a-noun"),
        pytest.param("(S (S (VP (-NONE- *?*))) (NP-SBJ (PRP he)) (VP (VBD left)) (. .))",
                     [], id="empty-vp-before-any-overt-leaf"),
    ])
    def test_walk_edges_agree_with_oracles(self, text, rows):
        (tree,) = parse_trees(text)
        matches = find_late_closure_configs(tree)
        assert [(m.vp_node, m.final_verb, m.critical_np) for m in matches] \
            == oracle_late_closure(tree)
        ranges = oracle_leaf_ranges(tree)
        leaves = tree.leaves()
        for match in matches:
            assert leaves[match.span.start] is match.final_verb
            assert match.span.end == ranges[id(match.critical_np)][1]
        assert [(m.final_verb.token, m.critical_np.text(), m.span.start, m.span.end)
                for m in matches] == rows
        if len(matches) == 2:  # the outer VP first
            assert matches[0].vp_node.children[-1] is matches[1].vp_node

    def test_unambiguous_sentences_have_no_matches(self, fixture_corpus):
        for name in ("a.mrg", "c.mrg"):
            for tree in parse_trees((fixture_corpus / name).read_text()):
                assert find_late_closure_configs(tree) == []

    def test_all_fixture_matches_pass_soundness(self, fixture_corpus):
        checked = 0
        for path in sorted(fixture_corpus.glob("*.mrg")):
            for tree in parse_trees(path.read_text()):
                for match in find_late_closure_configs(tree):
                    assert late_closure_match_is_sound(tree, match)
                    checked += 1
        assert checked == 2

    def test_comma_insertion_eliminates_match(self, fixture_corpus):
        for path in sorted(fixture_corpus.glob("*.mrg")):
            for tree in parse_trees(path.read_text()):
                for match in find_late_closure_configs(tree):
                    edited = with_comma_after(tree, match.final_verb)
                    remaining = find_late_closure_configs(edited)
                    assert not any(
                        m.span.start == match.span.start for m in remaining
                    )

    def test_span_runs_from_verb_through_np(self, fixture_corpus):
        tree = parse_trees((fixture_corpus / "b.mrg").read_text())[0]
        match = find_late_closure_configs(tree, "b.mrg", 0)[0]
        leaves = tree.leaves()
        assert leaves[match.span.start] is match.final_verb
        assert leaves[match.span.end - 1] is match.critical_np.leaves()[-1]


class TestFrontedAdverbials:
    def test_pp_with_comma(self):
        tree = parse_trees(
            "(S (PP (IN After) (NP (DT the) (NN war))) (, ,)"
            " (NP-SBJ (PRP we)) (VP (VBD left)))"
        )[0]
        records = survey_fronted_adverbials(tree)
        assert [(r.category, r.comma_delimited) for r in records] == [("PP", True)]

    def test_sbar_without_comma(self):
        tree = parse_trees(
            "(S (SBAR (IN When) (S (NP-SBJ (PRP we)) (VP (VBD ate))))"
            " (NP-SBJ (PRP they)) (VP (VBD left)))"
        )[0]
        records = survey_fronted_adverbials(tree)
        assert [(r.category, r.comma_delimited) for r in records] == [("SBAR", False)]

    def test_stacked_adverbials_counted_independently(self):
        tree = parse_trees(
            "(S (ADVP (RB Now)) (PP (IN in) (NP (NN town))) (, ,)"
            " (NP-SBJ (PRP we)) (VP (VBD left)))"
        )[0]
        records = survey_fronted_adverbials(tree)
        assert [(r.category, r.comma_delimited) for r in records] == [
            ("ADVP", False),
            ("PP", True),
        ]

    def test_spans_count_every_earlier_leaf(self):
        tree = parse_trees(
            "(S (CC But) (ADVP (-NONE- *T*-1)) (PP (IN in) (NP (NN town))) (, ,)"
            " (NP-SBJ (PRP we)) (VP (VBD left)))"
        )[0]
        records = survey_fronted_adverbials(tree, "x.mrg", 4)
        assert [(r.category, r.comma_delimited, r.span) for r in records] == [
            ("ADVP", False, SourceSpan("x.mrg", 4, 1, 2)),
            ("PP", True, SourceSpan("x.mrg", 4, 2, 4)),
        ]

    def test_non_s_root_yields_nothing(self):
        assert survey_fronted_adverbials(parse_trees("(NP (DT the) (NN dog))")[0]) == []
        # An inverted clause has a VP and a PP before its subject, and still
        # yields nothing.
        tree = parse_trees(
            "(SINV (PP (IN Among) (NP (PRP them))) (VP (VBD was)) (NP-SBJ (NNP Smith)))"
        )[0]
        assert survey_fronted_adverbials(tree) == []

    def test_only_adverbial_categories_count(self):
        # A conjunction leaf and an interjection before the subject are not
        # fronted adverbials; the PP after them is.
        tree = parse_trees(
            "(S (CC But) (INTJ (UH well)) (PP (IN in) (NP (NN town))) (, ,)"
            " (NP-SBJ (PRP we)) (VP (VBD left)))"
        )[0]
        records = survey_fronted_adverbials(tree)
        assert [(r.category, r.comma_delimited, r.span.start) for r in records] == [
            ("PP", True, 2)
        ]

    def test_vp_boundary_fallback_without_subject(self):
        tree = parse_trees("(S (PP (IN After) (NP (NN dark))) (VP (VBD rained)))")[0]
        records = survey_fronted_adverbials(tree)
        assert [(r.category, r.comma_delimited) for r in records] == [("PP", False)]

    def test_fixture_hand_counts(self, fixture_corpus):
        records = []
        for path in sorted(fixture_corpus.glob("*.mrg")):
            for tree in parse_trees(path.read_text()):
                records.extend(survey_fronted_adverbials(tree))
        assert len(records) == 5
        assert sum(1 for r in records if not r.comma_delimited) == 3
        by_category = {}
        for r in records:
            by_category.setdefault(r.category, []).append(r.comma_delimited)
        assert sorted(by_category["SBAR"]) == [False, True]
        assert sorted(by_category["PP"]) == [False, True]
        assert by_category["ADVP"] == [False]


VERB_FIXTURE = [
    # three NP complements
    "(S (NP-SBJ (PRP she)) (VP (VBD disclosed) (NP (DT the) (NN location))) (. .))",
    "(S (NP-SBJ (NNP Smith)) (VP (VBZ discloses) (NP (DT a) (NN secret))"
    " (PP (TO to) (NP (NNS reporters)))) (. .))",
    "(S (NP-SBJ (PRP they)) (VP (VBP disclose) (NP (NNS figures))) (. .))",
    # four that-clause complements
    "(S (NP-SBJ (PRP she)) (VP (VBD disclosed) (SBAR (IN that)"
    " (S (NP-SBJ (PRP it)) (VP (VBD worked))))) (. .))",
    "(S (NP-SBJ (DT the) (NN firm)) (VP (VBZ discloses) (SBAR (IN that)"
    " (S (NP-SBJ (NNS profits)) (VP (VBD fell))))) (. .))",
    "(S (NP-SBJ (PRP he)) (VP (VBD disclosed) (SBAR (IN that)"
    " (S (NP-SBJ (DT the) (NN ledger)) (VP (VBD vanished))))) (. .))",
    "(S (NP-SBJ (NNS officials)) (VP (VBD disclosed) (SBAR (IN that)"
    " (S (NP-SBJ (DT a) (NN deal)) (VP (VBD collapsed))))) (. .))",
    # two reduced clausal complements
    "(S (NP-SBJ (PRP she)) (VP (VBD disclosed) (SBAR (-NONE- 0)"
    " (S (NP-SBJ (DT the) (NN safe)) (VP (VBD opened))))) (. .))",
    "(S (NP-SBJ (PRP he)) (VP (VBD disclosed)"
    " (S (NP-SBJ (DT the) (NN plan)) (VP (VBD failed)))) (. .))",
    # three intransitive uses
    "(S (NP-SBJ (DT the) (NNS details)) (VP (VBD disclosed) (ADVP (RB slowly))) (. .))",
    "(S (NP-SBJ (PRP it)) (VP (VBZ discloses)))",
    "(S (NP-SBJ (NN nothing)) (VP (VBD disclosed) (PP (IN on) (NP (NN time)))) (. .))",
]

DISCLOSE_FORMS = {"disclose", "discloses", "disclosed", "disclosing"}


class TestVerbFrames:
    def test_planted_frame_mix(self):
        trees = [parse_trees(s)[0] for s in VERB_FIXTURE]
        profile = profile_verb_frames(trees, "disclose", DISCLOSE_FORMS)
        assert profile.counts == {
            FrameType.NP_COMPLEMENT: 3,
            FrameType.THAT_CLAUSE: 4,
            FrameType.REDUCED_CLAUSE: 2,
            FrameType.INTRANSITIVE: 3,
        }
        assert profile.total == 12
        assert profile.lemma == "disclose"

    def test_absent_lemma_yields_zero_profile(self):
        trees = [parse_trees(VERB_FIXTURE[0])[0]]
        profile = profile_verb_frames(trees, "vanish", {"vanish", "vanished"})
        assert profile.total == 0

    def test_matching_is_case_insensitive(self):
        tree = parse_trees("(S (NP-SBJ (PRP it)) (VP (VBD Disclosed) (NP (NN news))))")[0]
        profile = profile_verb_frames([tree], "disclose", DISCLOSE_FORMS)
        assert profile.counts[FrameType.NP_COMPLEMENT] == 1

    def test_empty_np_sibling_is_not_a_complement(self):
        tree = parse_trees(
            "(S (NP-SBJ (DT the) (NN deal)) (VP (VBD disclosed) (NP (-NONE- *))))"
        )[0]
        profile = profile_verb_frames([tree], "disclose", DISCLOSE_FORMS)
        assert profile.counts[FrameType.INTRANSITIVE] == 1
        assert profile.counts[FrameType.NP_COMPLEMENT] == 0

    def test_empty_inflection_set_raises(self):
        with pytest.raises(EmptyInflectionSet):
            profile_verb_frames([], "disclose", set())

    def test_total_equals_matched_verb_leaves(self, fixture_corpus):
        trees = []
        for path in sorted(fixture_corpus.glob("*.mrg")):
            trees.extend(parse_trees(path.read_text()))
        profile = profile_verb_frames(trees, "disclose", DISCLOSE_FORMS)
        assert profile.total == 3
        assert profile.counts[FrameType.NP_COMPLEMENT] == 1
        assert profile.counts[FrameType.THAT_CLAUSE] == 1
        assert profile.counts[FrameType.REDUCED_CLAUSE] == 1


@pytest.mark.parametrize("query", [
    extract_np_occurrences, find_late_closure_configs, survey_fronted_adverbials,
])
def test_library_queries_default_to_sentence_0_of_no_file(query):
    (tree,) = parse_trees(
        "(S (SBAR (IN When) (S (NP-SBJ (PRP we)) (VP (VBD ate))))"
        " (NP-SBJ (DT the) (NNS guests)) (VP (VBD left)) (. .))"
    )
    found = query(tree)
    assert found
    assert {(r.span.file_id, r.span.sentence_index) for r in found} == {("", 0)}


class TestSubjectTagCrosscheck:
    def test_fixture_annotations_agree(self, fixture_corpus):
        # Positional subjecthood never reads function tags; on the hand-tagged
        # fixture it agrees with -SBJ on every occurrence.
        agreement: Counter[bool] = Counter()
        for path in sorted(fixture_corpus.glob("*.mrg")):
            for tree in parse_trees(path.read_text()):
                for node, position, _ in walk_np_occurrences(tree):
                    agreement[(position is SUBJ) == ("SBJ" in node.label.function_tags)] += 1
        assert (agreement[True], agreement[False]) == (22, 0)
