"""Structural query tests: NP positions, clause contexts, late-closure
configurations, fronted adverbials, verb frames."""

import pytest

from npstat.queries import (
    _leaf_spans,
    ClauseContext,
    EmptyInflectionSet,
    FrameType,
    GrammaticalPosition,
    clause_context_of,
    crosscheck_subject_tags,
    extract_np_occurrences,
    find_late_closure_configs,
    profile_verb_frames,
    survey_fronted_adverbials,
)
from npstat.treebank import Tree, parse_trees

from oracles import (
    late_closure_match_is_sound,
    oracle_leaf_ranges,
    oracle_occurrences,
    with_comma_after,
)
from treegen import random_trees

SUBJ = GrammaticalPosition.SUBJECT
NONSUBJ = GrammaticalPosition.NON_SUBJECT


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

    def test_recompute_matches_extraction(self, fixture_corpus):
        for path in sorted(fixture_corpus.glob("*.mrg")):
            for tree in parse_trees(path.read_text()):
                for occ in extract_np_occurrences(tree):
                    assert clause_context_of(occ, tree) == occ.context

    def test_recompute_rejects_foreign_node(self):
        tree_a = parse_trees("(S (NP-SBJ (PRP we)) (VP (VBD ran)))")[0]
        tree_b = parse_trees("(S (NP-SBJ (PRP they)) (VP (VBD slept)))")[0]
        occ = extract_np_occurrences(tree_a)[0]
        with pytest.raises(ValueError):
            clause_context_of(occ, tree_b)


class TestOracleEquivalence:
    def test_thousand_random_trees(self):
        disagreements = 0
        for tree in random_trees(seed=417, count=1000):
            expected = oracle_occurrences(tree)
            occs = extract_np_occurrences(tree)
            actual = {
                id(o.node): (o.position.value, o.context.value) for o in occs
            }
            assert len(actual) == len(occs), "an NP was reported twice"
            if actual != expected:
                disagreements += 1
        assert disagreements == 0

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


class TestLeafSpans:
    def test_agrees_with_oracle(self, smoke_corpus):
        trees = [
            tree
            for path in sorted(smoke_corpus.rglob("*.mrg"))
            for tree in parse_trees(path.read_text(encoding="utf-8"))
        ]
        trees += random_trees(seed=420, count=300, max_nodes=200)
        for tree in trees:
            leaves, spans = _leaf_spans(tree)
            expected = tree.leaves()
            assert len(leaves) == len(expected)
            assert all(a is b for a, b in zip(leaves, expected))
            assert spans == oracle_leaf_ranges(tree)

    def test_queries_do_not_rewalk_subtrees_at_depth(self, monkeypatch):
        collect = Tree.leaves
        calls = 0

        def counting_leaves(self):
            nonlocal calls
            calls += 1
            return collect(self)

        chains = {depth: right_branching_chain(depth) for depth in (20, 2_000)}
        monkeypatch.setattr(Tree, "leaves", counting_leaves)
        counts = {}
        results = {}
        for depth, tree in chains.items():
            calls = 0
            results[depth] = (
                find_late_closure_configs(tree),
                extract_np_occurrences(tree),
                survey_fronted_adverbials(tree),
            )
            counts[depth] = calls
        monkeypatch.undo()
        assert counts[2_000] == counts[20] <= 3
        for depth, tree in chains.items():
            matches, occurrences, adverbials = results[depth]
            assert [(m.final_verb.token, m.critical_np.text()) for m in matches] == [
                ("ended", "we"), ("ended", "the guests"),
            ]
            assert all(late_closure_match_is_sound(tree, m) for m in matches)
            assert len(occurrences) == depth + 2
            assert [(a.category, a.comma_delimited) for a in adverbials] == [("SBAR", False)]


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

    def test_non_s_root_yields_nothing(self):
        assert survey_fronted_adverbials(parse_trees("(NP (DT the) (NN dog))")[0]) == []

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


class TestSubjectTagCrosscheck:
    def test_fixture_annotations_agree(self, fixture_corpus):
        occurrences = []
        for path in sorted(fixture_corpus.glob("*.mrg")):
            for tree in parse_trees(path.read_text()):
                occurrences.extend(extract_np_occurrences(tree))
        check = crosscheck_subject_tags(occurrences)
        assert (check.agree, check.disagree) == (22, 0)
        assert check.disagreement_rate == 0.0

    def test_untagged_subject_counts_as_disagreement(self):
        tree = parse_trees("(S (NP (PRP we)) (VP (VBD ran)))")[0]
        check = crosscheck_subject_tags(extract_np_occurrences(tree))
        assert (check.agree, check.disagree) == (0, 1)
        assert check.disagreement_rate == 1.0
