"""Givenness classifier tests: rule cascade, hand-labeled fixture,
configuration handling, determinism."""

import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from npstat.givenness import (
    DEFAULT_CONFIG,
    ClassifierConfig,
    ClassifierConfigError,
    GivennessCategory,
    NotAnNP,
    classify_np,
    classify_overt,
    leading_overt,
)
from npstat.treebank import Internal, Leaf, NodeLabel, parse_trees

from oracles import oracle_givenness
from treegen import random_trees

EC = GivennessCategory.EMPTY_CATEGORY
PRO = GivennessCategory.PRONOUN
NAME = GivennessCategory.PROPER_NAME
DEF = GivennessCategory.DEFINITE
INDEF = GivennessCategory.INDEFINITE
OTHER = GivennessCategory.NOT_CLASSIFIED

# Forty NPs with hand-assigned categories, locked before implementation-level
# tuning: each entry is (bracketed NP, expected category).
HAND_LABELED_40 = [
    # empty categories
    ("(NP (-NONE- *))", EC),
    ("(NP-SBJ (-NONE- *T*-1))", EC),
    ("(NP (-NONE- *U*))", EC),
    ("(NP-SBJ-1 (-NONE- *-1))", EC),
    # pronouns
    ("(NP (PRP it))", PRO),
    ("(NP-SBJ (PRP They))", PRO),
    ("(NP (PRP him))", PRO),
    ("(NP (PRP we))", PRO),
    ("(NP (PRP It))", PRO),
    ("(NP (PRP$ its))", PRO),
    # proper names
    ("(NP (NNP Smith))", NAME),
    ("(NP (NNP John) (NNP Smith))", NAME),
    ("(NP-SBJ (NNP Churchill) (CC and) (NNP Roosevelt))", NAME),
    ("(NP (NNPS Americans))", NAME),
    ("(NP (DT the) (NNP Pentagon))", NAME),
    ("(NP (NNP Mr.) (NNP Karns))", NAME),
    # definites
    ("(NP (DT the) (NN dog))", DEF),
    ("(NP (DT The) (JJ old) (NN house))", DEF),
    ("(NP (DT this) (NN idea))", DEF),
    ("(NP (DT those) (NNS books))", DEF),
    ("(NP (PRP$ his) (NN car))", DEF),
    ("(NP (NP (NNP Smith) (POS 's)) (NN lawyer))", DEF),
    ("(NP (DT that) (NN rumor))", DEF),
    ("(NP (PRP$ our) (JJ first) (NN attempt))", DEF),
    # indefinites
    ("(NP (DT a) (NN book))", INDEF),
    ("(NP (DT An) (JJ old) (NN map))", INDEF),
    ("(NP (DT some) (NNS apples))", INDEF),
    ("(NP (DT several) (NNS reasons))", INDEF),
    ("(NP (DT another) (NN day))", INDEF),
    ("(NP (CD three) (NNS ships))", INDEF),
    ("(NP (DT many) (NNS years))", INDEF),
    ("(NP (DT one) (NN reason))", INDEF),
    # not classified
    ("(NP (NNS dogs))", OTHER),
    ("(NP (NN water))", OTHER),
    ("(NP (JJ good) (NNS intentions))", OTHER),
    ("(NP (DT all) (NNS men))", OTHER),
    ("(NP (NN today))", OTHER),
    ("(NP (DT no) (NN time))", OTHER),
    ("(NP (DT both) (NNS sides))", OTHER),
    ("(NP (NNS men) (CC and) (NNS women))", OTHER),
]


def classify_string(source: str) -> GivennessCategory:
    return classify_np(parse_trees(source)[0])


class TestRuleCascade:
    def test_trace_only_np_is_empty_category(self):
        assert classify_string("(NP (-NONE- *T*-2))") is EC

    def test_sole_pronoun_leaf(self):
        assert classify_string("(NP (PRP it))") is PRO

    def test_pronoun_rule_needs_sole_overt_leaf(self):
        # A possessive pronoun with a noun after it heads a full (definite) NP.
        assert classify_string("(NP (PRP$ his) (NN car))") is DEF

    def test_proper_head_beats_definite_determiner(self):
        assert classify_string("(NP (DT the) (NNP Pentagon))") is NAME

    def test_head_is_rightmost_direct_leaf(self):
        # The head noun is "lawyer", not the embedded proper name.
        assert classify_string("(NP (NP (NNP Smith) (POS 's)) (NN lawyer))") is DEF

    def test_genitive_premodifier_marks_definite(self):
        assert classify_string("(NP (NP (DT the) (NN king) (POS 's)) (NN crown))") is DEF

    def test_determiner_match_is_case_insensitive(self):
        assert classify_string("(NP (DT THE) (NN dog))") is DEF
        assert classify_string("(NP (DT A) (NN dog))") is INDEF

    def test_cardinal_first_leaf_is_indefinite(self):
        assert classify_string("(NP (CD three) (NNS ships))") is INDEF

    def test_bare_plural_falls_through(self):
        assert classify_string("(NP (NNS dogs))") is OTHER

    def test_initial_np_is_genitive_only_if_it_ends_in_pos(self):
        assert classify_string("(NP (NP (NNS books)) (PP (IN about) (NP (NNS ships))))") \
            is OTHER
        # An initial NP with no overt leaf ends in no POS either.
        assert classify_string("(NP (NP (-NONE- *)) (DT a) (NN book))") is INDEF

    def test_rejects_non_np(self):
        with pytest.raises(NotAnNP):
            classify_np(parse_trees("(VP (VBD ran))")[0])
        with pytest.raises(NotAnNP):
            classify_np(Leaf("NN", "dog"))


class TestHandLabeledFixture:
    def test_all_forty(self):
        got = [(src, classify_string(src)) for src, _ in HAND_LABELED_40]
        expected = [(src, cat) for src, cat in HAND_LABELED_40]
        assert got == expected

    def test_fixture_covers_every_category(self):
        labels = {cat for _, cat in HAND_LABELED_40}
        assert labels == set(GivennessCategory)

    def test_output_is_stable_across_parallel_runs(self):
        nps = [parse_trees(src)[0] for src, _ in HAND_LABELED_40]

        def run(_):
            return [classify_np(np) for np in nps]

        with ThreadPoolExecutor(max_workers=10) as pool:
            outcomes = list(pool.map(run, range(10)))
        assert all(outcome == outcomes[0] for outcome in outcomes)


class TestConfig:
    def test_default_sets(self):
        assert "the" in DEFAULT_CONFIG.definite_determiners
        assert "a" in DEFAULT_CONFIG.indefinite_determiners
        assert DEFAULT_CONFIG.pronoun_pos_tags == frozenset({"PRP", "PRP$"})

    def test_overlapping_determiner_sets_rejected(self):
        with pytest.raises(ClassifierConfigError):
            ClassifierConfig(
                definite_determiners=frozenset({"the", "some"}),
                indefinite_determiners=frozenset({"some", "a"}),
            )

    def test_sets_are_case_folded_on_construction(self):
        config = ClassifierConfig(definite_determiners=frozenset({"The", "THIS"}))
        assert config.definite_determiners == frozenset({"the", "this"})

    def test_custom_determiners_change_outcomes(self):
        config = ClassifierConfig(
            definite_determiners=frozenset({"the"}),
            indefinite_determiners=frozenset({"a", "an", "no"}),
        )
        assert classify_np(parse_trees("(NP (DT no) (NN time))")[0], config) is INDEF

    def test_dump_and_reload_round_trip(self, tmp_path):
        path = tmp_path / "classifier.conf"
        path.write_text(DEFAULT_CONFIG.dump())
        assert ClassifierConfig.from_file(path) == DEFAULT_CONFIG

    def test_file_with_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "classifier.conf"
        path.write_text("definite_determiners = the\nmystery_key = x\n")
        with pytest.raises(ClassifierConfigError, match=r"\.conf:2: unknown key 'mystery_key'"):
            ClassifierConfig.from_file(path)

    def test_file_line_without_equals_names_its_line(self, tmp_path):
        path = tmp_path / "classifier.conf"
        path.write_text("# a comment\n\ndefinite_determiners the\n")
        with pytest.raises(ClassifierConfigError, match=r"\.conf:3: expected 'key = items'"):
            ClassifierConfig.from_file(path)

    def test_file_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "classifier.conf"
        path.write_text(
            "# a comment\n\n"
            "definite_determiners = the this that these those\n"
            "indefinite_determiners = a an some\n"
        )
        config = ClassifierConfig.from_file(path)
        assert config.indefinite_determiners == frozenset({"a", "an", "some"})
        # Unspecified keys keep their defaults.
        assert config.pronoun_pos_tags == DEFAULT_CONFIG.pronoun_pos_tags



class TestLeftEdge:
    """The cascade reads only an NP's first two overt leaves, and
    leading_overt finds them without collecting the rest."""

    CONFIGS = (
        DEFAULT_CONFIG,
        ClassifierConfig(
            pronoun_pos_tags=frozenset({"PRP"}),
            definite_determiners=frozenset({"the", "his"}),
            indefinite_determiners=frozenset({"a", "some", "this", "three"}),
        ),
    )

    def test_first_two_overt_leaves_decide(self, smoke_corpus, deep_clauses_trees):
        trees = [
            tree
            for path in sorted(smoke_corpus.rglob("*.mrg"))
            for tree in parse_trees(path.read_text(encoding="utf-8"))
        ]
        trees += deep_clauses_trees + random_trees(seed=417, count=1000)
        overt_counts: Counter = Counter()
        for tree in trees:
            for np in tree.iter_nodes():
                if not (isinstance(np, Internal) and np.category == "NP"):
                    continue
                overt = [leaf for leaf in np.leaves() if leaf.pos != "-NONE-"]
                assert leading_overt(np) == overt[:2]
                for config in self.CONFIGS:
                    assert classify_overt(np, overt[:2], config) \
                        is classify_overt(np, overt, config)
                overt_counts[min(len(overt), 3)] += 1
        assert set(overt_counts) == {0, 1, 2, 3}, overt_counts


# Leaves from which random NPs reach every rule of the cascade, under the
# default configuration and under OTHER_CONFIG.
NP_LEAVES = (
    ("-NONE-", "*"), ("-NONE-", "*T*-1"), (",", ","), (".", "."), (":", ";"),
    ("``", "``"), ("''", "''"), ("-LRB-", "-LRB-"), ("-RRB-", "-RRB-"), ("$", "$"),
    ("#", "#"), ("PRP", "it"), ("PRP", "They"), ("PRP$", "his"), ("PRP$", "its"),
    ("NNP", "Smith"), ("NNPS", "Americans"), ("DT", "the"), ("DT", "The"),
    ("DT", "this"), ("IN", "that"), ("DT", "a"), ("DT", "An"), ("DT", "some"),
    ("DT", "all"), ("CD", "three"), ("CD", "42"), ("NN", "dog"), ("NNS", "dogs"),
    ("JJ", "old"), ("CC", "and"), ("POS", "'s"),
)
# Moves NPs between rules: PRP$ is no pronoun tag and "his" is a determiner,
# NNPS heads no proper name, and "this" and "three" are indefinite.
OTHER_CONFIG = ClassifierConfig(
    pronoun_pos_tags=frozenset({"PRP"}),
    proper_pos_tags=frozenset({"NNP"}),
    definite_determiners=frozenset({"the", "his"}),
    indefinite_determiners=frozenset({"a", "some", "this", "three"}),
)
# Every (category, rule) pair that oracle_givenness returns.
EVERY_RULE = {
    ("empty-category", "empty"), ("pronoun", "pronoun"), ("proper-name", "head"),
    ("definite", "determiner"), ("definite", "possessive"), ("definite", "genitive"),
    ("indefinite", "determiner"), ("indefinite", "number"), ("not-classified", "rest"),
}


def random_np(rng: random.Random, depth: int = 0) -> Internal:
    """An NP of one to four children: leaves, nested NPs and PPs, sometimes
    all empty, and sometimes led by a genitive NP (one that ends in ``POS``,
    perhaps followed by an empty element)."""
    if rng.random() < 0.05:
        return Internal(NodeLabel("NP"), (Leaf("-NONE-", "*"),) * rng.randrange(1, 3))
    children: list = []
    for _ in range(rng.randrange(1, 5)):
        roll = rng.random()
        if depth < 2 and roll < 0.15:
            children.append(random_np(rng, depth + 1))
        elif depth < 2 and roll < 0.2:
            children.append(Internal(NodeLabel("PP"),
                                     (Leaf("IN", "of"), random_np(rng, depth + 1))))
        else:
            children.append(Leaf(*rng.choice(NP_LEAVES)))
    if depth < 2 and rng.random() < 0.2:
        tail = (Leaf("POS", "'s"),) + (Leaf("-NONE-", "*"),) * rng.randrange(2)
        children.insert(0, Internal(NodeLabel("NP"),
                                    random_np(rng, depth + 1).children + tail))
    return Internal(NodeLabel.from_string(rng.choice(("NP", "NP-SBJ"))), tuple(children))


class TestOracleAgreement:
    """classify_np agrees with oracle_givenness, which restates the six rules
    of the module docstring over each NP's full leaf list."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           config=st.sampled_from((DEFAULT_CONFIG, OTHER_CONFIG)))
    def test_random_nps(self, seed, config):
        rng = random.Random(seed)
        for _ in range(40):
            np = random_np(rng)
            assert classify_np(np, config).value == oracle_givenness(np, config)[0]

    @pytest.mark.parametrize("config", [DEFAULT_CONFIG, OTHER_CONFIG],
                             ids=["default", "other"])
    def test_every_rule_is_reached(self, config):
        rng = random.Random(22)
        rules: Counter = Counter()
        for _ in range(2000):
            np = random_np(rng)
            category, rule = oracle_givenness(np, config)
            assert classify_np(np, config).value == category
            rules[category, rule] += 1
        assert set(rules) == EVERY_RULE, rules
