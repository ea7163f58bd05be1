"""Ingestion, aggregation and merge tests."""

import copy
import os
import pickle
import shutil
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from npstat.corpus import (
    AggregateCounts,
    CorpusSource,
    RootNotFound,
    aggregate,
    aggregate_corpus,
    corpus_files,
    merge,
    read_files,
)
from npstat.givenness import (DEFAULT_CONFIG, ClassifierConfig, ClauseContext,
                              GivennessCategory, GrammaticalPosition)
from npstat.base import InputError
from npstat import treebank
from npstat.treebank import serialize_tree

from oracles import oracle_parse, reference_aggregate_cells
from treegen import random_trees, same_trees

EC = GivennessCategory.EMPTY_CATEGORY
PRO = GivennessCategory.PRONOUN
NAME = GivennessCategory.PROPER_NAME
DEF = GivennessCategory.DEFINITE
INDEF = GivennessCategory.INDEFINITE
SUBJ = GrammaticalPosition.SUBJECT
NONSUBJ = GrammaticalPosition.NON_SUBJECT
MATRIX = ClauseContext.MATRIX
TC = ClauseContext.EMBEDDED_TC
RC = ClauseContext.EMBEDDED_RC
OTHER = ClauseContext.EMBEDDED_OTHER

# Every non-zero cell of the committed fixture corpus, counted by hand.
FIXTURE_CELLS = {
    (DEF, SUBJ, MATRIX): 6,
    (DEF, NONSUBJ, MATRIX): 2,
    (DEF, SUBJ, TC): 1,
    (DEF, SUBJ, RC): 1,
    (DEF, SUBJ, OTHER): 1,
    (DEF, NONSUBJ, TC): 1,
    (PRO, SUBJ, MATRIX): 3,
    (PRO, SUBJ, TC): 1,
    (PRO, SUBJ, OTHER): 1,
    (NAME, SUBJ, MATRIX): 1,
    (INDEF, NONSUBJ, MATRIX): 3,
    (EC, SUBJ, OTHER): 1,
}
FIXTURE_TOTAL = 22


def random_aggregate(seed: int) -> AggregateCounts:
    import random

    rng = random.Random(seed)
    agg = AggregateCounts()
    for key in agg.cells:
        agg.cells[key] = rng.randrange(0, 50)
    agg.files_processed = rng.randrange(0, 5)
    agg.sentences_processed = rng.randrange(0, 100)
    agg.files_skipped = rng.randrange(0, 3)
    return agg


def sentence_pairs(source: CorpusSource) -> list:
    """The corpus's parsed sentences as ``(file_id, tree)`` pairs, in order."""
    return [(file_id, tree) for file_id, trees, _ in read_files(source) if trees is not None
            for tree in trees]


def corpus_trees(root) -> list:
    return [tree for _, tree in sentence_pairs(CorpusSource(root))]


class TestIngest:
    def test_fixture_corpus_order_and_counts(self, fixture_corpus):
        pairs = sentence_pairs(CorpusSource(fixture_corpus))
        assert len(pairs) == 10
        assert [fid for fid, _ in pairs] == ["a.mrg"] * 4 + ["b.mrg"] * 3 + ["c.mrg"] * 3
        files = list(read_files(CorpusSource(fixture_corpus)))
        assert [fid for fid, trees, _ in files if trees is not None] == ["a.mrg", "b.mrg", "c.mrg"]
        assert [fid for fid, trees, _ in files if trees is None] == []
        assert [reason for _, _, reason in files] == [None] * 3
        assert sum(len(trees) for _, trees, _ in files) == 10

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(RootNotFound) as raised:
            read_files(CorpusSource(tmp_path / "nowhere"))
        # The command line exits 2 on it; a caller may catch either base.
        assert isinstance(raised.value, InputError)
        assert isinstance(raised.value, FileNotFoundError)

    def test_root_that_cannot_be_listed_raises(self, fixture_corpus, deny_listing):
        deny_listing(fixture_corpus)
        with pytest.raises(InputError) as raised:
            read_files(CorpusSource(fixture_corpus))
        assert str(raised.value) == f"cannot list corpus root {fixture_corpus}: Permission denied"
        with pytest.raises(InputError):
            corpus_files(CorpusSource(fixture_corpus))

    def test_subdirectory_that_cannot_be_listed_holds_no_files(self, fixture_corpus, tmp_path,
                                                               deny_listing):
        for file_id in ["a.mrg", "locked/b.mrg", "open/c.mrg"]:
            (tmp_path / file_id).parent.mkdir(exist_ok=True)
            shutil.copy(fixture_corpus / "a.mrg", tmp_path / file_id)
        deny_listing(tmp_path / "locked")
        assert [fid for fid, _, _ in read_files(CorpusSource(tmp_path))] == ["a.mrg", "open/c.mrg"]

    def test_empty_directory_yields_empty_stream(self, tmp_path):
        assert list(read_files(CorpusSource(tmp_path))) == []

    def test_glob_filters_files(self, fixture_corpus):
        pairs = sentence_pairs(CorpusSource(fixture_corpus, include_glob="a.*"))
        assert len(pairs) == 4
        assert {fid for fid, _ in pairs} == {"a.mrg"}

    def test_malformed_file_is_skipped_not_fatal(self, fixture_corpus, broken_dir, tmp_path):
        shutil.copy(fixture_corpus / "a.mrg", tmp_path / "a.mrg")
        shutil.copy(fixture_corpus / "c.mrg", tmp_path / "c.mrg")
        shutil.copy(broken_dir / "malformed.mrg", tmp_path / "b.mrg")
        pairs = sentence_pairs(CorpusSource(tmp_path))
        assert len(pairs) == 7  # the two good files' sentences
        files = list(read_files(CorpusSource(tmp_path)))
        assert [fid for fid, trees, _ in files if trees is None] == ["b.mrg"]
        assert [fid for fid, trees, _ in files if trees is not None] == ["a.mrg", "c.mrg"]

    def test_skip_warning_states_reason_once(self, fixture_corpus, broken_dir, tmp_path,
                                             capsys):
        shutil.copy(fixture_corpus / "a.mrg", tmp_path / "a.mrg")
        shutil.copy(broken_dir / "malformed.mrg", tmp_path / "b.mrg")
        (tmp_path / "c.mrg").write_bytes(b"\xff( (S (NP (NN x))) )")
        files = list(read_files(CorpusSource(tmp_path)))
        assert capsys.readouterr() == ("", "")  # the reader prints nothing
        assert [fid for fid, trees, _ in files if trees is None] == ["b.mrg", "c.mrg"]
        reasons = [(fid, reason) for fid, _, reason in files if reason is not None]
        assert [fid for fid, _ in reasons] == ["b.mrg", "c.mrg"]
        (_, malformed), (_, undecodable) = reasons
        assert malformed.count("offset") == 1
        assert undecodable.count("invalid start byte") == 1
        for _, reason in reasons:
            assert "(offset" not in reason
            assert "?" not in reason

    def test_recursive_lexicographic_order(self, fixture_corpus, tmp_path):
        (tmp_path / "sub").mkdir()
        shutil.copy(fixture_corpus / "a.mrg", tmp_path / "z.mrg")
        shutil.copy(fixture_corpus / "c.mrg", tmp_path / "sub" / "x.mrg")
        files = corpus_files(CorpusSource(tmp_path))
        assert [p.name for p in files] == ["x.mrg", "z.mrg"]  # sub/x.mrg < z.mrg
        ids = [fid for fid, _ in sentence_pairs(CorpusSource(tmp_path))]
        assert ids == ["sub/x.mrg"] * 3 + ["z.mrg"] * 4

    @pytest.mark.parametrize("given", ["dot", "dotdot", "absolute", "trailing-slash"])
    def test_file_ids_are_relative_posix_paths(self, fixture_corpus, tmp_path, monkeypatch,
                                               given):
        root = tmp_path / "x"
        # "sub-1" < "sub.x" < "sub/": ids sort as strings, not as path components.
        for file_id in ["z.mrg", ".hidden.mrg", "sub/a.mrg", "sub/deep/b.mrg", "sub/.h/c.mrg",
                        ".dot/d.mrg", "sub-1/e.mrg", "sub.x/f.mrg"]:
            (root / file_id).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(fixture_corpus / "c.mrg", root / file_id)
        expected = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
        assert len(expected) == 8
        monkeypatch.chdir(root if given == "dot" else tmp_path)
        source = CorpusSource(Path({"dot": ".", "dotdot": "x/../x", "absolute": str(root),
                                    "trailing-slash": f"{root}/"}[given]))
        assert [fid for fid, _, _ in read_files(source)] == expected
        assert [p.relative_to(source.root_path).as_posix()
                for p in corpus_files(source)] == expected

    def test_walk_scans_each_real_directory_once(self, fixture_corpus, tmp_path, monkeypatch):
        # The root holds a 25-level chain of real directories and two links to
        # a 420-directory tree; a listing that entered the links would scan it.
        big = tmp_path / "big"
        for i in range(20):
            for j in range(20):
                (big / f"d{i}" / f"e{j}").mkdir(parents=True)
        shutil.copy(fixture_corpus / "a.mrg", big / "d0" / "e0" / "a.mrg")
        root = tmp_path / "root"
        deep = root.joinpath(*(f"l{k}" for k in range(25)))
        deep.mkdir(parents=True)
        shutil.copy(fixture_corpus / "a.mrg", deep / "a.mrg")
        try:
            (root / "big").symlink_to(big, target_is_directory=True)
            (root / "l0" / "big").symlink_to(big, target_is_directory=True)
        except (OSError, NotImplementedError) as err:
            pytest.skip(f"cannot make a symlink here: {err}")
        scanned = []
        scandir = os.scandir

        def counted(path):
            scanned.append(path)
            return scandir(path)

        monkeypatch.setattr(os, "scandir", counted)
        for pattern, found in [("*", True), ("*/*/*/*.mrg", True), ("l0/**/l24/a.mrg", True),
                               ("big/*/*/a.mrg", False), ("**/e0/*", False)]:
            scanned.clear()
            listed = corpus_files(CorpusSource(root, pattern))
            assert len(scanned) == 26, pattern  # the root and l0 .. l24
            assert listed == [deep / "a.mrg"] * found
        # A set of pattern positions per directory does not backtrack; with 24
        # '**' components, a backtracking match of this chain is exponential.
        start = time.perf_counter()
        for pattern in ["/".join(["**"] * 24 + ["a.mrg"]),
                        "/".join(["l0", *["**"] * 12, "l12", *["**"] * 12, "*.mrg"])]:
            assert corpus_files(CorpusSource(root, pattern)) == [deep / "a.mrg"]
        assert time.perf_counter() - start < 5

    def test_source_defaults(self, fixture_corpus):
        source = CorpusSource(fixture_corpus)
        assert source.include_glob == "*"


class TestReadPath:
    """Each file is read as UTF-8 text with universal newlines, its byte-order
    mark dropped, so offsets and reasons refer to the text as decoded."""

    def test_crlf_syntax_error_offset_counts_one_newline(self, tmp_path):
        (tmp_path / "w.mrg").write_bytes(b"(S (NP (PRP it)))\r\n(S (NP (PRP we))\r\n")
        assert list(read_files(CorpusSource(tmp_path))) == [
            ("w.mrg", None, "unclosed '(' at offset 18")]

    def test_bom_and_crlf_parse_like_plain_text(self, tmp_path):
        text = "( (S (NP-SBJ (PRP it))\n (VP (VBZ seems))) )\n(S (NP (NN x)))\n"
        (tmp_path / "plain.mrg").write_bytes(text.encode("utf-8"))
        (tmp_path / "bom.mrg").write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
        (bom_id, bom, _), (plain_id, plain, _) = read_files(CorpusSource(tmp_path))
        assert (bom_id, plain_id) == ("bom.mrg", "plain.mrg")
        assert same_trees(bom, plain) and same_trees(plain, oracle_parse(text))

    @pytest.mark.parametrize("data, reason", [
        (b"\xff(S (NP (NN x)))",
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"\xef\xbb\xbf(S (NP (NN x)) \xc3",
         "'utf-8' codec can't decode byte 0xc3 in position 15: unexpected end of data"),
    ], ids=["bad-start-byte", "truncated-after-bom"])
    def test_undecodable_file_reason(self, tmp_path, data, reason):
        (tmp_path / "u.mrg").write_bytes(data)
        assert list(read_files(CorpusSource(tmp_path))) == [("u.mrg", None, reason)]

    @pytest.mark.parametrize("given", ["./x/", "x/", "./x", "x//"])
    def test_spelling_of_the_root_changes_nothing(self, fixture_corpus, tmp_path, monkeypatch,
                                                  given):
        for file_id in ["b.mrg", "sub/a.mrg", "sub-1/c.mrg"]:
            (tmp_path / "x" / file_id).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(fixture_corpus / "c.mrg", tmp_path / "x" / file_id)
        monkeypatch.chdir(tmp_path)
        for root in (given, Path(given)):
            source = CorpusSource(root)
            assert [fid for fid, _, _ in read_files(source)] == [
                "b.mrg", "sub-1/c.mrg", "sub/a.mrg"]
            assert corpus_files(source) == corpus_files(CorpusSource(Path("x"))) == [
                Path("x/b.mrg"), Path("x/sub-1/c.mrg"), Path("x/sub/a.mrg")]
        for root in (given + "/b.mrg", given + "/b.mrg/", Path(given, "b.mrg")):
            with pytest.raises(RootNotFound) as raised:
                read_files(CorpusSource(root))
            assert str(raised.value) == "corpus root x/b.mrg is not a directory"

    def test_labels_survive_a_file_with_more_than_the_bound(self, tmp_path):
        bound = treebank._LABELS_MAX
        assert bound == 4096
        (tmp_path / "a.mrg").write_text(
            " ".join(f"(NP-T{i}-{i % 9} (PRP it))" for i in range(bound + 500)))
        text = "(S (NP-SBJ-7 (PRP it)) (VP=2 (VBD left) (ADVP-TMP (RB today))))\n"
        (tmp_path / "b.mrg").write_text(text)
        (_, many, _), (_, later, _) = read_files(CorpusSource(tmp_path))
        assert [str(tree.label) for tree in many[-3:]] == [
            f"NP-T{i}-{i % 9}" for i in range(bound + 497, bound + 500)]
        assert same_trees(later, oracle_parse(text))
        assert serialize_tree(later[0]) == text.strip()


class TestAggregate:
    def test_fixture_cells_match_hand_count(self, fixture_corpus):
        agg = aggregate_corpus(CorpusSource(fixture_corpus))
        for key, count in agg.cells.items():
            assert count == FIXTURE_CELLS.get(key, 0), key
        assert agg.total() == FIXTURE_TOTAL
        assert agg.files_processed == 3
        assert agg.sentences_processed == 10
        assert agg.files_skipped == 0

    def test_complement_clause_cells(self, fixture_corpus):
        agg = aggregate(corpus_trees(fixture_corpus))
        assert agg.cell(DEF, SUBJ, TC) == 1
        assert agg.cell(DEF, SUBJ, RC) == 1
        assert agg.cell(DEF, NONSUBJ, MATRIX) >= 1

    def test_empty_stream_is_all_zero(self):
        agg = aggregate([])
        assert agg.total() == 0
        assert agg.sentences_processed == 0

    def test_split_and_merge_equals_single_pass(self, fixture_corpus):
        trees = corpus_trees(fixture_corpus)
        single = aggregate(trees)
        first, second = aggregate(trees[:5]), aggregate(trees[5:])
        combined = merge(first, second)
        assert combined.cells == single.cells
        assert combined.sentences_processed == single.sentences_processed

    def test_four_way_split_and_merge(self, fixture_corpus):
        trees = corpus_trees(fixture_corpus)
        single = aggregate(trees)
        combined = AggregateCounts()
        for start in range(0, 10, 3):
            combined = merge(combined, aggregate(trees[start: start + 3]))
        assert combined.cells == single.cells
        assert combined.sentences_processed == single.sentences_processed


# The default classifier and one that moves NPs between categories: a config
# that aggregate failed to pass on would give the default's cells.
CONFIGS = (
    DEFAULT_CONFIG,
    ClassifierConfig(
        pronoun_pos_tags=frozenset({"PRP"}),
        proper_pos_tags=frozenset({"NNP"}),
        definite_determiners=frozenset({"the", "his"}),
        indefinite_determiners=frozenset({"a", "some", "this", "three"}),
    ),
)


class TestAggregateReference:
    """aggregate's left-edge classification gives the cells of the cascade
    over each NP's full overt leaf list, on every extract_np_occurrences
    occurrence."""

    @staticmethod
    def check(trees, config):
        cells = aggregate(trees, config).cells
        assert cells == reference_aggregate_cells(trees, config)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), config=st.sampled_from(CONFIGS))
    def test_random_trees(self, seed, config):
        self.check(random_trees(seed, count=20, max_nodes=120), config)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_fixture_and_smoke_corpora(self, fixture_corpus, smoke_corpus, config):
        self.check(corpus_trees(fixture_corpus) + corpus_trees(smoke_corpus), config)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_deep_clauses_corpus(self, deep_clauses_trees, config):
        self.check(deep_clauses_trees, config)

    def test_configs_give_different_cells(self, fixture_corpus, smoke_corpus,
                                          deep_clauses_trees):
        for trees in (corpus_trees(fixture_corpus) + corpus_trees(smoke_corpus),
                      deep_clauses_trees):
            default, other = (reference_aggregate_cells(trees, c) for c in CONFIGS)
            assert default != other


class TestCellKeys:
    """Cell-key members hash by identity, and pickle and deepcopy keep them
    singletons, so a copied table still merges with a live one."""

    @pytest.mark.parametrize(
        "member", [*GivennessCategory, *GrammaticalPosition, *ClauseContext], ids=str)
    def test_identity_hash_and_singletons(self, member):
        assert hash(member) == object.__hash__(member)
        assert pickle.loads(pickle.dumps(member)) is member
        assert copy.deepcopy(member) is member

    def test_copied_counts_merge_with_live_ones(self):
        agg = random_aggregate(5)
        for copied in (pickle.loads(pickle.dumps(agg)), copy.deepcopy(agg)):
            assert copied == agg
            assert merge(copied, agg).cells == {key: 2 * n for key, n in agg.cells.items()}


class TestMerge:
    def test_zero_is_identity(self):
        agg = random_aggregate(11)
        merged = merge(agg, AggregateCounts())
        assert merged.cells == agg.cells
        assert merged.files_processed == agg.files_processed
        assert merged.sentences_processed == agg.sentences_processed
        assert merged.files_skipped == agg.files_skipped

    def test_commutative(self):
        x, y = random_aggregate(21), random_aggregate(22)
        assert merge(x, y).cells == merge(y, x).cells
        assert merge(x, y).sentences_processed == merge(y, x).sentences_processed

    def test_associative(self):
        x, y, z = random_aggregate(31), random_aggregate(32), random_aggregate(33)
        left = merge(merge(x, y), z)
        right = merge(x, merge(y, z))
        assert left.cells == right.cells
        assert left.files_processed == right.files_processed

    def test_cellwise_sum(self):
        x, y = random_aggregate(41), random_aggregate(42)
        merged = merge(x, y)
        for key in merged.cells:
            assert merged.cells[key] == x.cells[key] + y.cells[key]


class TestAggregateCorpus:
    def test_matches_streaming_aggregation(self, fixture_corpus):
        streamed = aggregate(corpus_trees(fixture_corpus))
        sequential = aggregate_corpus(CorpusSource(fixture_corpus))
        assert sequential.cells == streamed.cells
        assert sequential.files_processed == 3
        assert sequential.sentences_processed == 10

    def test_bad_file_counted_and_skipped(self, fixture_corpus, broken_dir, tmp_path):
        shutil.copy(fixture_corpus / "a.mrg", tmp_path / "a.mrg")
        shutil.copy(broken_dir / "malformed.mrg", tmp_path / "bad.mrg")
        agg = aggregate_corpus(CorpusSource(tmp_path))
        assert agg.files_processed == 1
        assert agg.files_skipped == 1
        assert agg.sentences_processed == 4

    def test_all_files_bad_yields_zero_counts(self, broken_dir, tmp_path):
        shutil.copy(broken_dir / "malformed.mrg", tmp_path / "only.mrg")
        agg = aggregate_corpus(CorpusSource(tmp_path))
        assert agg.files_processed == 0
        assert agg.files_skipped == 1
        assert agg.total() == 0
