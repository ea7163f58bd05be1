"""Acceptance gate: one test per criterion, one pass/fail line each.

Run ``pytest -v tests/test_acceptance.py`` to see a PASSED/FAILED verdict per
criterion; with ``-s`` each test additionally prints an explicit
``PASS criterion N: ...`` / ``FAIL criterion N: ...`` line.
"""

import functools
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from npstat.cli import main
from npstat.corpus import AggregateCounts, CorpusSource, aggregate, merge, read_files
from npstat.givenness import classify_np
from npstat.queries import extract_np_occurrences, find_late_closure_configs
from npstat.render import parse_records, ratio_report
from npstat.report import ReportFormat, Table1Block, Table1Report
from npstat.stats import ContingencyTable2x2, build_pronoun_indefinite_table, chi_square_2x2
from npstat.treebank import parse_trees, serialize_tree

from oracles import late_closure_match_is_sound, oracle_occurrences, with_comma_after
from refvalues import (
    BROWN_TABLE1,
    BROWN_TOTAL_ROW,
    CHI_SQUARE_CASES,
    CHI_SQUARE_TOLERANCE,
    PERCENTAGE_CASES,
    WSJ_TABLE1,
    WSJ_TOTAL_ROW,
    from_counts_args,
)
from test_givenness import HAND_LABELED_40, classify_string
from treegen import random_trees, same_trees

README = Path(__file__).resolve().parents[1] / "README.md"

TOTAL_KEYS = ("subj_tc", "subj_rc", "subj_tc_rc", "subj_matrix",
              "nonsubj_tc", "nonsubj_rc", "nonsubj_tc_rc", "nonsubj_matrix")


def criterion(number: int, title: str):
    """Print a single, explicit pass/fail line for one acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")

        return wrapper

    return decorate


def cli_records(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, f"exit code {code} for {argv}"
    return parse_records(out)


def sentence_pairs(source):
    """The corpus's parsed sentences as ``(file_id, tree)`` pairs, in order."""
    return [(file_id, tree) for file_id, trees, _ in read_files(source) if trees is not None
            for tree in trees]


def fixture_pairs(fixture_corpus):
    return sentence_pairs(CorpusSource(fixture_corpus))


@criterion(1, "chi-square statistics reproduced within ±0.05, df=1, p<0.001, <1ms")
def test_criterion_1_chi_square_reproduction(capsys):
    for name, (cells, expected) in sorted(CHI_SQUARE_CASES.items()):
        records = cli_records(
            capsys, ["chisq", "--cells", *map(str, cells), "--format", "records"]
        )
        (result,) = [r for r in records if r["record"] == "chisq-result"]
        assert result["statistic"] == pytest.approx(expected, abs=CHI_SQUARE_TOLERANCE), name
        assert result["df"] == 1, name
        assert result["significance"] == "p<0.001", name

        table = ContingencyTable2x2(*cells)
        elapsed = min(_timed(chi_square_2x2, table) for _ in range(5))
        assert elapsed < 0.001, f"{name}: {elapsed * 1000:.3f} ms"


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


@criterion(2, "percentages 8.14 and 4.18 reproduced exactly at 2 decimals")
def test_criterion_2_percentage_reproduction():
    for (numerator, denominator), expected in PERCENTAGE_CASES.items():
        assert ratio_report(numerator, denominator) == expected


@criterion(3, "reference-table derived columns and total rows exact")
def test_criterion_3_table_arithmetic(capsys):
    for table, total_row in ((BROWN_TABLE1, BROWN_TOTAL_ROW),
                             (WSJ_TABLE1, WSJ_TOTAL_ROW)):
        records = cli_records(
            capsys,
            ["table1", "--from-counts", *from_counts_args(table),
             "--format", "records"],
        )
        rows = {r["givenness"]: r for r in records}
        total = rows.pop("total")
        for row in rows.values():
            assert row["subj_tc_rc"] == row["subj_tc"] + row["subj_rc"]
            assert row["nonsubj_tc_rc"] == row["nonsubj_tc"] + row["nonsubj_rc"]
        for key in TOTAL_KEYS:
            assert total[key] == sum(row[key] for row in rows.values()), key
        assert tuple(total[key] for key in TOTAL_KEYS) == total_row
    # the named spot checks: overall subject totals of the two references
    assert BROWN_TOTAL_ROW[3] == 24562 and WSJ_TOTAL_ROW[3] == 17345


@criterion(4, "parse-serialize identity on 1000 generated trees and all fixtures")
def test_criterion_4_parser_round_trip(fixture_corpus):
    trees = list(random_trees(seed=20260823, count=1000))
    for path in sorted(fixture_corpus.glob("*.mrg")):
        trees.extend(parse_trees(path.read_text(encoding="utf-8")))
    for source, _ in HAND_LABELED_40:
        trees.extend(parse_trees(source))
    assert len(trees) == 1000 + 10 + 40
    identical = sum(same_trees(parse_trees(serialize_tree(t)), [t]) for t in trees)
    assert identical == len(trees)  # 100% node-identical


@criterion(5, "query implementation matches definitional oracle on 1000 trees")
def test_criterion_5_query_oracle_equivalence():
    disagreements = 0
    for tree in random_trees(seed=31337, count=1000):
        expected = oracle_occurrences(tree)
        actual = {
            id(occ.node): (occ.position.value, occ.context.value)
            for occ in extract_np_occurrences(tree)
        }
        if actual != expected:
            disagreements += 1
    assert disagreements == 0


@criterion(6, "late-closure matches are sound and comma insertion removes them")
def test_criterion_6_late_closure_soundness(fixture_corpus):
    matches_checked = 0
    for file_id, tree in fixture_pairs(fixture_corpus):
        for match in find_late_closure_configs(tree, file_id, 0):
            matches_checked += 1
            assert late_closure_match_is_sound(tree, match)
            commaed = with_comma_after(tree, match.final_verb)
            surviving = find_late_closure_configs(commaed, file_id, 0)
            assert all(m.span.start != match.span.start for m in surviving)
    assert matches_checked == 2  # both planted configurations were exercised


@criterion(7, "classifier: 100% on 40-NP fixture, identical across 10 parallel runs")
def test_criterion_7_classifier_fixture_and_determinism():
    expected = [category for _, category in HAND_LABELED_40]
    assert [classify_string(source) for source, _ in HAND_LABELED_40] == expected

    def classify_all_40(_):
        return [classify_string(source) for source, _ in HAND_LABELED_40]

    with ThreadPoolExecutor(max_workers=10) as pool:
        runs = list(pool.map(classify_all_40, range(10)))
    assert all(run == expected for run in runs)


@criterion(8, "4-way split aggregation merges to the single-pass result, cell-exact")
def test_criterion_8_split_merge_equivalence(fixture_corpus):
    trees = [tree for _, tree in fixture_pairs(fixture_corpus)]
    single = aggregate(trees)
    partitions = [
        [trees[0:3], trees[3:6], trees[6:8], trees[8:10]],       # contiguous
        [trees[i::4] for i in range(4)],                         # round-robin
        [trees[:1], trees[1:2], [], trees[2:]],                  # skewed + empty
    ]
    for parts in partitions:
        combined = AggregateCounts()
        for part in parts:
            combined = merge(combined, aggregate(part))
        assert combined.cells == single.cells
        assert combined.total() == single.total()


@criterion(9, "non-reproducibility documented; full pipeline <1s on smoke corpus")
def test_criterion_9_documentation_and_smoke(smoke_corpus):
    text = README.read_text(encoding="utf-8")
    assert "does not claim to regenerate" in text
    assert "licensed" in text

    start = time.perf_counter()
    source = CorpusSource(smoke_corpus)
    agg = aggregate(tree for _, tree in sentence_pairs(source))
    rendered = Table1Report(
        blocks=(Table1Block.from_aggregate(agg, label="smoke"),)
    ).render(ReportFormat.ALIGNED_TEXT)
    result = chi_square_2x2(build_pronoun_indefinite_table(agg))
    closures = [
        match
        for file_id, tree in sentence_pairs(source)
        for match in find_late_closure_configs(tree, file_id, 0)
    ]
    for match in closures:
        classify_np(match.critical_np)
    elapsed = time.perf_counter() - start

    assert agg.sentences_processed == 200
    assert rendered.startswith("smoke")
    assert result.degrees_of_freedom == 1
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"
