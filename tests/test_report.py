"""Frequency-table blocks and the row renderer they print through."""

import random
import sys

import pytest

import npstat
from npstat.base import InputError, ReportFormat
from npstat.corpus import AggregateCounts
from npstat.givenness import GivennessCategory
from npstat.render import render_rows
from npstat.report import BASE_CELLS, TABLE1_COLUMNS, Table1Block, Table1Report

from refvalues import BROWN_TABLE1, BROWN_TOTAL_ROW, from_counts_args


class TestTable1Block:
    @pytest.mark.parametrize("count", [0, 35, 37])
    def test_from_counts_needs_36_counts(self, count):
        with pytest.raises(InputError, match=f"expected 36 counts .*, got {count}$"):
            Table1Block.from_counts([1] * count)

    @pytest.mark.parametrize("subj_rc, prints", [(1, True), (2, False)])
    def test_from_counts_checks_the_printed_digits(self, set_int_max_str_digits, subj_rc,
                                                   prints):
        # subj TC + subj RC is 10**4300 - 1 (4,300 nines) or 10**4300 (4,301 digits).
        set_int_max_str_digits(4300)
        counts = [10**4300 - 2, subj_rc, *[0] * 34]
        if prints:
            block = Table1Block.from_counts(counts)
            tsv = Table1Report(blocks=(block,)).render(ReportFormat.TAB_SEPARATED)
            assert tsv.splitlines()[-1].split("\t")[3] == "9" * 4300
        else:
            with pytest.raises(InputError, match="more than 4300 digits"):
                Table1Block.from_counts(counts)

    @pytest.mark.parametrize("no_limit", ["zero", "no such function"])
    def test_from_counts_with_no_digit_limit(self, monkeypatch, set_int_max_str_digits,
                                             no_limit):
        if no_limit == "zero":
            set_int_max_str_digits(0)
        else:  # CPython before 3.10.7
            set_int_max_str_digits(4300)
            monkeypatch.delattr(sys, "get_int_max_str_digits")
        block = Table1Block.from_counts([10**5000, 10**5000, *[0] * 34])
        assert block.rows()[-1][3] == 2 * 10**5000

    def test_rows_derive_tc_rc_and_total(self):
        block = Table1Block.from_counts([int(v) for v in from_counts_args(BROWN_TABLE1)])
        rows = block.rows()
        assert [row[0] for row in rows] == [*(cat.value for cat in GivennessCategory), "total"]
        for row, (s_tc, s_rc, s_matrix, n_tc, n_rc, n_matrix) in zip(
                rows, BROWN_TABLE1.values()):
            assert row[1:] == [s_tc, s_rc, s_tc + s_rc, s_matrix,
                               n_tc, n_rc, n_tc + n_rc, n_matrix]
        assert tuple(rows[-1][1:]) == BROWN_TOTAL_ROW
        assert all(len(row) == len(TABLE1_COLUMNS) for row in rows)

    def test_from_aggregate_holds_the_base_cells_in_feed_order(self):
        rng = random.Random(3)
        agg = AggregateCounts()
        for key in agg.cells:
            agg.cells[key] = rng.randrange(0, 100)
        block = Table1Block.from_aggregate(agg, label="x")
        assert block == ("x", tuple(agg.cell(cat, pos, ctx) for cat in GivennessCategory
                                    for pos, ctx in BASE_CELLS))

    def test_row_type_is_gone(self):
        assert "Table1Row" not in npstat.__all__
        assert not hasattr(npstat.report, "Table1Row")


@pytest.mark.parametrize("row", [["a"], ["a", 1, 2]])
def test_render_rows_rejects_a_row_of_the_wrong_length(row):
    with pytest.raises(ValueError, match=f"row has {len(row)} cells, expected 2"):
        render_rows(("name", "count"), [["b", 0], row], ReportFormat.ALIGNED_TEXT, "r")
