"""Frequency-table blocks and the row renderer they print through."""

import random

import pytest

import npstat
from npstat.base import InputError, ReportFormat
from npstat.corpus import AggregateCounts
from npstat.givenness import GivennessCategory
from npstat.render import render_rows
from npstat.report import BASE_CELLS, TABLE1_COLUMNS, Table1Block

from refvalues import BROWN_TABLE1, BROWN_TOTAL_ROW, from_counts_args


class TestTable1Block:
    @pytest.mark.parametrize("count", [0, 35, 37])
    def test_from_counts_needs_36_counts(self, count):
        with pytest.raises(InputError, match=f"expected 36 counts .*, got {count}$"):
            Table1Block.from_counts([1] * count)

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
