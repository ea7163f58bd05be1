"""The frequency-table report: givenness category x grammatical position x
clause context.  A :class:`Table1Block` holds a corpus's 36 base counts, and
:meth:`Table1Block.rows` derives the TC+RC columns and the total row from
them when :class:`Table1Report` renders in any of the three formats of
:mod:`npstat.render`.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .base import InputError, ReportFormat
from .givenness import ClauseContext, GivennessCategory, GrammaticalPosition
from .render import Cell, render_rows

if TYPE_CHECKING:
    from .corpus import AggregateCounts

# Frequency table: within each position group the TC and RC columns come
# before their derived sum and the matrix column, and subjects precede
# non-subjects; --from-counts feeding and the tests both rely on this order.
TABLE1_COLUMNS = (
    "givenness",
    "subj_tc",
    "subj_rc",
    "subj_tc_rc",
    "subj_matrix",
    "nonsubj_tc",
    "nonsubj_rc",
    "nonsubj_tc_rc",
    "nonsubj_matrix",
)

# Per-category base cells accepted by from_counts, in feed order.
BASE_CELLS = tuple(
    (pos, ctx)
    for pos in (GrammaticalPosition.SUBJECT, GrammaticalPosition.NON_SUBJECT)
    for ctx in (ClauseContext.EMBEDDED_TC, ClauseContext.EMBEDDED_RC, ClauseContext.MATRIX)
)


class Table1Block(NamedTuple):
    """One corpus's frequency table: ``cells`` holds six base counts per
    givenness category, in declaration order, each six in ``BASE_CELLS``
    order.  TC+RC and the total row are derived, never stored."""

    label: str
    cells: tuple[int, ...]

    def rows(self) -> list[list[Cell]]:
        """The printed rows: one per category, then the total row."""
        rows: list[list[Cell]] = []
        for i, cat in enumerate(GivennessCategory):
            s_tc, s_rc, s_matrix, n_tc, n_rc, n_matrix = self.cells[6 * i: 6 * i + 6]
            rows.append([cat.value, s_tc, s_rc, s_tc + s_rc, s_matrix,
                         n_tc, n_rc, n_tc + n_rc, n_matrix])
        rows.append(["total", *map(sum, zip(*(row[1:] for row in rows)))])
        return rows

    @classmethod
    def from_aggregate(cls, agg: AggregateCounts, label: str = "corpus") -> "Table1Block":
        return cls(label, tuple(agg.cell(cat, pos, ctx)
                                for cat in GivennessCategory for pos, ctx in BASE_CELLS))

    @classmethod
    def from_counts(cls, values: Sequence[int], label: str = "counts") -> "Table1Block":
        """Build from 36 integers: one six-number group per givenness category
        in declaration order; within each group subj TC, subj RC, subj matrix,
        nonsubj TC, nonsubj RC, nonsubj matrix.  TC+RC and totals are derived.
        A printed cell with more digits than the interpreter converts to a
        string (``sys.get_int_max_str_digits()``) raises InputError.
        """
        if len(values) != 36:
            raise InputError(f"expected 36 counts (6 categories x 6 cells), got {len(values)}")
        if any(v < 0 for v in values):
            raise InputError("counts must be non-negative")
        block = cls(label, tuple(values))
        # 0 is no limit; an interpreter before 3.10.7 has none either.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        # With no negative count, the total row is each column's largest cell.
        if limit and max(block.rows()[-1][1:]) >= 10 ** limit:
            raise InputError(f"a printed count would have more than {limit} digits, "
                             "the interpreter's limit for integer string conversion")
        return block


class Table1Report(NamedTuple):
    blocks: tuple[Table1Block, ...]

    def render(self, fmt: ReportFormat) -> str:
        chunks = []
        for block in self.blocks:
            if fmt is ReportFormat.STRUCTURED_RECORDS:
                chunks.append(render_rows(("corpus", *TABLE1_COLUMNS),
                                          [[block.label, *row] for row in block.rows()],
                                          fmt, "table1-row"))
            else:
                body = render_rows(TABLE1_COLUMNS, block.rows(), fmt, "table1-row")
                chunks.append(f"{block.label}\n{body}")
        return "\n\n".join(chunks)
