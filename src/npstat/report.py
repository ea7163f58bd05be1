"""The frequency-table report: givenness category x grammatical position x
clause context, with its derived TC+RC and total rows, rendered in any of
the three formats of :mod:`npstat.render`.

:func:`render_rows`, :func:`parse_records` and ``Cell`` live in
:mod:`npstat.render` and are importable from here too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .givenness import ClauseContext, GivennessCategory, GrammaticalPosition
from .render import Cell, parse_records, render_rows
from .treebank import InputError, ReportFormat

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


class Table1Row(NamedTuple):
    """One category's base counts; TC+RC is always derived, never stored."""

    subj_tc: int
    subj_rc: int
    subj_matrix: int
    nonsubj_tc: int
    nonsubj_rc: int
    nonsubj_matrix: int

    def rendered(self) -> tuple[int, ...]:
        return (
            self.subj_tc,
            self.subj_rc,
            self.subj_tc + self.subj_rc,
            self.subj_matrix,
            self.nonsubj_tc,
            self.nonsubj_rc,
            self.nonsubj_tc + self.nonsubj_rc,
            self.nonsubj_matrix,
        )


class Table1Block(NamedTuple):
    """One corpus's frequency table: six category rows plus a total row."""

    label: str
    rows: dict[GivennessCategory, Table1Row]

    def total_row(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*(row.rendered() for row in self.rows.values()))))

    @classmethod
    def from_aggregate(cls, agg: AggregateCounts, label: str = "corpus") -> "Table1Block":
        rows = {
            cat: Table1Row(*(agg.cell(cat, pos, ctx) for pos, ctx in BASE_CELLS))
            for cat in GivennessCategory
        }
        return cls(label=label, rows=rows)

    @classmethod
    def from_counts(cls, values: Sequence[int], label: str = "counts") -> "Table1Block":
        """Build from 36 integers: one six-number group per givenness category
        in declaration order; within each group subj TC, subj RC, subj matrix,
        nonsubj TC, nonsubj RC, nonsubj matrix.  TC+RC and totals are derived.
        """
        if len(values) != 36:
            raise InputError(f"expected 36 counts (6 categories x 6 cells), got {len(values)}")
        if any(v < 0 for v in values):
            raise InputError("counts must be non-negative")
        rows = {}
        for i, cat in enumerate(GivennessCategory):
            rows[cat] = Table1Row(*values[6 * i: 6 * i + 6])
        return cls(label=label, rows=rows)


class Table1Report(NamedTuple):
    blocks: tuple[Table1Block, ...]

    def render(self, fmt: ReportFormat) -> str:
        chunks = []
        for block in self.blocks:
            rows: list[list[Cell]] = [
                [cat.value, *block.rows[cat].rendered()] for cat in GivennessCategory
            ]
            rows.append(["total", *block.total_row()])
            if fmt is ReportFormat.STRUCTURED_RECORDS:
                body = render_rows(
                    ("corpus", *TABLE1_COLUMNS),
                    [[block.label, *row] for row in rows],
                    fmt,
                    "table1-row",
                )
                chunks.append(body)
            else:
                body = render_rows(TABLE1_COLUMNS, rows, fmt, "table1-row")
                chunks.append(f"{block.label}\n{body}")
        return "\n\n".join(chunks)
