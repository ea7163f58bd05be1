"""2x2 contingency tables and Pearson chi-square tests.

The statistic is the uncorrected Pearson form for a table (a, b / c, d):

    N * (a*d - b*c)**2 / ((a+b) * (c+d) * (a+c) * (b+d))

with the cross product computed in exact integer arithmetic, so corpus-scale
cell counts cannot overflow.  No continuity correction is applied.
Significance is reported as a band against the df=1 critical values.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

import npstat  # annotations name AggregateCounts through it, so they resolve

from .base import DegenerateInput, InputError, SlottedRecord
from .givenness import ClauseContext, GivennessCategory, GrammaticalPosition


class DegenerateMargin(DegenerateInput):
    """A row or column of the table sums to zero; the test is undefined."""


class SignificanceBand(Enum):
    P_LT_0_001 = "p<0.001"
    P_LT_0_01 = "p<0.01"
    P_LT_0_05 = "p<0.05"
    NOT_SIGNIFICANT = "not significant"


# df=1 critical values.
CRITICAL_VALUES = (
    (SignificanceBand.P_LT_0_001, 10.828),
    (SignificanceBand.P_LT_0_01, 6.635),
    (SignificanceBand.P_LT_0_05, 3.841),
)


class ContingencyTable2x2(SlottedRecord):
    """Counts laid out row 1 = (a, b), row 2 = (c, d).

    In the pronoun/indefinite cross-tabulations, row 1 is pronoun, row 2 is
    indefinite, column 1 is subject and column 2 is non-subject.
    """

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        for cell in (a, b, c, d):
            if cell < 0:
                raise InputError("cell counts must be non-negative")
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d

    def cells(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


class ChiSquareResult(NamedTuple):
    statistic: float
    degrees_of_freedom: int
    significance_band: SignificanceBand


def chi_square_2x2(table: ContingencyTable2x2) -> ChiSquareResult:
    """Uncorrected Pearson chi-square for a 2x2 table, df=1.  A zero margin
    raises :class:`DegenerateMargin`, and a statistic too large for a float
    raises :class:`InputError`."""
    a, b, c, d = table.cells()
    row1, row2, col1, col2 = a + b, c + d, a + c, b + d
    if min(row1, row2, col1, col2) == 0:
        raise DegenerateMargin(
            f"table {table.cells()} has a zero row or column sum")
    numerator = table.total * (a * d - b * c) ** 2
    try:
        statistic = numerator / (row1 * row2 * col1 * col2)
    except OverflowError:
        raise InputError(
            f"table {table.cells()} gives a statistic too large for a float") from None
    band = SignificanceBand.NOT_SIGNIFICANT
    for candidate, threshold in CRITICAL_VALUES:
        if statistic >= threshold:
            band = candidate
            break
    return ChiSquareResult(statistic=statistic, degrees_of_freedom=1,
                           significance_band=band)


def build_pronoun_indefinite_table(
    aggregate: npstat.AggregateCounts,
    context_filter: Iterable[ClauseContext] | None = None,
) -> ContingencyTable2x2:
    """Cross-tabulate pronoun/indefinite against subject/non-subject.

    Cells are summed over the given clause contexts (default, ``None``: all
    four): a = pronoun subjects, b = pronoun non-subjects, c = indefinite
    subjects, d = indefinite non-subjects.
    """
    contexts = set(ClauseContext if context_filter is None else context_filter)

    def cell(category: GivennessCategory, position: GrammaticalPosition) -> int:
        return sum(aggregate.cell(category, position, ctx) for ctx in contexts)

    return ContingencyTable2x2(
        a=cell(GivennessCategory.PRONOUN, GrammaticalPosition.SUBJECT),
        b=cell(GivennessCategory.PRONOUN, GrammaticalPosition.NON_SUBJECT),
        c=cell(GivennessCategory.INDEFINITE, GrammaticalPosition.SUBJECT),
        d=cell(GivennessCategory.INDEFINITE, GrammaticalPosition.NON_SUBJECT),
    )
