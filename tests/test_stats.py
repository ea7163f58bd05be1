"""Chi-square, significance banding and percentage tests."""

from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from npstat.corpus import AggregateCounts
from npstat.givenness import GivennessCategory
from npstat.queries import ClauseContext, GrammaticalPosition
from npstat.stats import (
    ContingencyTable2x2,
    DegenerateMargin,
    SignificanceBand,
    ZeroDenominator,
    build_pronoun_indefinite_table,
    chi_square_2x2,
    ratio_report,
)

from refvalues import (
    BROWN_TABLE1,
    CHI_SQUARE_CASES,
    CHI_SQUARE_TOLERANCE,
    PERCENTAGE_CASES,
    TABLE1_CATEGORY_ORDER,
)

BASE_CELLS = (
    (GrammaticalPosition.SUBJECT, ClauseContext.EMBEDDED_TC),
    (GrammaticalPosition.SUBJECT, ClauseContext.EMBEDDED_RC),
    (GrammaticalPosition.SUBJECT, ClauseContext.MATRIX),
    (GrammaticalPosition.NON_SUBJECT, ClauseContext.EMBEDDED_TC),
    (GrammaticalPosition.NON_SUBJECT, ClauseContext.EMBEDDED_RC),
    (GrammaticalPosition.NON_SUBJECT, ClauseContext.MATRIX),
)


def aggregate_from_reference(table: dict) -> AggregateCounts:
    agg = AggregateCounts()
    for name, values in table.items():
        category = GivennessCategory(name)
        for (position, context), value in zip(BASE_CELLS, values):
            agg.increment(category, position, context, by=value)
    return agg


class TestReferenceTables:
    @pytest.mark.parametrize("name", sorted(CHI_SQUARE_CASES))
    def test_statistic_within_tolerance(self, name):
        cells, expected = CHI_SQUARE_CASES[name]
        result = chi_square_2x2(ContingencyTable2x2(*cells))
        assert abs(result.statistic - expected) <= CHI_SQUARE_TOLERANCE
        assert result.degrees_of_freedom == 1
        assert result.significance_band is SignificanceBand.P_LT_0_001

    @pytest.mark.parametrize("name", sorted(CHI_SQUARE_CASES))
    def test_statistic_equals_exact_fraction(self, name):
        (a, b, c, d), _ = CHI_SQUARE_CASES[name]
        expected = Fraction(
            (a + b + c + d) * (a * d - b * c) ** 2,
            (a + b) * (c + d) * (a + c) * (b + d),
        )
        result = chi_square_2x2(ContingencyTable2x2(a, b, c, d))
        assert result.statistic == pytest.approx(float(expected), abs=1e-9)


class TestChiSquareProperties:
    def test_uniform_table_scores_zero(self):
        result = chi_square_2x2(ContingencyTable2x2(1, 1, 1, 1))
        assert result.statistic == 0.0
        assert result.significance_band is SignificanceBand.NOT_SIGNIFICANT

    def test_proportional_rows_score_zero(self):
        assert chi_square_2x2(ContingencyTable2x2(10, 20, 30, 60)).statistic == 0.0

    def test_row_swap_invariance(self):
        x = chi_square_2x2(ContingencyTable2x2(7580, 956, 4157, 5269)).statistic
        y = chi_square_2x2(ContingencyTable2x2(4157, 5269, 7580, 956)).statistic
        assert x == y

    def test_column_swap_invariance(self):
        x = chi_square_2x2(ContingencyTable2x2(773, 79, 617, 555)).statistic
        y = chi_square_2x2(ContingencyTable2x2(79, 773, 555, 617)).statistic
        assert x == y

    def test_transpose_invariance(self):
        x = chi_square_2x2(ContingencyTable2x2(1027, 134, 119, 344)).statistic
        y = chi_square_2x2(ContingencyTable2x2(1027, 119, 134, 344)).statistic
        assert x == y

    def test_perfect_association_scores_n(self):
        result = chi_square_2x2(ContingencyTable2x2(25, 0, 0, 75))
        assert result.statistic == pytest.approx(100.0)

    @pytest.mark.parametrize("cells,band", [
        ((12, 8, 8, 12), SignificanceBand.NOT_SIGNIFICANT),  # 1.6
        ((14, 6, 6, 14), SignificanceBand.P_LT_0_05),        # 6.4
        ((15, 5, 5, 15), SignificanceBand.P_LT_0_01),        # 10.0
        ((18, 2, 2, 18), SignificanceBand.P_LT_0_001),       # 25.6
    ])
    def test_band_assignment(self, cells, band):
        assert chi_square_2x2(ContingencyTable2x2(*cells)).significance_band is band

    @pytest.mark.parametrize("cells", [
        (0, 0, 5, 5),   # empty row
        (5, 5, 0, 0),
        (0, 5, 0, 5),   # empty column
        (5, 0, 5, 0),
    ])
    def test_degenerate_margins_rejected(self, cells):
        with pytest.raises(DegenerateMargin):
            chi_square_2x2(ContingencyTable2x2(*cells))

    def test_negative_cells_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable2x2(1, -1, 1, 1)

    def test_large_counts_do_not_overflow(self):
        big = 10**9
        result = chi_square_2x2(ContingencyTable2x2(big, 1, 1, big))
        assert result.statistic > 0


class TestPercentages:
    def test_reference_values_exact(self):
        for (numerator, denominator), expected in PERCENTAGE_CASES.items():
            assert ratio_report(numerator, denominator) == expected

    def test_rounding_is_half_up(self):
        assert ratio_report(1, 800) == 0.13   # 0.125 rounds up, not to even
        assert ratio_report(2, 3) == 66.67
        assert ratio_report(1, 3) == 33.33

    def test_whole_percentages(self):
        assert ratio_report(1, 4) == 25.0
        assert ratio_report(0, 7) == 0.0
        assert ratio_report(7, 7) == 100.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            ratio_report(5, 0)

    # Within these bounds the 28-digit Decimal quotient is far closer to the
    # exact one than any quotient that is not a tie is to a tie, so the
    # reference rounds the exact percentage.
    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    @example(-1, 100000)  # rounds to -0.0
    @example(-1, 800)     # a negative tie rounds away from zero
    @example(1, 800)
    @example(0, 1)
    def test_matches_decimal_half_up(self, numerator, denominator):
        share = Decimal(100) * Decimal(numerator) / Decimal(denominator)
        expected = float(share.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(ratio_report(numerator, denominator)) == repr(expected)


class TestPronounIndefiniteTable:
    def test_matrix_cells_from_reference_aggregate(self):
        agg = aggregate_from_reference(BROWN_TABLE1)
        table = build_pronoun_indefinite_table(agg, {ClauseContext.MATRIX})
        assert table.cells() == (7580, 956, 4157, 5269)

    def test_combined_complement_cells(self):
        agg = aggregate_from_reference(BROWN_TABLE1)
        table = build_pronoun_indefinite_table(
            agg, {ClauseContext.EMBEDDED_TC, ClauseContext.EMBEDDED_RC}
        )
        assert table.cells() == (1800, 213, 736, 899)

    def test_single_context_cells(self):
        agg = aggregate_from_reference(BROWN_TABLE1)
        tc = build_pronoun_indefinite_table(agg, {ClauseContext.EMBEDDED_TC})
        rc = build_pronoun_indefinite_table(agg, {ClauseContext.EMBEDDED_RC})
        assert tc.cells() == (773, 79, 617, 555)
        assert rc.cells() == (1027, 134, 119, 344)

    def test_reference_tables_reproduce_reference_statistics(self):
        agg = aggregate_from_reference(BROWN_TABLE1)
        for name, contexts in (
            ("matrix", {ClauseContext.MATRIX}),
            ("tc", {ClauseContext.EMBEDDED_TC}),
            ("rc", {ClauseContext.EMBEDDED_RC}),
            ("tc+rc", {ClauseContext.EMBEDDED_TC, ClauseContext.EMBEDDED_RC}),
        ):
            table = build_pronoun_indefinite_table(agg, contexts)
            _, expected = CHI_SQUARE_CASES[name]
            statistic = chi_square_2x2(table).statistic
            assert abs(statistic - expected) <= CHI_SQUARE_TOLERANCE

    def test_reference_table_order_matches_category_enum(self):
        assert tuple(TABLE1_CATEGORY_ORDER) == tuple(
            c.value for c in GivennessCategory
        )
