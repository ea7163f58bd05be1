"""Row rendering shared by every command.

Three output formats, selectable everywhere:

* aligned text   — fixed-width columns for terminals,
* tab-separated  — header line plus one row per line,
* records        — line-delimited JSON objects with a ``record`` type field,
  parseable back via :func:`parse_records` without loss.

Also the percentage helper that the adverbial rows use.  Nothing here knows
the frequency table (:mod:`npstat.report`) or the chi-square statistics
(:mod:`npstat.stats`), so a command that prints only rows loads neither.
"""

from __future__ import annotations

from typing import Sequence

from .treebank import DegenerateInput, ReportFormat

Cell = object  # str | int | float in practice


def _format_cell(value: Cell) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_rows(
    columns: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    fmt: ReportFormat,
    record_type: str,
) -> str:
    """Render a header plus rows in the requested format.

    ``record_type`` becomes the ``record`` field of every JSON line so mixed
    streams remain self-describing.
    """
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(columns)}: {row!r}"
            )
    if fmt is ReportFormat.STRUCTURED_RECORDS:
        import json

        lines = [
            json.dumps({"record": record_type, **dict(zip(columns, row))})
            for row in rows
        ]
        return "\n".join(lines)
    if fmt is ReportFormat.TAB_SEPARATED:
        lines = ["\t".join(columns)]
        lines += ["\t".join(_format_cell(c) for c in row) for row in rows]
        return "\n".join(lines)
    # Aligned text: numbers right-aligned, everything else left-aligned.
    text_rows = [[_format_cell(c) for c in row] for row in rows]
    widths = [
        max([len(columns[i])] + [len(r[i]) for r in text_rows])
        for i in range(len(columns))
    ]
    numeric = [
        all(isinstance(row[i], (int, float)) for row in rows) if rows else False
        for i in range(len(columns))
    ]

    def align(cells: Sequence[str]) -> str:
        out = []
        for i, cell in enumerate(cells):
            out.append(cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i]))
        return "  ".join(out).rstrip()

    lines = [align(columns), align(["-" * w for w in widths])]
    lines += [align(r) for r in text_rows]
    return "\n".join(lines)


def parse_records(text: str) -> list[dict]:
    """Inverse of the records format: one dict per non-blank line."""
    import json

    return [json.loads(line) for line in text.splitlines() if line.strip()]


class ZeroDenominator(ZeroDivisionError, DegenerateInput):
    pass


def ratio_report(numerator: int, denominator: int) -> float:
    """Percentage 100*numerator/denominator, rounded half-up to 2 decimals.

    A tie rounds away from zero, and a negative share that rounds to zero
    is ``-0.0``.  The rounding is exact: it is done on integers.
    """
    if denominator <= 0:
        raise ZeroDenominator("denominator must be positive")
    # Hundredths of a percent: floor(10000*|numerator|/denominator + 1/2).
    hundredths = (20000 * abs(numerator) + denominator) // (2 * denominator)
    share = hundredths / 100
    return -share if numerator < 0 else share
