"""Plain-text table rendering for the CLI, the suite report (cell
summaries and claim verdicts) and the bench gates; this module keeps
the formatting in one place.
"""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width table with a rule under the header."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_render(x) for x in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        cells[0][c].ljust(widths[c]) for c in range(len(headers)))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(
            row[c].rjust(widths[c]) for c in range(len(headers))))
    return "\n".join(lines)


def _render(x: object) -> str:
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            return str(x)
        return f"{x:.3g}" if abs(x) < 1000 else f"{x:.0f}"
    return str(x)


def format_records(records: Sequence[object],
                   columns: Sequence[str],
                   title: str = "") -> str:
    """Table from uniform mappings/objects, one row per record.

    ``records`` may be mappings or attribute-bearing objects (e.g.
    :class:`~repro.runtime.results.CellResult` metrics dicts or
    dataclasses); missing fields render as ``-``.
    """
    def fetch(record: object, column: str) -> object:
        if isinstance(record, dict):
            return record.get(column, "-")
        return getattr(record, column, "-")

    rows = [[fetch(record, column) for column in columns]
            for record in records]
    return format_table(columns, rows, title=title)
