"""Plain-text table formatting for benchmark output.

The benchmark harness prints the same rows/series the paper plots; these
helpers keep that output aligned and dependency-free.
"""

from __future__ import annotations

from collections.abc import Sequence


def format_cell(value: object) -> str:
    """Render one table cell: floats get 3 significant decimals."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 100:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned plain-text table.

    >>> print(format_table(["a", "b"], [[1, 2.5]]))
    a | b
    --+------
    1 | 2.500
    """
    cells = [[format_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for column, value in enumerate(row):
            widths[column] = max(widths[column], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
