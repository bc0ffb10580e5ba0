"""ASCII table rendering for the benchmark harness.

Every experiment prints its rows through :func:`render_table`, so the
bench output reads like the tables/figures the paper would have had.
"""

from __future__ import annotations

from collections.abc import Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: str | None = None,
) -> str:
    """Render a fixed-width table with a title rule."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def fmt(row: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(row, widths))

    rule = "-+-".join("-" * width for width in widths)
    lines = [f"== {title} ==", fmt(cells[0]), rule]
    lines.extend(fmt(row) for row in cells[1:])
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)

