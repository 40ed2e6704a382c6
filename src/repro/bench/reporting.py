"""Plain-text reporting: fixed-width tables and time-series strips.

Benches print the same rows/series the paper reports; these helpers keep
that output readable in a terminal and in captured pytest logs.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _render(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:,.0f}"
        if cell >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3g}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]],
                 title: str = "") -> str:
    """Render an aligned fixed-width table."""
    rendered: List[List[str]] = [[_render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in rendered:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """A one-line unicode sketch of a series' shape."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    low = min(values)
    high = max(values)
    span = (high - low) or 1.0
    return "".join(blocks[int((v - low) / span * (len(blocks) - 1))]
                   for v in values)
