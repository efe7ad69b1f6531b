"""ASCII table rendering for the benchmark harnesses.

Every bench prints its table in the paper's layout, with the paper's
reference values alongside the measured ones so the shape comparison
(who wins, roughly by how much) is visible at a glance.
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "", float_format: str = "{:.4f}") -> str:
    """Render rows as a boxed, column-aligned ASCII table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append("—" if cell != cell else float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    separator = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    parts = []
    if title:
        parts.append(title)
    parts.extend([separator, line(headers), separator])
    parts.extend(line(row) for row in rendered_rows)
    parts.append(separator)
    return "\n".join(parts)


def percent(value: float) -> str:
    """Format a [0,1] accuracy as the paper's percent style."""
    if value != value:  # NaN
        return "—"
    return f"{100.0 * value:.2f}%"
