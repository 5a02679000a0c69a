"""Rendering of benchmark results as ASCII tables."""

from __future__ import annotations

from dataclasses import astuple
from typing import Sequence

from repro.bench.tables import Table1Row


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain fixed-width ASCII table."""
    table = [list(headers), *([str(cell) for cell in row] for row in rows)]
    widths = [max(len(row[k]) for row in table) for k in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_table1(rows: Sequence[Table1Row]) -> str:
    return render_table(
        ["Name", "Description", "Data Structure", "Problem Size", "Metric"],
        [astuple(row) for row in rows],
    )


def _fmt(value: object) -> str:
    if not isinstance(value, float):
        return str(value)
    if value >= 1e6:
        return f"{value:.4g}"
    if value >= 100:
        return f"{value:.1f}"
    return f"{value:.3g}"


def render_rows(title: str, rows: dict[str, dict], corner: str = "") -> str:
    """A dict of labelled rows as a table, one column per value key."""
    columns = list(dict.fromkeys(key for row in rows.values() for key in row))
    cells = [
        [label, *(_fmt(row.get(key, "")) for key in columns)]
        for label, row in rows.items()
    ]
    return f"{title}\n{render_table([corner, *columns], cells)}"
