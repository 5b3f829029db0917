"""Text rendering of paper-style tables, CDFs, and series for the benches.

Benches print the same rows and series the paper reports; these helpers
keep the formatting consistent and terminal-friendly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.cdf import ECDF


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """A fixed-width table with a header rule.

    Floats are rendered with three significant decimals; everything else
    via ``str``.
    """
    rendered_rows = [
        [_format_cell(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def render_cdf(
    name: str,
    values: Iterable[float],
    grid: Sequence[float] | None = None,
    points: int = 10,
) -> str:
    """A text CDF: (x, F(x)) rows over a grid.

    Args:
        name: Series label.
        values: The sample.
        grid: Explicit x grid; an evenly spaced min..max grid of
            ``points`` values when None.
        points: Grid size when auto-generating.
    """
    values = [float(v) for v in values]
    ecdf = ECDF(values)
    if grid is None:
        lo, hi = min(values), max(values)
        if hi == lo:
            grid = [lo]
        else:
            step = (hi - lo) / (points - 1)
            grid = [lo + i * step for i in range(points)]
    rows = [(f"{x:.2f}", f"{ecdf(x):.3f}") for x in grid]
    return render_table(["x", "F(x)"], rows, title=f"CDF: {name} (n={ecdf.n})")


def render_series(
    name: str, pairs: Iterable[tuple[object, object]], x_label: str = "x", y_label: str = "y"
) -> str:
    """A two-column series table."""
    return render_table([x_label, y_label], pairs, title=name)
