"""Plain-text tables, series and banners.

The command-line reports (``python -m repro.perf report`` among them)
and the monitor's text export print with these helpers.
The module imports nothing of the package, so a module that prints a
table does not load the performance rail.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["banner", "format_table", "format_series", "ratio"]


def banner(title: str, width: int = 78) -> str:
    """A section banner used at the top of each report."""
    bar = "=" * width
    return f"{bar}\n{title}\n{bar}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None, floatfmt: str = "10.1f") -> str:
    """Fixed-width table; floats formatted with ``floatfmt``."""
    str_rows: List[List[str]] = []
    for row in rows:
        out = []
        for v in row:
            if isinstance(v, float):
                out.append(format(v, floatfmt).strip())
            else:
                out.append(str(v))
        str_rows.append(out)
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) if _numeric(cell)
                               else cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def format_series(name: str, points: Sequence[Tuple[object, float]],
                  xlabel: str = "x", ylabel: str = "y",
                  floatfmt: str = ".3f") -> str:
    """A labelled x/y series (one figure line) as two aligned columns."""
    lines = [f"{name}  ({xlabel} -> {ylabel})"]
    for x, y in points:
        lines.append(f"  {str(x):>8s}  {format(y, floatfmt)}")
    return "\n".join(lines)


def ratio(a: float, b: float) -> float:
    """Safe ratio for speedup columns (NaN when the base is zero)."""
    return a / b if b else float("nan")
