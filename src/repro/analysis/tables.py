"""Fixed-width ASCII table formatting.

The engine's CLI and the examples print the rows the paper reports; this
module renders them as aligned, monospace tables without any third-party
dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]],
                 float_format: str = ".4g",
                 title: Optional[str] = None) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Parameters
    ----------
    headers:
        Column titles.
    rows:
        Row values; each row must have as many entries as there are headers.
    float_format:
        Format specification applied to float cells.
    title:
        Optional title printed above the table.

    Returns
    -------
    str
        The rendered table (no trailing newline).

    Raises
    ------
    ValueError
        If a row's length does not match the header count.
    """
    headers = [str(h) for h in headers]
    formatted_rows: List[List[str]] = []
    for row in rows:
        row = list(row)
        if len(row) != len(headers):
            raise ValueError(
                f"Row {row!r} has {len(row)} cells, expected {len(headers)}")
        formatted_rows.append([_format_cell(cell, float_format) for cell in row])

    widths = [len(h) for h in headers]
    for row in formatted_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "-+-".join("-" * width for width in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append(separator)
    lines.extend(render_row(row) for row in formatted_rows)
    return "\n".join(lines)
