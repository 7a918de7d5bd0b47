"""Plain-text table rendering for experiment results."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

Value = Union[float, int, str]


def format_table(
    columns: Sequence[str],
    rows: Mapping[str, Mapping[str, Value]],
    row_header: str = "",
    precision: int = 3,
) -> str:
    """Render ``rows`` (label -> column -> value) as an aligned table.

    Missing cells render as ``-``; floats use ``precision`` digits.
    """

    def fmt(value: Optional[Value]) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    header = [row_header] + list(columns)
    body: List[List[str]] = []
    for label, cells in rows.items():
        body.append([str(label)] + [fmt(cells.get(c)) for c in columns])

    widths = [
        max(len(row[i]) for row in [header] + body) for i in range(len(header))
    ]

    def line(cells: Sequence[str]) -> str:
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join([first] + rest)

    separator = "  ".join("-" * w for w in widths)
    return "\n".join([line(header), separator] + [line(r) for r in body])
