"""ASCII table rendering for the experiment harness.

Every benchmark and CLI report prints a table in the same format, so tables
from different runs can be compared and collected mechanically: a title line,
a header row, aligned columns, and an optional notes block tying the measured
columns back to the paper's bound.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

__all__ = ["format_table", "format_cell", "ExperimentTable"]

Cell = Union[str, int, float, None]


def format_cell(value: Cell) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    rendered_rows = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.rjust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(render_row(row))
    return "\n".join(lines)


class ExperimentTable:
    """Accumulate rows for one experiment and render / print them."""

    def __init__(self, experiment_id: str, title: str, headers: Sequence[str]) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[Cell]] = []
        self.notes: List[str] = []

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells but the table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        text = format_table(self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            text += "\n" + "\n".join(f"  note: {note}" for note in self.notes)
        return text

    def print(self) -> None:  # pragma: no cover - console side effect
        print()
        print(self.render())
        print()
