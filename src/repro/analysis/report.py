"""Plain-text table rendering for benchmark output.

The benchmark harness prints paper-style tables (one per experiment);
this module keeps the formatting in one place so every table looks alike.
"""

from __future__ import annotations

import typing


def fmt(value, precision: int = 3) -> str:
    """Render one cell: floats get fixed precision, the rest ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def audit_verdict(report) -> str:
    """The closing line for an :class:`~repro.analysis.AnomalyReport`:
    ``audit: clean``, or what failed — violations found and, for a
    streaming run, reads its window dropped without checking."""
    if report.clean:
        return "audit: clean"
    found = report.fractured_reads + report.snapshot_mismatches
    line = f"AUDIT FAILED: {found} violations"
    if report.violations:
        line += f", e.g. {report.violations[0]}"
    if report.reads_skipped:
        line += f"; {report.reads_skipped} reads dropped unchecked"
    return line


class Table:
    """A fixed-width text table with a title and aligned columns."""

    def __init__(self, title: str, columns: typing.Sequence[str],
                 precision: int = 3):
        self.title = title
        self.columns = list(columns)
        self.precision = precision
        self.rows: typing.List[typing.List[str]] = []

    def add(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([fmt(cell, self.precision) for cell in cells])

    def render(self) -> str:
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            column.ljust(widths[index])
            for index, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(
                    cell.rjust(widths[index]) for index, cell in enumerate(row)
                )
            )
        return "\n".join(lines)

    def print(self) -> None:  # noqa: A003 - deliberate, reads naturally
        print()
        print(self.render())
        print()
