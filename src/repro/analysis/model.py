"""The shared tabular model behind every rendered result artifact.

A :class:`Table` is the renderer-independent form of one paper table or
figure series: a title, a header row and string cell rows.  The
``tabulate_*`` functions in :mod:`repro.analysis.tables` and
:mod:`repro.analysis.figures` reduce experiment payloads to this model
once, and every output format renders from it:

* ``to_text()``     — the fixed-width terminal/``results/*.txt`` form,
* ``to_markdown()`` — a GitHub-flavored pipe table for report documents,
* ``to_latex()``    — a LaTeX ``tabular`` block ready to paste into a
  paper draft.

All three renderings are deterministic: the same payload always produces
the same bytes, which is what lets report artifacts be diffed, committed
and golden-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

#: Characters that LaTeX treats specially in text mode, with their
#: escaped forms.  Backslash is handled first by the escaper itself.
_LATEX_ESCAPES = {
    "&": r"\&",
    "%": r"\%",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
}


def latex_escape(text: str) -> str:
    """Escape a cell for LaTeX text mode."""
    out = text.replace("\\", r"\textbackslash{}")
    for char, escaped in _LATEX_ESCAPES.items():
        out = out.replace(char, escaped)
    return out


@dataclass(frozen=True)
class Table:
    """One renderer-independent table: title, headers and string rows."""

    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    title: str = ""

    @classmethod
    def build(
        cls,
        headers: Sequence[str],
        rows: Sequence[Sequence[object]],
        title: str = "",
    ) -> "Table":
        """Normalize arbitrary cell values into a string-celled table."""
        return cls(
            headers=tuple(str(header) for header in headers),
            rows=tuple(tuple(str(cell) for cell in row) for row in rows),
            title=title,
        )

    def _widths(self) -> list[int]:
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def to_text(self) -> str:
        """Fixed-width text rendering (the historical ``format_table``)."""
        widths = self._widths()
        columns = len(self.headers)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(
            " | ".join(self.headers[i].ljust(widths[i]) for i in range(columns))
        )
        lines.append("-+-".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(columns)))
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavored pipe table (no title; callers emit headings)."""

        def clean(cell: str) -> str:
            return cell.replace("|", "\\|")

        lines = [
            "| " + " | ".join(clean(header) for header in self.headers) + " |",
            "|" + "|".join("---" for _ in self.headers) + "|",
        ]
        for row in self.rows:
            lines.append("| " + " | ".join(clean(cell) for cell in row) + " |")
        return "\n".join(lines)

    def to_latex(self) -> str:
        """LaTeX ``tabular`` block with an escaped caption comment."""
        columns = "l" * len(self.headers)
        lines = []
        if self.title:
            lines.append(f"% {self.title}")
        lines.append(f"\\begin{{tabular}}{{{columns}}}")
        lines.append(
            "  " + " & ".join(latex_escape(h) for h in self.headers) + " \\\\"
        )
        lines.append("  \\hline")
        for row in self.rows:
            lines.append(
                "  " + " & ".join(latex_escape(cell) for cell in row) + " \\\\"
            )
        lines.append("\\end{tabular}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Series:
    """One named numeric series for plotting (paired with x labels)."""

    name: str
    values: tuple = ()


@dataclass(frozen=True)
class Chart:
    """Renderer-independent chart data: x labels plus named series.

    ``kind`` is a hint for the plot backend (``"line"`` or ``"bar"``);
    values may contain ``None`` for missing points (skipped by plots).
    """

    title: str
    x_labels: tuple[str, ...]
    series: tuple[Series, ...]
    kind: str = "line"
    y_label: str = ""

    @classmethod
    def build(
        cls,
        title: str,
        x_labels: Sequence[object],
        series: dict,
        kind: str = "line",
        y_label: str = "",
    ) -> "Chart":
        return cls(
            title=title,
            x_labels=tuple(str(label) for label in x_labels),
            series=tuple(
                Series(name=str(name), values=tuple(values))
                for name, values in series.items()
            ),
            kind=kind,
            y_label=y_label,
        )


__all__ = ["Chart", "Series", "Table", "latex_escape"]
