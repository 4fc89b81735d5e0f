"""Experiment report container shared by all table/figure reproductions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..metrics.tables import format_markdown_table, format_table

__all__ = ["ExperimentReport"]


@dataclass
class ExperimentReport:
    """Rows + rendered output for one paper table or figure."""

    experiment_id: str  # e.g. "Table 2", "Figure 6"
    title: str
    headers: Sequence[str]
    rows: list[Sequence] = field(default_factory=list)
    figures: list[str] = field(default_factory=list)  # ASCII-rendered charts
    #: name -> standalone SVG document (written next to the .md by ``--out``)
    svgs: "dict[str, str]" = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: the paper's own numbers for side-by-side comparison, same headers
    paper_rows: list[Sequence] = field(default_factory=list)
    #: (statement, held on this run) — the paper's shape claims; kept out
    #: of the markdown and the text rendering, printed by the CLI
    claims: "list[tuple[str, bool]]" = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append(tuple(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def claim(self, text: str, holds) -> None:
        """Record whether one of the paper's claims holds on this run."""
        self.claims.append((text, bool(holds)))

    def table(self) -> str:
        return format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")

    def markdown(self) -> str:
        parts = [format_markdown_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")]
        if self.paper_rows:
            parts.append(
                format_markdown_table(self.headers, self.paper_rows, title=f"{self.experiment_id} (paper)")
            )
        for note in self.notes:
            parts.append(f"> {note}")
        return "\n\n".join(parts)

    def render(self) -> str:
        """Full plain-text rendering: table, figures, notes."""
        parts = [self.table()]
        parts.extend(self.figures)
        if self.paper_rows:
            parts.append(format_table(self.headers, self.paper_rows, title=f"{self.experiment_id} (paper reported)"))
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n\n".join(parts)
