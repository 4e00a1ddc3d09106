"""Result containers: the ASCII table, the multi-part report, and the
canonical JSON serializer for result documents."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union


@dataclass
class Table:
    """Column-aligned text table with a title."""

    title: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        head = " | ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        sep = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            for row in self.rows
        ]
        return "\n".join([f"== {self.title} ==", head, sep] + body)

    def to_csv(self) -> str:
        out = [",".join(self.columns)]
        out += [",".join(r) for r in self.rows]
        return "\n".join(out) + "\n"


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)


@dataclass
class Report:
    """An experiment result with more than one table, or with a verdict.

    ``tables`` holds :class:`Table` objects and preformatted text blocks,
    rendered in order.  ``doc`` is the JSON document ``omx-repro`` writes
    to ``results/<experiment>.json``; ``traces`` maps file names to
    Perfetto documents written under ``--trace DIR``; ``ok`` false makes
    ``omx-repro`` exit 1.
    """

    tables: list[Union[Table, str]]
    doc: Optional[dict] = None
    ok: bool = True
    traces: dict[str, dict] = field(default_factory=dict)

    def render(self) -> str:
        return "\n\n".join(t if isinstance(t, str) else t.render()
                           for t in self.tables)

    def to_csv(self) -> str:
        return "\n".join(t.to_csv() for t in self.tables if isinstance(t, Table))


def report_json(report: dict) -> str:
    """Canonical byte-stable serialization (the determinism contract)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> Path:
    """Write a result document as :func:`report_json`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report_json(report))
    return path
