"""Workbook container: the reproduction's stand-in for Excel uploads.

The paper lists Excel among supported upload formats. Binary ``.xls``
parsing is out of scope for a from-scratch offline build, so we define an
equivalent *workbook* container — a JSON document holding multiple named
sheets, each with a header row and typed cells — which preserves exactly
the structure Symphony cares about (sheet selection, header mapping, typed
cells). See the substitution table in DESIGN.md.

Format::

    {
      "workbook": "<name>",
      "sheets": [
        {"name": "Inventory",
         "header": ["title", "price"],
         "rows": [["Halo", 49.99], ...]}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import IngestError, NotFoundError
from repro.ingest.readers import decode_text

__all__ = ["Worksheet", "Workbook", "parse_workbook"]


@dataclass(frozen=True)
class Worksheet:
    name: str
    header: tuple
    rows: tuple

    def to_records(self) -> list[dict]:
        out = []
        for i, row in enumerate(self.rows, start=1):
            if len(row) != len(self.header):
                raise IngestError(
                    f"sheet {self.name!r} row {i}: expected "
                    f"{len(self.header)} cells, got {len(row)}"
                )
            out.append(dict(zip(self.header, row)))
        return out


@dataclass(frozen=True)
class Workbook:
    name: str
    sheets: tuple

    def sheet(self, name: str) -> Worksheet:
        for sheet in self.sheets:
            if sheet.name == name:
                return sheet
        raise NotFoundError(
            f"workbook {self.name!r} has no sheet {name!r}; "
            f"available: {[s.name for s in self.sheets]}"
        )

    def first_sheet(self) -> Worksheet:
        return self.sheets[0]


def parse_workbook(data) -> Workbook:
    """Parse workbook JSON (bytes or str) into a :class:`Workbook`."""
    text = decode_text(data)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid workbook JSON: {exc}") from exc
    if not isinstance(doc, dict) or "sheets" not in doc:
        raise IngestError("workbook document must contain a 'sheets' list")
    sheets = []
    for i, sheet in enumerate(doc["sheets"]):
        try:
            header = tuple(str(h) for h in sheet["header"])
            rows = tuple(tuple(row) for row in sheet["rows"])
            name = str(sheet.get("name") or f"Sheet{i + 1}")
        except (KeyError, TypeError) as exc:
            raise IngestError(f"malformed sheet {i}: {exc}") from exc
        if not header:
            raise IngestError(f"sheet {name!r} has an empty header")
        sheets.append(Worksheet(name, header, rows))
    if not sheets:
        raise IngestError("workbook contains no sheets")
    return Workbook(str(doc.get("workbook", "workbook")), tuple(sheets))
