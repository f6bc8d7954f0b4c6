"""Document abstraction shared by the engine and proprietary-data indexes.

A :class:`FieldedDocument` is a bag of named fields. Fields are indexed in
one of two modes:

* **text** — analyzed (tokenized, stemmed) and scored with BM25;
* **keyword** — stored verbatim and matched exactly (e.g. ``site``), which
  is how ``site:`` restriction works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["FieldMode", "FieldedDocument"]


class FieldMode(str, Enum):
    """How a field is indexed: analyzed text or exact keyword."""

    TEXT = "text"
    KEYWORD = "keyword"


@dataclass(frozen=True)
class FieldedDocument:
    """An indexable unit: id, fields, and an opaque payload.

    ``payload`` carries the original object (a simweb page, a proprietary
    record...) back out of the index untouched.
    """

    doc_id: str
    fields: dict = field(default_factory=dict)
    payload: object = None

    def get(self, name: str, default: str = "") -> str:
        value = self.fields.get(name, default)
        return "" if value is None else str(value)
