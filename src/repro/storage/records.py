"""Typed record tables with schema inference and versioned rows.

Proprietary uploads land here after normalization. A table owns a
:class:`Schema` (either declared or inferred from data), validates and
coerces incoming values, maintains hash indexes on selected fields, and
rejects stale updates via per-record version counters.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice

from repro.errors import (
    DuplicateError,
    NotFoundError,
    ValidationError,
)

__all__ = [
    "FieldType",
    "FieldSpec",
    "Schema",
    "infer_schema",
    "Record",
    "RecordTable",
    "CHANGE_TAIL",
]

#: How many of a table's latest mutations :meth:`RecordTable.changes_since`
#: can still name. An upsert of an existing row is two (out, then in), so
#: this covers a 512-row delta upload between two readers; a reader that
#: falls further behind rebuilds from the table.
CHANGE_TAIL = 1024

_INT_RE = re.compile(r"[+-]?\d+$")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}$")
_URL_RE = re.compile(r"https?://\S+$")
_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}


class FieldType(str, Enum):
    """The typed-column vocabulary of proprietary tables."""

    STRING = "string"
    TEXT = "text"       # long-form, analyzed when indexed for search
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    DATE = "date"       # ISO yyyy-mm-dd string
    URL = "url"


@dataclass(frozen=True)
class FieldSpec:
    name: str
    type: FieldType
    required: bool = False

    def coerce(self, value):
        """Coerce ``value`` into this field's Python representation.

        Raises :class:`ValidationError` when coercion is impossible.
        """
        if value is None or value == "":
            if self.required:
                raise ValidationError(
                    f"field {self.name!r} is required but missing"
                )
            return None
        try:
            return _COERCERS[self.type](value)
        except (ValueError, TypeError) as exc:
            raise ValidationError(
                f"field {self.name!r}: cannot interpret {value!r} "
                f"as {self.type.value}"
            ) from exc


def _coerce_bool(value):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in _BOOL_VALUES:
        return _BOOL_VALUES[text]
    raise ValueError(f"not a boolean: {value!r}")


def _coerce_date(value):
    text = str(value).strip()
    if not _DATE_RE.match(text):
        raise ValueError(f"not an ISO date: {value!r}")
    return text


def _coerce_url(value):
    text = str(value).strip()
    if not _URL_RE.match(text):
        raise ValueError(f"not a URL: {value!r}")
    return text


_COERCERS = {
    FieldType.STRING: str,
    FieldType.TEXT: str,
    FieldType.INTEGER: lambda v: int(str(v).strip()),
    FieldType.FLOAT: lambda v: float(str(v).strip()),
    FieldType.BOOLEAN: _coerce_bool,
    FieldType.DATE: _coerce_date,
    FieldType.URL: _coerce_url,
}


@dataclass(frozen=True)
class Schema:
    """An ordered collection of field specs."""

    fields: tuple

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise ValidationError("duplicate field names in schema")

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def spec(self, name: str) -> FieldSpec:
        for spec in self.fields:
            if spec.name == name:
                return spec
        raise NotFoundError(f"no such field in schema: {name}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def coerce_row(self, row: dict) -> dict:
        """Validate+coerce one raw row; unknown keys are rejected."""
        unknown = set(row) - set(self.field_names())
        if unknown:
            raise ValidationError(
                f"row has fields not in schema: {sorted(unknown)}"
            )
        return {
            spec.name: spec.coerce(row.get(spec.name))
            for spec in self.fields
        }


def _classify_value(value) -> FieldType:
    if isinstance(value, bool):
        return FieldType.BOOLEAN
    if isinstance(value, int):
        return FieldType.INTEGER
    if isinstance(value, float):
        return FieldType.FLOAT
    text = str(value).strip()
    if _INT_RE.match(text):
        return FieldType.INTEGER
    if _FLOAT_RE.match(text):
        return FieldType.FLOAT
    if text.lower() in _BOOL_VALUES:
        return FieldType.BOOLEAN
    if _DATE_RE.match(text):
        return FieldType.DATE
    if _URL_RE.match(text):
        return FieldType.URL
    if len(text) > 80 or text.count(" ") >= 12:
        return FieldType.TEXT
    return FieldType.STRING


_WIDENING = {
    # (current, observed) -> widened
    (FieldType.INTEGER, FieldType.FLOAT): FieldType.FLOAT,
    (FieldType.FLOAT, FieldType.INTEGER): FieldType.FLOAT,
    (FieldType.STRING, FieldType.TEXT): FieldType.TEXT,
    (FieldType.TEXT, FieldType.STRING): FieldType.TEXT,
}


def infer_schema(rows, sample_limit: int = 200) -> Schema:
    """Infer a :class:`Schema` by scanning up to ``sample_limit`` rows.

    Types widen monotonically: int+float → float, anything conflicting →
    string (or text when long values were seen). Fields with no missing
    values in the sample are *not* marked required — uploads are messy.
    """
    observed: dict[str, FieldType | None] = {}
    order: list[str] = []
    for i, row in enumerate(rows):
        if i >= sample_limit:
            break
        for name, value in row.items():
            if name not in observed:
                observed[name] = None
                order.append(name)
            if value is None or value == "":
                continue
            kind = _classify_value(value)
            current = observed[name]
            if current is None or current == kind:
                observed[name] = kind
            else:
                observed[name] = _WIDENING.get(
                    (current, kind),
                    FieldType.TEXT if FieldType.TEXT in (current, kind)
                    else FieldType.STRING,
                )
    if not order:
        raise ValidationError("cannot infer a schema from zero rows")
    return Schema(tuple(
        FieldSpec(name, observed[name] or FieldType.STRING)
        for name in order
    ))


@dataclass(frozen=True)
class Record:
    """One stored row: id, coerced values, and a version counter."""

    record_id: str
    values: dict
    version: int = 1


class RecordTable:
    """A named table of records under one schema.

    ``indexed_fields`` get exact-match hash indexes (used by service lookups
    and supplemental joins); search-style retrieval is layered on top by
    :mod:`repro.core.datasources`.
    """

    def __init__(self, name: str, schema: Schema,
                 indexed_fields: tuple = ()) -> None:
        self.name = name
        self.schema = schema
        self.indexed_fields = tuple(indexed_fields)
        for field_name in self.indexed_fields:
            if not schema.has_field(field_name):
                raise ValidationError(
                    f"cannot index unknown field {field_name!r}"
                )
        self._records: dict[str, Record] = {}
        self._indexes: dict[str, dict] = {f: {} for f in self.indexed_fields}
        # Exact-value maps of the unindexed fields :meth:`find` was asked
        # about: field -> {value: {record id, ...}}, built on first use.
        self._exact: dict[str, dict] = {}
        self._next_serial = 1
        #: Bumped whenever a record enters or leaves the table (an
        #: update does both), so derived indexes can tell cheaply and
        #: exactly whether they are current; the cursor of
        #: :meth:`changes_since`.
        self.mutations = 0
        # Record id of each of the last CHANGE_TAIL mutations, oldest first.
        self._change_tail: deque = deque(maxlen=CHANGE_TAIL)

    # -- CRUD ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records.values())

    def insert(self, row: dict, record_id: str | None = None) -> Record:
        return self._insert_values(self.schema.coerce_row(row),
                                   record_id)

    def insert_validated(self, values: dict,
                         record_id: str | None = None) -> Record:
        """Insert a row already coerced to this table's schema.

        The trust boundary for skipping re-validation: the caller
        (e.g. a contract enforcer whose declared schema *is* this
        table's schema) has produced ``values`` with exactly the
        schema's fields and types, and hands over ownership of the
        dict — it must not mutate it afterwards. Governed bulk ingest
        would otherwise pay for every cell twice (plus a copy).
        """
        return self._insert_values(values, record_id)

    def _insert_values(self, values: dict,
                       record_id: str | None = None) -> Record:
        if record_id is None:
            record_id = f"{self.name}:{self._next_serial}"
            self._next_serial += 1
        if record_id in self._records:
            raise DuplicateError(f"record exists: {record_id}")
        record = Record(record_id, values, version=1)
        self._records[record_id] = record
        self._index_record(record)
        return record

    def get(self, record_id: str) -> Record:
        try:
            return self._records[record_id]
        except KeyError:
            raise NotFoundError(
                f"no record {record_id!r} in table {self.name!r}"
            ) from None

    def upsert_by(self, key_field: str, row: dict) -> Record:
        """Insert, or update the single record whose ``key_field`` matches."""
        return self._upsert_values(key_field,
                                   self.schema.coerce_row(row))

    def upsert_validated_by(self, key_field: str,
                            values: dict) -> Record:
        """:meth:`upsert_by` for rows already coerced to this schema
        (same trust boundary — and ownership handoff — as
        :meth:`insert_validated`)."""
        return self._upsert_values(key_field, values)

    def _upsert_values(self, key_field: str, values: dict) -> Record:
        key = values.get(key_field)
        existing = self.find(key_field, key)
        if not existing:
            return self._insert_values(values)
        if len(existing) > 1:
            raise DuplicateError(
                f"upsert key {key_field}={key!r} matches "
                f"{len(existing)} records"
            )
        # Full-row replacement: ``values`` carries every schema field.
        current = existing[0]
        self._unindex_record(current)
        updated = Record(current.record_id, values,
                         version=current.version + 1)
        self._records[current.record_id] = updated
        self._index_record(updated)
        return updated

    def add_fields(self, specs: tuple) -> None:
        """Additive schema evolution: append new columns to the table.

        Existing records are untouched — the new columns simply read
        as absent until rows carrying them arrive. Only *new* names
        are accepted; retyping or dropping a column is not evolution,
        it is a different table.
        """
        for spec in specs:
            if self.schema.has_field(spec.name):
                raise ValidationError(
                    f"field {spec.name!r} already in schema for "
                    f"table {self.name!r}"
                )
        if specs:
            self.schema = Schema(self.schema.fields + tuple(specs))

    # -- queries -----------------------------------------------------------------

    def find(self, field_name: str, value) -> list:
        """Exact match on an indexed or unindexed field.

        An unindexed field answers from an exact-value map, built on the
        first call and kept current by every mutation. For the scalars
        coercion stores (``str``, ``int``, ``float``, ``bool``, ``None``)
        a dict lookup agrees with ``==``: ``1``, ``1.0`` and ``True``
        share a bucket. NaN equals nothing, and an unhashable ``value``
        is compared record by record. Several matches come in table
        order.
        """
        if field_name in self._indexes:
            ids = self._indexes[field_name].get(self._key(value), ())
            return [self._records[i] for i in ids]
        if value != value:      # NaN, which a dict would find by identity
            return []
        exact = self._exact.get(field_name)
        if exact is None:
            exact = self._exact[field_name] = {}
            for record in self._records.values():
                exact.setdefault(record.values.get(field_name),
                                 set()).add(record.record_id)
        try:
            ids = exact.get(value, ())
        except TypeError:       # unhashable
            ids = None
        if ids is not None and len(ids) < 2:
            return [self._records[i] for i in ids]
        return [r for r in self._records.values()
                if r.values.get(field_name) == value]

    def match_key(self, field_name: str, value):
        """What :meth:`find` compares ``value`` by on ``field_name``: two
        values with one match key find the same records."""
        if field_name in self._indexes:
            return self._key(value)
        return value

    def all_records(self) -> list:
        return list(self._records.values())

    def changes_since(self, cursor: int) -> list | None:
        """Record ids mutated after ``mutations`` read ``cursor``, in order.

        One id per mutation, so an updated record appears twice.
        ``None`` when the answer is unknown: the bounded tail
        (:data:`CHANGE_TAIL`) no longer reaches back to ``cursor``, or
        ``cursor`` is not a value this table's ``mutations`` has held.
        """
        behind = self.mutations - cursor
        held = len(self._change_tail)
        if not 0 <= behind <= held:
            return None
        return list(islice(self._change_tail, held - behind, None))

    # -- index maintenance --------------------------------------------------------------

    @staticmethod
    def _key(value):
        return str(value).lower() if value is not None else None

    def _index_record(self, record: Record) -> None:
        self.mutations += 1
        self._change_tail.append(record.record_id)
        for field_name, index in self._indexes.items():
            key = self._key(record.values.get(field_name))
            index.setdefault(key, set()).add(record.record_id)
        for field_name, exact in self._exact.items():
            exact.setdefault(record.values.get(field_name),
                             set()).add(record.record_id)

    def _unindex_record(self, record: Record) -> None:
        self.mutations += 1
        self._change_tail.append(record.record_id)
        for field_name, index in self._indexes.items():
            _discard(index, self._key(record.values.get(field_name)),
                     record.record_id)
        for field_name, exact in self._exact.items():
            _discard(exact, record.values.get(field_name),
                     record.record_id)


def _discard(index: dict, key, record_id: str) -> None:
    """Take ``record_id`` out of ``index[key]``, dropping an empty bucket."""
    bucket = index.get(key)
    if bucket is not None:
        bucket.discard(record_id)
        if not bucket:
            del index[key]
