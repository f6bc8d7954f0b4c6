"""Structured-format readers: delimited text, XML and JSON arrays.

Every reader returns a list of flat ``dict`` rows with string keys; type
coercion happens later against the table schema (declared or inferred), so
readers stay dumb and lossless.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter

from repro.errors import IngestError

__all__ = [
    "sniff_delimiter",
    "parse_delimited",
    "parse_xml_records",
    "parse_json_array",
    "decode_text",
]

_CANDIDATE_DELIMITERS = (",", "\t", ";", "|")


def decode_text(data) -> str:
    """Accept ``str`` or ``bytes`` (UTF-8, BOM-tolerant) and return text."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestError(f"upload is not valid UTF-8: {exc}") from exc


def sniff_delimiter(text: str) -> str:
    """Pick the delimiter whose per-line count is large and most stable."""
    lines = [line for line in text.splitlines() if line.strip()][:20]
    if not lines:
        raise IngestError("cannot sniff a delimiter from empty input")
    best, best_score = ",", -1.0
    for candidate in _CANDIDATE_DELIMITERS:
        counts = [line.count(candidate) for line in lines]
        if min(counts) == 0:
            continue
        spread = max(counts) - min(counts)
        score = min(counts) - spread * 0.5
        if score > best_score:
            best, best_score = candidate, score
    if best_score < 0:
        raise IngestError(
            "no consistent delimiter found; expected one of "
            + ", ".join(repr(d) for d in _CANDIDATE_DELIMITERS)
        )
    return best


def parse_delimited(data, delimiter: str | None = None,
                    has_header: bool = True) -> list[dict]:
    """Parse CSV/TSV/semicolon/pipe-delimited text into rows.

    Without a header, columns are named ``column_1..column_n``. Ragged rows
    raise :class:`IngestError` (silently dropping data is worse than
    failing the upload).
    """
    text = decode_text(data)
    if not text.strip():
        raise IngestError("empty delimited upload")
    if delimiter is None:
        try:
            delimiter = sniff_delimiter(text)
        except IngestError:
            delimiter = ","  # single-column upload: no delimiter to find
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = [row for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise IngestError("delimited upload contains no data rows")
    if has_header:
        header = [name.strip() or f"column_{i + 1}"
                  for i, name in enumerate(rows[0])]
        data_rows = rows[1:]
    else:
        width = len(rows[0])
        header = [f"column_{i + 1}" for i in range(width)]
        data_rows = rows
    _reject_duplicate_columns(header)
    out = []
    for line_no, row in enumerate(data_rows, start=2 if has_header else 1):
        if len(row) != len(header):
            raise IngestError(
                f"line {line_no}: expected {len(header)} fields, "
                f"got {len(row)}"
            )
        out.append({name: cell.strip()
                    for name, cell in zip(header, row)})
    if not out:
        raise IngestError("delimited upload has a header but no rows")
    return out


def _reject_duplicate_columns(header: list[str]) -> None:
    duplicates = [name for name, count in Counter(header).items()
                  if count > 1]
    if duplicates:
        raise IngestError(
            f"duplicate column names in upload: {sorted(duplicates)}"
        )


def parse_xml_records(data, record_element: str | None = None) -> list[dict]:
    """Parse an XML document of repeated record elements into rows.

    When ``record_element`` is omitted, the most common child tag of the
    root is used. Each record's child elements become fields; attributes
    are merged in with an ``@`` prefix when they would collide. A record
    that repeats a child element raises :class:`IngestError`, as a ragged
    delimited row does. ``xml.etree`` is imported on first use.
    """
    import xml.etree.ElementTree as ET
    text = decode_text(data)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise IngestError(f"invalid XML: {exc}") from exc
    children = list(root)
    if not children:
        raise IngestError("XML root has no record elements")
    if record_element is None:
        tag_counts = Counter(child.tag for child in children)
        record_element = tag_counts.most_common(1)[0][0]
    records = [child for child in children if child.tag == record_element]
    if not records:
        raise IngestError(
            f"no <{record_element}> elements under the XML root"
        )
    rows = []
    for index, element in enumerate(records):
        row: dict[str, str] = dict(element.attrib)
        fields: set[str] = set()
        for child in element:
            if child.tag in fields:
                raise IngestError(
                    f"record {index} has more than one <{child.tag}> element"
                )
            fields.add(child.tag)
            value = (child.text or "").strip()
            if child.tag in row:
                row[f"@{child.tag}"] = row.pop(child.tag)
            row[child.tag] = value
        if not row and (element.text or "").strip():
            row["value"] = element.text.strip()
        rows.append(row)
    return rows


def parse_json_array(data) -> list[dict]:
    """A top-level JSON array of objects."""
    text = decode_text(data)
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON: {exc}") from exc
    if not isinstance(value, list):
        raise IngestError(
            f"expected a JSON array, got {type(value).__name__}"
        )
    rows = []
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise IngestError(
                f"array element {i} is not an object"
            )
        rows.append(item)
    if not rows:
        raise IngestError("JSON array upload contains no rows")
    return rows
