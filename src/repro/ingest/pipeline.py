"""The ingestion pipeline: payload → rows → schema → tenant table.

:class:`DatasetIngestor` is what the platform facade calls when a designer
"registers her proprietary inventory data with Symphony" (§II-B). It
dispatches on content type / filename to a reader, infers or validates the
schema, bulk-loads a tenant table, archives the raw payload as a blob, and
supports incremental refresh keyed on a chosen field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.contracts import ContractManager
from repro.errors import IngestError
from repro.ingest.readers import (
    parse_delimited,
    parse_json_array,
    parse_xml_records,
)
from repro.ingest.rss import parse_rss
from repro.ingest.workbook import parse_workbook
from repro.storage.records import Schema, infer_schema
from repro.telemetry import Telemetry
from repro.util import SimClock

__all__ = ["IngestReport", "DatasetIngestor"]


@dataclass
class IngestReport:
    """Outcome of one ingestion run."""

    table_name: str
    inserted: int = 0
    updated: int = 0
    unchanged: bool = False
    format: str = ""
    errors: list = field(default_factory=list)
    # -- contract enforcement (zero when the table is ungoverned) ------
    violations: int = 0
    quarantined: int = 0
    coerced: int = 0
    drift: bool = False


_EXTENSION_FORMATS = {
    ".csv": "delimited",
    ".tsv": "delimited",
    ".txt": "delimited",
    ".xml": "xml",
    ".json": "json",
    ".xlsw": "workbook",
    ".rss": "rss",
}

_CONTENT_TYPE_FORMATS = {
    "text/csv": "delimited",
    "text/tab-separated-values": "delimited",
    "text/plain": "delimited",
    "application/xml": "xml",
    "text/xml": "xml",
    "application/json": "json",
    "application/x-workbook": "workbook",
    "application/rss+xml": "rss",
}


def detect_format(filename: str, content_type: str = "") -> str:
    """Choose a reader from the filename extension, then content type.

    The content type is matched on its bare media type — parameters
    like ``"text/csv; charset=utf-8"`` are stripped — so a known
    explicit content type wins whenever the extension is unknown or
    missing.
    """
    name = filename.lower()
    for extension, fmt in _EXTENSION_FORMATS.items():
        if name.endswith(extension):
            return fmt
    media_type = content_type.split(";", 1)[0].strip().lower()
    if media_type in _CONTENT_TYPE_FORMATS:
        return _CONTENT_TYPE_FORMATS[media_type]
    raise IngestError(
        f"cannot determine format of {filename!r} "
        f"(content type {content_type!r})"
    )


def rows_from_payload(payload, fmt: str | None = None,
                      sheet: str | None = None) -> tuple[list[dict], str]:
    """Parse an :class:`UploadPayload` into rows; returns (rows, format)."""
    fmt = fmt or detect_format(payload.filename, payload.content_type)
    if fmt == "delimited":
        return parse_delimited(payload.data), fmt
    if fmt == "xml":
        return parse_xml_records(payload.data), fmt
    if fmt == "json":
        return parse_json_array(payload.data), fmt
    if fmt == "workbook":
        workbook = parse_workbook(payload.data)
        worksheet = (workbook.sheet(sheet) if sheet
                     else workbook.first_sheet())
        return worksheet.to_records(), fmt
    if fmt == "rss":
        return [item.to_row() for item in parse_rss(payload.data)], fmt
    raise IngestError(f"unknown ingest format: {fmt!r}")


class DatasetIngestor:
    """Loads parsed uploads into a tenant's tables.

    When wired with a :class:`~repro.gateway.generations.
    GenerationRegistry`, every load that changes rows bumps the target
    table's generation, which invalidates gateway query-cache entries
    and runtime result-cache entries computed over the old rows.
    """

    def __init__(self, tenant, telemetry=None, generations=None,
                 contracts: ContractManager | None = None) -> None:
        self._tenant = tenant
        self._telemetry = telemetry or Telemetry.disabled()
        self._generations = generations
        #: The :class:`~repro.contracts.ContractManager` (an empty one
        #: of its own when none is given): every batch for a contracted
        #: table is enforced before it touches storage.
        self._contracts = contracts or ContractManager(
            SimClock(), telemetry=self._telemetry)

    def _mark_refreshed(self, table_name: str) -> None:
        self._contracts.mark_refreshed(self._tenant.tenant_id, table_name)

    def _evolve_table(self, table_name: str, contract) -> None:
        """Widen an existing table to its (re-declared) contract.

        A contract update that *adds* columns — the standard remedy
        after added-column drift — must be loadable into the table
        created under the previous version; evolution is additive
        only, so old rows are untouched.
        """
        if contract is None or not self._tenant.has_table(table_name):
            return
        table = self._tenant.table(table_name)
        missing = tuple(
            spec for spec in contract.schema().fields
            if not table.schema.has_field(spec.name)
        )
        if missing:
            table.add_fields(missing)

    @staticmethod
    def _note_enforcement(report: IngestReport, result) -> None:
        report.violations = len(result.violations)
        report.quarantined = len(result.quarantined)
        report.coerced = result.coerced
        report.drift = result.drift.drifted

    def _bump_generation(self, report: IngestReport) -> None:
        if self._generations is None or report.unchanged:
            return
        if not (report.inserted or report.updated):
            return
        from repro.gateway.generations import table_key
        self._generations.bump(
            table_key(self._tenant.tenant_id, report.table_name)
        )

    def _record(self, report: IngestReport, source: str) -> None:
        """Emit completion telemetry for one ingestion run."""
        telemetry = self._telemetry
        telemetry.events.emit(
            "ingest.complete", table=report.table_name,
            source=source, format=report.format,
            inserted=report.inserted, updated=report.updated,
            unchanged=report.unchanged,
        )
        if report.inserted:
            telemetry.metrics.counter(
                "ingest_rows_total", op="insert"
            ).inc(report.inserted)
        if report.updated:
            telemetry.metrics.counter(
                "ingest_rows_total", op="update"
            ).inc(report.updated)

    def ingest(self, payload, table_name: str,
               schema: Schema | None = None,
               fmt: str | None = None,
               sheet: str | None = None,
               key_field: str | None = None,
               indexed_fields: tuple = ()) -> IngestReport:
        """Full or incremental load of ``payload`` into ``table_name``.

        * First load: creates the table (inferring the schema unless one is
          declared) and inserts every row.
        * With a ``key_field``: upserts row-by-row, so rows sharing a key
          converge on one record (the last wins) from the first load on.
        * Identical payload bytes (by blob hash): short-circuits as
          ``unchanged``.
        """
        with self._telemetry.tracer.span("ingest") as span:
            span.set("table", table_name)
            span.set("filename", payload.filename)
            report = self._ingest_payload(
                payload, table_name, schema, fmt, sheet, key_field,
                indexed_fields,
            )
            span.set("format", report.format or "unchanged")
            span.set("inserted", report.inserted)
        self._bump_generation(report)
        self._record(report, source="upload")
        self._mark_refreshed(table_name)
        return report

    def _ingest_payload(self, payload, table_name: str,
                        schema: Schema | None,
                        fmt: str | None, sheet: str | None,
                        key_field: str | None,
                        indexed_fields: tuple) -> IngestReport:
        blob_key = f"uploads/{table_name}/{payload.filename}"
        if self._tenant.blobs.exists(blob_key) \
                and self._tenant.blobs.unchanged(blob_key, payload.data):
            return IngestReport(table_name=table_name, unchanged=True)

        rows, detected = rows_from_payload(payload, fmt=fmt, sheet=sheet)
        report = IngestReport(table_name=table_name, format=detected)

        self._load(rows, report, "upload", schema, key_field,
                   indexed_fields)
        self._tenant.put_blob(
            blob_key, payload.data, payload.content_type,
            created_ms=payload.received_ms,
        )
        return report

    def _load(self, rows: list[dict], report: IngestReport,
              source: str, schema: Schema | None,
              key_field: str | None, indexed_fields: tuple) -> None:
        """Enforce the table's contract on ``rows`` (adopting its schema
        and key), then create, upsert into, or append to the table;
        the counts land on ``report``."""
        table_name = report.table_name
        # ``None`` from the manager means the table is ungoverned.
        enforcement = self._contracts.apply(
            self._tenant.tenant_id, table_name, rows, source=source)
        validated = enforcement is not None
        if validated:
            contract = self._contracts.contract_for(
                self._tenant.tenant_id, table_name)
            rows = enforcement.rows
            self._note_enforcement(report, enforcement)
            if schema is None:
                schema = contract.schema()
            if key_field is None and contract.key_field:
                key_field = contract.key_field
            self._evolve_table(table_name, contract)

        created = not self._tenant.has_table(table_name)
        if created:
            self._tenant.create_table(
                table_name, schema or infer_schema(rows), indexed_fields
            )
        table = self._tenant.table(table_name)
        if key_field is not None and not created:
            upsert = (table.upsert_validated_by if validated
                      else table.upsert_by)
            quota = self._tenant.quota
            for row in rows:
                before = len(table)
                if before >= quota.max_records_per_table:
                    # A new key at the limit raises, as an append past
                    # it does; the rows before it are kept.
                    key = row.get(key_field)
                    if not validated:
                        key = table.schema.spec(key_field).coerce(key)
                    if not table.find(key_field, key):
                        quota.check_records(before + 1)
                upsert(key_field, row)
                if len(table) > before:
                    report.inserted += 1
                else:
                    report.updated += 1
        else:
            if key_field is not None:
                # A first load converges on one row per key, the last
                # one winning, exactly as the upserts above would -- but
                # the table is empty, so one pass over the batch finds
                # the repeats without a ``find`` per row.
                if not validated:
                    rows = [table.schema.coerce_row(row) for row in rows]
                    validated = True
                latest = {table.match_key(key_field, row.get(key_field)): row
                          for row in rows}
                report.updated = len(rows) - len(latest)
                rows = latest.values()
            report.inserted = self._tenant.insert_rows(
                table_name, rows, validated=validated)

    def ingest_rows(self, rows: list[dict], table_name: str,
                    schema: Schema | None = None,
                    indexed_fields: tuple = (),
                    key_field: str | None = None) -> IngestReport:
        """Load already-parsed rows (e.g. a crawl result) into a table.

        With a ``key_field`` (explicit or from the table's contract)
        rows are upserted instead of inserted, which makes replaying
        quarantined rows idempotent.
        """
        if not rows:
            raise IngestError("no rows to ingest")
        report = IngestReport(table_name=table_name, format="rows")

        self._load(rows, report, "rows", schema, key_field,
                   indexed_fields)
        self._bump_generation(report)
        self._record(report, source="rows")
        self._mark_refreshed(table_name)
        return report
