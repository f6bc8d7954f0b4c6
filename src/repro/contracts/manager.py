"""The contracts subsystem facade: registry, enforcement, governance.

:class:`ContractManager` owns the per-tenant contract registry, the
quarantine store, and the freshness tracker, and is the single object
the rest of the platform talks to: the ingestor calls
:meth:`ContractManager.apply` on every batch, the refresh scheduler
calls :meth:`ContractManager.check_freshness` every pass, the platform
facade and CLI read :meth:`ContractManager.status`. Every ``Symphony``
owns one; a table with no registered contract costs one dict miss per
batch (:meth:`ContractManager.apply` returns ``None``) and loads
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ContractViolationError
from repro.slo.burnrate import BurnRateAlerter
from repro.slo.objectives import ErrorBudget, SLODefinition
from repro.telemetry import Telemetry

from .contract import DataContract
from .enforcer import ContractEnforcer, EnforcementResult
from .freshness import FreshnessTracker
from .quarantine import QuarantineStore

__all__ = ["ContractManager"]


#: Max quarantined rows retained per (tenant, table); the oldest are
#: evicted (and counted) beyond this.
QUARANTINE_CAPACITY = 1000

#: The platform-wide freshness SLO: the target fraction of freshness
#: checks that find a feed fresh, and the burn-alert shape.
FRESHNESS_SLO = SLODefinition(
    name="freshness", kind="freshness", objective=0.99,
    fast_window_ms=60_000, slow_window_ms=600_000,
    burn_threshold=3.0, min_events=4,
)


@dataclass
class _TableStats:
    """Running enforcement totals for one contracted table."""

    batches: int = 0
    loaded: int = 0
    violations: int = 0
    quarantined: int = 0
    coerced: int = 0
    drift_batches: int = 0
    last_drift: dict | None = None
    last_drift_ms: int | None = None


class ContractManager:
    """Registry + enforcement + freshness for every governed table."""

    #: Always ``True``; the end-to-end benchmark still reads it.
    enabled = True

    def __init__(self, clock, telemetry=None) -> None:
        self.clock = clock
        self.telemetry = telemetry = telemetry or Telemetry.disabled()
        self._contracts: dict[tuple, DataContract] = {}
        self._enforcers: dict[tuple, ContractEnforcer] = {}
        self._stats: dict[tuple, _TableStats] = {}
        self.quarantine = QuarantineStore(QUARANTINE_CAPACITY)
        self.freshness_budget = ErrorBudget(FRESHNESS_SLO)
        self.freshness_alerter = BurnRateAlerter(
            FRESHNESS_SLO, self.freshness_budget,
            events=telemetry.events, metrics=telemetry.metrics,
        )
        self.freshness = FreshnessTracker(
            clock, telemetry=telemetry,
            budget=self.freshness_budget,
            alerter=self.freshness_alerter,
        )

    def attach_slo(self, slo_engine) -> None:
        """Fold the freshness budget into the SLO engine's reporting."""
        slo_engine.adopt_tracker(
            FRESHNESS_SLO, self.freshness_budget,
            self.freshness_alerter,
        )

    # -- registry -------------------------------------------------------------

    def register(self, tenant_id: str,
                 contract: DataContract) -> DataContract:
        """Declare (or re-declare, bumping enforcement) a contract.

        Re-registering replaces the previous version in place — the
        point of quarantine replay after a contract update. A version
        without a freshness SLA stops the feed's staleness tracking.
        """
        key = (tenant_id, contract.table)
        self._contracts[key] = contract
        self._enforcers[key] = ContractEnforcer(contract)
        self._stats.setdefault(key, _TableStats())
        if contract.freshness is None:
            self.freshness.unbind(tenant_id, contract.table)
        else:
            self.freshness.bind(tenant_id, contract.table,
                                contract.freshness)
        self.telemetry.events.emit(
            "contract.registered", tenant=tenant_id,
            table=contract.table, version=contract.version,
            policy=contract.policy,
        )
        return contract

    def contract_for(self, tenant_id: str,
                     table: str) -> DataContract | None:
        return self._contracts.get((tenant_id, table))

    def tables(self, tenant_id: str | None = None) -> list:
        return sorted(
            key for key in self._contracts
            if tenant_id is None or key[0] == tenant_id
        )

    # -- enforcement ----------------------------------------------------------

    def apply(self, tenant_id: str, table: str, rows: list,
              source: str = "") -> EnforcementResult | None:
        """Enforce the table's contract on one batch of raw rows.

        Returns ``None`` when the table has no contract (the caller
        loads the batch untouched), otherwise an
        :class:`EnforcementResult` whose ``rows`` are the clean,
        normalized, typed rows to load. Raises
        :class:`ContractViolationError` under the ``reject`` policy.
        """
        key = (tenant_id, table)
        enforcer = self._enforcers.get(key)
        if enforcer is None:
            return None
        contract = enforcer.contract
        result = enforcer.enforce(rows)
        stats = self._stats[key]
        stats.batches += 1
        now = self.clock.now_ms
        events, metrics = self.telemetry.events, self.telemetry.metrics
        if result.drift.drifted:
            stats.drift_batches += 1
            stats.last_drift = result.drift.to_dict()
            stats.last_drift_ms = now
            events.emit(
                "contract.drift", tenant=tenant_id, table=table,
                source=source, version=contract.version,
                **stats.last_drift,
            )
            metrics.counter("contract_drift_total", table=table).inc()
        if result.violations:
            stats.violations += len(result.violations)
            events.emit(
                "contract.violation", tenant=tenant_id,
                table=table, source=source,
                policy=contract.policy,
                count=len(result.violations),
                rows=len(result.quarantined),
                sample=result.violations[0].message,
            )
            metrics.counter(
                "contract_violations_total", table=table,
            ).inc(len(result.violations))
            if contract.policy == "reject":
                raise ContractViolationError(table, result.violations)
            for raw, row_violations in result.quarantined:
                self.quarantine.add(tenant_id, table, raw,
                                    row_violations, now, source=source)
            stats.quarantined += len(result.quarantined)
            metrics.counter(
                "contract_quarantined_total", table=table,
            ).inc(len(result.quarantined))
        if result.coerced:
            metrics.counter(
                "contract_coerced_total", table=table,
            ).inc(result.coerced)
        stats.coerced += result.coerced
        stats.loaded += len(result.rows)
        return result

    # -- freshness ------------------------------------------------------------

    def mark_refreshed(self, tenant_id: str, table: str) -> None:
        self.freshness.mark_refreshed(tenant_id, table)

    def check_freshness(self) -> list:
        """Judge every tracked feed now; returns the stale ones."""
        return self.freshness.check()

    def source_status(self, tenant_id: str, table: str) -> dict:
        """Query-time metadata for one table's governed source."""
        feed = self.freshness.feed(tenant_id, table)
        contract = self.contract_for(tenant_id, table)
        status: dict = {}
        if contract is not None:
            status["contract_version"] = contract.version
        if feed is not None:
            status["stale"] = feed.stale
            status["staleness_ms"] = feed.staleness_ms(
                self.clock.now_ms)
        return status

    # -- quarantine -----------------------------------------------------------

    def quarantined_rows(self, tenant_id: str, table: str) -> list:
        return self.quarantine.rows(tenant_id, table)

    def drain_quarantine(self, tenant_id: str, table: str) -> list:
        """Remove and return raw quarantined rows for replay."""
        return self.quarantine.drain(tenant_id, table)

    # -- reporting ------------------------------------------------------------

    def status(self, tenant_id: str | None = None) -> dict:
        """Structured contract-status report, optionally per tenant."""
        now = self.clock.now_ms
        tables = []
        for key in self.tables(tenant_id):
            owner, table = key
            contract = self._contracts[key]
            stats = self._stats[key]
            entry = {
                "tenant": owner,
                "table": table,
                "version": contract.version,
                "policy": contract.policy,
                "batches": stats.batches,
                "loaded": stats.loaded,
                "violations": stats.violations,
                "quarantined": stats.quarantined,
                "coerced": stats.coerced,
                "quarantine_depth": self.quarantine.depth(owner, table),
                "drift_batches": stats.drift_batches,
                "last_drift": stats.last_drift,
                "last_drift_ms": stats.last_drift_ms,
            }
            feed = self.freshness.feed(owner, table)
            if feed is not None:
                entry["freshness"] = feed.status(now)
            tables.append(entry)
        return {
            "tables": tables,
            "freshness_budget": self.freshness_budget.status(now),
            "freshness_alerting": self.freshness_alerter.active,
            "stale_feeds": [
                f"{f.tenant_id}/{f.table}"
                for f in self.freshness.feeds() if f.stale
            ],
        }

    def report(self, tenant_id: str | None = None) -> str:
        """Human-readable contract-status report."""
        status = self.status(tenant_id)
        lines = ["Contract status", "==============="]
        lines.append("")
        if not status["tables"]:
            lines.append("(no contracts registered)")
            return "\n".join(lines)
        lines.append(
            f"{'table':<24} {'ver':>3} {'policy':<10} {'loaded':>7} "
            f"{'viol':>5} {'quar':>5} {'coerce':>6} {'drift':>5}  "
            f"freshness"
        )
        for entry in status["tables"]:
            name = f"{entry['tenant']}/{entry['table']}"
            freshness = entry.get("freshness")
            if freshness is None:
                fresh_text = "-"
            elif freshness["stale"]:
                fresh_text = (f"STALE ({freshness['staleness_ms']}ms > "
                              f"{freshness['max_staleness_ms']}ms)")
            else:
                fresh_text = f"fresh ({freshness['staleness_ms']}ms)"
            lines.append(
                f"{name:<24} {entry['version']:>3} "
                f"{entry['policy']:<10} {entry['loaded']:>7} "
                f"{entry['violations']:>5} "
                f"{entry['quarantine_depth']:>5} {entry['coerced']:>6} "
                f"{entry['drift_batches']:>5}  {fresh_text}"
            )
            if entry["last_drift"]:
                drift = entry["last_drift"]
                parts = []
                if drift["added"]:
                    parts.append(f"added={drift['added']}")
                if drift["missing"]:
                    parts.append(f"missing={drift['missing']}")
                if drift["retyped"]:
                    parts.append("retyped=" + str([
                        f"{r['field']}:{r['declared']}->{r['observed']}"
                        for r in drift["retyped"]
                    ]))
                lines.append(f"    last drift: {'; '.join(parts)}")
        budget = status["freshness_budget"]
        lines.append("")
        lines.append(
            f"Freshness budget: {budget['events']} checks, "
            f"{budget['bad']} stale, "
            f"{budget['budget_remaining'] * 100:.1f}% remaining"
            + (" [BURNING]" if status["freshness_alerting"] else "")
        )
        if status["stale_feeds"]:
            lines.append("Stale feeds: " + ", ".join(
                status["stale_feeds"]))
        return "\n".join(lines)
