"""The committed drifted-feed scenario: governance end to end.

One deterministic story, reused by the ``repro contracts`` CLI, the
``examples/drifted_feed.py`` script, the X15 benchmark, and the test
suite: a contracted products feed refreshes cleanly, then its producer
silently changes the schema and ships junk rows, then goes dark.
The scenario asserts the governance invariants the subsystem exists
for — drift is flagged within one refresh interval, violating rows are
quarantined (not loaded, not lost), the staleness alert fires once the
feed stops, and after a contract update the quarantine replays cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IngestError
from repro.storage.records import FieldType

from .contract import DataContract, FieldContract, FreshnessSLA

__all__ = ["ScenarioCheck", "ScenarioReport", "run_drifted_feed",
           "products_contract"]

#: Simulated time between feed refreshes.
INTERVAL_MS = 10_000
#: The contract's freshness SLA: stale beyond 2.5 refresh intervals.
MAX_STALENESS_MS = 25_000


@dataclass(frozen=True)
class ScenarioCheck:
    """One asserted governance invariant."""

    name: str
    ok: bool
    detail: str


@dataclass
class ScenarioReport:
    """Everything the drifted-feed scenario observed."""

    checks: list = field(default_factory=list)
    drift_detected_ms: int | None = None
    drifted_at_ms: int | None = None
    stale_event_ms: int | None = None
    stale_breach_ms: int | None = None
    quarantined: int = 0
    replayed: int = 0
    requarantined: int = 0
    rows_loaded: int = 0
    events: list = field(default_factory=list)
    status_text: str = ""

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(ScenarioCheck(name, bool(ok), detail))

    def render(self) -> str:
        lines = ["Drifted-feed scenario", "====================="]
        for check in self.checks:
            marker = "PASS" if check.ok else "FAIL"
            lines.append(f"  [{marker}] {check.name}: {check.detail}")
        lines.append("")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def products_contract(policy: str = "quarantine",
                      version: int = 1) -> DataContract:
    """The governed products table the scenario (and docs) use."""
    return DataContract(
        table="products",
        version=version,
        fields=(
            FieldContract("sku", FieldType.STRING, required=True,
                          normalize=("trim", "upper")),
            FieldContract("title", FieldType.STRING, required=True,
                          normalize=("collapse_ws",)),
            FieldContract("price", FieldType.FLOAT, min_value=0.0,
                          normalize=("strip_currency",)),
            FieldContract("platform", FieldType.STRING,
                          allowed=("PC", "Xbox", "PS3")),
        ),
        key_field="sku",
        policy=policy,
        freshness=FreshnessSLA(max_staleness_ms=MAX_STALENESS_MS),
    )


def _clean_batch(round_no: int) -> list:
    return [
        {"sku": f" sku-{round_no}-{i} ",
         "title": f"Game  {round_no}-{i}",
         "price": f"${10 + round_no}.99",
         "platform": ("PC", "Xbox", "PS3")[i % 3]}
        for i in range(4)
    ]


def _drifted_batch() -> list:
    """The producer's silent break: a new ``rating`` column on every
    row (added-column drift + per-row ``extra`` violations under the
    strict contract) and ``price`` gone free-text on most rows
    (majority vote -> retyped column)."""
    return [
        # Well-typed except for the new column.
        {"sku": "sku-d-0", "title": "Good Game", "price": "$19.99",
         "platform": "PC", "rating": "4.5"},
        # Free-text price and an out-of-enum platform.
        {"sku": "sku-d-1", "title": "Bad Price", "price": "call us",
         "platform": "Wii", "rating": "3.0"},
        # Free-text price and a missing required sku.
        {"sku": "", "title": "No SKU", "price": "TBD",
         "platform": "PC", "rating": "1.0"},
    ]


def run_drifted_feed(symphony) -> ScenarioReport:
    """Drive the scenario on one platform.

    ``symphony`` must be constructed with telemetry or SLO on (SLO
    implies telemetry): the checks read the contract events. The
    scenario registers its own designer, contract, and scheduled feed,
    then advances simulated time.
    """
    report = ScenarioReport()
    t0 = symphony.clock.now_ms
    account = symphony.register_designer("Dana")
    tenant_id = account.tenant.tenant_id
    contract = symphony.register_contract(account, products_contract())

    calls = {"n": 0}

    def feed_action():
        calls["n"] += 1
        if calls["n"] <= 2:
            rows = _clean_batch(calls["n"])
        elif calls["n"] == 3:
            rows = _drifted_batch()
            report.drifted_at_ms = symphony.clock.now_ms - t0
        else:
            raise IngestError("producer offline")
        return symphony.upload_structured_data(
            account, rows, "products")

    symphony.refresh.register("products-feed", INTERVAL_MS,
                              feed_action)

    # Phase 1+2: two clean refreshes, then the drifted batch lands on
    # the third tick.
    symphony.refresh.run_all_for(3 * INTERVAL_MS, tick_ms=INTERVAL_MS)
    drift_events = symphony.telemetry.events.by_kind("contract.drift")
    if drift_events:
        report.drift_detected_ms = drift_events[0].timestamp_ms - t0
    detected_in = (report.drift_detected_ms - report.drifted_at_ms
                   if report.drift_detected_ms is not None else None)
    report.check(
        "drift detected within one refresh interval",
        detected_in is not None and detected_in <= INTERVAL_MS,
        f"drifted batch at t={report.drifted_at_ms}ms, "
        f"contract.drift at t={report.drift_detected_ms}ms",
    )

    depth = symphony.contracts.quarantine.depth(tenant_id, "products")
    table = account.tenant.table("products")
    loaded_titles = {r.values.get("title") for r in table}
    report.quarantined = depth
    report.rows_loaded = len(table)
    report.check(
        "violating rows quarantined, not loaded",
        depth == 3 and not {"Good Game", "Bad Price", "No SKU"}
        & loaded_titles and len(table) == 8,
        f"{depth} drifted rows in quarantine, {len(table)} clean rows "
        f"loaded (strict contract quarantines even well-typed rows "
        f"carrying the undeclared column)",
    )

    # Phase 3: the producer goes dark; the scheduler keeps ticking and
    # the freshness SLA (25s) is breached 25s after the last
    # successful refresh.
    feed_state = symphony.contracts.freshness.feed(tenant_id,
                                                   "products")
    report.stale_breach_ms = (feed_state.last_refresh_ms
                              + MAX_STALENESS_MS - t0)
    symphony.refresh.run_all_for(6 * INTERVAL_MS, tick_ms=INTERVAL_MS)
    stale_events = symphony.telemetry.events.by_kind("contract.stale")
    if stale_events:
        report.stale_event_ms = stale_events[0].timestamp_ms - t0
    stale_in = (report.stale_event_ms - report.stale_breach_ms
                if report.stale_event_ms is not None else None)
    report.check(
        "staleness alert fires when the feed stops",
        stale_in is not None and stale_in <= INTERVAL_MS,
        f"SLA breached at t={report.stale_breach_ms}ms, "
        f"contract.stale at t={report.stale_event_ms}ms "
        f"(freshness budget alerting: "
        f"{symphony.contracts.freshness_alerter.active})",
    )
    report.check(
        "stale feed flagged in source metadata",
        symphony.contracts.source_status(
            tenant_id, "products").get("stale") is True,
        str(symphony.contracts.source_status(tenant_id, "products")),
    )

    # Phase 4: the designer amends the contract — admits the new
    # rating column, drops the platform enum — and replays the
    # quarantine. Storage schema evolution is additive-only, so price
    # stays a float: free-text prices remain violations and only the
    # recoverable row loads.
    relaxed = DataContract(
        table="products",
        version=2,
        fields=(
            FieldContract("sku", FieldType.STRING, required=True,
                          normalize=("trim", "upper")),
            FieldContract("title", FieldType.STRING, required=True,
                          normalize=("collapse_ws",)),
            FieldContract("price", FieldType.FLOAT, min_value=0.0,
                          normalize=("strip_currency",)),
            FieldContract("platform", FieldType.STRING),
            FieldContract("rating", FieldType.FLOAT),
        ),
        key_field="sku",
        policy="quarantine",
        freshness=contract.freshness,
    )
    symphony.register_contract(account, relaxed)
    replay = symphony.replay_quarantine(account, "products")
    replayed = 0 if replay is None else replay.inserted + replay.updated
    requarantined = 0 if replay is None else replay.quarantined
    report.replayed = replayed
    report.requarantined = requarantined
    depth_after = symphony.contracts.quarantine.depth(
        tenant_id, "products")
    # "Good Game" is now admissible; the free-text-price rows still
    # violate the (unchanged) float type and go straight back.
    report.check(
        "quarantine replayable after contract update",
        replayed == 1 and requarantined == 2 and depth_after == 2,
        f"replayed {replayed} row(s), {requarantined} still "
        f"violating re-quarantined (depth now {depth_after})",
    )
    second = symphony.replay_quarantine(account, "products")
    second_loaded = (0 if second is None
                     else second.inserted + second.updated)
    report.check(
        "replay is idempotent",
        second_loaded == 0 and symphony.contracts.quarantine.depth(
            tenant_id, "products") == 2,
        "second replay loaded nothing new; still-bad rows stayed "
        "quarantined",
    )

    report.events = [
        (e.timestamp_ms - t0, e.kind)
        for e in symphony.telemetry.events.events
        if e.kind.startswith(("contract.", "refresh."))
    ]
    report.status_text = symphony.contract_report()
    return report
