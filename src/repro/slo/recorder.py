"""Tail-sampling flight recorder: keep the anomalies, drop the rest.

Always-on full tracing is cheap to *record* here (spans are in memory)
but expensive to *retain* at production volume. The recorder keeps the
complete span tree and correlated events only for queries something
went wrong with — deadline-degraded, errored, in the slowest tail, or
breaching an SLO — inside a bounded ring: when full, the oldest record
is evicted. The happy path contributes nothing beyond a counter, which
is what keeps the SLO layer's clean-path overhead within budget.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["FlightRecord", "FlightRecorder"]


@dataclass(frozen=True)
class FlightRecord:
    """One retained query: identity, verdicts, and full evidence."""

    query_id: str                 # the query's trace id
    tenant: str
    start_ms: int
    end_ms: int
    latency_ms: float
    degraded: bool
    errored: bool
    completeness: float
    #: Why it was retained: ``error`` | ``degraded`` | ``slow`` |
    #: ``slo:<name>`` | ``sampled``. Empty never happens — unretained
    #: queries get no record at all.
    reasons: tuple = ()
    spans: tuple = ()             # span dicts, full tree
    events: tuple = ()            # event dicts within [start, end]

    @property
    def anomalous(self) -> bool:
        return self.reasons != ("sampled",)


@dataclass
class RecorderStats:
    """What the recorder saw vs what it kept."""

    seen: int = 0
    anomalous: int = 0
    retained: int = 0
    evicted: int = 0
    clean_seen: int = 0
    clean_retained: int = 0

    def as_dict(self) -> dict:
        return {
            "seen": self.seen,
            "anomalous": self.anomalous,
            "retained": self.retained,
            "evicted": self.evicted,
            "clean_seen": self.clean_seen,
            "clean_retained": self.clean_retained,
            "clean_retention": round(
                self.clean_retained / self.clean_seen, 4
            ) if self.clean_seen else 0.0,
        }


class FlightRecorder:
    """Bounded ring of :class:`FlightRecord`, indexed by query id."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._records: "OrderedDict[str, FlightRecord]" = OrderedDict()
        self.stats = RecorderStats()

    def note_seen(self, anomalous: bool) -> None:
        """Count one observed query (retained or not)."""
        self.stats.seen += 1
        if anomalous:
            self.stats.anomalous += 1
        else:
            self.stats.clean_seen += 1

    def record(self, record: FlightRecord) -> None:
        self.stats.retained += 1
        if not record.anomalous:
            self.stats.clean_retained += 1
        # Re-recording the same query id refreshes it in place.
        if record.query_id in self._records:
            del self._records[record.query_id]
        self._records[record.query_id] = record
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)
            self.stats.evicted += 1

    def get(self, query_id: str) -> FlightRecord | None:
        return self._records.get(query_id)

    @property
    def records(self) -> list[FlightRecord]:
        """Retained records, oldest first."""
        return list(self._records.values())

    def breaching(self) -> list[FlightRecord]:
        """Anomalous records only (excludes clean ``sampled`` ones)."""
        return [r for r in self.records if r.anomalous]

    def __len__(self) -> int:
        return len(self._records)
