"""Counters, gauges, and streaming histograms behind one registry.

Instruments are created lazily (``registry.counter("cache_hits")``) and
identified by (name, labels); like everything below the gateway, the
registry has one caller at a time. :class:`Histogram` keeps an exact
sample list up to a cap and then compacts deterministically (sort, keep
every other sample), so p50/p95/p99 stay accurate at small counts,
bounded in memory at large ones, and identical across reruns — no RNG,
no wall clock.

A :class:`NullMetricsRegistry` mirrors the API with shared no-op
instruments so uninstrumented deployments pay nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_BUCKET_BOUNDS",
]

#: Fixed, deterministic bucket upper bounds (``le``) for every
#: histogram's Prometheus exposition. Spanning sub-ms dispatch costs to
#: multi-second chaos latencies, they let an external scraper compute
#: its own quantiles from cumulative counts regardless of sample
#: compaction.
DEFAULT_BUCKET_BOUNDS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value; either set directly or read via callback."""

    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: tuple = (), fn=None) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Streaming distribution with deterministic, bounded quantiles.

    Up to ``sample_cap`` observations are kept exactly. Past the cap,
    the sorted sample list is halved (every other element kept) and the
    keep-stride for *future* observations doubles, so the retained
    samples stay a roughly uniform subsample of the whole stream — a
    long monotone stream cannot crowd out its own early values.
    ``count``/``sum``/``min``/``max`` are always exact, and the whole
    scheme is deterministic: no RNG, no wall clock, identical reruns
    give identical quantiles.
    """

    __slots__ = ("name", "labels", "sample_cap", "count", "total",
                 "min", "max", "bucket_bounds", "_bucket_counts",
                 "_samples", "_stride", "_sorted")

    def __init__(self, name: str, labels: tuple = (),
                 sample_cap: int = 2048,
                 bucket_bounds: tuple = DEFAULT_BUCKET_BOUNDS) -> None:
        if sample_cap < 8:
            raise ValueError("sample_cap must be at least 8")
        if tuple(bucket_bounds) != tuple(sorted(bucket_bounds)):
            raise ValueError("bucket_bounds must be sorted ascending")
        self.name = name
        self.labels = labels
        self.sample_cap = sample_cap
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.bucket_bounds = tuple(bucket_bounds)
        # Exact per-bucket counts (last slot is the +Inf overflow) —
        # unlike the quantile samples these never compact, so the
        # exposition's cumulative counts are exact at any volume.
        self._bucket_counts = [0] * (len(self.bucket_bounds) + 1)
        self._samples: list[float] = []
        self._stride = 1       # keep every _stride-th observation
        self._sorted = True    # _samples currently in sorted order?

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self._bucket_counts[
            bisect_left(self.bucket_bounds, value)] += 1
        if self.count % self._stride == 0:
            self._samples.append(value)
            self._sorted = False
        if len(self._samples) > self.sample_cap:
            self._samples.sort()
            self._samples = self._samples[::2]
            self._stride *= 2
            self._sorted = True

    def quantile(self, q: float) -> float | None:
        """Nearest-rank quantile; ``None`` when nothing was observed."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self._samples:
            return None
        # Sort lazily, once per batch of observations: a scrape
        # reads three quantiles per histogram and used to pay a
        # full re-sort for each.
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        index = max(0, math.ceil(q * len(self._samples)) - 1)
        return self._samples[index]

    def buckets(self) -> dict:
        """Cumulative ``{le: count}`` with string keys (JSON-stable)."""
        counts = self._bucket_counts
        out: dict[str, int] = {}
        running = 0
        for bound, bucket_count in zip(self.bucket_bounds, counts):
            running += bucket_count
            out[f"{bound:g}"] = running
        out["+Inf"] = running + counts[-1]
        return out

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": self.buckets(),
        }


class _NullInstrument:
    """Shared stand-in for every instrument kind when metrics are off."""

    __slots__ = ()
    value = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None

    def summary(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Get-or-create instrument registry with stable exposition output."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple, object] = {}

    def _get(self, kind: str, name: str, labels: dict, factory):
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(name, key[2])
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, fn=None, **labels) -> Gauge:
        return self._get("gauge", name, labels,
                         lambda n, lk: Gauge(n, lk, fn=fn))

    def histogram(self, name: str, sample_cap: int = 2048,
                  **labels) -> Histogram:
        return self._get("histogram", name, labels,
                         lambda n, lk: Histogram(n, lk, sample_cap))

    # -- export ---------------------------------------------------------------

    def _sorted_items(self) -> list[tuple[tuple, object]]:
        return sorted(self._instruments.items(),
                      key=lambda pair: pair[0])

    def snapshot(self) -> dict:
        """``{kind: {exposed_name: value-or-summary}}``, fully sorted."""
        out: dict[str, dict] = {"counter": {}, "gauge": {},
                                "histogram": {}}
        for (kind, name, label_key), instrument in self._sorted_items():
            exposed = _exposed_name(name, label_key)
            if kind == "histogram":
                out[kind][exposed] = instrument.summary()
            else:
                out[kind][exposed] = instrument.value
        return out

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus-style text exposition (counters, gauges, histograms)."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for (kind, name, label_key), instrument in self._sorted_items():
            metric = f"{prefix}{name}"
            if metric not in seen_types:
                seen_types.add(metric)
                lines.append(f"# TYPE {metric} {kind}")
            labels = _prom_labels(label_key)
            if kind == "histogram":
                summary = instrument.summary()
                # Pre-computed quantiles (convenience gauges) ...
                for q_name, q in (("0.5", "p50"), ("0.95", "p95"),
                                  ("0.99", "p99")):
                    value = summary.get(q)
                    if value is None:
                        continue
                    q_labels = _prom_labels(
                        label_key + (("quantile", q_name),)
                    )
                    lines.append(f"{metric}{q_labels} {value}")
                # ... plus exact cumulative buckets, so external
                # scrapers can derive any quantile themselves.
                for le, cumulative in summary["buckets"].items():
                    le_labels = _prom_labels(
                        label_key + (("le", le),)
                    )
                    lines.append(
                        f"{metric}_bucket{le_labels} {cumulative}")
                lines.append(f"{metric}_count{labels} "
                             f"{summary['count']}")
                lines.append(f"{metric}_sum{labels} {summary['sum']}")
            else:
                lines.append(f"{metric}{labels} {instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")


class NullMetricsRegistry:
    """API-compatible no-op registry."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, fn=None, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, sample_cap: int = 2048,
                  **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counter": {}, "gauge": {}, "histogram": {}}

    def render_prometheus(self, prefix: str = "repro_") -> str:
        return ""


NULL_METRICS = NullMetricsRegistry()


def _exposed_name(name: str, label_key: tuple) -> str:
    if not label_key:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{rendered}}}"


def _prom_labels(label_key: tuple) -> str:
    if not label_key:
        return ""
    rendered = ",".join(f'{k}="{v}"' for k, v in label_key)
    return f"{{{rendered}}}"
