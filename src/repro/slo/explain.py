"""Per-query latency attribution: who actually spent the time?

``explain_spans`` walks one query's span tree and apportions wall time
by *self time* — a span's duration minus the durations of its children,
clamped at zero because scatter-gather shard tasks share the one
simulated clock and concurrent siblings overlap their parent. Self
times are bucketed into operator-meaningful components:

* ``queue_wait`` — gateway queue time, reconstructed from the
  ``gateway`` span's ``queue_wait_ms`` attribute (queueing happens
  *before* the span opens, so it is invisible as span time);
* ``gateway`` / ``runtime`` / ``stage:<name>`` — serving-tier and
  pipeline overhead;
* ``source:<id>`` — per supplemental/primary source dispatch;
* ``cluster`` / ``shard:<n>`` / ``shard:<n> replica:<r>`` — fan-out
  coordination, per-shard work, and individual replica attempts
  (hedged retries show up as extra attempts on the same shard);
* ``service:<name>``, ``ads`` — bus calls and the ad auction; any other
  span is its own component, under its name.

The result names the dominant contributor (``shard:2 replica:1 78%``),
which is what the flight recorder's ``explain()`` surfaces per
anomalous query.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry import build_span_forest

__all__ = ["Attribution", "explain_spans"]


@dataclass(frozen=True)
class Attribution:
    """Where one query's wall time went, by component."""

    query_id: str
    total_ms: float
    #: component -> self-time ms, largest first.
    contributions: tuple = ()

    def fractions(self) -> list[tuple[str, float]]:
        if self.total_ms <= 0:
            return [(name, 0.0) for name, __ in self.contributions]
        return [(name, ms / self.total_ms)
                for name, ms in self.contributions]

    @property
    def dominant(self) -> tuple[str, float]:
        """(component, fraction) of the largest contributor."""
        fractions = self.fractions()
        return fractions[0] if fractions else ("", 0.0)

    @property
    def dominant_label(self) -> str:
        name, fraction = self.dominant
        return f"{name} {fraction * 100:.0f}%" if name else "(no spans)"

    def render(self) -> str:
        lines = [f"explain {self.query_id}: "
                 f"{self.total_ms:.1f} simulated ms total"]
        for name, ms in self.contributions:
            fraction = ms / self.total_ms if self.total_ms > 0 else 0.0
            bar = "#" * max(1, round(fraction * 30)) if ms > 0 else ""
            lines.append(
                f"  {name:<28} {ms:>9.1f} ms  {fraction * 100:>5.1f}%  "
                f"{bar}"
            )
        lines.append(f"  dominant: {self.dominant_label}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "total_ms": self.total_ms,
            "contributions": [[n, m] for n, m in self.contributions],
            "dominant": self.dominant_label,
        }


def _component(name: str, attrs: dict) -> str:
    """Map a span name to its attribution bucket."""
    if name == "gateway":
        return "gateway"
    if name == "query":
        return "runtime"
    if name.startswith("stage:"):
        return name
    if name == "source":
        return f"source:{attrs.get('source_id', '?')}"
    if name == "cluster.search" or name.startswith("phase:"):
        return "cluster"
    if name.startswith(("stats:shard-", "exec:shard-", "gather:shard-")):
        return f"shard:{name.split('shard-', 1)[1]}"
    if name.startswith("attempt:"):
        # attempt:shard-2/replica-1 -> "shard:2 replica:1"
        where = name.split(":", 1)[1]
        shard, __, replica = where.partition("/")
        return (f"shard:{shard.removeprefix('shard-')} "
                f"replica:{replica.removeprefix('replica-')}")
    if name.startswith(("rest:", "soap:")):
        return f"service:{name.split(':', 1)[1]}"
    if name.startswith("ads:"):
        return "ads"
    return name


def _duration(node: dict) -> float:
    end = node.get("end_ms")
    return float(end - node["start_ms"]) if end is not None else 0.0


def explain_spans(spans, query_id: str = "") -> Attribution:
    """Attribute one query's wall time across its span tree.

    ``spans`` is the full span set of one trace — live
    :class:`~repro.telemetry.trace.Span` objects or exported dicts.
    """
    forest = build_span_forest(spans)
    totals: dict[str, float] = {}
    total_ms = 0.0

    def walk(node: dict) -> None:
        duration = _duration(node)
        child_ms = sum(_duration(child) for child in node["children"])
        self_ms = max(0.0, duration - child_ms)
        component = _component(node["name"], node.get("attrs", {}))
        totals[component] = totals.get(component, 0.0) + self_ms
        for child in node["children"]:
            walk(child)

    for root in forest:
        total_ms += _duration(root)
        # Queue wait precedes the gateway span; surface it as its own
        # component and widen the denominator to match.
        queue_wait = float(
            root.get("attrs", {}).get("queue_wait_ms", 0.0)
        ) if root["name"] == "gateway" else 0.0
        if queue_wait > 0:
            totals["queue_wait"] = (
                totals.get("queue_wait", 0.0) + queue_wait)
            total_ms += queue_wait
        walk(root)
        if not query_id:
            query_id = root["trace_id"]

    ordered = tuple(sorted(
        ((name, round(ms, 3)) for name, ms in totals.items()),
        key=lambda pair: (-pair[1], pair[0]),
    ))
    return Attribution(query_id=query_id,
                       total_ms=round(total_ms, 3),
                       contributions=ordered)
