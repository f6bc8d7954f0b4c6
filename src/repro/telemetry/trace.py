"""Hierarchical tracing: spans, parent-child context, deterministic ids.

A :class:`Tracer` produces a tree of :class:`Span` objects per query —
query → stage → per-source → cluster phase → per-shard → per-replica —
timed off :class:`~repro.util.SimClock` so the same seeded run always
yields the same span tree. The *current* span lives in a
:class:`contextvars.ContextVar`, so the gateway can hand a submitter's
span to whichever thread dispatches its request (the ``contextvars``
snapshot each queued entry carries);
:class:`~repro.cluster.executor.ScatterGatherExecutor` runs shard tasks
on the scattering thread, so their spans parent under the span that
scattered them with no hand-off at all.

Span ids are content-derived (``stable_hash(parent, name, occurrence)``)
rather than random, which is what makes traces reproducible: two runs
that perform the same operations produce byte-identical span trees.
Same-named siblings are numbered in the order they open, which is
deterministic because the tracer, like everything below the gateway,
has one caller at a time. A span stores only its parent, name and
occurrence; its ids are hashed when first read (an export, a trace
look-up) and kept, so a span nobody reads costs no hash, and filing a
finished span costs its trace's one root hash.

The default tracer is :data:`NULL_TRACER`, whose ``span()`` returns one
shared no-op object — the uninstrumented hot path allocates nothing.
"""

from __future__ import annotations

from contextvars import ContextVar
from types import MappingProxyType

from repro.util import SimClock, stable_hash

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "build_span_forest",
    "render_span_tree",
]

_CURRENT_SPAN: ContextVar = ContextVar("repro_current_span",
                                       default=None)

#: The ``attrs`` of every span nothing has been ``set`` on: one shared,
#: read-only empty mapping, so a stray direct write raises instead of
#: landing in every other span.
_NO_ATTRS = MappingProxyType({})


class Span:
    """One timed operation; a context manager that tracks the tree.

    Truthiness doubles as an "is tracing live?" check, so call sites can
    guard attribute work with ``if span: span.set(...)`` and pay nothing
    when the no-op tracer is installed.

    A tracer keeps every finished span, and most never carry an
    attribute or a child, so ``attrs`` stays the shared read-only empty
    mapping until the first :meth:`set`, and ``_child_counts`` stays
    ``None`` until the first child opens.
    """

    __slots__ = ("tracer", "parent", "name", "occurrence", "start_ms",
                 "end_ms", "status", "attrs", "_trace_id", "_span_id",
                 "_child_counts", "_token")

    def __init__(self, tracer: "Tracer", parent: "Span | None", name: str,
                 occurrence: int, start_ms: int) -> None:
        self.tracer = tracer
        self.parent = parent
        self.name = name
        self.occurrence = occurrence
        self.start_ms = start_ms
        self.end_ms: int | None = None
        self.status = "ok"
        self.attrs: dict | MappingProxyType = _NO_ATTRS
        self._trace_id: str | None = None
        self._span_id: str | None = None
        self._child_counts: dict[str, int] | None = None
        self._token = None

    @property
    def trace_id(self) -> str:
        """``stable_hash("trace", name, occurrence)`` of the trace's
        root span, shared by every span under it."""
        if self._trace_id is None:
            parent = self.parent
            self._trace_id = (
                _hex(stable_hash("trace", self.name, self.occurrence))
                if parent is None else parent.trace_id)
        return self._trace_id

    @property
    def span_id(self) -> str:
        """``stable_hash(parent id, name, occurrence)``; a root's parent
        id is its trace id."""
        if self._span_id is None:
            parent = self.parent
            self._span_id = _hex(stable_hash(
                self.trace_id if parent is None else parent.span_id,
                self.name, self.occurrence))
        return self._span_id

    @property
    def parent_id(self) -> str | None:
        parent = self.parent
        return None if parent is None else parent.span_id

    def __bool__(self) -> bool:
        return True

    def set(self, key: str, value) -> None:
        if self.attrs is _NO_ATTRS:
            self.attrs = {}
        self.attrs[key] = value

    @property
    def duration_ms(self) -> float:
        end = self.end_ms if self.end_ms is not None \
            else self.tracer.clock.now_ms
        return float(end - self.start_ms)

    def __enter__(self) -> "Span":
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            if "error" not in self.attrs:
                self.set("error", str(exc))
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        self.tracer._finish(self)
        return False

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, status={self.status})")


class _NullSpan:
    """The shared do-nothing span; falsy so callers can skip attr work."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Produces spans parented off the ambient current span.

    ``clock`` supplies every timestamp, so span trees (ids, times,
    structure) replay identically for the same seeded workload.
    """

    enabled = True

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        # trace id -> its finished spans, in completion order; a
        # trace's spans are read without touching any other trace's
        self._finished: dict[str, list[Span]] = {}
        self._root_counts: dict[str, int] = {}

    # -- span lifecycle -------------------------------------------------------

    def span(self, name: str) -> Span:
        """Open a child of the current span (or a new root)."""
        parent = _CURRENT_SPAN.get()
        if parent is None:
            counts = self._root_counts
        else:
            counts = parent._child_counts
            if counts is None:
                counts = parent._child_counts = {}
        occurrence = counts.get(name, 0)
        counts[name] = occurrence + 1
        return Span(self, parent, name, occurrence, self.clock.now_ms)

    def current(self) -> Span | None:
        return _CURRENT_SPAN.get()

    def _finish(self, span: Span) -> None:
        span.end_ms = self.clock.now_ms
        self._finished.setdefault(span.trace_id, []).append(span)

    # -- accessors ------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Finished spans in a deterministic order — by trace id, then
        start, then span id — not completion order."""
        return [span for trace_id in sorted(self._finished)
                for span in sorted(self._finished[trace_id],
                                   key=_start_then_id)]

    def trace_spans(self, trace_id: str) -> list[Span]:
        """One trace's finished spans, by start then span id."""
        return sorted(self._finished.get(trace_id, ()),
                      key=_start_then_id)

    def reset(self) -> None:
        self._finished.clear()
        self._root_counts.clear()


class NullTracer:
    """The default: every ``span()`` is the same shared no-op object."""

    enabled = False
    spans: tuple = ()

    def span(self, name: str | None = None) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def trace_spans(self, trace_id: str) -> tuple:
        return ()

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()


def _hex(value: int) -> str:
    return f"{value:016x}"


def _start_then_id(span: Span) -> tuple:
    return span.start_ms, span.span_id


def _as_dict(span) -> dict:
    return span if isinstance(span, dict) else span.to_dict()


def build_span_forest(spans) -> list[dict]:
    """Arrange span dicts (or :class:`Span` objects) into root trees.

    Each returned node is the span dict plus a ``children`` list;
    children are ordered by (start, span_id) so the forest is stable
    regardless of completion order.
    """
    nodes = [dict(_as_dict(s), children=[]) for s in spans]
    by_id = {node["span_id"]: node for node in nodes}
    roots = []
    for node in nodes:
        parent = by_id.get(node["parent_id"])
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    order = (lambda n: (n["start_ms"], n["span_id"]))
    for node in nodes:
        node["children"].sort(key=order)
    roots.sort(key=lambda n: (n["trace_id"], n["start_ms"],
                              n["span_id"]))
    return roots


def render_span_tree(spans, include_ids: bool = False) -> str:
    """Text rendering of the span forest, one line per span."""
    lines: list[str] = []

    def walk(node: dict, depth: int) -> None:
        duration = ((node["end_ms"] - node["start_ms"])
                    if node["end_ms"] is not None else 0)
        attrs = " ".join(
            f"{key}={node['attrs'][key]!r}"
            for key in sorted(node["attrs"])
        )
        status = "" if node["status"] == "ok" else f" !{node['status']}"
        span_id = f" [{node['span_id'][:8]}]" if include_ids else ""
        lines.append(
            f"{'  ' * depth}{node['name']}{span_id} "
            f"{duration} ms{status}" + (f"  {attrs}" if attrs else "")
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in build_span_forest(spans):
        walk(root, 0)
    return "\n".join(lines)
