"""Spans recorded from outside the program.

The traced run wraps the public callable at each layer boundary with a
timing shim, so the per-layer numbers need no change under ``src/``.
Targets imported by name elsewhere (``repro.cluster.replica`` does
``from repro.searchengine.engine import evaluate_candidates``) are
rebound in every loaded ``repro.*`` module that holds them. A target
that no longer exists is reported in :attr:`Tracer.missing` and its
metrics read 0 — a rename under ``src/`` must not fail the benchmark.

The current span lives in a ``ContextVar``; the cluster's scatter pool
and the gateway's queue both run work under a copy of the submitter's
context, so spans opened on worker threads parent correctly.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

__all__ = ["Span", "Target", "TARGETS", "Tracer", "SpanTable",
           "wrapped_targets"]

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "bench_e2e_span", default=None)
_MARK = "_bench_e2e_original"


class Span:
    """One timed call: name, interval, parent, and the request it
    belongs to. ``size`` is the number of items the call produced
    (candidates, rows…); ``calls`` counts count-only targets invoked
    directly under this span."""

    __slots__ = ("span_id", "parent_id", "request", "name", "start",
                 "end", "size", "calls", "error")

    def __init__(self, span_id: int, parent: "Span | None", name: str,
                 request: int = -1) -> None:
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else None
        self.request = parent.request if parent is not None else request
        self.name = name
        self.start = 0
        self.end = 0
        self.size = 0
        self.calls = 0
        self.error = False

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.span_id, "parent": self.parent_id,
                "request": self.request, "name": self.name,
                "start_ns": self.start, "end_ns": self.end,
                "size": self.size, "calls": self.calls,
                "error": self.error}


@dataclass(frozen=True)
class Target:
    """One wrap point: ``module.attr`` recorded as span ``span``."""

    span: str
    module: str
    attr: str                       # "function" or "Class.method"
    size: Callable | None = None    # result -> items handled
    count_only: bool = False        # bump parent's ``calls``, no span


TARGETS = (
    Target("gateway.query", "repro.gateway.gateway", "Gateway.query"),
    Target("runtime.handle_query", "repro.core.runtime",
           "SymphonyRuntime.handle_query"),
    Target("datasource.proprietary", "repro.core.datasources",
           "ProprietaryTableSource.search"),
    Target("datasource.web", "repro.core.datasources",
           "WebSearchSource.search"),
    Target("datasource.ads", "repro.core.datasources", "AdSource.search"),
    Target("presentation.render_app", "repro.core.presentation",
           "HtmlRenderer.render_app", size=len),
    Target("engine.search", "repro.searchengine.engine",
           "SearchEngine.search"),
    Target("cluster.search", "repro.cluster.engine",
           "ClusteredSearchEngine.search"),
    Target("engine.parse_query", "repro.searchengine.query",
           "parse_query"),
    Target("engine.evaluate_candidates", "repro.searchengine.engine",
           "evaluate_candidates", size=len),
    Target("engine.rank_candidates", "repro.searchengine.engine",
           "rank_candidates", size=len),
    Target("engine.materialize_result", "repro.searchengine.engine",
           "materialize_result"),
    Target("analyzer.analyze", "repro.searchengine.analysis",
           "Analyzer.analyze", count_only=True),
    Target("index.add", "repro.searchengine.index", "InvertedIndex.add"),
    Target("index.remove", "repro.searchengine.index",
           "InvertedIndex.remove"),
    Target("cluster.scatter", "repro.cluster.executor",
           "ScatterGatherExecutor.scatter"),
    Target("replica.run", "repro.cluster.replica", "ReplicaGroup.run"),
    Target("replica.run_annotated", "repro.cluster.replica",
           "ReplicaGroup.run_annotated"),
    Target("replica.broadcast", "repro.cluster.replica",
           "ReplicaGroup.broadcast"),
    Target("cluster.replicated_write", "repro.cluster.engine",
           "ClusteredSearchEngine.replicated_write"),
    Target("durability.append", "repro.durability.manager",
           "DurabilityManager.append"),
    Target("durability.after_write", "repro.durability.manager",
           "DurabilityManager.after_write"),
    Target("durability.checkpoint_shard", "repro.durability.manager",
           "DurabilityManager.checkpoint_shard"),
    Target("contracts.apply", "repro.contracts.manager",
           "ContractManager.apply"),
    Target("storage.upsert", "repro.storage.records",
           "RecordTable.upsert_by"),
    Target("storage.upsert", "repro.storage.records",
           "RecordTable.upsert_validated_by"),
    Target("storage.insert_rows", "repro.storage.tenant",
           "Tenant.insert_rows", size=int),
    Target("ingest.ingest", "repro.ingest.pipeline",
           "DatasetIngestor.ingest"),
    Target("ingest.rows_from_payload", "repro.ingest.pipeline",
           "rows_from_payload", size=lambda result: len(result[0])),
    Target("slo.observe", "repro.slo.engine", "SLOEngine.observe"),
)


def _resolve(target: Target):
    """``(owner, name, current value)`` of a target, or ``None``."""
    try:
        owner = importlib.import_module(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except (ImportError, AttributeError):
        return None


def wrapped_targets() -> list[str]:
    """Targets that currently carry a timing shim (the untraced run
    asserts this is empty)."""
    out = []
    for target in TARGETS:
        resolved = _resolve(target)
        if resolved is not None and hasattr(resolved[2], _MARK):
            out.append(f"{target.module}.{target.attr}")
    return out


class Tracer:
    """Installs the shims, collects spans in memory, removes the shims."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._restore: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def root(self, name: str, request: int):
        """The benchmark's own span around one operation, as its caller
        sees it; every wrapped call inside becomes a descendant."""
        span = Span(next(self._ids), None, name, request)
        token = _CURRENT.set(span)
        span.start = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            _CURRENT.reset(token)
            self.spans.append(span)

    def _shim(self, target: Target, original):
        spans, ids = self.spans, self._ids
        name, size = target.span, target.size

        if target.count_only:
            def shim(*args, **kwargs):
                span = _CURRENT.get()
                if span is not None:
                    span.calls += 1
                return original(*args, **kwargs)
        else:
            def shim(*args, **kwargs):
                span = Span(next(ids), _CURRENT.get(), name)
                token = _CURRENT.set(span)
                span.start = time.perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                    if size is not None:
                        span.size = size(result)
                    return result
                except BaseException:
                    span.error = True
                    raise
                finally:
                    span.end = time.perf_counter_ns()
                    _CURRENT.reset(token)
                    spans.append(span)

        setattr(shim, _MARK, original)
        shim.__name__ = getattr(original, "__name__", name)
        shim.__doc__ = getattr(original, "__doc__", None)
        return shim

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            resolved = _resolve(target)
            if resolved is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            owner, name, original = resolved
            shim = self._shim(target, original)
            if isinstance(owner, type):
                # Keep the raw descriptor so uninstall restores exactly
                # what the class held.
                descriptor = owner.__dict__.get(name, original)
                setattr(owner, name, shim)
                self._restore.append(
                    lambda o=owner, n=name, d=descriptor: setattr(o, n, d))
            else:
                self._rebind(original, shim)
                # Modules imported while tracing copy the shim by name,
                # so the reverse pass scans again instead of replaying
                # the forward list.
                self._restore.append(
                    lambda s=shim, o=original: self._rebind(s, o))

    @staticmethod
    def _rebind(old, new) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
        return len(self.spans)


class SpanTable:
    """Finished spans indexed for the per-layer roll-up. Milliseconds
    are reported at reference speed: divided by ``slowdown``, the speed
    probe's reading for the traced pass."""

    def __init__(self, spans: list[Span], slowdown: float = 1.0) -> None:
        self.spans = spans
        self.slowdown = slowdown
        self.by_id = {span.span_id: span for span in spans}
        self.children: dict = defaultdict(list)
        self.by_name: dict = defaultdict(list)
        for span in spans:
            self.children[span.parent_id].append(span)
            self.by_name[span.name].append(span)

    def named(self, *names: str) -> list[Span]:
        return [span for name in names for span in self.by_name[name]]

    def self_ns(self, span: Span) -> int:
        """Duration minus the union of the children's intervals (they
        overlap when shards run on worker threads)."""
        covered = 0
        reach = span.start
        for child in sorted(self.children[span.span_id],
                            key=lambda s: s.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def ms(self, nanoseconds: float) -> float:
        return nanoseconds / 1e6 / self.slowdown

    def total_ms(self, *names: str) -> float:
        return self.ms(sum(s.duration for s in self.named(*names)))

    def self_ms(self, *names: str) -> float:
        return self.ms(sum(self.self_ns(s) for s in self.named(*names)))

    def count(self, *names: str) -> int:
        return sum(len(self.by_name[name]) for name in names)

    def size(self, *names: str) -> int:
        return sum(s.size for s in self.named(*names))

    def roots(self) -> list[Span]:
        return self.children[None]
