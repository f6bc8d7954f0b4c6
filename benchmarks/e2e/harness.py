"""Runs one workload in this process and measures it.

Closed loop, one client thread, a fixed operation stream generated from
the seed. End-to-end metrics always come from the untraced pass; with
``trace=True`` a second platform reruns the first third of the stream
under the benchmark's own spans for the per-layer times.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform as host
import resource
import statistics
import time
from dataclasses import dataclass, field

from benchmarks.e2e import layers
from benchmarks.e2e.trace import SpanTable, Tracer, wrapped_targets
from benchmarks.e2e.workloads import Scale, Workload, build_web

__all__ = ["Drive", "WorkloadResult", "run_workload", "environment"]

#: The platform is set up this many times per run and ``setup_s`` is
#: the median, so one slow build does not read as a regression. Two is
#: what the driver's total run-time cap leaves room for.
SETUPS = 2
#: The speed probe: a fixed arithmetic loop run by the driving thread
#: between operations, about every ``PROBE_EVERY_NS``. Its reading on
#: this box when nothing else runs is ``SPIN_REFERENCE_NS``.
SPIN_ITERATIONS = 3000
SPIN_REFERENCE_NS = 200_000
PROBE_EVERY_NS = 15_000_000
#: Every Nth answered query is recomputed by the linear-scan oracle.
CHECK_EVERY = 25
#: Operations whose latency is a customer query's. The probe that
#: follows an upload is one too: it is the read that pays for the
#: re-index.
CUSTOMER_KINDS = ("query", "probe")


def environment() -> dict:
    return {
        "python": host.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "machine": host.machine(),
    }


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _spin() -> int:
    start = time.perf_counter_ns()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i * i % 7
    return time.perf_counter_ns() - start


@dataclass
class Drive:
    """What one pass over an operation stream observed."""

    ops: list
    starts: list = field(default_factory=list)      # perf_counter_ns
    ends: list = field(default_factory=list)
    summaries: list = field(default_factory=list)   # None when raised
    errors: list = field(default_factory=list)
    probes: list = field(default_factory=list)      # speed-probe readings
    wall_s: float = 0.0                             # probes excluded
    cpu_s: float = 0.0
    #: How slow the box ran during this pass: median probe reading over
    #: the calm-box reference (1.0 = calm).
    slowdown: float = 1.0

    def durations_ms(self, *kinds: str) -> list:
        """Latencies of the operations of ``kinds`` (all, when none is
        named), at reference speed."""
        scale = 1e6 * self.slowdown
        return [(end - start) / scale
                for op, start, end in zip(self.ops, self.starts, self.ends)
                if not kinds or op[0] in kinds]


def drive(workload: Workload, platform, ops: list,
          tracer: Tracer | None = None) -> Drive:
    """Issue ``ops`` one at a time, each after the previous returned,
    reading the speed probe between operations."""
    out = Drive(ops)
    execute = workload.execute
    # The corpus is static from here on: keep the collector from
    # re-walking it during timing.
    gc.collect()
    gc.freeze()
    try:
        out.probes.append(_spin())
        probing_ns = 0
        cpu0 = time.process_time()
        wall0 = probed = time.perf_counter_ns()
        for i, op in enumerate(ops):
            start = time.perf_counter_ns()
            try:
                if tracer is None:
                    summary = execute(platform, op)
                else:
                    with tracer.root("op:" + op[0], i):
                        summary = execute(platform, op)
            except Exception as exc:  # noqa: BLE001 — a failed operation
                summary = None
                out.errors.append(f"op {i} {op[0]}: {exc!r}")
            end = time.perf_counter_ns()
            out.starts.append(start)
            out.ends.append(end)
            out.summaries.append(summary)
            if end - probed >= PROBE_EVERY_NS:
                reading = _spin()
                out.probes.append(reading)
                probing_ns += reading
                probed = time.perf_counter_ns()
        # The probe is single-threaded arithmetic: its wall is its CPU.
        out.wall_s = (time.perf_counter_ns() - wall0 - probing_ns) / 1e9
        out.cpu_s = time.process_time() - cpu0 - probing_ns / 1e9
        out.slowdown = statistics.median(out.probes) / SPIN_REFERENCE_NS
    finally:
        gc.unfreeze()
    return out


@dataclass
class WorkloadResult:
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    answers_digest: str
    metrics: dict                   # every metric computed, by name
    notes: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)


def _pass(workload: Workload, web, inputs, ops: list, setups: list,
          tracer: Tracer | None = None, inspect=None):
    """One pass: set up a fresh platform (timed into ``setups``), drive
    ``ops`` on it (none, when only the set-up is wanted), let
    ``inspect(platform, run)`` look at it, close it. The platform does
    not outlive the call, so the next set-up starts from a collected
    heap — two live platforms disturb each other through full GC
    passes."""
    started = time.perf_counter()
    platform = workload.setup(web, inputs)
    setups.append(time.perf_counter() - started)
    try:
        before = layers.snapshot(platform)
        if tracer is None:
            run = drive(workload, platform, ops)
        else:
            with tracer.installed():
                run = drive(workload, platform, ops, tracer)
        after = layers.snapshot(platform)
        inspected = inspect(platform, run) if inspect else None
        build_s = platform.build_s
    finally:
        platform.close()
        del platform
        gc.collect()
    return run, before, after, build_s, inspected


def _answers(run: Drive) -> list:
    """Per operation: kind, query text, top ids and look-up totals."""
    return [
        (op[0], op[2] if op[0] in ("query", "probe") else "",
         None if summary is None
         else (summary[0], summary[3], summary[4]))
        for op, summary in zip(run.ops, run.summaries)
    ]


def _digest(run: Drive) -> str:
    sha = hashlib.sha256()
    for answer in _answers(run):
        sha.update(repr(answer).encode("utf-8"))
    return sha.hexdigest()


def _timings(run: Drive) -> dict:
    """The timing metrics of a pass as a caller of the platform sees
    them, at reference speed: every time is divided by the pass's
    ``slowdown`` (see README, *Speed probe*)."""
    latencies = run.durations_ms(*CUSTOMER_KINDS)
    wall_s = run.wall_s / run.slowdown
    cpu_s = run.cpu_s / run.slowdown
    queries = len(latencies)
    uploads = run.durations_ms("upload")
    writes = run.durations_ms("doc_add", "doc_remove")
    landed = sum(sum(summary[0][:2])
                 for op, summary in zip(run.ops, run.summaries)
                 if op[0] == "upload" and summary is not None)
    upload_start = {op[1]: start for op, start
                    in zip(run.ops, run.starts) if op[0] == "upload"}
    freshness = [(end - upload_start[op[1]]) / 1e6 / run.slowdown
                 for op, end in zip(run.ops, run.ends)
                 if op[0] == "probe"]
    bulk = run.durations_ms("bulk")
    return {
        "query_p50_ms": statistics.median(latencies),
        "query_p95_ms": _percentile(latencies, 0.95),
        "queries_per_s": queries / wall_s,
        "cpu_ms_per_query": cpu_s * 1e3 / queries,
        "ingest_rows_per_s": (landed / (sum(uploads) / 1e3)
                              if uploads else 0.0),
        "freshness_p50_ms": (statistics.median(freshness)
                             if freshness else 0.0),
        "bulk_searchable_s": bulk[0] / 1e3 if bulk else 0.0,
        "doc_writes_per_s": (len(writes) / (sum(writes) / 1e3)
                             if writes else 0.0),
    }


def _judge(workload: Workload, platform, oracles, run: Drive):
    """Answer check: ``(failed, degraded, mismatches, lookups)``. An
    operation fails when it raised (shed included), came back empty, or
    — on every ``CHECK_EVERY``-th query — disagrees with the scan."""
    failed = degraded = mismatches = 0
    lookups = nonempty = checked = 0
    answered_queries = 0
    for op, summary in zip(run.ops, run.summaries):
        if summary is None or not workload.answered(op, summary):
            failed += 1
            continue
        degraded += bool(summary[2])
        lookups += summary[3]
        nonempty += summary[4]
        if op[0] != "query":
            continue
        answered_queries += 1
        if answered_queries % CHECK_EVERY == 0:
            checked += 1
            if not workload.verify(platform, oracles, op, summary):
                mismatches += 1
    return failed + mismatches, degraded, checked, lookups, nonempty


def run_workload(workload: Workload, seed: int, scale: Scale,
                 trace: bool = False, trace_out: str = "") -> WorkloadResult:
    leftover = wrapped_targets()
    if leftover:
        raise RuntimeError(f"timing shims still installed: {leftover}")
    started = time.perf_counter()
    web = build_web(workload.web_spec(seed, scale))
    generate_s = time.perf_counter() - started
    inputs = workload.inputs(web, seed, scale)
    query_ops = sum(1 for op in inputs.ops if op[0] in layers.QUERY_KINDS)
    setups: list = []

    def judge(platform, run):
        return _judge(workload, platform,
                      workload.oracles(web, inputs), run)

    run, before, after, build_s, judged = _pass(
        workload, web, inputs, inputs.ops, setups, inspect=judge)
    failed, degraded, checked, lookups, nonempty = judged
    metrics = layers.count_metrics(before, after, query_ops)
    html = [s[1] for op, s in zip(run.ops, run.summaries)
            if s is not None and op[0] in layers.QUERY_KINDS]
    metrics.update({
        "simweb.generate_s": generate_s,
        "searchengine.build_s": build_s,
        "presentation.html_bytes_per_query": (statistics.fmean(html)
                                              if html else 0.0),
        "runtime.lookup_nonempty_ratio": (nonempty / lookups
                                          if lookups else 0.0),
        "failed_ratio": failed / len(run.ops),
        "degraded_ratio": degraded / len(run.ops),
    })
    notes = list(run.errors[:5])
    correct = failed == 0 and degraded == 0
    if lookups and nonempty / lookups < 0.9:
        # Titles that miss the web would measure the zero-hit spelling
        # suggestion path instead of the supplemental fan-out.
        correct = False
        notes.append(f"only {nonempty}/{lookups} supplemental look-ups "
                     f"returned results")

    metrics.update(_timings(run))
    metrics["machine.slowdown_ratio"] = run.slowdown
    if trace:
        prefix = inputs.ops[:max(1, len(inputs.ops) // 3)]
        tracer = Tracer()
        traced = _pass(workload, web, inputs, prefix, setups, tracer)[0]
        if _answers(traced) != _answers(run)[:len(prefix)]:
            correct = False
            notes.append("the traced pass answered differently from the "
                         "untraced pass on the same operations")
        table = SpanTable(tracer.spans, traced.slowdown)
        uploaded = sum(op[3] for op in prefix if op[0] == "upload") \
            + sum(op[2] for op in prefix if op[0] == "bulk")
        metrics.update(layers.span_metrics(table, uploaded))
        metrics.update({
            "trace.overhead_ratio": (
                sum(traced.durations_ms())
                / sum(run.durations_ms()[:len(prefix)])),
            "trace.coverage_ratio": (
                sum(s.duration for s in table.roots()) / 1e9
                / traced.wall_s),
            "trace.missing_targets": len(tracer.missing),
        })
        notes.extend(f"missing wrap target: {m}" for m in tracer.missing)
        notes.extend(traced.errors[:5])
        if trace_out:
            tracer.write_jsonl(trace_out)
    while len(setups) < SETUPS:
        _pass(workload, web, inputs, [], setups)

    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return WorkloadResult(
        workload=workload.name, seed=seed, correct=correct,
        attempted=len(run.ops), failed=failed,
        answers_digest=_digest(run), metrics=metrics, notes=notes,
        samples={"timed_queries": sum(op[0] in CUSTOMER_KINDS
                                      for op in run.ops),
                 "operations": len(run.ops), "oracle_checks": checked,
                 "setups": len(setups), "speed_probes": len(run.probes)},
    )
