"""Smoke test of the benchmark itself (``--quick``: tiny corpus, about
1 % of the counts). Lives outside ``testpaths``; run it with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import trace
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.layers import span_metrics

ROOT = pathlib.Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(workload: str, traced: int) -> list:
    """Standard output lines of one ``--quick`` run."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "6",
         "--trace", str(traced), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def test_declaration_is_well_formed():
    names = [m["name"]
             for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(DECLARED["end_to_end"]) <= 16
    assert len(DECLARED["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in DECLARED["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced", (0, 1))
def test_every_declared_metric_is_emitted(workload, traced):
    line = json.loads(_run(workload, traced)[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    section = DECLARED["per_layer" if traced else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in section}
    for metric in section:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not traced:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    else:
        assert line["metrics"]["trace.missing_targets"]["value"] == 0
        assert line["metrics"]["trace.coverage_ratio"]["value"] > 0.9


def test_same_seed_same_answers():
    def digest() -> str:
        return next(line for line in _run("catalog_churn", 0)
                    if "answers_digest" in line)

    assert digest() == digest()


def test_missing_wrap_target_is_reported_not_fatal(monkeypatch):
    gone = trace.Target("engine.search", "repro.searchengine.engine",
                        "SearchEngine.renamed_away")
    monkeypatch.setattr(trace, "TARGETS", (gone, *trace.TARGETS))
    tracer = trace.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert trace.wrapped_targets()
            raise RuntimeError("the traced run failed")
    assert trace.wrapped_targets() == []        # removed in a finally
    assert tracer.missing == [
        "repro.searchengine.engine.SearchEngine.renamed_away"]
    metrics = span_metrics(trace.SpanTable(tracer.spans), 0)
    assert metrics["searchengine.rank_ms_per_search"] == 0


def test_self_time_subtracts_the_union_of_children():
    tracer = trace.Tracer()

    def span(span_id, parent, start, end):
        out = trace.Span(span_id, parent, "x")
        out.start, out.end = start, end
        return out

    root = span(1, None, 0, 100)
    # Two overlapping children (shards on worker threads): 10-60 ∪ 40-80.
    tracer.spans += [root, span(2, root, 10, 60), span(3, root, 40, 80)]
    assert trace.SpanTable(tracer.spans).self_ns(root) == 30


def test_compare_never_passes_on_luck():
    steady = [10.0, 10.1, 9.9, 10.0]
    noisy = [10.0, 14.0, 8.0, 12.0]
    assert verdict(steady, [10.2, 10.3, 10.1], "lower", 0.10)[0] == "ok"
    assert verdict(steady, [12.0, 12.1, 11.9], "lower", 0.10)[0] \
        == "regressed"
    assert verdict(noisy, [10.5, 11.0, 9.0], "lower", 0.10)[0] \
        == "unresolved"
    assert verdict(noisy, [7.0, 7.5], "lower", 0.10)[0] == "ok"
    assert verdict([100.0, 101.0, 99.0], [80.0, 81.0], "higher",
                   0.10)[0] == "regressed"
