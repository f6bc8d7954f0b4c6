"""Each committed chaos plan renders its committed report and exports
its committed telemetry.

CI replays every ``examples/*_plan.json`` through ``python -m repro.cli
chaos`` and ``cmp``s the report with ``tests/golden/<plan>.txt``; this
makes the same comparison in the tier-1 suite, so a change to plan
loading or to the harness is caught before CI. The same run's JSONL
telemetry export is pinned by its sha256 in
``tests/golden/chaos_telemetry.sha256`` (the exports are 150–750 KB
each, too large to commit): a change that moves one regenerates the
digest with 3.11 and names the spans, events or metrics that moved in
CHANGES.md. The goldens are generated with Python 3.11, so, as in CI,
only 3.11 compares them.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from repro.resilience import chaos
from repro.resilience.chaos import load_fault_plan, run_chaos

ROOT = Path(__file__).resolve().parents[1]
PLANS = sorted((ROOT / "examples").glob("*_plan.json"))
DIGESTS = ROOT / "tests" / "golden" / "chaos_telemetry.sha256"


def test_there_are_four_committed_plans():
    assert [plan.stem for plan in PLANS] == [
        "chaos_fault_plan", "crash_recovery_plan", "reshard_storm_plan",
        "slo_burn_plan"]


def committed_digests() -> dict:
    """``<plan stem>.jsonl`` -> sha256, in ``sha256sum`` format."""
    pairs = (line.split() for line in
             DIGESTS.read_text(encoding="utf-8").splitlines())
    return {name: digest for digest, name in pairs}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the goldens are generated with Python 3.11")
@pytest.mark.parametrize("plan", PLANS, ids=lambda path: path.stem)
def test_a_chaos_plan_renders_its_golden_report(plan, monkeypatch,
                                                tmp_path):
    built = []
    build = chaos._build_platform

    def capture(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(chaos, "_build_platform", capture)
    report = run_chaos(load_fault_plan(plan))
    golden = ROOT / "tests" / "golden" / f"{plan.stem}.txt"
    assert report.render() + "\n" == golden.read_text(encoding="utf-8")
    (symphony,) = built
    export = tmp_path / f"{plan.stem}.jsonl"
    symphony.export_telemetry(export)
    digest = hashlib.sha256(export.read_bytes()).hexdigest()
    assert digest == committed_digests()[export.name]
