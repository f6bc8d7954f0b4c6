"""Each committed chaos plan renders its committed report.

CI replays every ``examples/*_plan.json`` through ``python -m repro.cli
chaos`` and ``cmp``s the report with ``tests/golden/<plan>.txt``; this
makes the same comparison in the tier-1 suite, so a change to plan
loading or to the harness is caught before CI. The goldens are generated
with Python 3.11, so, as in CI, only 3.11 compares them.
"""

import sys
from pathlib import Path

import pytest

from repro.resilience.chaos import load_fault_plan, run_chaos

ROOT = Path(__file__).resolve().parents[1]
PLANS = sorted((ROOT / "examples").glob("*_plan.json"))


def test_there_are_four_committed_plans():
    assert [plan.stem for plan in PLANS] == [
        "chaos_fault_plan", "crash_recovery_plan", "reshard_storm_plan",
        "slo_burn_plan"]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the goldens are generated with Python 3.11")
@pytest.mark.parametrize("plan", PLANS, ids=lambda path: path.stem)
def test_a_chaos_plan_renders_its_golden_report(plan):
    report = run_chaos(load_fault_plan(plan))
    golden = ROOT / "tests" / "golden" / f"{plan.stem}.txt"
    assert report.render() + "\n" == golden.read_text(encoding="utf-8")
