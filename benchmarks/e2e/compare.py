"""``compare A.json B.json`` — did B regress against A?

Both files come from ``run.py --repeats N --out FILE``. For every
(workload, bounded metric) the medians are compared against the
metric's bound from ``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the spread between A's own repeats (interquartile
                range over median) is wider than the bound, or there
                are too few repeats to know it — never "passed on
                luck". A metric is still ``ok`` when every run of B
                reads better than every run of A, and still
                ``regressed`` when every run reads worse and the
                medians differ by more than the bound.

Runs of the same seed must also print the same ``answers_digest`` and
the same count-type metrics; a difference there is reported as
``regressed`` because it means the program's answers changed.
"""

from __future__ import annotations

import json
import statistics
import sys

__all__ = ["main", "verdict"]

#: Write-side metrics only ``catalog_churn`` produces. The driver's
#: contract wants every end-to-end metric non-zero on every workload,
#: so ``BENCHMARK.json`` lists these per layer; they keep a bound here.
CHURN_BOUNDS = {"ingest_rows_per_s": 0.20, "freshness_p50_ms": 0.20,
                "bulk_searchable_s": 0.25, "doc_writes_per_s": 0.20}
#: Any increase is a regression.
ZERO_TOLERANCE = ("failed_ratio", "degraded_ratio")
EXACT_UNITS = ("count", "bytes")


def _spread(values: list) -> float | None:
    if len(values) < 3:     # quartiles of two readings say nothing
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """``(verdict, worse_by, spread_of_a)``; ``worse_by`` is the share
    of A's median by which B's median is worse (negative = better)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    spread = _spread(a)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if spread is None or spread > bound:
        if all_better:
            return "ok", worse_by, spread
        if all_worse and worse_by > bound and spread is not None:
            return "regressed", worse_by, spread
        return "unresolved", worse_by, spread
    return ("regressed" if worse_by > bound else "ok"), worse_by, spread


def _values(runs: list, name: str) -> list:
    return [run["metrics"][name] for run in runs
            if name in run["metrics"]]


def main(argv: list, declared: dict) -> int:
    if len(argv) != 2:
        print("usage: compare A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        a_file = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        b_file = json.load(fh)
    directions = {m["name"]: m["better"]
                  for m in declared["end_to_end"] + declared["per_layer"]}
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    counts: dict[str, int] = {"ok": 0, "regressed": 0, "unresolved": 0}

    def report(workload, name, result, a_mid, b_mid, worse_by, spread,
               bound):
        counts[result] += 1
        spread_text = "n/a" if spread is None else f"{spread:7.2%}"
        print(f"{workload:<17} {name:<22} {a_mid:>12.4f} {b_mid:>12.4f} "
              f"{worse_by:>+8.2%} {spread_text:>8} {bound:>6.0%}  {result}")

    print(f"{'workload':<17} {'metric':<22} {'A median':>12} "
          f"{'B median':>12} {'worse by':>8} {'spread A':>8} {'bound':>6}")
    for workload in (w["name"] for w in declared["workloads"]):
        a_runs = a_file["runs"].get(workload, [])
        b_runs = b_file["runs"].get(workload, [])
        if not a_runs or not b_runs:
            continue
        checks = dict(bounds)
        if workload == "catalog_churn":
            checks.update(CHURN_BOUNDS)
        for name, bound in checks.items():
            a, b = _values(a_runs, name), _values(b_runs, name)
            if a and b:
                result, worse_by, spread = verdict(
                    a, b, directions[name], bound)
                report(workload, name, result, statistics.median(a),
                       statistics.median(b), worse_by, spread, bound)
        for name in ZERO_TOLERANCE:
            a, b = _values(a_runs, name), _values(b_runs, name)
            if a and b:
                rose = max(b) > max(a)
                report(workload, name, "regressed" if rose else "ok",
                       max(a), max(b), max(b) - max(a), 0.0, 0.0)
        # Same seed, same program: answers and counts must repeat.
        by_seed = {run["seed"]: run for run in a_runs}
        for run in b_runs:
            twin = by_seed.get(run["seed"])
            if twin is None:
                continue
            differing = [
                name for name, value in run["metrics"].items()
                if units.get(name) in EXACT_UNITS
                and name in twin["metrics"]
                and twin["metrics"][name] != value
            ]
            if run["answers_digest"] != twin["answers_digest"]:
                differing.insert(0, "answers_digest")
            result = "regressed" if differing else "ok"
            counts[result] += 1
            print(f"{workload:<17} seed {run['seed']}: answers and "
                  f"counts {'differ: ' + ', '.join(differing) if differing else 'identical'}"
                  f"  {result}")
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0
