"""Command line of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--quick] [--repeats R]
                                  [--out FILE] [--trace-out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``) holding every end-to-end metric, or with
``--trace 1`` every per-layer metric, that ``BENCHMARK.json`` declares.
Without it each workload runs in its own subprocess — two live
platforms in one process disturb each other through full GC passes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
# Runs from a bare checkout: nothing is installed, so put the repo root
# (for ``benchmarks.e2e``) and ``src`` (for ``repro``) on the path.
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

DEFAULT_SEED = 2010


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _emit(result, declared: dict, trace: bool) -> None:
    """Print every computed metric by name with its unit, then the
    contract's one-line JSON object."""
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    section = declared["per_layer"] if trace else declared["end_to_end"]
    print(f"workload {result.workload}  seed {result.seed}  "
          f"samples {result.samples}")
    for name in sorted(result.metrics):
        if name in units:
            print(f"  {name:<44} {result.metrics[name]:>14.4f} "
                  f"{units[name]}")
    print(f"  answers_digest {result.answers_digest}")
    for note in result.notes:
        print(f"  note: {note}")
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": result.metrics[m["name"]],
                        "unit": m["unit"]}
            for m in section
        },
    }
    print(json.dumps(line))


def _run_one(args, declared: dict) -> int:
    from benchmarks.e2e.harness import run_workload
    from benchmarks.e2e.workloads import WORKLOADS, Scale

    result = run_workload(
        WORKLOADS[args.workload], args.seed,
        Scale(seconds=args.seconds, quick=args.quick),
        trace=bool(args.trace), trace_out=args.trace_out,
    )
    _emit(result, declared, bool(args.trace))
    # The result line carries ``correct``; the exit code only says that
    # a result was printed.
    if args.out:
        record = {"workload": result.workload, "seed": result.seed,
                  "correct": result.correct, "failed": result.failed,
                  "attempted": result.attempted,
                  "answers_digest": result.answers_digest,
                  "samples": result.samples, "notes": result.notes,
                  "metrics": result.metrics}
        pathlib.Path(args.out).write_text(json.dumps(record), "utf-8")
    return 0


def _run_all(args, declared: dict) -> int:
    """Each workload in its own subprocess, ``--repeats`` times; the
    collected records go to ``--out`` for ``compare``."""
    from benchmarks.e2e.harness import environment

    names = [w["name"] for w in declared["workloads"]]
    runs: dict = {name: [] for name in names}
    status = 0
    scratch = pathlib.Path(args.out or "e2e_runs.json").with_suffix(
        ".part.json")
    for repeat in range(args.repeats):
        for name in names:
            command = [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(scratch),
            ]
            if args.quick:
                command.append("--quick")
            if args.trace_out:
                command += ["--trace-out",
                            f"{args.trace_out}.{name}.{repeat}.jsonl"]
            done = subprocess.run(command, cwd=ROOT)
            status = status or done.returncode
            if scratch.exists():
                record = json.loads(scratch.read_text("utf-8"))
                scratch.unlink()
                runs[name].append(record)
                status = status or int(not record["correct"])
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps({
            "environment": environment(), "seed": args.seed,
            "seconds": args.seconds, "quick": args.quick,
            "runs": runs,
        }, indent=1), "utf-8")
    return status


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main
        return compare_main(argv[1:], declaration())
    declared = declaration()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", default="")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    if args.workload:
        return _run_one(args, declared)
    return _run_all(args, declared)


if __name__ == "__main__":
    sys.exit(main())
