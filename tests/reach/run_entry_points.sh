#!/bin/sh
# Runs every entry point of the package once: each CLI drive (and the
# telemetry and gateway export / --input variants), the four chaos
# plans, every example, the paper benchmarks and the end-to-end
# benchmark's quick run. Standard output of each goes to one file under
# OUT. Run from the repo root:
#
#     REPRO_REACH_DIR=reach sh tests/reach/run_entry_points.sh OUT
#
# With REPRO_REACH_DIR set, tests/reach/sitecustomize.py records which
# src/repro functions ran, and
#
#     REPRO_REACH_DIR=reach PYTHONPATH=src python -m pytest \
#         tests/test_reachability.py
#
# then fails on a function that none of them ran. Without it this is a
# plain replay whose outputs can be diffed against another checkout's.
set -eu
out=${1:?usage: run_entry_points.sh OUT}
mkdir -p "$out"
export PYTHONPATH="tests/reach:src"

cli() {
    name=$1
    shift
    python -m repro.cli "$@" > "$out/$name.txt"
}

cli stats stats
cli search search "halo reviews" --site gamespot.com
cli suggest suggest gamespot.com ign.com
cli table1 table1
cli demo demo
cli dashboard dashboard
cli telemetry telemetry --prometheus
cli telemetry_export --seed 7 telemetry --shards 4 --output "$out/telemetry.jsonl"
cli telemetry_input telemetry --input "$out/telemetry.jsonl"
cli chaos chaos
for plan in examples/*_plan.json; do
    cli "$(basename "$plan" .json)" chaos --plan "$plan"
done
cli gateway gateway --output "$out/gateway.jsonl"
cli gateway_input gateway --input "$out/gateway.jsonl"
cli controlplane controlplane
cli controlplane_split_0 controlplane --split 0
cli controlplane_merge_1_0 controlplane --merge 1 0
cli slo slo
cli slo_explain_worst slo --explain worst
cli durability durability
cli durability_blob durability --storage blob
cli contracts contracts
cli contracts_events contracts --events
for example in examples/*.py; do
    python "$example" > "$out/$(basename "$example" .py).txt"
done
python -m pytest benchmarks --ignore=benchmarks/e2e -q -p no:cacheprovider \
    > "$out/benchmarks.txt"
python benchmarks/e2e/run.py --quick > "$out/e2e_quick.txt"
