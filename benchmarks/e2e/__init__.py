"""The repo's end-to-end wall-clock benchmark (see README.md here).

Four workloads over the public platform API, end-to-end metrics from an
untraced run, per-layer metrics from a traced rerun whose spans are
recorded from these files. ``BENCHMARK.json`` at the repo root declares
the command, the workloads and every metric with its unit and bound.
"""
