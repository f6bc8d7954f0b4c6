"""Governed ingest: a data contract catches a silently drifting feed.

Run with::

    python examples/drifted_feed.py

A storefront designer puts a :class:`~repro.contracts.DataContract` on
their scheduled products feed — typed fields, canonical-key upserts, a
freshness SLA. The producer then silently changes the feed (a new
column, free-text prices), ships junk rows, and finally goes dark.
The contract layer flags the schema drift within one refresh interval,
quarantines the violating rows without losing them, raises a staleness
alert once the SLA is breached, and — after the designer amends the
contract — replays the quarantine so the recoverable rows load.

The same scenario backs ``python -m repro.cli contracts`` and the X15
benchmark; this script exits non-zero if any invariant fails.
"""

import sys

from repro import Symphony
from repro.contracts.scenario import run_drifted_feed


def main() -> int:
    symphony = Symphony(slo=True)
    report = run_drifted_feed(symphony)
    print(report.render())
    print()
    print(report.status_text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
