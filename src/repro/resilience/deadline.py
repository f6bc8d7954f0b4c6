"""Per-query deadline propagation.

A :class:`Deadline` is minted once per query by the runtime and threaded
through every stage that does real work — supplemental fan-out, cluster
scatter-gather, REST/SOAP invocation, the ad auction.  Each stage asks
``expired`` (or calls ``check``) before starting new work, so a query that
runs out of budget stops fanning out and degrades to partial results
instead of failing.

The budget is judged against :class:`repro.util.SimClock` and nothing
else, so every deadline decision is deterministic.
"""

from __future__ import annotations

from repro.errors import DeadlineExceededError

__all__ = ["Deadline"]


class Deadline:
    """A latency budget for one query, charged against the sim clock."""

    __slots__ = ("clock", "budget_ms", "deadline_ms", "reported")

    def __init__(self, clock, budget_ms: float) -> None:
        if budget_ms <= 0:
            raise ValueError("deadline budget must be positive")
        self.clock = clock
        self.budget_ms = float(budget_ms)
        self.deadline_ms = clock.now_ms + float(budget_ms)
        # Set by the first caller that surfaces the expiry to telemetry,
        # so one query emits one ``deadline.exceeded`` event, not one per
        # skipped source.
        self.reported = False

    def remaining_ms(self) -> float:
        """Simulated milliseconds left; negative once overrun."""
        return self.deadline_ms - self.clock.now_ms

    @property
    def expired(self) -> bool:
        return self.remaining_ms() <= 0

    def overshoot_ms(self) -> float:
        """How far past the budget the sim clock has run (0 if within)."""
        return max(0.0, -self.remaining_ms())

    def check(self, label: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the budget ran out."""
        if self.expired:
            where = f" in {label}" if label else ""
            raise DeadlineExceededError(
                f"deadline of {self.budget_ms:.0f}ms exceeded{where} "
                f"(overshoot {self.overshoot_ms():.0f}ms)"
            )
