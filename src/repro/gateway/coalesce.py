"""Single-flight request coalescing.

An embed snippet on a popular page stampedes Symphony with identical
queries.  Executing each one would recompute the same scatter-gather N
times; instead, concurrent identical requests — same application,
normalized query text, page, and customer — collapse onto one in-flight
:class:`FlightEntry` whose result fans out to every attached
:class:`Ticket`.  The same mechanism is the cache's stampede protection:
a miss enters the flight table, so the second-through-Nth misses for a
key wait on the first instead of piling onto the backend.
"""

from __future__ import annotations

from repro.errors import TicketPendingError

__all__ = ["Ticket", "FlightEntry", "SingleFlightTable"]


class Ticket:
    """One caller's handle to an admitted (possibly shared) request.

    A plain record: the gateway resolves it under its lock, and a
    caller reads it once a dispatch has run.
    """

    __slots__ = ("key", "principal", "coalesced", "submitted_ms",
                 "done", "_response", "_error")

    def __init__(self, key, principal: str, submitted_ms: int,
                 coalesced: bool = False) -> None:
        self.key = key
        self.principal = principal
        self.coalesced = coalesced
        self.submitted_ms = submitted_ms
        self.done = False
        self._response = None
        self._error = None

    def resolve(self, response) -> None:
        self._response = response
        self.done = True

    def fail(self, error: BaseException) -> None:
        self._error = error
        self.done = True

    def result(self):
        """The response; raises what the execution raised, or
        :class:`~repro.errors.TicketPendingError` while the request is
        still queued (``Gateway.pump()`` dispatches it)."""
        if not self.done:
            raise TicketPendingError(
                "request is still queued; call Gateway.pump() to "
                "dispatch it"
            )
        if self._error is not None:
            raise self._error
        return self._response


class FlightEntry:
    """One queued/executing request plus every ticket riding on it."""

    __slots__ = ("key", "principal", "request", "deadline", "context",
                 "enqueued_ms", "cost", "tickets")

    def __init__(self, key, principal: str, request, deadline,
                 context, enqueued_ms: int, cost: float = 1.0) -> None:
        self.key = key
        self.principal = principal
        self.request = request
        self.deadline = deadline
        #: ``contextvars`` snapshot from submit time, so the dispatching
        #: thread executes under the submitter's telemetry span.
        self.context = context
        self.enqueued_ms = enqueued_ms
        self.cost = cost
        self.tickets: list[Ticket] = []

    def attach(self, ticket: Ticket) -> None:
        self.tickets.append(ticket)


class SingleFlightTable:
    """Key → in-flight :class:`FlightEntry`, while queued or executing.

    Not locked itself: every lookup, registration and completion runs
    under the gateway's one lock, so a ticket attaches to an entry
    either before its dispatch starts (and is resolved by it) or after
    it finished and left the table.
    """

    def __init__(self) -> None:
        self._inflight: dict = {}

    def lookup(self, key) -> FlightEntry | None:
        return self._inflight.get(key)

    def register(self, key, entry: FlightEntry) -> None:
        self._inflight[key] = entry

    def complete(self, key) -> None:
        self._inflight.pop(key, None)

    def __len__(self) -> int:
        return len(self._inflight)
