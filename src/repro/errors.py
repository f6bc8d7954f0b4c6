"""Exception hierarchy shared across the Symphony reproduction.

Every subsystem raises subclasses of :class:`ReproError` so that callers can
catch platform failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An application or source configuration is invalid."""


class ValidationError(ReproError):
    """User-supplied data failed validation."""


class NotFoundError(ReproError):
    """A referenced entity (tenant, table, app, service...) does not exist."""


class DuplicateError(ReproError):
    """An entity with the same identifier already exists."""


class AuthorizationError(ReproError):
    """The caller's token does not grant the requested operation."""


class QuotaExceededError(ReproError):
    """A tenant exceeded its storage or request quota."""


class UnsupportedCapabilityError(ReproError):
    """A platform (typically a Table-I baseline) does not support a feature.

    The capability probes used to regenerate Table I rely on this being
    raised by baseline platforms for unsupported operations.
    """

    def __init__(self, capability: str, detail: str = "") -> None:
        self.capability = capability
        message = f"unsupported capability: {capability}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class TransportError(ReproError):
    """A simulated network transport failed (timeout, reset, 4xx/5xx)."""


class ServiceError(ReproError):
    """A web service invocation failed."""


class ServiceFaultError(ServiceError):
    """A SOAP-style fault returned by a service."""

    def __init__(self, code: str, reason: str) -> None:
        self.code = code
        self.reason = reason
        super().__init__(f"{code}: {reason}")


class DeadlineExceededError(ReproError):
    """A per-query wall-clock budget ran out before the work completed.

    Raised by :class:`repro.resilience.Deadline` checks inside the service
    bus, the cluster scatter-gather, and the ad auction.  The runtime
    catches it and degrades to partial results; it never fails a query.
    """


class RetryExhaustedError(ReproError):
    """A retryable operation kept failing until the retry budget ran out.

    Carries the number of ``attempts`` made and the ``cause`` — the last
    underlying :class:`ReproError` — so callers (and warnings) can surface
    what actually went wrong.
    """

    def __init__(self, attempts: int, cause: BaseException) -> None:
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"retries exhausted after {attempts} attempt"
            f"{'s' if attempts != 1 else ''}: {cause}"
        )


class AdmissionRejectedError(ReproError):
    """The serving gateway refused a request before execution.

    Carries the machine-readable ``reason`` — ``"throttle"`` (token
    bucket empty), ``"queue_full"`` (per-tenant queue at capacity),
    ``"deadline"`` (projected queue wait would consume the request's
    budget), or ``"deadline_lapsed"`` (budget ran out while queued).
    Shedding at the front door is deliberate: the caller learns
    immediately instead of timing out inside the pipeline.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        message = f"admission rejected ({reason})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class TicketPendingError(ReproError):
    """A gateway ticket's result was read before any dispatch ran it;
    ``Gateway.pump()`` (or ``Gateway.query``) dispatches queued work."""


class ControlPlaneError(ReproError):
    """A topology-change request was invalid or conflicted with one in
    flight (only one migration runs at a time)."""


class DurabilityError(ReproError):
    """A WAL/checkpoint/recovery operation was invalid or failed to
    converge (e.g. a post-replay digest mismatch with a healthy peer)."""


class QueryError(ReproError):
    """A search query could not be parsed or evaluated."""


class ReplicaFaultError(ReproError):
    """An injected or simulated fault on one shard replica."""


class ShardUnavailableError(ReproError):
    """Every replica of a shard failed to serve a request."""


class IngestError(ReproError):
    """A data upload could not be parsed or normalized."""


class ContractViolationError(IngestError):
    """Rows broke their table's data contract under the ``reject`` policy.

    Carries the structured ``violations`` (sequence of
    :class:`repro.contracts.Violation`) so callers can report exactly
    which rows and fields failed instead of re-parsing the message.
    """

    def __init__(self, table: str, violations=()) -> None:
        self.table = table
        self.violations = tuple(violations)
        super().__init__(
            f"contract violated for table {table!r}: "
            f"{len(self.violations)} violation"
            f"{'s' if len(self.violations) != 1 else ''}"
        )


class RenderError(ReproError):
    """Layout rendering failed."""


class PublicationError(ReproError):
    """Publishing an application to a distribution target failed."""


def retryable(exc: BaseException) -> bool:
    """Classify whether retrying ``exc`` could plausibly succeed.

    Transient provider-side failures (transport resets, simulated outages,
    replica faults, shard exhaustion, executor timeouts, ``Server.*`` SOAP
    faults) are retryable.  Caller mistakes (validation, authorization,
    not-found, ``Client.*`` faults), quota rejections, and the resilience
    layer's own terminal errors are not.
    """
    if isinstance(exc, (DeadlineExceededError, RetryExhaustedError)):
        return False
    if isinstance(exc, ServiceFaultError):
        return exc.code.startswith("Server")
    if isinstance(exc, (TransportError, ServiceError, ReplicaFaultError,
                        ShardUnavailableError)):
        return True
    return isinstance(exc, TimeoutError)
