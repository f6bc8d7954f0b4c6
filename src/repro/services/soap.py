"""SOAP-style services: envelopes and typed operations.

A :class:`SoapService` declares operations with named input/output parts;
invocations travel as :class:`SoapEnvelope` objects, and errors surface as
faults (:class:`~repro.errors.ServiceFaultError`) with a code and reason —
the shape real SOAP integrations give Symphony.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NotFoundError, ServiceFaultError, ValidationError
from repro.services.bus import ServiceDescriptor
from repro.telemetry.trace import NULL_TRACER

__all__ = ["SoapEnvelope", "SoapOperation", "SoapService"]


@dataclass(frozen=True)
class SoapEnvelope:
    """A SOAP message: headers plus a body of named parts."""

    operation: str
    body: dict
    headers: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SoapOperation:
    """An operation contract: its required input and output parts."""

    name: str
    input_parts: tuple      # required body part names
    output_parts: tuple


class SoapService:
    """Base class: subclasses register operations with contracts."""

    name = "soap-service"
    description = ""
    tracer = NULL_TRACER

    def __init__(self) -> None:
        self._operations: dict[str, tuple[SoapOperation, object]] = {}

    def attach_telemetry(self, telemetry) -> None:
        """Trace invocations under the caller's current span."""
        self.tracer = telemetry.tracer

    def operation(self, contract: SoapOperation, handler) -> None:
        self._operations[contract.name] = (contract, handler)

    def describe(self) -> ServiceDescriptor:
        return ServiceDescriptor(
            name=self.name,
            protocol="soap",
            operations=tuple(sorted(self._operations)),
            description=self.description,
        )

    def invoke(self, operation: str, params: dict):
        """Bus entry point: validate parts, call handler, wrap faults."""
        if not self.tracer.enabled:
            return self._dispatch(operation, params)
        with self.tracer.span(f"soap:{self.name}") as span:
            span.set("operation", operation)
            return self._dispatch(operation, params)

    def _dispatch(self, operation: str, params: dict):
        entry = self._operations.get(operation)
        if entry is None:
            raise NotFoundError(
                f"service {self.name!r} has no operation {operation!r}"
            )
        contract, handler = entry
        missing = [part for part in contract.input_parts
                   if part not in params]
        if missing:
            raise ServiceFaultError(
                "Client.MissingPart",
                f"operation {operation!r} requires parts: {missing}",
            )
        try:
            result = handler(dict(params))
        except ServiceFaultError:
            raise
        except ValidationError as exc:
            raise ServiceFaultError("Client.BadInput", str(exc)) from exc
        if not isinstance(result, dict):
            raise ServiceFaultError(
                "Server.BadResponse",
                f"operation {operation!r} returned a non-dict body",
            )
        missing_out = [part for part in contract.output_parts
                       if part not in result]
        if missing_out:
            raise ServiceFaultError(
                "Server.MissingPart",
                f"operation {operation!r} response lacks parts: "
                f"{missing_out}",
            )
        return result

    def call(self, envelope: SoapEnvelope) -> SoapEnvelope:
        """Direct envelope-in / envelope-out calling convention."""
        body = self.invoke(envelope.operation, envelope.body)
        return SoapEnvelope(
            operation=f"{envelope.operation}Response",
            body=body,
            headers=dict(envelope.headers),
        )
