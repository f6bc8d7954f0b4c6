"""SOAP-style services: envelopes, typed operations, WSDL-lite contracts.

A :class:`SoapService` declares operations with named input/output parts;
invocations travel as :class:`SoapEnvelope` objects, and errors surface as
faults (:class:`~repro.errors.ServiceFaultError`) with a code and reason —
the shape real SOAP integrations give Symphony.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    NotFoundError,
    ServiceError,
    ServiceFaultError,
    TransportError,
    ValidationError,
)
from repro.services.bus import ServiceDescriptor
from repro.telemetry.trace import NULL_TRACER

__all__ = ["SoapEnvelope", "SoapOperation", "SoapService", "SoapClient"]


@dataclass(frozen=True)
class SoapEnvelope:
    """A SOAP message: headers plus a body of named parts."""

    operation: str
    body: dict
    headers: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SoapOperation:
    """A WSDL-lite operation contract."""

    name: str
    input_parts: tuple      # required body part names
    output_parts: tuple
    documentation: str = ""


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

    def wsdl(self) -> dict:
        """A WSDL-lite description: operation → input/output parts."""
        return {
            "service": self.name,
            "operations": {
                name: {
                    "input": list(contract.input_parts),
                    "output": list(contract.output_parts),
                    "documentation": contract.documentation,
                }
                for name, (contract, __) in sorted(self._operations.items())
            },
        }

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


class SoapClient:
    """Caller that speaks envelopes to a SOAP service through the bus.

    Transport resets are normalized to :class:`ServiceError`, matching
    :class:`~repro.services.rest.RestClient` — provider failures reach
    callers as one uniform class (faults stay :class:`ServiceFaultError`,
    itself a :class:`ServiceError`).
    """

    def __init__(self, bus, service_name: str) -> None:
        self._bus = bus
        self._service_name = service_name

    def _invoke(self, operation: str, parts: dict, deadline=None):
        try:
            return self._bus.invoke(self._service_name, operation,
                                    parts, deadline=deadline)
        except TransportError as exc:
            raise ServiceError(
                f"transport failure calling {self._service_name}: {exc}"
            ) from exc

    def call(self, operation: str, deadline=None, **parts) -> dict:
        return self._invoke(operation, parts, deadline=deadline)
