"""REST-style services: path-template routing over the service bus.

A :class:`RestService` subclass declares routes like ``GET /prices/{sku}``;
the bus invokes them via the generic ``invoke(operation, params)`` contract
where the operation is ``"GET /prices/{sku}"`` and ``params`` carries both
path and query parameters; a concrete ``"GET /prices/halo-3"`` is
matched against the templates.
"""

from __future__ import annotations

import re

from repro.errors import NotFoundError
from repro.services.bus import ServiceDescriptor
from repro.telemetry.trace import NULL_TRACER

__all__ = ["RestService"]

_PARAM_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _template_to_regex(template: str) -> re.Pattern:
    pattern = _PARAM_RE.sub(r"(?P<\1>[^/]+)", re.escape(template)
                            .replace(r"\{", "{").replace(r"\}", "}"))
    return re.compile(f"^{pattern}$")


class RestService:
    """Base class: subclasses populate ``self.routes`` in ``__init__``.

    ``routes`` maps ``"GET /path/{param}"`` to a handler taking a params
    dict and returning a JSON-able value.
    """

    name = "rest-service"
    description = ""
    tracer = NULL_TRACER

    def __init__(self) -> None:
        self.routes: dict[str, object] = {}
        self._compiled: list[tuple[str, re.Pattern, object]] = []

    def attach_telemetry(self, telemetry) -> None:
        """Trace invocations under the caller's current span."""
        self.tracer = telemetry.tracer

    def route(self, operation: str, handler) -> None:
        self.routes[operation] = handler
        method, __, template = operation.partition(" ")
        self._compiled.append(
            (method.upper(), _template_to_regex(template), handler)
        )

    def describe(self) -> ServiceDescriptor:
        return ServiceDescriptor(
            name=self.name,
            protocol="rest",
            operations=tuple(sorted(self.routes)),
            description=self.description,
        )

    def invoke(self, operation: str, params: dict):
        """Bus entry point. ``operation`` may be a declared route key or a
        concrete ``"GET /prices/halo-3"`` that matches a template."""
        if not self.tracer.enabled:
            return self._dispatch(operation, params)
        with self.tracer.span(f"rest:{self.name}") as span:
            span.set("operation", operation)
            return self._dispatch(operation, params)

    def _dispatch(self, operation: str, params: dict):
        handler = self.routes.get(operation)
        if handler is not None:
            return handler(dict(params))
        method, __, path = operation.partition(" ")
        for route_method, pattern, route_handler in self._compiled:
            if route_method != method.upper():
                continue
            match = pattern.match(path)
            if match:
                merged = dict(params)
                merged.update(match.groupdict())
                return route_handler(merged)
        raise NotFoundError(
            f"service {self.name!r} has no route for {operation!r}"
        )
