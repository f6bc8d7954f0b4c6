"""The hosted HTTP surface: what the embed JavaScript actually calls.

:class:`HostingFrontend` plays the web tier in front of the runtime: it
resolves the request path through the router, validates the embed key,
executes the query, and wraps the outcome in an HTTP-shaped response —
including the error statuses a real deployment needs (404 unknown app,
403 bad embed key, 400 bad query).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.runtime import QueryRequest
from repro.errors import NotFoundError, PublicationError, QueryError

__all__ = ["HttpResponse", "HostingFrontend"]


@dataclass(frozen=True)
class HttpResponse:
    status: int
    body: str
    content_type: str = "text/html; charset=utf-8"

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class HostingFrontend:
    """Request handler for ``GET /apps/{id}/query?q=...&key=...``."""

    def __init__(self, router, runtime) -> None:
        self._router = router
        self._runtime = runtime

    def handle(self, path: str, params: dict) -> HttpResponse:
        """Serve one embed request; never raises, always an HTTP shape."""
        query_text = (params.get("q") or "").strip()
        if not query_text:
            return HttpResponse(400, "missing query parameter 'q'",
                                "text/plain")
        try:
            app_id = self._router.resolve(
                path, params.get("key", "")
            )
        except PublicationError as exc:
            return HttpResponse(403, str(exc), "text/plain")
        except NotFoundError as exc:
            return HttpResponse(404, str(exc), "text/plain")
        try:
            page = int(params.get("page", 0))
        except (TypeError, ValueError):
            return HttpResponse(400, "page must be an integer",
                                "text/plain")
        try:
            response = self._runtime.handle_query(QueryRequest(
                app_id=app_id,
                query_text=query_text,
                session_id=params.get("session", ""),
                customer_id=params.get("customer", ""),
                page=page,
            ))
        except QueryError as exc:
            return HttpResponse(400, f"bad query: {exc}", "text/plain")
        return HttpResponse(200, response.html)
