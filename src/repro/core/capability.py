"""Capability profile: the vocabulary of the paper's Table I.

Each platform (Symphony itself and the five baselines) answers the same
six questions — search API, custom sites, proprietary structured data,
monetization, custom UI, deployment. Benchmarks regenerate Table I by
*probing* the live implementations (attempting uploads, site-restricted
searches, monetization configuration...) rather than by printing a
hard-coded matrix.

:class:`BackendDescriptor` is the machine-readable slice of the same
vocabulary: what the federation layer (:mod:`repro.federation`) needs to
know to route, rewrite, and budget a query for one search backend. Each
baseline derives its descriptor from its own
:class:`CapabilityProfile` (one source of truth), so Table I and the
federation ``BackendRegistry`` can never disagree about, say, which
search API a platform answers with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CapabilityProfile", "BackendDescriptor", "TABLE_I_ROWS"]

TABLE_I_ROWS = (
    "Search API",
    "Custom Sites",
    "Proprietary, Structured Data",
    "Monetization",
    "Custom UI",
    "Deployment of Search Applications",
)


@dataclass(frozen=True)
class CapabilityProfile:
    """One column of Table I."""

    system: str
    search_api: str
    custom_sites: str
    proprietary_structured_data: str
    monetization: str
    custom_ui: str
    deployment: str

    def cells(self) -> tuple:
        """Cells in TABLE_I_ROWS order."""
        return (
            self.search_api,
            self.custom_sites,
            self.proprietary_structured_data,
            self.monetization,
            self.custom_ui,
            self.deployment,
        )


@dataclass(frozen=True)
class BackendDescriptor:
    """Machine-readable capabilities of one federated search backend.

    The query-facing subset of the Table I vocabulary: which verticals a
    backend serves, whether it honours site restriction, whether its
    query language accepts fielded (``field:value``) predicates, and what
    a query there costs.  ``generation_keys`` names the data dependencies
    (see :mod:`repro.gateway.generations`) a cached result computed over
    this backend must be stamped with.
    """

    backend_id: str
    system: str
    search_api: str
    verticals: tuple = ("web",)
    supports_sites: bool = True
    #: ``field:value`` predicates accepted by the backend's query
    #: language (the fielded query-generator strategy needs this).
    supports_fielded: bool = False
    #: Entity-level querying: the backend indexes a dedicated entity
    #: field the entity-expanded strategy can anchor on.
    supports_entity: bool = False
    #: Relative per-query cost (local substrate = 1.0; metered external
    #: APIs cost more). The query-generator lab charges this per call.
    cost_per_query: float = 1.0
    generation_keys: tuple = ()
    notes: dict = field(default_factory=dict)
