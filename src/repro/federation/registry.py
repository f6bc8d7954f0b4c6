"""Backend registry: capability-described search backends for federation.

A federation *backend* is anything that answers a text query with a
ranked list — the local (possibly clustered) engine, or one of the five
Table I baseline platforms via its own search facade. Each backend
carries a :class:`~repro.core.capability.BackendDescriptor` (baselines
derive theirs from their Table I profile, one source of truth) so the
executor can pick a query-generator phrasing the backend's language
accepts and budget its cost.
"""

from __future__ import annotations

from repro.core.capability import BackendDescriptor
from repro.errors import ConfigurationError, DuplicateError, NotFoundError
from repro.federation.fusion import FederatedItem, normalize_item
from repro.gateway.generations import TOPOLOGY_KEY
from repro.searchengine.engine import SearchOptions

__all__ = [
    "Backend",
    "EngineBackend",
    "baseline_backend",
    "BackendRegistry",
]


class Backend:
    """One federated search backend: a descriptor plus ``search``."""

    def __init__(self, descriptor: BackendDescriptor) -> None:
        self.descriptor = descriptor

    @property
    def backend_id(self) -> str:
        return self.descriptor.backend_id

    def search(self, text: str, count: int = 10, deadline=None) -> list:
        """Ranked :class:`FederatedItem` list for ``text``."""
        raise NotImplementedError

    def _normalize(self, raw_results) -> list:
        backend_id = self.backend_id
        return [
            normalize_item(backend_id, raw, rank)
            for rank, raw in enumerate(raw_results, start=1)
        ]


class EngineBackend(Backend):
    """The local search-engine substrate (single-node or clustered)."""

    def __init__(self, backend_id: str, engine, vertical: str = "web",
                 sites: tuple = (), augment_terms: tuple = ()) -> None:
        keys = engine.generation_keys(vertical)
        super().__init__(BackendDescriptor(
            backend_id=backend_id,
            system="Symphony",
            search_api="local engine"
                       + (" (clustered)" if TOPOLOGY_KEY in keys else ""),
            verticals=(vertical,),
            supports_sites=True,
            # The local query language takes field:value predicates and
            # indexes the entity field on every corpus document.
            supports_fielded=True,
            supports_entity=True,
            cost_per_query=1.0,
        ))
        self._engine = engine
        self.vertical = vertical
        self.sites = tuple(sites)
        self.augment_terms = tuple(augment_terms)

    def search(self, text: str, count: int = 10, deadline=None) -> list:
        options = SearchOptions(count=count, sites=self.sites,
                                augment_terms=self.augment_terms)
        response = self._engine.search(self.vertical, text, options,
                                       deadline=deadline)
        return self._normalize(response.results)


class _BaselineBackend(Backend):
    """A Table I baseline platform behind its own search facade."""

    def __init__(self, descriptor: BackendDescriptor, search_fn) -> None:
        super().__init__(descriptor)
        self._search_fn = search_fn

    def search(self, text: str, count: int = 10, deadline=None) -> list:
        # External platforms accept no deadline; the executor's
        # per-backend budget still bounds the call from outside.
        return self._normalize(self._search_fn(text, count))


def baseline_backend(platform, sites: tuple = ()) -> Backend:
    """Adapt one :class:`BaselinePlatform` through its public facade.

    Each platform is driven exactly the way its real counterpart was:
    Rollyo through a searchroll, Eurekster through a swicki, Google
    Custom through a created engine, Y! BOSS through the raw API, and
    Google Base through its result page (web results only — Base item
    oneboxes are uploads, not the web ranking).
    """
    descriptor = platform.capability_descriptor()
    handle = f"federation-{descriptor.backend_id}"
    sites = tuple(sites)

    if hasattr(platform, "create_searchroll"):
        roll = platform.create_searchroll(handle, sites)
        search_fn = lambda text, count: roll.search(text, count).results
    elif hasattr(platform, "create_swicki"):
        swicki = platform.create_swicki(handle, sites)
        search_fn = lambda text, count: _result_list(
            swicki.search(text, count)
        )
    elif hasattr(platform, "create_engine"):
        engine = platform.create_engine(handle, sites=sites)
        search_fn = lambda text, count: _result_list(
            engine.search(text, count)
        )
    elif hasattr(platform, "api_search"):
        search_fn = lambda text, count: platform.api_search(
            text, sites=sites, count=count
        ).results
    elif hasattr(platform, "search"):
        search_fn = lambda text, count: _result_list(
            platform.search(text, count)
        )
    else:
        raise ConfigurationError(
            f"{platform.system_name} exposes no search facade"
        )
    return _BaselineBackend(descriptor, search_fn)


def _result_list(response) -> list:
    """Unwrap the facade's return shape down to a ranked list."""
    if isinstance(response, dict):
        return list(response.get("web_results", ()))
    return list(getattr(response, "results", response))


class BackendRegistry:
    """All federation backends known to one executor, by id."""

    def __init__(self) -> None:
        self._backends: dict[str, Backend] = {}

    def add(self, backend: Backend) -> Backend:
        if backend.backend_id in self._backends:
            raise DuplicateError(
                f"backend id already registered: {backend.backend_id}"
            )
        self._backends[backend.backend_id] = backend
        return backend

    def get(self, backend_id: str) -> Backend:
        try:
            return self._backends[backend_id]
        except KeyError:
            raise NotFoundError(
                f"no federation backend {backend_id!r}"
            ) from None

    def remove(self, backend_id: str) -> None:
        if backend_id not in self._backends:
            raise NotFoundError(f"no federation backend {backend_id!r}")
        del self._backends[backend_id]

    def ids(self) -> list:
        return sorted(self._backends)

    def backends(self, ids=None) -> list:
        """Backends in sorted-id order (the fusion determinism anchor)."""
        if ids is None:
            return [self._backends[i] for i in self.ids()]
        return [self.get(i) for i in sorted(ids)]
