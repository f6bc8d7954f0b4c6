"""Data sources: the uniform contract every content provider implements.

"The various proprietary, 3rd-party and built-in data sources can be
integrated flexibly" (§II-A Data Integration). Each adapter turns its
backend — a tenant table, a search vertical, a SOAP/REST service, the ad
marketplace — into the same ``search(SourceQuery) -> SourceResult`` shape,
which is what lets the designer drag any of them onto an application.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ConfigurationError, DuplicateError, NotFoundError
from repro.gateway.generations import table_key
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import (
    SearchOptions,
    VerticalIndex,
    evaluate_candidates,
    execute_query,
)
from repro.searchengine.query import (
    AndNode,
    OrNode,
    TermNode,
    extract_terms,
    parse_query,
)
from repro.searchengine.ranking import BM25Parameters

__all__ = [
    "SourceKind",
    "SourceQuery",
    "SourceItem",
    "SourceResult",
    "DataSource",
    "ProprietaryTableSource",
    "WebSearchSource",
    "ServiceSource",
    "AdSource",
    "CustomerProfileSource",
    "SourceRegistry",
]


class SourceKind(str, Enum):
    """The categories of content source the palette can show."""

    PROPRIETARY = "proprietary"
    WEB = "web"
    IMAGE = "image"
    VIDEO = "video"
    NEWS = "news"
    SERVICE = "service"
    ADS = "ads"
    CUSTOMER = "customer"
    FEDERATED = "federated"


@dataclass(frozen=True)
class SourceQuery:
    """What the runtime asks a source."""

    text: str
    count: int = 10
    offset: int = 0
    context: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SourceItem:
    """One result item in source-neutral shape."""

    item_id: str
    title: str
    url: str = ""
    snippet: str = ""
    score: float = 0.0
    fields: dict = field(default_factory=dict)

    def get(self, name: str, default: str = "") -> str:
        """Field lookup across explicit fields and the common properties."""
        if name in self.fields:
            value = self.fields[name]
            return "" if value is None else str(value)
        common = {"title": self.title, "url": self.url,
                  "snippet": self.snippet}
        return common.get(name, default)


@dataclass(frozen=True)
class SourceResult:
    source_id: str
    items: tuple
    total_matches: int
    elapsed_ms: float = 0.0
    #: The provider served partial results (e.g. cluster shard loss or
    #: a deadline overrun inside the scatter-gather).
    degraded: bool = False
    #: Provider-specific annotations; governed tables flag contract
    #: staleness here (``{"stale": True, "staleness_ms": ...}``) so
    #: applications can tell users the data behind an answer is old.
    metadata: dict = field(default_factory=dict)

    @staticmethod
    def empty(source_id: str) -> "SourceResult":
        return SourceResult(source_id, (), 0, 0.0)


class DataSource(ABC):
    """The contract: identity, bindable fields, and search."""

    def __init__(self, source_id: str, name: str, kind: SourceKind) -> None:
        self.source_id = source_id
        self.name = name
        self.kind = kind
        #: What the runtime's result cache keys this source's entries
        #: on: two sources with equal identities answer every query
        #: alike and share entries. By default the source is its own.
        self.cache_identity = source_id
        #: Sources with one (non-``None``) batch identity answer a list
        #: of look-ups through one :meth:`search_many` call; with
        #: ``None``, the default, each look-up is sent alone.
        self.batch_identity = None

    @abstractmethod
    def fields(self) -> list[str]:
        """Field names a designer can bind layout elements to."""

    @abstractmethod
    def search(self, query: SourceQuery) -> SourceResult:
        """Execute ``query`` and return ranked items."""

    def search_many(self, lookups) -> list[SourceResult]:
        """One result per ``(source, query)`` of ``lookups``, each what
        that source's :meth:`search` answers at the same instant; every
        source shares this one's :attr:`batch_identity`. The default is
        the loop over :meth:`search`."""
        return [source.search(query) for source, query in lookups]

    def generation_keys(self) -> tuple:
        """The data generations (see :mod:`repro.gateway.generations`)
        results from this source depend on; caches stamp entries with
        them. The default is a key private to the source, which nothing
        bumps."""
        return (f"source:{self.source_id}",)

    def describe(self) -> dict:
        return {
            "source_id": self.source_id,
            "name": self.name,
            "kind": self.kind.value,
            "fields": self.fields(),
        }


_PLAIN = SearchOptions()    # no site, freshness or augment terms
_URL_FIELDS = ("url", "detail_url", "link", "homepage")


def _boosting(search_fields) -> BM25Parameters:
    """The first search field counts double."""
    return BM25Parameters(field_boosts=dict.fromkeys(search_fields[:1],
                                                     2.0))


class ProprietaryTableSource(DataSource):
    """Searchable proprietary data: a tenant table as a search vertical.

    A search is the engine's :func:`execute_query` over the table's
    :class:`VerticalIndex`, then a tenant materializer. ``search_fields``
    are the fields queries run against ("search by title, producer, and
    description" in §II-B), the first boosted; all schema fields remain
    available for layout binding and filters. The index is brought up to
    date at the next search after the table changed, at the cost of the
    fields that changed: the table's change tail names the rows, and a
    changed row's index upsert re-files only its changed fields. Every
    row is indexed only on first use, or when more changed between two
    searches than the tail holds.
    """

    def __init__(self, source_id: str, name: str, table,
                 search_fields: tuple, *, tenant_id: str = "") -> None:
        super().__init__(source_id, name, SourceKind.PROPRIETARY)
        self._table = table
        self.tenant_id = tenant_id
        for field_name in search_fields:
            if not table.schema.has_field(field_name):
                raise ConfigurationError(
                    f"search field {field_name!r} is not in table "
                    f"{table.name!r}"
                )
        self.search_fields = tuple(search_fields)
        self._vertical: VerticalIndex | None = None
        # table.mutations the index is current with: the cursor into
        # the table's change tail (-1, which no table holds: not built).
        self._indexed_mutations = -1
        #: Zero-arg callable returning contract metadata for this
        #: table ({} when ungoverned); set by the platform so stale
        #: feeds are flagged on every result served from them.
        self.contract_status = None

    def fields(self) -> list[str]:
        return self._table.schema.field_names()

    @property
    def table(self):
        return self._table

    def generation_keys(self) -> tuple:
        return (table_key(self.tenant_id, self._table.name),)

    def vertical(self, search_fields=()) -> VerticalIndex:
        """The table's vertical, current with the table, searched by
        ``search_fields`` (default: the source's), the first boosted."""
        table = self._table
        # Read before the tail: a change landing while this applies
        # lies past the cursor, so the next call applies it (applying
        # a change twice is a no-op).
        mutations = table.mutations
        if self._indexed_mutations != mutations:
            changed = table.changes_since(self._indexed_mutations)
            if changed is None:     # first use, or the tail fell short
                self._vertical = VerticalIndex(
                    f"table:{table.name}", self.search_fields,
                    _boosting(self.search_fields))
                changed = [record.record_id
                           for record in table.all_records()]
            index = self._vertical.index
            for record_id in dict.fromkeys(changed):
                current = table.get(record_id)
                if (record_id in index
                        and index.document(record_id).payload is current):
                    continue
                # Typed values, so predicates compare numbers as numbers
                # (the index files ``str(value)``); "" is a missing
                # value, which coercion never stores. An upsert re-files
                # only the fields that changed.
                index.upsert(FieldedDocument(record_id, {
                    name: "" if value is None else value
                    for name, value in current.values.items()},
                    current))
            self._indexed_mutations = mutations
        fields = tuple(search_fields) or self.search_fields
        if fields == self.search_fields:
            return self._vertical
        return self._vertical.searching(fields, _boosting(fields))

    def structured_search(self, structured_query) -> SourceResult:
        """Richer querying of structured data (§IV future work item 2).

        Accepts a :class:`repro.core.structured.StructuredQuery`
        combining text relevance, typed predicates, ordering, paging.
        """
        from repro.core.structured import execute_structured
        return execute_structured(self, structured_query)

    def rank(self, node, terms, limit: int | None, *, search_fields=(),
             filters=()) -> tuple:
        """``(top, match_count)``: the best ``limit`` rows matching
        ``node`` ANDed with ``filters``, ``terms`` scored. If ``node``
        matches nothing, several terms relax to their OR, so "halo
        odyssey deluxe" still surfaces "Halo Odyssey"; filters never
        relax. Without text (``node`` is ``None``) the rows the filters
        accept come in table order, unscored."""
        vertical = self.vertical(search_fields)
        filters = tuple(filters)
        if node is None:
            accepted = (evaluate_candidates(vertical, AndNode(filters),
                                            _PLAIN, 0)
                        if filters else vertical.index)
            rows = [(record.record_id, 0.0)
                    for record in self._table.all_records()
                    if record.record_id in accepted]
            return rows[:limit], len(rows)
        top, total = execute_query(vertical, AndNode((node, *filters)),
                                   _PLAIN, terms, 0, limit=limit)
        if not total and len(terms) > 1 and not (
                filters and evaluate_candidates(vertical, node, _PLAIN, 0)):
            relaxed = OrNode(tuple(TermNode(term) for term in terms))
            top, total = execute_query(vertical,
                                       AndNode((relaxed, *filters)),
                                       _PLAIN, terms, 0, limit=limit)
        return top, total

    def materialize(self, ranked, scored: bool) -> tuple:
        """One item per ``(record id, score)``; without ``scored`` terms
        a match has no relevance to report, so its score is 0.0."""
        document = self._vertical.index.document
        title_field = self.fields()[0]
        items = []
        for doc_id, score in ranked:
            values = document(doc_id).payload.values
            items.append(SourceItem(
                item_id=doc_id,
                title=str(values.get(title_field, doc_id)),
                url=next((str(values[name]) for name in _URL_FIELDS
                          if values.get(name)), ""),
                score=round(score, 6) if scored else 0.0,
                fields=dict(values),
            ))
        return tuple(items)

    def search(self, query: SourceQuery) -> SourceResult:
        fields = query.context.get("search_fields") or ()
        node = parse_query(query.text)
        terms = extract_terms(node, self.vertical().index.analyzer)
        top, total = self.rank(node, terms, query.offset + query.count,
                               search_fields=fields)
        metadata = (self.contract_status()
                    if self.contract_status is not None else {})
        return SourceResult(self.source_id,
                            self.materialize(top[query.offset:],
                                             bool(terms)),
                            total, metadata=metadata or {})


class WebSearchSource(DataSource):
    """A search-engine vertical with per-source configuration (§II-A)."""

    _KIND_BY_VERTICAL = {
        "web": SourceKind.WEB,
        "image": SourceKind.IMAGE,
        "video": SourceKind.VIDEO,
        "news": SourceKind.NEWS,
    }

    def __init__(self, source_id: str, name: str, engine,
                 vertical: str = "web", sites: tuple = (),
                 augment_terms: tuple = (),
                 freshness_days: int | None = None) -> None:
        kind = self._KIND_BY_VERTICAL.get(vertical)
        if kind is None:
            raise ConfigurationError(f"unknown vertical {vertical!r}")
        super().__init__(source_id, name, kind)
        self._engine = engine
        self.vertical = vertical
        self.sites = tuple(sites)
        self.augment_terms = tuple(augment_terms)
        self.freshness_days = freshness_days
        # Everything a search reads besides the query: tenants whose
        # sources are configured alike share one cached look-up.
        self.cache_identity = (engine, vertical, self.sites,
                               self.augment_terms, freshness_days)
        # Every web source on one engine vertical answers its look-ups
        # through one engine call, each with its own options.
        self.batch_identity = (engine, vertical)

    def fields(self) -> list[str]:
        return ["title", "url", "snippet", "site"]

    def generation_keys(self) -> tuple:
        return self._engine.generation_keys(self.vertical)

    def _options(self, query: SourceQuery) -> SearchOptions:
        return SearchOptions(
            count=query.count,
            offset=query.offset,
            sites=self.sites,
            augment_terms=self.augment_terms,
            freshness_days=self.freshness_days,
        )

    def _result(self, response) -> SourceResult:
        items = tuple(
            SourceItem(
                item_id=result.url,
                title=result.title,
                url=result.url,
                snippet=result.snippet,
                score=result.score,
                fields={"site": result.site, **result.fields},
            )
            for result in response.results
        )
        return SourceResult(
            self.source_id, items, response.total_matches,
            response.elapsed_ms, degraded=response.degraded,
        )

    def search(self, query: SourceQuery) -> SourceResult:
        context = query.context
        return self._result(self._engine.search(
            self.vertical, query.text, self._options(query),
            app_id=context.get("app_id"),
            session_id=context.get("session_id"),
            deadline=context.get("deadline"),
        ))

    def search_many(self, lookups) -> list[SourceResult]:
        """Every look-up in one engine ``search_many``, each under its
        own source's sites, augment terms and freshness. The look-ups
        come from one customer query, so the first one's context (app,
        session, deadline) is the call's."""
        if not lookups:
            return []
        context = lookups[0][1].context
        responses = self._engine.search_many(
            self.vertical,
            [(query.text, source._options(query))
             for source, query in lookups],
            app_id=context.get("app_id"),
            session_id=context.get("session_id"),
            deadline=context.get("deadline"),
        )
        return [source._result(response)
                for (source, __), response in zip(lookups, responses)]


class ServiceSource(DataSource):
    """Dynamic data through a SOAP or REST service on the bus.

    ``operation`` is the bus operation (``"GET /prices/{sku}"`` or a SOAP
    operation name); the query text is passed as ``query_param``. Dict
    responses become one item; a list (or a dict with a single list value
    such as GetReviews' ``reviews``) becomes one item per element.
    """

    def __init__(self, source_id: str, name: str, bus, service_name: str,
                 operation: str, query_param: str,
                 item_fields: tuple = (), title_field: str = "",
                 extra_params: dict | None = None) -> None:
        super().__init__(source_id, name, SourceKind.SERVICE)
        self._bus = bus
        self.service_name = service_name
        self.operation = operation
        self.query_param = query_param
        self.item_fields = tuple(item_fields)
        self.title_field = title_field
        self.extra_params = dict(extra_params or {})

    def fields(self) -> list[str]:
        return list(self.item_fields) if self.item_fields else ["value"]

    def _build_operation(self, text: str) -> tuple[str, dict]:
        params = dict(self.extra_params)
        placeholder = "{" + self.query_param + "}"
        if placeholder in self.operation:
            return self.operation.replace(placeholder, text), params
        params[self.query_param] = text
        return self.operation, params

    def search(self, query: SourceQuery) -> SourceResult:
        operation, params = self._build_operation(query.text)
        response = self._bus.invoke(
            self.service_name, operation, params,
            deadline=query.context.get("deadline"),
        )
        rows = self._rows_from_response(response)
        items = []
        for i, row in enumerate(rows[:query.count]):
            title = str(row.get(self.title_field, "")) if self.title_field \
                else str(next(iter(row.values()), ""))
            items.append(SourceItem(
                item_id=f"{self.source_id}:{i}",
                title=title,
                url=str(row.get("url", "")),
                snippet=str(row.get("excerpt", row.get("description", ""))),
                score=float(len(rows) - i),
                fields=dict(row),
            ))
        return SourceResult(self.source_id, tuple(items), len(rows))

    @staticmethod
    def _rows_from_response(response) -> list[dict]:
        if isinstance(response, list):
            return [row if isinstance(row, dict) else {"value": row}
                    for row in response]
        if isinstance(response, dict):
            list_values = [v for v in response.values()
                           if isinstance(v, list)]
            if len(list_values) == 1 and all(
                isinstance(row, dict) for row in list_values[0]
            ):
                return list(list_values[0])
            return [response]
        return [{"value": response}]


class AdSource(DataSource):
    """Ads as a content source, configured like any other (§II-A)."""

    def __init__(self, source_id: str, name: str, ad_service,
                 max_ads: int = 2) -> None:
        super().__init__(source_id, name, SourceKind.ADS)
        self._ads = ad_service
        self.max_ads = max_ads

    def fields(self) -> list[str]:
        return ["headline", "url", "body", "ad_id", "price_per_click"]

    def search(self, query: SourceQuery) -> SourceResult:
        selected = self._ads.select_ads(
            query.text,
            app_id=query.context.get("app_id", ""),
            count=min(query.count, self.max_ads),
            now_ms=int(query.context.get("now_ms", 0)),
            deadline=query.context.get("deadline"),
        )
        items = tuple(
            SourceItem(
                item_id=ad.ad_id,
                title=ad.headline,
                url=ad.url,
                snippet=ad.body,
                score=float(len(selected) - i),
                fields={
                    "headline": ad.headline, "body": ad.body,
                    "ad_id": ad.ad_id,
                    "price_per_click": ad.price_per_click,
                    "is_ad": True,
                },
            )
            for i, ad in enumerate(selected)
        )
        return SourceResult(self.source_id, items, len(items))


class CustomerProfileSource(DataSource):
    """Customer data that *alters the query* rather than adding results.

    §II-C: "customer data could also be included to alter the query to,
    say, prefer some types of games over others." Profiles map a customer
    id to preference terms; the runtime calls :meth:`rewrite` on the
    primary query when this source is bound to the application.
    """

    def __init__(self, source_id: str, name: str) -> None:
        super().__init__(source_id, name, SourceKind.CUSTOMER)
        self._profiles: dict[str, tuple] = {}

    def fields(self) -> list[str]:
        return ["customer_id", "preference_terms"]

    def set_profile(self, customer_id: str, preference_terms) -> None:
        self._profiles[customer_id] = tuple(preference_terms)

    def profile(self, customer_id: str) -> tuple:
        return self._profiles.get(customer_id, ())

    def rewrite(self, query_text: str, customer_id: str | None) -> str:
        """Append preference terms as optional (OR'd) boosts."""
        if not customer_id:
            return query_text
        terms = self.profile(customer_id)
        if not terms:
            return query_text
        preference = " OR ".join(terms)
        return f"({query_text}) OR ({query_text} AND ({preference}))"

    def search(self, query: SourceQuery) -> SourceResult:
        # Customer data is not a display source; searching it yields the
        # matching profile (useful for designer previews and tests).
        customer_id = query.text.strip()
        terms = self.profile(customer_id)
        if not terms:
            return SourceResult.empty(self.source_id)
        item = SourceItem(
            item_id=customer_id,
            title=customer_id,
            fields={"customer_id": customer_id,
                    "preference_terms": ", ".join(terms)},
        )
        return SourceResult(self.source_id, (item,), 1)


class SourceRegistry:
    """All data sources known to one platform instance, by id."""

    def __init__(self) -> None:
        self._sources: dict[str, DataSource] = {}

    def add(self, source: DataSource) -> DataSource:
        if source.source_id in self._sources:
            raise DuplicateError(
                f"source id already registered: {source.source_id}"
            )
        self._sources[source.source_id] = source
        return source

    def get(self, source_id: str) -> DataSource:
        try:
            return self._sources[source_id]
        except KeyError:
            raise NotFoundError(
                f"no data source {source_id!r}"
            ) from None

    def ids(self) -> list[str]:
        return sorted(self._sources)
