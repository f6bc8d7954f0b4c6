"""The search-engine facade: four verticals over the synthetic web.

:func:`build_engine` indexes a :class:`~repro.simweb.model.SyntheticWeb`
into web / image / video / news verticals and returns a
:class:`SearchEngine` exposing the Bing-shaped contract Symphony consumes:
ranked captioned results with site restriction, paging, and (for news)
freshness filtering. Every query is charged simulated latency and logged.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum

from repro.gateway.generations import corpus_key
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument, FieldMode
from repro.searchengine.index import InvertedIndex
from repro.searchengine.logs import QueryEvent, QueryLog
from repro.searchengine.query import (
    AndNode,
    FilterNode,
    OrNode,
    QueryEvaluator,
    extract_terms,
    parse_query,
)
from repro.searchengine.ranking import (
    BM25Parameters,
    BM25Scorer,
    pagerank,
    recency_boost,
)
from repro.searchengine.snippets import best_window
from repro.searchengine.spelling import SpellingCorrector
from repro.util import SimClock

__all__ = [
    "Vertical",
    "SearchOptions",
    "SearchResult",
    "SearchResponse",
    "VerticalIndex",
    "SearchEngine",
    "build_engine",
    "apply_options_to_ast",
    "evaluate_candidates",
    "rank_candidates",
    "execute_query",
    "materialize_result",
    "simulated_latency_ms",
    "compute_authority",
    "make_vertical_indexes",
    "iter_corpus_documents",
]


class Vertical(str, Enum):
    """The four search verticals the engine serves."""

    WEB = "web"
    IMAGE = "image"
    VIDEO = "video"
    NEWS = "news"


@dataclass(frozen=True)
class SearchOptions:
    """Per-query options mirroring a commercial search API's parameters."""

    count: int = 10
    offset: int = 0
    sites: tuple[str, ...] = ()          # restrict to these domains
    exclude_sites: tuple[str, ...] = ()  # drop these domains
    freshness_days: int | None = None    # news-only recency window
    augment_terms: tuple[str, ...] = ()  # terms silently ANDed in


@dataclass(frozen=True)
class SearchResult:
    """One ranked result; ``fields`` carries vertical-specific extras."""

    url: str
    title: str
    snippet: str
    site: str
    score: float
    vertical: str
    fields: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SearchResponse:
    query: str
    vertical: str
    results: tuple
    total_matches: int
    elapsed_ms: float
    suggestion: str | None = None  # "did you mean", set on zero hits
    #: Partial results; only a cluster (shard loss, deadline overrun
    #: inside the scatter-gather) ever sets it.
    degraded: bool = False

    def urls(self) -> list[str]:
        return [r.url for r in self.results]


class VerticalIndex:
    """One vertical's index plus its ranking configuration; ``vertical``
    is a plain name for a corpus other than the engine's four (a tenant
    table, the Google Base item store)."""

    def __init__(self, vertical: Vertical | str, text_fields: list[str],
                 params: BM25Parameters,
                 authority: dict | None = None,
                 field_modes: dict | None = None) -> None:
        self.vertical = vertical
        self.text_fields = list(text_fields)
        self.params = params
        self.authority = authority or {}
        self.index = InvertedIndex(Analyzer(), field_modes=field_modes)

    def add(self, document: FieldedDocument) -> None:
        self.index.add(document)

    def searching(self, text_fields, params) -> "VerticalIndex":
        """This vertical under other text fields and parameters; the
        index is shared, not copied."""
        view = copy.copy(self)
        view.text_fields = list(text_fields)
        view.params = params
        return view

    def __len__(self) -> int:
        return len(self.index)


# -- search core ---------------------------------------------------------------
#
# The per-index query path is exposed as module functions so a clustered
# engine can run the exact same pipeline per shard (repro.cluster); the
# single-node SearchEngine below is a thin orchestration of these.

# Simulated latency model: fixed overhead plus a per-candidate cost.
BASE_LATENCY_MS = 12.0
PER_CANDIDATE_US = 40.0


def simulated_latency_ms(candidate_count: int) -> float:
    """Simulated cost of ranking ``candidate_count`` docs on one node."""
    return BASE_LATENCY_MS + candidate_count * PER_CANDIDATE_US / 1000.0


def apply_options_to_ast(node, options: SearchOptions):
    """Fold augment terms and site restriction into the AST."""
    extra = []
    for term in options.augment_terms:
        extra.append(parse_query(term))
    if options.sites:
        site_filters = tuple(
            FilterNode("site", site) for site in options.sites
        )
        extra.append(
            site_filters[0] if len(site_filters) == 1
            else OrNode(site_filters)
        )
    if not extra:
        return node
    return AndNode(tuple([node, *extra]))


def evaluate_candidates(vindex: VerticalIndex, node,
                        options: SearchOptions, now_ms: int) -> set:
    """Candidate doc ids of one index after all option constraints."""
    evaluator = QueryEvaluator(vindex.index, vindex.text_fields)
    candidates = evaluator.candidates(node)
    for site in options.exclude_sites:
        candidates -= vindex.index.keyword_matches("site", site)
    if options.freshness_days is not None:
        horizon = now_ms - options.freshness_days * 86_400_000
        fresh = set()
        for doc_id in candidates:
            doc = vindex.index.document(doc_id)
            published = doc.fields.get("_published_ms", 0)
            if published and int(published) >= horizon:
                fresh.add(doc_id)
        candidates = fresh
    return candidates


def rank_candidates(vindex: VerticalIndex, candidates,
                    scorer: BM25Scorer, now_ms: int,
                    limit: int | None = None) -> list:
    """The best ``limit`` candidates of one index (all when ``None``),
    score desc then id.

    Web blends relevance with link authority, news with recency; a
    query with nothing to score (filters only) ranks on the prior alone.
    """
    if vindex.vertical == Vertical.WEB:
        return scorer.rank(candidates, vindex.authority, 0.3, limit)
    if vindex.vertical == Vertical.NEWS:
        document = vindex.index.document
        recency = {
            doc_id: recency_boost(
                int(document(doc_id).fields.get("_published_ms", 0)),
                now_ms)
            for doc_id in candidates
        }
        return scorer.rank(candidates, recency, 0.5, limit)
    return scorer.rank(candidates, limit=limit)


def execute_query(vindex: VerticalIndex, node, options: SearchOptions,
                  terms, now_ms: int, stats=None,
                  limit: int | None = None) -> tuple:
    """The whole per-index search: evaluate, score, select.

    :class:`SearchEngine` runs it on its one index, every cluster
    shard replica on its partition, the latter passing the merged
    corpus-wide ``stats`` (see :mod:`repro.searchengine.stats`), and a
    tenant table or the Google Base item store on its own vertical.
    Returns ``(top, candidate_count)``: the best ``limit`` (all when
    ``None``) ``(doc_id, score)`` pairs, score desc then id, and how
    many documents matched.
    """
    candidates = evaluate_candidates(vindex, node, options, now_ms)
    if not candidates:      # nothing to score: skip the scorer's set-up
        return [], 0
    scorer = BM25Scorer(vindex.index, vindex.text_fields, vindex.params,
                        terms, stats)
    top = rank_candidates(vindex, candidates, scorer, now_ms, limit)
    return top, len(candidates)


def materialize_result(vindex: VerticalIndex, doc_id: str, score: float,
                       terms) -> SearchResult:
    """Build the captioned :class:`SearchResult` for one ranked doc.

    The caption window is picked from where the index already recorded
    the query terms in the body, so nothing is analyzed per result.
    """
    doc = vindex.index.document(doc_id)
    postings = vindex.index.postings
    hit_positions = []
    for term in terms:
        hit_positions.extend(postings("body", term).get(doc_id, ()))
    extras = {
        k: v for k, v in doc.fields.items()
        if not k.startswith("_") and k not in
        ("title", "body", "site", "url")
    }
    return SearchResult(
        url=doc.get("url") or doc_id,
        title=doc.get("title"),
        snippet=best_window(doc.get("body"), hit_positions, width=28),
        site=doc.get("site"),
        score=round(score, 6),
        vertical=vindex.vertical.value,
        fields=extras,
    )


class SearchEngine:
    """Query entry point across verticals, with logging and latency."""

    _BASE_LATENCY_MS = BASE_LATENCY_MS
    _PER_CANDIDATE_US = PER_CANDIDATE_US

    def __init__(self, verticals: dict, clock: SimClock | None = None,
                 log: QueryLog | None = None) -> None:
        self._verticals = dict(verticals)
        self.clock = clock or SimClock()
        self.log = log or QueryLog()
        # vertical -> (index.mutations when built, SpellingCorrector)
        self._correctors: dict = {}

    def vertical(self, vertical: Vertical | str) -> VerticalIndex:
        key = Vertical(vertical)
        return self._verticals[key]

    def search(self, vertical: Vertical | str, query_text: str,
               options: SearchOptions | None = None,
               app_id: str | None = None,
               session_id: str | None = None,
               deadline=None) -> SearchResponse:
        """Run ``query_text`` against one vertical and log the event.

        ``deadline`` is accepted so both engines share one signature;
        a single-node search is one non-preemptible step, so nothing
        acts on it here.
        """
        options = options or SearchOptions()
        vindex = self.vertical(vertical)
        node = parse_query(query_text)
        node = apply_options_to_ast(node, options)

        terms = extract_terms(node, vindex.index.analyzer)
        top, candidate_count = execute_query(
            vindex, node, options, terms, self.clock.now_ms,
            limit=options.offset + options.count)

        elapsed = simulated_latency_ms(candidate_count)
        self.clock.advance(elapsed)

        results = tuple(
            materialize_result(vindex, doc_id, score, terms)
            for doc_id, score in top[options.offset:]
        )
        suggestion = None
        if not candidate_count and terms:
            suggestion = self._suggest(vindex, terms)
        response = SearchResponse(
            query=query_text,
            vertical=Vertical(vertical).value,
            results=results,
            total_matches=candidate_count,
            elapsed_ms=elapsed,
            suggestion=suggestion,
        )
        self.log.log_query(QueryEvent(
            timestamp_ms=self.clock.now_ms,
            query=query_text,
            vertical=response.vertical,
            app_id=app_id,
            session_id=session_id,
            result_urls=tuple(response.urls()),
        ))
        return response

    def search_many(self, vertical: Vertical | str, requests,
                    app_id: str | None = None,
                    session_id: str | None = None,
                    deadline=None) -> list[SearchResponse]:
        """:meth:`search` of each ``(query_text, options)`` in
        ``requests``, in order. One node has no scatter round or
        statistics check to share, so the batch is this loop."""
        return [self.search(vertical, query_text, options, app_id,
                            session_id, deadline)
                for query_text, options in requests]

    def generation_keys(self, vertical: Vertical | str) -> tuple:
        """The data generations (see :mod:`repro.gateway.generations`)
        anything this engine serves from ``vertical`` depends on: that
        vertical's corpus."""
        return (corpus_key(Vertical(vertical).value),)

    def facets(self, vertical: Vertical | str, query_text: str,
               facet_fields=("site", "topic")) -> dict:
        """Facet counts over the query's full candidate set."""
        from repro.searchengine.facets import compute_facets
        self.clock.advance(self._BASE_LATENCY_MS)
        return compute_facets(self.vertical(vertical), query_text,
                              facet_fields)

    # -- internals ------------------------------------------------------------

    def _suggest(self, vindex, terms) -> str | None:
        """'Did you mean' over the vertical's vocabulary.

        The corrector snapshots term frequencies, so the cached one is
        kept only until the index's next write.
        """
        mutations = vindex.index.mutations
        built_at, corrector = self._correctors.get(vindex.vertical,
                                                   (None, None))
        if built_at != mutations:
            corrector = SpellingCorrector(vindex.index,
                                          vindex.text_fields)
            self._correctors[vindex.vertical] = (mutations, corrector)
        corrected = corrector.suggest_query(terms)
        if corrected is None:
            return None
        return " ".join(corrected)


def compute_authority(web) -> dict:
    """Normalized PageRank over the web's link graph, in [0, 1]."""
    ranks = pagerank(web.link_graph())
    if not ranks:
        return {}
    top = max(ranks.values())
    return {url: value / top for url, value in ranks.items()}


def make_vertical_indexes(authority: dict | None = None) -> dict:
    """Fresh empty per-vertical indexes with the standard ranking config.

    Shared by the single-node engine and every cluster shard replica so
    analyzers, field modes, and BM25 parameters never diverge.
    """
    web_params = BM25Parameters(field_boosts={"title": 2.0, "body": 1.0})
    media_params = BM25Parameters(field_boosts={"title": 2.0,
                                                "caption": 2.0,
                                                "body": 1.0})
    modes = {"site": FieldMode.KEYWORD, "topic": FieldMode.KEYWORD}
    return {
        Vertical.WEB: VerticalIndex(
            Vertical.WEB, ["title", "body"], web_params, authority, modes
        ),
        Vertical.IMAGE: VerticalIndex(
            Vertical.IMAGE, ["caption"], media_params, field_modes=modes
        ),
        Vertical.VIDEO: VerticalIndex(
            Vertical.VIDEO, ["title", "body"], media_params,
            field_modes=modes
        ),
        Vertical.NEWS: VerticalIndex(
            Vertical.NEWS, ["title", "body"], web_params, field_modes=modes
        ),
    }


def iter_corpus_documents(web):
    """Yield every asset of the web as ``(Vertical, FieldedDocument)``."""
    for page in web.pages.values():
        yield Vertical.WEB, FieldedDocument(
            doc_id=page.url,
            fields={
                "url": page.url, "title": page.title, "body": page.body,
                "site": page.site, "topic": page.topic,
                "_published_ms": page.published_ms,
                "entity": page.entity or "",
            },
            payload=page,
        )
    for image in web.images.values():
        yield Vertical.IMAGE, FieldedDocument(
            doc_id=image.url,
            fields={
                "url": image.url, "title": image.caption,
                "caption": image.caption, "body": image.caption,
                "site": image.site, "topic": image.topic,
                "width": image.width, "height": image.height,
                "entity": image.entity or "",
            },
            payload=image,
        )
    for video in web.videos.values():
        yield Vertical.VIDEO, FieldedDocument(
            doc_id=video.url,
            fields={
                "url": video.url, "title": video.title,
                "body": video.description, "site": video.site,
                "topic": video.topic, "duration_s": video.duration_s,
                "entity": video.entity or "",
            },
            payload=video,
        )
    for article in web.news.values():
        yield Vertical.NEWS, FieldedDocument(
            doc_id=article.url,
            fields={
                "url": article.url, "title": article.headline,
                "body": article.body, "site": article.site,
                "topic": article.topic,
                "_published_ms": article.published_ms,
                "entity": article.entity or "",
            },
            payload=article,
        )


def build_engine(web, clock: SimClock | None = None,
                 use_authority: bool = True) -> SearchEngine:
    """Index a synthetic web into a ready-to-query :class:`SearchEngine`."""
    authority = compute_authority(web) if use_authority else {}
    verticals = make_vertical_indexes(authority)
    for vertical, document in iter_corpus_documents(web):
        verticals[vertical].add(document)
    return SearchEngine(verticals, clock=clock)
