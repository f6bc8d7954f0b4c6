"""The four workloads: generated inputs, platform set-up, operations.

Every workload drives the platform through its public API only
(``Symphony``, ``ClusterConfig``, the designer, ``upload_http``,
``query`` / ``query_via_gateway``, ``engine.add_document``). Inputs —
corpus, catalogues, the whole operation stream — are generated here
from ``--seed`` before any timing starts; the platform sees only them.

An operation is a tuple whose first element is its kind:

``("query", tenant, text)``         one customer query
``("upload", cycle, csv, rows)``    a delta upload to the catalogue
``("probe", cycle, token, sku)``    read-your-write check of that delta
``("bulk", csv, rows, text)``       bulk upload + first query of its app
``("doc_add", document)`` / ``("doc_remove", doc_id)``  cluster writes
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

from repro.cluster import ClusterConfig
from repro.contracts import DataContract, FieldContract
from repro.core.datasources import SourceQuery
from repro.core.platform import Symphony
from repro.searchengine.analysis import STOPWORDS, tokenize
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import SearchOptions
from repro.simweb.generator import WebGenerator, WebSpec
from repro.simweb.vocab import all_known_sites, topic_vocabulary
from repro.storage.records import FieldType
from repro.util import deterministic_rng

from benchmarks.e2e.oracle import ScanOracle

__all__ = ["WORKLOADS", "Inputs", "Platform", "Scale", "Workload",
           "build_web"]

CATALOGUE_FIELDS = ("sku", "title", "producer", "description",
                    "franchise", "category", "price", "image_url",
                    "detail_url")
SEARCH_FIELDS = ("title", "producer", "description")
_PRODUCERS = ("Northwind", "Redwood", "Bluepeak", "Ironvale", "Suncrest",
              "Marrow", "Copperline", "Quillon", "Farrow", "Tidewater")
_EDITIONS = ("Classic", "Deluxe", "Pocket", "Gold", "Anniversary",
             "Collector", "Starter", "Complete")


@dataclass(frozen=True)
class Scale:
    """How much work one run measures.

    Counts are fixed per workload — a committed rate (operations per
    ``--seconds`` second, sized on the seed commit on a 2-core box)
    times ``--seconds`` — so the stream, every count-type metric and
    the answers digest repeat exactly for one seed. ``quick`` is the
    smoke-test size: a tiny corpus and about 1 % of the counts.
    """

    seconds: int
    quick: bool = False

    def count(self, per_second: float, floor: int) -> int:
        share = 0.01 if self.quick else 1.0
        return max(floor, round(per_second * self.seconds * share))


@dataclass
class Inputs:
    """Everything generated from the seed for one workload."""

    catalogues: list = field(default_factory=list)   # rows per tenant
    warmup: list = field(default_factory=list)
    ops: list = field(default_factory=list)


@dataclass
class Platform:
    """One set-up deployment plus the handles operations need."""

    sym: Symphony
    build_s: float
    accounts: list = field(default_factory=list)
    apps: list = field(default_factory=list)
    catalogue_sources: list = field(default_factory=list)

    def close(self) -> None:
        close = getattr(self.sym.engine, "close", None)
        if close is not None:
            close()


def build_web(spec: WebSpec):
    return WebGenerator(spec).build()


# -- generated inputs -------------------------------------------------------------


def _catalogue(web, rng, rows: int, sku_prefix: str = "SKU") -> list:
    """A department-store catalogue whose ``franchise`` is always a real
    entity of the synthetic web, so supplemental look-ups find pages."""
    topics = sorted(web.entities)
    out = []
    for i in range(rows):
        topic = topics[i % len(topics)]
        vocab = topic_vocabulary(topic)
        franchise = rng.choice(web.entities[topic])
        words = [w for w in vocab.sample_words(rng, 4)
                 if w not in STOPWORDS][:2] or [vocab.words[0]]
        title = (f"{franchise} {' '.join(words).title()} "
                 f"{rng.choice(_EDITIONS)} {i}")
        out.append({
            "sku": f"{sku_prefix}{i:05d}",
            "title": title,
            "producer": f"{rng.choice(_PRODUCERS)} "
                        f"{rng.choice(vocab.entity_suffixes)}",
            "description": vocab.sample_sentence(rng, 6, 10),
            "franchise": franchise,
            # A head word of the topic: frequent enough on the web that
            # ``"<franchise>" <category>`` finds pages.
            "category": vocab.words[rng.randrange(20)],
            "price": f"{rng.uniform(5, 120):.2f}",
            "image_url": f"http://img.example/{sku_prefix}{i}.jpg",
            "detail_url": f"http://store.example/items/{sku_prefix}{i}",
        })
    return out


def _csv(rows: list) -> bytes:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CATALOGUE_FIELDS,
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _content_words(text: str) -> list:
    return [t for t in tokenize(text)
            if t not in STOPWORDS and len(t) > 2 and not t.isdigit()]


#: One block of twenty customer queries: the share of each query shape
#: is exact, so the work per query does not drift with the seed.
_STOREFRONT_MIX = (("word",) * 7 + ("franchise",) * 4 + ("title",) * 1
                   + ("producer",) * 2 + ("pair",) * 6)
_VERTICAL_MIX = (("or3",) * 10 + ("single",) * 4 + ("and2",) * 3
                 + ("phrase",) * 2 + ("site",) * 1)
_TENANT_MIX = (0,) * 6 + (1,) * 3 + (2,) * 1


class _Blocks:
    """Yields the entries of ``mix`` in seeded random order, block after
    block — random placement, exact proportions."""

    def __init__(self, mix: tuple, rng) -> None:
        self._mix, self._rng, self._block = mix, rng, []

    def next(self):
        if not self._block:
            self._block = self._rng.sample(self._mix, len(self._mix))
        return self._block.pop()


def _storefront_query(row: dict, shape: str, rng) -> str:
    """A customer query read off one catalogue row, so it matches it."""
    if shape == "word":
        words = _content_words(row["title"])
        return rng.choice(words) if words else ""
    if shape in ("franchise", "title", "producer"):
        return row[shape]
    words = _content_words(row["description"])
    return " ".join(rng.sample(words, 2)) if len(words) > 1 else ""


def _storefront_stream(catalogues: list, rng, count: int,
                       repeat_share: float, window: int = 60) -> list:
    """``count`` customer queries over the tenants' catalogues (traffic
    6:3:1 across three tenants). A fixed ``repeat_share`` of requests
    re-issue one of the last ``window`` requests, recent ones more
    often — the part of the stream a response cache can serve; the
    rest are strings not issued before."""
    shapes = _Blocks(_STOREFRONT_MIX, rng)
    tenants = _Blocks(tuple(t for t in _TENANT_MIX
                            if t < len(catalogues)), rng)
    issued: set = set()
    ops: list = []
    owed = 0.0
    while len(ops) < count:
        owed += repeat_share
        if owed >= 1.0 and ops:
            owed -= 1.0
            recent = ops[-window:]
            ops.append(recent[-1 - int(rng.random() ** 2 * len(recent))])
            continue
        tenant = tenants.next()
        shape = shapes.next()
        for _ in range(20):
            text = _storefront_query(rng.choice(catalogues[tenant]),
                                     shape, rng)
            if text and (repeat_share == 0 or (tenant, text) not in issued):
                break
        else:
            continue
        issued.add((tenant, text))
        ops.append(("query", tenant, text))
    return ops


def _vertical_query(web, pages: list, shape: str, rng) -> str:
    vocab = topic_vocabulary(rng.choice(sorted(web.entities)))
    if shape == "or3":
        words = [w for w in dict.fromkeys(vocab.sample_words(rng, 5))
                 if w not in STOPWORDS][:3]
        return " OR ".join(words) if len(words) == 3 else ""
    if shape == "single":
        word = vocab.sample_words(rng, 1)[0]
        return "" if word in STOPWORDS else word
    page = rng.choice(pages)
    words = _content_words(page.body)
    if len(words) < 4:
        return ""
    if shape == "and2":
        return " AND ".join(rng.sample(words, 2))
    if shape == "site":
        return f"{rng.choice(words)} site:{page.site}"
    raw = tokenize(page.body)
    start = rng.randrange(len(raw) - 1)
    pair = raw[start:start + 2]
    return ("" if any(t in STOPWORDS for t in pair)
            else f'"{pair[0]} {pair[1]}"')


def _vertical_stream(web, rng, count: int) -> list:
    """Distinct custom-search queries: 50 % three-term disjunctions,
    20 % single head terms, 15 % two-term AND, 10 % phrases, 5 %
    ``site:``. Disjunction and single terms are drawn Zipf-wise from
    the topic vocabularies; AND pairs, phrases and site terms are read
    off generated pages so each matches at least that page."""
    pages = sorted(web.pages.values(), key=lambda p: p.url)
    shapes = _Blocks(_VERTICAL_MIX, rng)
    seen: dict[str, None] = {}
    while len(seen) < count:
        shape = shapes.next()
        for _ in range(200):
            text = _vertical_query(web, pages, shape, rng)
            if text and text not in seen:
                seen[text] = None
                break
    return [("query", 0, text) for text in seen]


def _news_document(rng, topic: str, serial: int) -> FieldedDocument:
    vocab = topic_vocabulary(topic)
    url = f"http://wire.example/news/churn-{serial}"
    return FieldedDocument(doc_id=url, fields={
        "url": url,
        "title": vocab.sample_sentence(rng, 5, 8),
        "body": vocab.sample_paragraph(rng, sentences=6),
        "site": "wire.example",
        "topic": topic,
        "_published_ms": 1_262_304_000_000 + serial * 60_000,
        "entity": "",
    })


# -- platform assembly ------------------------------------------------------------


def _contract(table: str) -> DataContract:
    text = [FieldContract(name) for name in
            ("producer", "description", "franchise", "category",
             "image_url", "detail_url")]
    return DataContract(
        table=table,
        fields=(
            FieldContract("sku", required=True,
                          normalize=("trim", "upper")),
            FieldContract("title", required=True,
                          normalize=("collapse_ws",)),
            *text,
            FieldContract("price", FieldType.FLOAT, min_value=0.0),
        ),
        key_field="sku",
        policy="quarantine",
    )


def _host_storefront(sym: Symphony, account, table: str, name: str):
    """The paper's Fig. 2 application: a proprietary catalogue as the
    primary source, two supplemental web sources driven by fields of
    each primary result, and an ad slot."""
    catalogue = sym.add_proprietary_source(account, table, SEARCH_FIELDS)
    reviews = sym.add_web_source(f"Reviews ({name})", "web",
                                 sites=tuple(all_known_sites()))
    coverage = sym.add_web_source(f"Coverage ({name})", "web")
    ads = sym.add_ad_source(f"Ads ({name})")
    session = sym.designer().new_application(
        name, account.tenant.tenant_id)
    slot = session.drag_source_onto_app(
        catalogue.source_id, heading="Products", max_results=4,
        search_fields=SEARCH_FIELDS)
    session.add_hyperlink(slot, "title", href_field="detail_url")
    session.add_image(slot, "image_url")
    session.add_text(slot, "description")
    session.drag_source_onto_result_layout(
        slot, reviews.source_id, drive_fields=("franchise",),
        heading="Reviews", max_results=2, query_suffix="review")
    session.drag_source_onto_result_layout(
        slot, coverage.source_id, drive_fields=("franchise", "category"),
        heading="Coverage", max_results=3)
    session.drag_source_onto_app(ads.source_id, heading="Sponsored")
    return sym.host(session), catalogue


def _fund_ads(sym: Symphony, web) -> None:
    advertiser = sym.ads.create_advertiser("BenchCo", 10_000.0)
    for topic in sorted(web.entities):
        vocab = topic_vocabulary(topic)
        sym.ads.create_campaign(
            advertiser.advertiser_id,
            [*web.entities[topic][:4], *vocab.words[:3]],
            0.35, f"{topic} deals", f"http://benchco.example/{topic}")


_ALL_ON = dict(
    cluster=ClusterConfig(num_shards=4, replicas_per_shard=2),
    telemetry=True, resilience=True, gateway=True, controlplane=True,
    slo=True, durability=True, contracts=True,
)


def _view_ids(response, key: str) -> tuple:
    return tuple(str(view.item.fields.get(key) or view.item.item_id)
                 for view in response.views)


# -- workloads -----------------------------------------------------------------


class Workload:
    """Shared behaviour; each subclass is one entry of ``WORKLOADS``."""

    name = ""
    platform_kwargs: dict = {}
    pages_per_site = 12         # corpus_base; corpus_large overrides
    tenants = 1
    catalogue_rows = 600
    governed = False
    via_gateway = False
    id_field = "sku"
    #: Customer queries per ``--seconds`` second (cycles for churn).
    rate = 0.0
    #: Share of customer queries that re-issue a recent request.
    repeat_share = 0.0
    warmup_queries = 30

    def web_spec(self, seed: int, scale: Scale) -> WebSpec:
        if scale.quick:
            return WebSpec(seed=seed, topics=("video_games", "wine"),
                           pages_per_site=4, news_per_site=2,
                           images_per_site=1, videos_per_site=1,
                           extra_sites_per_topic=0)
        # Images and videos are indexed but never queried here: keep few.
        return WebSpec(seed=seed, pages_per_site=self.pages_per_site,
                       news_per_site=8, images_per_site=2,
                       videos_per_site=1)

    def _rows(self, scale: Scale) -> int:
        return 60 if scale.quick else self.catalogue_rows

    # -- inputs ---------------------------------------------------------------

    def inputs(self, web, seed: int, scale: Scale) -> Inputs:
        """Storefront read workloads: one catalogue per tenant and one
        customer-query stream whose head is the warm-up prefix."""
        inputs = Inputs()
        for tenant in range(self.tenants):
            rng = deterministic_rng((seed, self.name, "catalogue", tenant))
            inputs.catalogues.append(
                _catalogue(web, rng, self._rows(scale)))
        rng = deterministic_rng((seed, self.name, "stream"))
        stream = _storefront_stream(
            inputs.catalogues, rng,
            scale.count(self.rate, 12) + self.warmup_queries,
            self.repeat_share)
        inputs.warmup = stream[:self.warmup_queries]
        inputs.ops = stream[self.warmup_queries:]
        return inputs

    # -- set-up ---------------------------------------------------------------

    def setup(self, web, inputs: Inputs) -> Platform:
        """Build the platform, upload the catalogues, host the apps and
        run the warm-up prefix (lazy indexes built, pools started)."""
        started = time.perf_counter()
        sym = Symphony(web=web, **self.platform_kwargs)
        platform = Platform(sym, time.perf_counter() - started)
        try:
            _fund_ads(sym, web)
            for tenant, rows in enumerate(inputs.catalogues):
                account = sym.register_designer(f"Store {tenant}")
                if self.governed:
                    sym.register_contract(account, _contract("catalogue"))
                sym.upload_http(account, "catalogue.csv", _csv(rows),
                                "catalogue", content_type="text/csv")
                app_id, source = _host_storefront(
                    sym, account, "catalogue", f"Storefront {tenant}")
                platform.accounts.append(account)
                platform.apps.append(app_id)
                platform.catalogue_sources.append(source)
            self._host_extra(platform)
            for op in inputs.warmup:
                self.execute(platform, op)
        except BaseException:
            platform.close()
            raise
        return platform

    def _host_extra(self, platform: Platform) -> None:
        pass

    # -- operations -------------------------------------------------------------

    def execute(self, platform: Platform, op: tuple) -> tuple:
        """Run one operation; returns its answer summary
        ``(ids, html_bytes, degraded, lookups, lookups_nonempty)``."""
        _, tenant, text = op
        sym = platform.sym
        if self.via_gateway:
            response = sym.query_via_gateway(
                platform.apps[tenant], text, deadline_ms=2000)
        else:
            response = sym.query(platform.apps[tenant], text)
        lookups = [result for view in response.views
                   for result in view.supplemental.values()]
        return (_view_ids(response, self.id_field), len(response.html),
                response.degraded, len(lookups),
                sum(1 for result in lookups if result.items))

    def answered(self, op: tuple, summary: tuple) -> bool:
        """Every response must carry at least one result and markup."""
        return bool(summary[0]) and summary[1] > 0

    # -- linear-scan answer check -------------------------------------------------

    def oracles(self, web, inputs: Inputs) -> list:
        return [
            ScanOracle({
                row["sku"]: ("", [row[name] for name in SEARCH_FIELDS])
                for row in rows
            })
            for rows in inputs.catalogues
        ]

    def verify(self, platform: Platform, oracles: list, op: tuple,
               summary: tuple) -> bool:
        """Compare one answered query with the scan: the served ids are
        members of the expected set and the source's ``total_matches``
        equals its size."""
        _, tenant, text = op
        expected = oracles[tenant].matches(text)
        if expected is None:
            return True
        result = platform.catalogue_sources[tenant].search(SourceQuery(
            text=text, count=4,
            context={"search_fields": list(SEARCH_FIELDS)}))
        return (result.total_matches == len(expected)
                and len(summary[0]) == min(4, len(expected))
                and set(summary[0]) <= expected)


class Fig2Bare(Workload):
    name = "fig2_bare"
    rate = 150.0


class VerticalCluster(Workload):
    name = "vertical_cluster"
    platform_kwargs = dict(
        cluster=ClusterConfig(num_shards=4, replicas_per_shard=1))
    pages_per_site = 32         # corpus_large
    id_field = "url"
    rate = 82.0

    def inputs(self, web, seed, scale):
        rng = deterministic_rng((seed, self.name, "stream"))
        ops = _vertical_stream(
            web, rng, scale.count(self.rate, 12) + self.warmup_queries)
        return Inputs(warmup=ops[:self.warmup_queries],
                      ops=ops[self.warmup_queries:])

    def _host_extra(self, platform):
        sym = platform.sym
        account = sym.register_designer("Vertical")
        web_source = sym.add_web_source("Web", "web")
        news_source = sym.add_web_source("News", "news")
        session = sym.designer().new_application(
            "Custom search", account.tenant.tenant_id)
        web_slot = session.drag_source_onto_app(
            web_source.source_id, heading="Web", max_results=5)
        session.add_hyperlink(web_slot, "title", href_field="url")
        session.add_text(web_slot, "snippet")
        news_slot = session.drag_source_onto_app(
            news_source.source_id, heading="News", max_results=3)
        session.add_hyperlink(news_slot, "title", href_field="url")
        session.add_text(news_slot, "snippet")
        platform.accounts.append(account)
        platform.apps.append(sym.host(session))

    def oracles(self, web, inputs):
        return [
            ScanOracle({page.url: (page.site, [page.title, page.body])
                        for page in web.pages.values()}),
            ScanOracle({item.url: (item.site, [item.headline, item.body])
                        for item in web.news.values()}),
        ]

    def verify(self, platform, oracles, op, summary):
        text = op[2]
        served = set(summary[0])
        for oracle, vertical, count in zip(oracles, ("web", "news"),
                                           (5, 3)):
            expected = oracle.matches(text)
            if expected is None:
                return True
            response = platform.sym.engine.search(
                vertical, text, SearchOptions(count=count))
            top = set(response.urls())
            if (response.total_matches != len(expected)
                    or len(top) != min(count, len(expected))
                    or not top <= expected or not top <= served):
                return False
        return True


class GatewayAllOn(Workload):
    name = "gateway_allon"
    platform_kwargs = _ALL_ON
    tenants = 3
    via_gateway = True
    rate = 100.0

    # Sized so the gateway QueryCache serves 30-45 % of requests: the
    # median request stays on the miss path.
    repeat_share = 0.42


class CatalogChurn(Workload):
    name = "catalog_churn"
    platform_kwargs = _ALL_ON
    catalogue_rows = 250
    governed = True
    via_gateway = True
    rate = 5.0                  # cycles per second
    # Long enough to fill the ResultCache: with a cold cache the timed
    # section drifts from expensive to cheap queries and the median
    # lands on the cliff between the two.
    warmup_queries = 150
    delta_rows = 25
    doc_writes_per_cycle = 10
    queries_per_cycle = 15
    live_documents = 50
    backlist_rows = 1500

    def inputs(self, web, seed, scale):
        inputs = Inputs()
        rng = deterministic_rng((seed, self.name, "catalogue", 0))
        rows = _catalogue(web, rng, self._rows(scale))
        inputs.catalogues.append(rows)
        backlist = _catalogue(
            web, rng, 100 if scale.quick else self.backlist_rows,
            sku_prefix="BACK")
        rng = deterministic_rng((seed, self.name, "stream"))
        cycles = scale.count(self.rate, 2)
        stream = _storefront_stream(
            inputs.catalogues, rng,
            self.warmup_queries + cycles * self.queries_per_cycle,
            self.repeat_share)
        inputs.warmup = stream[:self.warmup_queries]
        customers = iter(stream[self.warmup_queries:])
        inputs.ops.append(("bulk", _csv(backlist), len(backlist),
                           backlist[0]["franchise"]))
        live_cap = 20 if scale.quick else self.live_documents
        topics = sorted(web.entities)
        live: list[str] = []
        serial = 0
        for cycle in range(cycles):
            delta = []
            for row in rng.sample(rows, self.delta_rows):
                delta.append({**row,
                              "price": f"{rng.uniform(5, 120):.2f}"})
            token = f"probe{cycle:05d}x"
            delta[0]["title"] = f"{delta[0]['title']} {token}"
            # Violates ``price >= 0``: must be quarantined, not loaded.
            delta.append({**delta[1], "sku": f"BAD{cycle:05d}",
                          "price": "-1"})
            inputs.ops.append(("upload", cycle, _csv(delta), len(delta)))
            inputs.ops.append(("probe", cycle, token, delta[0]["sku"]))
            for _ in range(self.doc_writes_per_cycle):
                document = _news_document(rng, rng.choice(topics), serial)
                serial += 1
                inputs.ops.append(("doc_add", document))
                live.append(document.doc_id)
                if len(live) > live_cap:
                    inputs.ops.append(("doc_remove", live.pop(0)))
            inputs.ops.extend(
                next(customers) for _ in range(self.queries_per_cycle))
        return inputs

    def execute(self, platform, op):
        kind = op[0]
        sym = platform.sym
        if kind == "query":
            return super().execute(platform, op)
        if kind == "upload":
            report = sym.upload_http(
                platform.accounts[0], "delta.csv", op[2], "catalogue",
                content_type="text/csv")
            return ((report.inserted, report.updated,
                     report.quarantined), 1, False, 0, 0)
        if kind == "probe":
            return super().execute(platform, ("query", 0, op[2]))
        if kind == "doc_add":
            return ((sym.engine.add_document("news", op[1]),),
                    1, False, 0, 0)
        if kind == "doc_remove":
            return ((sym.engine.remove_document("news", op[1]),),
                    1, False, 0, 0)
        if kind == "bulk":
            account = platform.accounts[0]
            sym.register_contract(account, _contract("backlist"))
            report = sym.upload_http(account, "backlist.csv", op[1],
                                     "backlist", content_type="text/csv")
            app_id, source = _host_storefront(
                sym, account, "backlist", "Backlist")
            platform.apps.append(app_id)
            platform.catalogue_sources.append(source)
            summary = super().execute(platform, ("query", 1, op[3]))
            return ((report.inserted, *summary[0]), *summary[1:])
        raise ValueError(f"unknown operation {kind!r}")

    def answered(self, op, summary):
        kind = op[0]
        if kind == "upload":
            # 25 upserts land, the violating row is quarantined.
            return summary[0] == (0, self.delta_rows, 1)
        if kind == "probe":
            return summary[0] == (op[3],)
        if kind == "bulk":
            return summary[0][0] == op[2] and len(summary[0]) > 1
        if kind in ("doc_add", "doc_remove"):
            return True
        return super().answered(op, summary)


WORKLOADS = {w.name: w for w in (Fig2Bare(), VerticalCluster(),
                                 GatewayAllOn(), CatalogChurn())}
