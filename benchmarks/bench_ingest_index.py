"""Experiment X3 — ingestion throughput and index scaling (§II-A).

The "Proprietary Data" capability: every upload method (HTTP, FTP, RSS,
crawl) and format (delimited, XML, JSON, workbook) is benchmarked for
wall-clock throughput, and the search index is profiled for build time
and query latency as the corpus grows. Includes the site-restriction
ablation from DESIGN.md §6 (index-level filter vs post-filtering).
"""

import json

import pytest

from repro.core.platform import Symphony
from repro.ingest.crawler import CrawlPolicy
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument, FieldMode
from repro.searchengine.engine import SearchOptions, build_engine
from repro.searchengine.index import InvertedIndex
from repro.simweb.vocab import topic_vocabulary
from repro.storage.tenant import Quota
from repro.util import deterministic_rng

from benchmarks.conftest import record_artifact

N_ROWS = 400


def make_rows(n=N_ROWS, seed=3):
    vocab = topic_vocabulary("video_games")
    rng = deterministic_rng(("ingest-rows", seed))
    rows = []
    for i in range(n):
        rows.append({
            "title": f"{vocab.sample_entity(rng)} #{i}",
            "producer": f"Studio {i % 17}",
            "description": vocab.sample_sentence(rng, 8, 16),
            "price": f"{rng.uniform(5, 80):.2f}",
        })
    return rows


def rows_to_csv(rows) -> bytes:
    lines = ["title,producer,description,price"]
    for row in rows:
        description = row["description"].replace('"', "'")
        lines.append(
            f'{row["title"]},{row["producer"]},"{description}",'
            f'{row["price"]}'
        )
    return "\n".join(lines).encode()


def rows_to_xml(rows) -> bytes:
    from xml.sax.saxutils import escape
    parts = ["<inventory>"]
    for row in rows:
        parts.append("<item>")
        for key, value in row.items():
            parts.append(f"<{key}>{escape(str(value))}</{key}>")
        parts.append("</item>")
    parts.append("</inventory>")
    return "".join(parts).encode()


def rows_to_json(rows) -> bytes:
    return json.dumps(rows).encode()


def rows_to_workbook(rows) -> bytes:
    return json.dumps({
        "workbook": "inventory",
        "sheets": [{
            "name": "Items",
            "header": list(rows[0]),
            "rows": [[row[key] for key in rows[0]] for row in rows],
        }],
    }).encode()


FORMATS = {
    "delimited(csv)": ("inv.csv", "text/csv", rows_to_csv),
    "xml": ("inv.xml", "application/xml", rows_to_xml),
    "json": ("inv.json", "application/json", rows_to_json),
    "workbook": ("inv.xlsw", "application/x-workbook",
                 rows_to_workbook),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_upload_format_throughput(benchmark, bench_web, fmt):
    filename, content_type, encode = FORMATS[fmt]
    rows = make_rows()
    data = encode(rows)
    symphony = Symphony(web=bench_web, use_authority=False)
    account = symphony.register_designer(f"Fmt-{fmt}")
    # Every benchmark round lands in a fresh table; lift the quota.
    account.tenant.quota = Quota(max_tables=100_000)
    counter = {"n": 0}

    def ingest_once():
        counter["n"] += 1
        return symphony.upload_http(
            account, f"{counter['n']}-{filename}", data,
            f"tbl_{counter['n']}", content_type=content_type,
        )

    report = benchmark(ingest_once)
    assert report.inserted == N_ROWS
    benchmark.extra_info["rows"] = N_ROWS
    benchmark.extra_info["payload_bytes"] = len(data)


def test_upload_methods_all_deliver(benchmark, bench_web):
    """HTTP vs FTP vs RSS vs crawl: same pipeline, different transports."""
    symphony = Symphony(web=bench_web, use_authority=False)
    account = symphony.register_designer("Methods")
    account.tenant.quota = Quota(max_tables=100_000)
    rows = make_rows(100)
    csv_data = rows_to_csv(rows)
    symphony.ftp.put("/drop/inv.csv", csv_data)
    news_domain = topic_vocabulary("news").sites[0]
    seeds = [p.url for p in bench_web.pages_on("gamespot.com")[:2]]
    counter = {"n": 0}

    def ingest_all_methods():
        counter["n"] += 1
        n = counter["n"]
        http = symphony.upload_http(
            account, f"h{n}.csv", csv_data, f"http_{n}",
            content_type="text/csv",
        )
        ftp = symphony.upload_ftp(
            account, "/drop/inv.csv", f"ftp_{n}",
            content_type="text/csv",
        )
        rss = symphony.ingest_rss_feed(account, news_domain,
                                       f"rss_{n}")
        crawl = symphony.crawl_into(
            account, seeds, f"crawl_{n}",
            CrawlPolicy(max_pages=20, max_depth=1),
        )
        return http, ftp, rss, crawl

    http, ftp, rss, crawl = benchmark.pedantic(
        ingest_all_methods, rounds=3, iterations=1
    )
    lines = ["Upload methods — rows landed per method (one pass)",
             f"{'method':<8} {'rows':>6}"]
    for name, report in (("http", http), ("ftp", ftp), ("rss", rss),
                         ("crawl", crawl)):
        lines.append(f"{name:<8} {report.inserted:>6}")
    record_artifact("x3_upload_methods", "\n".join(lines))
    assert http.inserted == ftp.inserted == 100
    assert rss.inserted > 0
    assert crawl.inserted > 0


CORPUS_SIZES = (250, 500, 1000, 2000)


def corpus_documents(size):
    vocab = topic_vocabulary("video_games")
    rng = deterministic_rng(("corpus", size))
    for i in range(size):
        yield FieldedDocument(
            doc_id=f"d{i}",
            fields={
                "title": f"{vocab.sample_entity(rng)} {i}",
                "body": vocab.sample_paragraph(rng, sentences=4),
                "site": f"site-{i % 25}.example",
            },
        )


@pytest.mark.parametrize("size", CORPUS_SIZES)
def test_index_build_scaling(benchmark, size):
    docs = list(corpus_documents(size))

    def build():
        index = InvertedIndex(
            Analyzer(), field_modes={"site": FieldMode.KEYWORD}
        )
        for doc in docs:
            index.add(doc)
        return index

    index = benchmark(build)
    assert len(index) == size
    benchmark.extra_info["documents"] = size
    benchmark.extra_info["vocabulary"] = len(index.term_frequencies("body"))


@pytest.mark.parametrize("size", CORPUS_SIZES)
def test_query_latency_scaling(benchmark, size):
    index = InvertedIndex(Analyzer(),
                          field_modes={"site": FieldMode.KEYWORD})
    for doc in corpus_documents(size):
        index.add(doc)
    from repro.searchengine.query import QueryEvaluator, parse_query
    from repro.searchengine.ranking import BM25Scorer
    node = parse_query("game review combo")
    evaluator = QueryEvaluator(index, ["title", "body"])

    def run_query():
        candidates = evaluator.candidates(node)
        scorer = BM25Scorer(index, ["title", "body"], None,
                            ["game", "review", "combo"])
        return scorer.rank(candidates, limit=10)

    top = benchmark(run_query)
    assert top
    benchmark.extra_info["documents"] = size


def test_site_restriction_ablation(benchmark, bench_web):
    """DESIGN.md §6: index-level site filter vs post-filtering.

    Both must return the same result set; the index-level filter (the
    shipped implementation) must not cost more simulated time, nor
    materialize more results, than fetching a large unrestricted result
    list and filtering afterwards.
    """
    engine = build_engine(bench_web, use_authority=False)
    entity = bench_web.entities["video_games"][0]
    sites = ("gamespot.com", "ign.com", "teamxbox.com")
    query = f'"{entity}" review'

    def index_level():
        return engine.search("web", query,
                             SearchOptions(count=10, sites=sites))

    restricted = benchmark(index_level)
    broad = engine.search("web", query, SearchOptions(count=1000))
    post = [r for r in broad.results if r.site in sites][:10]
    assert {r.url for r in restricted.results} == \
        {r.url for r in post}
    assert restricted.elapsed_ms <= broad.elapsed_ms
    assert len(restricted.results) <= len(broad.results)

    record_artifact(
        "x3_site_restriction_ablation",
        "Site restriction: index-level filter vs post-filtering\n"
        f"index-level: {restricted.elapsed_ms:.3f} sim ms/query, "
        f"{len(restricted.results)} results materialized\n"
        f"post-filter: {broad.elapsed_ms:.3f} sim ms/query, "
        f"{len(broad.results)} results materialized\n"
        "both return identical top-10 result sets",
    )
