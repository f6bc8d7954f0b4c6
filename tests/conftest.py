"""Shared fixtures for the test suite.

Heavy objects (the synthetic web, a read-only engine) are session-scoped;
anything tests mutate (Symphony platforms, tenants) is function-scoped but
built on a deliberately small web spec so the whole suite stays fast.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import settings

from repro.core.platform import Symphony
from repro.simweb.generator import WebGenerator, WebSpec
from repro.searchengine.engine import build_engine
from repro.storage.records import Record

# One profile for every property test: the same examples on every run
# (a failure replays anywhere) and no per-example time limit (a slow
# example on a loaded machine is not a bug).
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")

SMALL_SPEC = WebSpec(
    seed=7,
    topics=("video_games", "wine", "news"),
    extra_sites_per_topic=1,
    pages_per_site=8,
    images_per_site=3,
    videos_per_site=2,
    news_per_site=4,
)

TINY_SPEC = WebSpec(
    seed=11,
    topics=("video_games",),
    extra_sites_per_topic=0,
    pages_per_site=5,
    images_per_site=2,
    videos_per_site=2,
    news_per_site=3,
)


@pytest.fixture(scope="session")
def small_web():
    """A moderate synthetic web shared read-only across the session."""
    return WebGenerator(SMALL_SPEC).build()


@pytest.fixture(scope="session")
def tiny_web():
    """A single-topic web for the cheapest platform tests."""
    return WebGenerator(TINY_SPEC).build()


@pytest.fixture(scope="session")
def engine(small_web):
    """A read-only engine over the small web. Tests must not mutate it."""
    return build_engine(small_web)


@pytest.fixture()
def symphony(tiny_web):
    """A fresh platform per test, on the tiny web (cheap to index)."""
    return Symphony(web=tiny_web, use_authority=False)


@pytest.fixture()
def symphony_small(small_web):
    """A fresh platform on the multi-topic small web."""
    return Symphony(web=small_web, use_authority=False)


@pytest.fixture()
def designer_account(symphony):
    return symphony.register_designer("Ann")


#: What a ``ResultCache.put`` is stamped with: nothing (bare use), or the
#: generation keys the runtime / gateway pass for a table-plus-web app.
#: The cache's unit tests run every LRU/TTL/stats behaviour both ways.
CACHE_STAMPS = ((), ("corpus", "tenant:t1:inventory"))


def make_inventory_csv(entities, with_urls: bool = True) -> bytes:
    """Build a game-store CSV over the given entity names."""
    if with_urls:
        header = "title,producer,description,image_url,detail_url"
        lines = [header]
        for i, name in enumerate(entities):
            lines.append(
                f'{name},Studio {i},"A classic {name} experience",'
                f"http://img.example/{i}.jpg,"
                f"http://gamerqueen.example/games/{i}"
            )
    else:
        lines = ["title,producer"]
        for i, name in enumerate(entities):
            lines.append(f"{name},Studio {i}")
    return "\n".join(lines).encode("utf-8")


def dump_workbook(workbook) -> bytes:
    """Serialize a :class:`~repro.ingest.workbook.Workbook` back to the
    upload-ready bytes :func:`~repro.ingest.workbook.parse_workbook`
    reads."""
    doc = {
        "workbook": workbook.name,
        "sheets": [
            {"name": s.name, "header": list(s.header),
             "rows": [list(row) for row in s.rows]}
            for s in workbook.sheets
        ],
    }
    return json.dumps(doc, indent=2).encode("utf-8")


def build_gamerqueen(sym, account):
    """Host the §II-B application on ``sym`` through the designer API.

    Returns ``(app_id, games)``.
    """
    games = sym.web.entities["video_games"][:6]
    sym.upload_http(
        account, "inventory.csv", make_inventory_csv(games),
        "inventory", content_type="text/csv",
    )
    inventory = sym.add_proprietary_source(
        account, "inventory",
        search_fields=("title", "producer", "description"),
    )
    reviews = sym.add_web_source(
        "Game reviews", "web",
        sites=("gamespot.com", "ign.com", "teamxbox.com"),
    )
    designer = sym.designer()
    session = designer.new_application(
        "GamerQueen", account.tenant.tenant_id
    )
    slot = session.drag_source_onto_app(
        inventory.source_id, heading="Games", max_results=4,
        search_fields=("title", "producer", "description"),
    )
    session.add_hyperlink(slot, "title", href_field="detail_url")
    session.add_image(slot, "image_url")
    session.add_text(slot, "description")
    session.drag_source_onto_result_layout(
        slot, reviews.source_id, drive_fields=("title",),
        heading="Reviews", max_results=2, query_suffix="review",
    )
    return sym.host(session), games


def query_gamerqueen(web, **layers):
    """The §II-B application on ``Symphony(web, **layers)``, queried for
    its first four games; returns ``(symphony, responses)``."""
    sym = Symphony(web=web, use_authority=False, **layers)
    app_id, games = build_gamerqueen(sym, sym.register_designer("Ann"))
    return sym, [sym.query(app_id, game, session_id="s")
                 for game in games[:4]]


@pytest.fixture()
def gamerqueen(symphony, designer_account):
    """The §II-B application on the default platform.

    Returns ``(symphony, app_id, games)``.
    """
    app_id, games = build_gamerqueen(symphony, designer_account)
    return symphony, app_id, games


def update_record(table, record_id: str, changes: dict):
    """Merge ``changes`` into one stored record, by id.

    The product changes a stored row only through ``upsert_by`` (keyed
    on a field's value); the tests that mutate a row by id keep this
    merge as their reference.
    """
    current = table.get(record_id)
    values = table.schema.coerce_row({**current.values, **changes})
    table._unindex_record(current)
    updated = Record(record_id, values, version=current.version + 1)
    table._records[record_id] = updated
    table._index_record(updated)
    return updated
