"""Shared fixtures and artifact reporting for the benchmark harness.

Each experiment regenerates a paper artifact (Table I, Fig. 1's canvas,
Fig. 2's pipeline trace, plus the ablations in DESIGN.md §6). Artifacts
are written to ``benchmarks/artifacts/`` and echoed into the terminal
summary. Every artifact line is a count or simulated-clock time, so the
directory is a pure function of the code; the one supported invocation
is the one CI runs and then diffs::

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/e2e \
        -q -p no:cacheprovider
    git diff --exit-code -- benchmarks/artifacts

Wall-clock measurement lives in ``benchmarks/e2e/`` only.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.platform import Symphony
from repro.simweb.generator import WebGenerator, WebSpec

ARTIFACT_DIR = pathlib.Path(__file__).parent / "artifacts"

_ARTIFACTS: dict[str, str] = {}


def record_artifact(name: str, text: str) -> None:
    """Persist a regenerated paper artifact and queue it for the summary."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    (ARTIFACT_DIR / f"{name}.txt").write_text(text + "\n",
                                              encoding="utf-8")
    _ARTIFACTS[name] = text


def pytest_terminal_summary(terminalreporter):
    if not _ARTIFACTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("regenerated paper artifacts")
    for name in sorted(_ARTIFACTS):
        terminalreporter.write_line(f"--- {name} " + "-" * 40)
        for line in _ARTIFACTS[name].splitlines():
            terminalreporter.write_line(line)
        terminalreporter.write_line("")


BENCH_SPEC = WebSpec(seed=2010)


@pytest.fixture(scope="session")
def bench_web():
    """The full-size synthetic web used across all benchmarks."""
    return WebGenerator(BENCH_SPEC).build()


@pytest.fixture(scope="session")
def bench_symphony(bench_web):
    """A shared platform for read-mostly benchmarks."""
    return Symphony(web=bench_web)


def make_inventory_rows(entities):
    header = "title,producer,description,image_url,detail_url"
    lines = [header]
    for i, name in enumerate(entities):
        lines.append(
            f'{name},Studio {i},"A classic {name} experience",'
            f"http://img.example/{i}.jpg,"
            f"http://store.example/items/{i}"
        )
    return "\n".join(lines).encode()


def build_gamerqueen(symphony, designer_name="Ann",
                     table_name="inventory", n_games=8,
                     n_supplemental=1):
    """Stand up the §II-B application on ``symphony``; returns
    (app_id, games)."""
    account = symphony.register_designer(designer_name)
    games = symphony.web.entities["video_games"][:n_games]
    symphony.upload_http(
        account, f"{table_name}.csv", make_inventory_rows(games),
        table_name, content_type="text/csv",
    )
    inventory = symphony.add_proprietary_source(
        account, table_name,
        search_fields=("title", "producer", "description"),
    )
    designer = symphony.designer()
    session = designer.new_application(
        f"GamerQueen-{designer_name}", account.tenant.tenant_id
    )
    slot = session.drag_source_onto_app(
        inventory.source_id, heading="Games", max_results=4,
        search_fields=("title", "producer", "description"),
    )
    session.add_hyperlink(slot, "title", href_field="detail_url")
    session.add_image(slot, "image_url")
    session.add_text(slot, "description")
    supplemental_configs = [
        ("Reviews", ("gamespot.com", "ign.com", "teamxbox.com"),
         "review"),
        ("Guides", ("gamespot.com", "ign.com"), "guide"),
        ("Coverage", (), ""),
        ("Everything", (), "preview"),
    ]
    for i in range(n_supplemental):
        heading, sites, suffix = supplemental_configs[
            i % len(supplemental_configs)
        ]
        source = symphony.add_web_source(
            f"{heading} ({designer_name}-{i})", "web", sites=sites
        )
        session.drag_source_onto_result_layout(
            slot, source.source_id, drive_fields=("title",),
            heading=heading, max_results=2, query_suffix=suffix,
        )
    app_id = symphony.host(session)
    return app_id, games
