"""Tests for ingestion: readers, workbook, RSS, transports, crawler,
pipeline."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.errors import IngestError, NotFoundError, TransportError
from repro.ingest.crawler import CrawlPolicy, Crawler
from repro.ingest.pipeline import DatasetIngestor, detect_format
from repro.ingest.readers import (
    parse_delimited,
    parse_json_array,
    parse_xml_records,
    sniff_delimiter,
)
from repro.ingest.rss import FeedPublisher, parse_rss
from repro.ingest.transports import (
    FaultPolicy,
    FtpServer,
    HttpUploadChannel,
)
from repro.ingest.workbook import Workbook, Worksheet, parse_workbook
from repro.storage.tenant import Tenant
from repro.util import SimClock
from tests.conftest import dump_workbook


class TestSniffDelimiter:
    def test_comma(self):
        assert sniff_delimiter("a,b,c\n1,2,3\n") == ","

    def test_tab(self):
        assert sniff_delimiter("a\tb\n1\t2\n") == "\t"

    def test_pipe(self):
        assert sniff_delimiter("a|b|c\n1|2|3\n") == "|"

    def test_prefers_consistent_delimiter(self):
        # Comma appears once on one line only; semicolon is consistent.
        text = "a;b,x;c\n1;2;3\n4;5;6\n"
        assert sniff_delimiter(text) == ";"

    def test_no_delimiter(self):
        with pytest.raises(IngestError):
            sniff_delimiter("plainword\nanother\n")

    def test_empty(self):
        with pytest.raises(IngestError):
            sniff_delimiter("")


class TestParseDelimited:
    def test_header_row(self):
        rows = parse_delimited(b"title,price\nHalo,49.99\n")
        assert rows == [{"title": "Halo", "price": "49.99"}]

    def test_no_header_names_columns(self):
        rows = parse_delimited("Halo,49.99", has_header=False)
        assert rows == [{"column_1": "Halo", "column_2": "49.99"}]

    def test_quoted_fields(self):
        rows = parse_delimited('title,desc\nHalo,"great, classic game"\n')
        assert rows[0]["desc"] == "great, classic game"

    def test_ragged_row_rejected_with_line_number(self):
        with pytest.raises(IngestError, match="line 3"):
            parse_delimited("a,b\n1,2\n1,2,3\n")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(IngestError, match="duplicate"):
            parse_delimited("a,a\n1,2\n")

    def test_blank_lines_skipped(self):
        rows = parse_delimited("a,b\n\n1,2\n\n")
        assert len(rows) == 1

    def test_empty_rejected(self):
        with pytest.raises(IngestError):
            parse_delimited("")
        with pytest.raises(IngestError):
            parse_delimited("a,b\n")  # header only

    def test_bad_utf8_rejected(self):
        with pytest.raises(IngestError):
            parse_delimited(b"\xff\xfe\x00bad")

    def test_bom_tolerated(self):
        rows = parse_delimited("﻿a,b\n1,2\n".encode("utf-8"))
        assert rows[0] == {"a": "1", "b": "2"}

    @given(st.lists(
        st.tuples(st.text(alphabet="abcxyz", min_size=1, max_size=8),
                  st.integers(0, 999)),
        min_size=1, max_size=20,
    ))
    def test_roundtrip_values(self, pairs):
        text = "name,value\n" + "\n".join(
            f"{name},{value}" for name, value in pairs
        )
        rows = parse_delimited(text)
        assert [(r["name"], int(r["value"])) for r in rows] == pairs


class TestParseXml:
    XML = b"""<inventory>
      <game id="1"><title>Halo</title><price>49.99</price></game>
      <game id="2"><title>Zelda</title><price>39.99</price></game>
      <meta><count>2</count></meta>
    </inventory>"""

    def test_auto_detects_record_element(self):
        rows = parse_xml_records(self.XML)
        assert len(rows) == 2
        assert rows[0]["title"] == "Halo"
        assert rows[0]["id"] == "1"

    def test_explicit_record_element(self):
        rows = parse_xml_records(self.XML, record_element="meta")
        assert rows == [{"count": "2"}]

    def test_missing_record_element(self):
        with pytest.raises(IngestError):
            parse_xml_records(self.XML, record_element="nothing")

    def test_invalid_xml(self):
        with pytest.raises(IngestError):
            parse_xml_records(b"<broken><unclosed>")

    def test_empty_root(self):
        with pytest.raises(IngestError):
            parse_xml_records(b"<root></root>")

    def test_attribute_collision_prefixed(self):
        xml = b"<r><item title='attr'><title>child</title></item></r>"
        rows = parse_xml_records(xml)
        assert rows[0]["title"] == "child"
        assert rows[0]["@title"] == "attr"


class TestParseJson:
    """JSON uploads are one array of objects; JSON lines (one object per
    line) is not an upload format."""

    def test_json_lines(self):
        with pytest.raises(IngestError, match="invalid JSON"):
            parse_json_array(b'{"a": 1}\n\n{"a": 2}\n')

    def test_json_lines_bad_line(self):
        with pytest.raises(IngestError, match="cannot determine format"):
            detect_format("rows.jsonl")
        with pytest.raises(IngestError, match="cannot determine format"):
            detect_format("rows.bin", "application/x-jsonlines")

    def test_json_lines_non_object(self):
        with pytest.raises(IngestError, match="JSON array"):
            parse_json_array('{"a": 1}\n')

    def test_json_array(self):
        rows = parse_json_array('[{"a": 1}, {"a": 2}]')
        assert len(rows) == 2

    def test_json_array_wrong_shape(self):
        with pytest.raises(IngestError):
            parse_json_array('{"a": 1}')
        with pytest.raises(IngestError):
            parse_json_array("[1]")
        with pytest.raises(IngestError):
            parse_json_array("[]")


class TestWorkbook:
    def make_doc(self):
        return {
            "workbook": "inventory",
            "sheets": [
                {"name": "Games", "header": ["title", "price"],
                 "rows": [["Halo", 49.99], ["Zelda", 39.99]]},
                {"name": "Consoles", "header": ["name"],
                 "rows": [["XBox"]]},
            ],
        }

    def test_parse_and_records(self):
        workbook = parse_workbook(json.dumps(self.make_doc()))
        assert [s.name for s in workbook.sheets] == ["Games", "Consoles"]
        records = workbook.sheet("Games").to_records()
        assert records[0] == {"title": "Halo", "price": 49.99}

    def test_missing_sheet(self):
        workbook = parse_workbook(json.dumps(self.make_doc()))
        with pytest.raises(NotFoundError):
            workbook.sheet("Nope")

    def test_ragged_sheet_rejected(self):
        sheet = Worksheet("S", ("a", "b"), (("1",),))
        with pytest.raises(IngestError):
            sheet.to_records()

    def test_dump_roundtrip(self):
        workbook = parse_workbook(json.dumps(self.make_doc()))
        again = parse_workbook(dump_workbook(workbook))
        assert again == workbook

    def test_invalid_json(self):
        with pytest.raises(IngestError):
            parse_workbook(b"not json at all")

    def test_no_sheets(self):
        with pytest.raises(IngestError):
            parse_workbook('{"workbook": "x", "sheets": []}')

    def test_empty_header_rejected(self):
        doc = {"sheets": [{"name": "S", "header": [], "rows": []}]}
        with pytest.raises(IngestError):
            parse_workbook(json.dumps(doc))


class TestRss:
    def test_publish_then_parse(self, small_web):
        domain = next(iter(small_web.sites))
        xml = FeedPublisher(small_web).feed_xml(domain, max_items=5)
        items = parse_rss(xml)
        assert 0 < len(items) <= 5
        assert all(item.link.startswith("http://") for item in items)
        assert all(item.pub_date_ms for item in items)

    def test_items_sorted_newest_first(self, small_web):
        domain = next(iter(small_web.sites))
        items = parse_rss(FeedPublisher(small_web).feed_xml(domain))
        dates = [item.pub_date_ms for item in items]
        assert dates == sorted(dates, reverse=True)

    def test_to_row(self):
        xml = (b'<rss version="2.0"><channel><item>'
               b"<title>T</title><link>http://a.example/x</link>"
               b"<description>D</description>"
               b"</item></channel></rss>")
        row = parse_rss(xml)[0].to_row()
        assert row == {"title": "T", "link": "http://a.example/x",
                       "description": "D"}

    def test_wrong_root(self):
        with pytest.raises(IngestError):
            parse_rss(b"<atom></atom>")

    def test_no_channel(self):
        with pytest.raises(IngestError):
            parse_rss(b'<rss version="2.0"></rss>')

    def test_no_items(self):
        with pytest.raises(IngestError):
            parse_rss(b'<rss version="2.0"><channel></channel></rss>')

    def test_item_without_title_or_link(self):
        xml = (b'<rss version="2.0"><channel><item>'
               b"<description>only</description></item></channel></rss>")
        with pytest.raises(IngestError):
            parse_rss(xml)


class TestTransports:
    def test_http_upload_delivers(self):
        clock = SimClock(start_ms=0)
        channel = HttpUploadChannel(clock=clock)
        payload = channel.post_file("a.csv", b"data", "text/csv")
        assert payload.data == b"data"
        assert payload.transport == "http"
        assert clock.now_ms > 0

    def test_http_rejects_empty(self):
        with pytest.raises(TransportError):
            HttpUploadChannel().post_file("a.csv", b"")

    def test_http_latency_scales_with_size(self):
        clock = SimClock(start_ms=0)
        channel = HttpUploadChannel(clock=clock)
        channel.post_file("s.csv", b"x")
        small_ms = clock.now_ms
        channel.post_file("l.csv", b"x" * 1024 * 1024)
        assert clock.now_ms - small_ms > small_ms

    def test_ftp_put_and_retrieve(self):
        ftp = FtpServer()
        ftp.put("/in/a.csv", b"data")
        payload = ftp.retrieve("/in/a.csv")
        assert payload.data == b"data"
        assert payload.filename == "a.csv"
        with pytest.raises(NotFoundError):
            ftp.retrieve("/in/b.csv")

    def test_fault_injection_deterministic(self):
        faults = FaultPolicy(fail_probability=1.0, seed=1)
        channel = HttpUploadChannel(faults=faults)
        with pytest.raises(TransportError):
            channel.post_file("a.csv", b"data")

    def test_truncation_fault(self):
        faults = FaultPolicy(truncate_probability=1.0, seed=1)
        channel = HttpUploadChannel(faults=faults)
        payload = channel.post_file("a.csv", b"0123456789")
        assert len(payload.data) == 5


class TestCrawler:
    def test_collects_pages_and_follows_links(self, small_web):
        seeds = [p.url for p in small_web.pages_on("gamespot.com")[:2]]
        result = Crawler(small_web).crawl(
            seeds, CrawlPolicy(max_pages=15, max_depth=2)
        )
        assert 2 <= len(result.pages) <= 15
        assert all("url" in row and "title" in row
                   for row in result.pages)

    def test_domain_restriction(self, small_web):
        seeds = [p.url for p in small_web.pages_on("gamespot.com")[:2]]
        result = Crawler(small_web).crawl(
            seeds, CrawlPolicy(max_pages=30,
                               allowed_domains=("gamespot.com",)),
        )
        assert {row["site"] for row in result.pages} == {"gamespot.com"}
        assert result.skipped  # off-domain links recorded

    def test_excluded_path_prefixes(self, small_web):
        seeds = [p.url for p in small_web.pages_on("gamespot.com")[:3]]
        everything = Crawler(small_web).crawl(
            seeds, CrawlPolicy(max_pages=50)
        )
        some_path = "/" + everything.pages[0]["url"].split("/", 3)[3][:4]
        filtered = Crawler(small_web).crawl(
            seeds, CrawlPolicy(max_pages=50,
                               excluded_path_prefixes=(some_path,)),
        )
        for row in filtered.pages:
            path = "/" + row["url"].removeprefix("http://").partition(
                "/")[2]
            assert not path.startswith(some_path)

    def test_fetch_failures_recorded_not_fatal(self, small_web):
        seeds = [p.url for p in small_web.pages_on("gamespot.com")[:3]]
        result = Crawler(small_web).crawl(
            seeds, CrawlPolicy(max_pages=20,
                               fetch_failure_probability=0.5, seed=3),
        )
        assert result.failed
        assert result.pages  # others still succeed

    def test_max_pages_budget(self, small_web):
        seeds = [p.url for p in small_web.pages_on("gamespot.com")[:1]]
        result = Crawler(small_web).crawl(
            seeds, CrawlPolicy(max_pages=3, max_depth=5)
        )
        assert len(result.pages) == 3

    def test_dead_seed_is_failure(self, small_web):
        result = Crawler(small_web).crawl(
            ["http://nowhere.example/x"], CrawlPolicy()
        )
        assert result.failed and not result.pages


class TestPipeline:
    def make_tenant(self):
        return Tenant("t1", "Ann")

    def payload(self, data, filename="inv.csv",
                content_type="text/csv"):
        return HttpUploadChannel(clock=SimClock()).post_file(
            filename, data, content_type
        )

    def test_detect_format(self):
        assert detect_format("a.csv") == "delimited"
        assert detect_format("a.xml") == "xml"
        assert detect_format("a.xlsw") == "workbook"
        assert detect_format("feed.rss") == "rss"
        assert detect_format("x.bin", "application/json") == "json"
        with pytest.raises(IngestError):
            detect_format("x.bin", "application/octet-stream")

    def test_detect_format_strips_media_type_parameters(self):
        # A parameterized content type must match on its bare media
        # type — "text/csv; charset=utf-8" is still CSV.
        assert detect_format("x.bin",
                             "text/csv; charset=utf-8") == "delimited"
        assert detect_format("x.bin",
                             "Application/JSON ; indent=2") == "json"
        with pytest.raises(IngestError):
            detect_format("x.bin", "; charset=utf-8")

    def test_first_load_infers_schema(self):
        tenant = self.make_tenant()
        ingestor = DatasetIngestor(tenant)
        report = ingestor.ingest(
            self.payload(b"title,price\nHalo,49.99\nZelda,39.99\n"),
            "games",
        )
        assert report.inserted == 2
        assert report.format == "delimited"
        table = tenant.table("games")
        assert table.schema.spec("price").type.value == "float"

    def test_unchanged_payload_short_circuits(self):
        tenant = self.make_tenant()
        ingestor = DatasetIngestor(tenant)
        data = b"title\nHalo\n"
        ingestor.ingest(self.payload(data), "games")
        report = ingestor.ingest(self.payload(data), "games")
        assert report.unchanged
        assert len(tenant.table("games")) == 1

    def test_incremental_upsert(self):
        tenant = self.make_tenant()
        ingestor = DatasetIngestor(tenant)
        ingestor.ingest(
            self.payload(b"title,price\nHalo,49.99\n"),
            "games", key_field="title", indexed_fields=("title",),
        )
        report = ingestor.ingest(
            self.payload(b"title,price\nHalo,9.99\nZelda,39.99\n"),
            "games", key_field="title",
        )
        assert report.inserted == 1 and report.updated == 1
        table = tenant.table("games")
        assert table.find("title", "Halo")[0].values["price"] == 9.99

    def test_workbook_sheet_selection(self):
        doc = json.dumps({
            "workbook": "wb",
            "sheets": [
                {"name": "A", "header": ["x"], "rows": [["1"]]},
                {"name": "B", "header": ["y"], "rows": [["2"], ["3"]]},
            ],
        }).encode()
        tenant = self.make_tenant()
        report = DatasetIngestor(tenant).ingest(
            self.payload(doc, "inv.xlsw", "application/x-workbook"),
            "sheetb", sheet="B",
        )
        assert report.inserted == 2
        assert tenant.table("sheetb").schema.field_names() == ["y"]

    def test_ingest_rows_direct(self):
        tenant = self.make_tenant()
        report = DatasetIngestor(tenant).ingest_rows(
            [{"a": "1"}, {"a": "2"}], "direct"
        )
        assert report.inserted == 2
        with pytest.raises(IngestError):
            DatasetIngestor(tenant).ingest_rows([], "empty")

    def test_rss_payload_ingests(self, small_web):
        domain = next(iter(small_web.sites))
        xml = FeedPublisher(small_web).feed_xml(domain, max_items=4)
        tenant = self.make_tenant()
        report = DatasetIngestor(tenant).ingest(
            self.payload(xml, f"{domain}.rss", "application/rss+xml"),
            "news",
        )
        assert report.format == "rss"
        assert report.inserted > 0
        assert "link" in tenant.table("news").schema.field_names()
