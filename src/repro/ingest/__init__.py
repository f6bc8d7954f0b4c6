"""Data acquisition: uploads, feeds, crawling, parsing, normalization.

The paper: "It supports a variety of upload methods (e.g., HTTP/FTP file
upload, RSS feeds, or URL crawling), as well as a variety of structured
data formats (e.g., delimited files, Excel files, and XML)."

* :mod:`readers` — delimited / XML / JSON(-lines) parsing into rows;
* :mod:`workbook` — a multi-sheet workbook container standing in for
  binary Excel files (see DESIGN.md substitution table);
* :mod:`rss` — RSS 2.0 parsing and a feed publisher over the synthetic web;
* :mod:`transports` — simulated HTTP/FTP upload channels with fault
  injection;
* :mod:`crawler` — URL crawling over the synthetic web;
* :mod:`pipeline` — ties a transport + reader to a tenant table, with
  schema inference and incremental refresh.
"""

from repro.ingest.crawler import CrawlPolicy, Crawler, CrawlResult
from repro.ingest.pipeline import DatasetIngestor, IngestReport
from repro.ingest.readers import (
    parse_delimited,
    parse_json_array,
    parse_xml_records,
    sniff_delimiter,
)
from repro.ingest.rss import FeedPublisher, RssItem, parse_rss
from repro.ingest.transports import (
    FaultPolicy,
    FtpServer,
    HttpUploadChannel,
    UploadPayload,
)
from repro.ingest.workbook import Workbook, Worksheet, parse_workbook

__all__ = [
    "CrawlPolicy",
    "Crawler",
    "CrawlResult",
    "DatasetIngestor",
    "IngestReport",
    "parse_delimited",
    "parse_json_array",
    "parse_xml_records",
    "sniff_delimiter",
    "FeedPublisher",
    "RssItem",
    "parse_rss",
    "FaultPolicy",
    "FtpServer",
    "HttpUploadChannel",
    "UploadPayload",
    "Workbook",
    "Worksheet",
    "parse_workbook",
]
