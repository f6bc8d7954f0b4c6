"""Google Base baseline: upload data *to improve the engine's results*.

The paper distinguishes its goal from GoogleBase's: "we are not looking
for users to provide us with data to improve our search results". Google
Base accepts structured uploads (RSS, txt, xml) but the data only surfaces
inside Google's own search products — no custom sites, no UI, no
monetization, no deployment.
"""

from __future__ import annotations

from repro.baselines.base import BaselinePlatform
from repro.core.capability import CapabilityProfile
from repro.errors import IngestError, UnsupportedCapabilityError
from repro.ingest.readers import parse_delimited, parse_xml_records
from repro.ingest.rss import parse_rss
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import SearchOptions
from repro.searchengine.index import InvertedIndex
from repro.searchengine.query import QueryEvaluator, extract_terms, \
    parse_query
from repro.searchengine.ranking import BM25Scorer

__all__ = ["GoogleBasePlatform"]


class GoogleBasePlatform(BaselinePlatform):
    """Google Base: structured uploads surfacing in Google results."""

    system_name = "Google Base"
    api_name = "Google (local substrate)"
    # Base items are structured records: attribute (fielded) querying is
    # the one query-language capability this platform has over the rest.
    fielded_queries = True

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self._index = InvertedIndex(Analyzer())
        self._item_count = 0

    # -- uploads (the one thing Google Base does) -----------------------------------

    def upload_structured_data(self, rows, table_name: str = "items"):
        """Accept parsed rows into the Base item index."""
        inserted = 0
        for row in rows:
            self._item_count += 1
            doc_id = f"base:{table_name}:{self._item_count}"
            self._index.add(FieldedDocument(
                doc_id=doc_id,
                fields={k: "" if v is None else str(v)
                        for k, v in row.items()},
                payload=dict(row),
            ))
            inserted += 1
        return inserted

    def upload_feed(self, data: bytes, fmt: str,
                    table_name: str = "items") -> int:
        """Upload via the supported feed formats (RSS, txt, xml)."""
        if fmt == "rss":
            rows = [item.to_row() for item in parse_rss(data)]
        elif fmt == "txt":
            rows = parse_delimited(data, delimiter="\t")
        elif fmt == "xml":
            rows = parse_xml_records(data)
        else:
            raise IngestError(
                f"Google Base accepts rss/txt/xml, not {fmt!r}"
            )
        return self.upload_structured_data(rows, table_name)

    # -- surfacing inside Google's own results ------------------------------------------

    def search(self, query_text: str, count: int = 10) -> dict:
        """Google's result page: web results + 'Base items' onebox."""
        web = self.engine.search(
            "web", query_text, SearchOptions(count=count)
        )
        node = parse_query(query_text)
        fields = self._index.text_fields()
        base_items = []
        if fields:
            evaluator = QueryEvaluator(self._index, fields)
            candidates = evaluator.candidates(node)
            terms = extract_terms(node, self._index.analyzer)
            ranked = BM25Scorer(self._index, fields, None,
                                terms).rank(candidates, limit=3)
            base_items = [
                self._index.document(doc_id).payload
                for doc_id, __ in ranked
            ]
        return {"web_results": web.results, "base_items": base_items}

    # -- probe protocol ------------------------------------------------------------------

    def supports_custom_sites(self) -> bool:
        return False

    def create_custom_search(self, *args, **kwargs):
        raise UnsupportedCapabilityError(
            "custom-sites",
            "Google Base does not build custom search engines",
        )

    def capability_profile(self) -> CapabilityProfile:
        return CapabilityProfile(
            system=self.system_name,
            search_api="Google",
            custom_sites="No",
            proprietary_structured_data=(
                "Supports various uploads (RSS, txt, xml)"
            ),
            monetization="No",
            custom_ui="No",
            deployment="Data to surface on Google's search products",
        )
