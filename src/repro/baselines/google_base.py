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
from repro.errors import UnsupportedCapabilityError
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import (
    SearchOptions,
    VerticalIndex,
    execute_query,
)
from repro.searchengine.query import extract_terms, parse_query
from repro.searchengine.ranking import BM25Parameters

__all__ = ["GoogleBasePlatform"]


class GoogleBasePlatform(BaselinePlatform):
    """Google Base: structured uploads surfacing in Google results."""

    system_name = "Google Base"
    api_name = "Google (local substrate)"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        # Every uploaded attribute is a searched text field.
        self._items = VerticalIndex("base", [], BM25Parameters())
        self._item_count = 0

    # -- uploads (the one thing Google Base does) -----------------------------------

    def upload_structured_data(self, rows, table_name: str = "items"):
        """Accept parsed rows into the Base item index."""
        inserted = 0
        for row in rows:
            self._item_count += 1
            doc_id = f"base:{table_name}:{self._item_count}"
            self._items.add(FieldedDocument(
                doc_id=doc_id,
                fields={k: "" if v is None else str(v)
                        for k, v in row.items()},
                payload=dict(row),
            ))
            inserted += 1
        self._items.text_fields = self._items.index.text_fields()
        return inserted

    # -- surfacing inside Google's own results ------------------------------------------

    def search(self, query_text: str, count: int = 10) -> dict:
        """Google's result page: web results + 'Base items' onebox."""
        web = self.engine.search(
            "web", query_text, SearchOptions(count=count)
        )
        node = parse_query(query_text)
        items = self._items
        top, __ = execute_query(items, node, SearchOptions(),
                                extract_terms(node, items.index.analyzer),
                                0, limit=3)
        base_items = [items.index.document(doc_id).payload
                      for doc_id, __ in top]
        return {"web_results": web.results, "base_items": base_items}

    # -- probe protocol ------------------------------------------------------------------

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
