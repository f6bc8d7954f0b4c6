"""Yahoo! BOSS baseline: a developer SDK, not a designer tool.

Table I: Yahoo search API; custom sites supported; proprietary data
"limited to partners"; ads mandatory; custom UI via a "Mashup Python
library, HTML/CSS" (i.e., you write code); no deployment assistance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import BaselinePlatform
from repro.core.capability import CapabilityProfile
from repro.errors import UnsupportedCapabilityError
from repro.searchengine.engine import SearchOptions

__all__ = ["BossSearchResponse", "YahooBossPlatform"]


@dataclass(frozen=True)
class BossSearchResponse:
    """A raw API response: results plus the mandatory ad block."""

    results: tuple
    ads: tuple
    total_matches: int


class YahooBossPlatform(BaselinePlatform):
    """Web API + client-side mashup helpers for developers."""

    system_name = "Y! BOSS"
    api_name = "Yahoo (local substrate)"

    def __init__(self, engine, ad_service=None,
                 partners: tuple = ()) -> None:
        super().__init__(engine)
        self._ads = ad_service
        self._partners = set(partners)
        self._partner_tables: dict[str, list] = {}

    # -- the developer-facing Web API --------------------------------------------

    def api_search(self, query_text: str, sites=(), count: int = 10,
                   developer_id: str = "anonymous") -> BossSearchResponse:
        """Raw query call. Ads ride along on every response (mandatory)."""
        response = self.engine.search(
            "web", query_text,
            SearchOptions(count=count, sites=tuple(sites)),
        )
        ads = ()
        if self._ads is not None:
            ads = tuple(self._ads.select_ads(
                query_text, app_id=f"boss:{developer_id}", count=1
            ))
        return BossSearchResponse(
            results=response.results,
            ads=ads,
            total_matches=response.total_matches,
        )

    # -- probe protocol ------------------------------------------------------------

    def upload_structured_data(self, rows, table_name: str = "data",
                               partner_id: str = ""):
        if partner_id not in self._partners:
            raise UnsupportedCapabilityError(
                "proprietary-structured-data",
                "BOSS data integration is limited to partners",
            )
        table = self._partner_tables.setdefault(
            f"{partner_id}/{table_name}", []
        )
        table.extend(rows)
        return len(table)

    def monetization_policy(self) -> dict:
        return {
            "ads_mandatory": True,
            "revenue_share": 0.0,
            "own_ads_allowed": False,
        }

    def ui_customization(self) -> dict:
        return {
            "mode": "code",
            "coding_required": True,
            "tooling": ["mashup Python library", "HTML/CSS"],
        }

    def deployment_options(self) -> list:
        # "No assistance." — the developer hosts everything themselves.
        return []

    def capability_profile(self) -> CapabilityProfile:
        return CapabilityProfile(
            system=self.system_name,
            search_api="Yahoo",
            custom_sites="Supported",
            proprietary_structured_data="Limited to partners",
            monetization="Ads mandatory",
            custom_ui="Mashup Python library, HTML/CSS",
            deployment="No assistance.",
        )
