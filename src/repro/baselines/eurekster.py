"""Eurekster baseline: "swickis" — community custom search.

Table I: Yahoo search API; custom sites supported; no proprietary data;
ads mandatory for for-profit entities; basic styling; search box on
3rd-party sites only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import BaselinePlatform, CustomSearchEngine
from repro.core.capability import CapabilityProfile

__all__ = ["Swicki", "EureksterPlatform"]


@dataclass
class Swicki:
    """A community search engine."""

    custom: CustomSearchEngine

    @property
    def name(self) -> str:
        return self.custom.name

    def search(self, query_text: str, count: int = 10):
        response = self.custom.search(query_text, count=count * 2)
        return sorted(response.results,
                      key=lambda r: (-r.score, r.url))[:count]


class EureksterPlatform(BaselinePlatform):
    """Eurekster: community custom search (\"swickis\")."""

    system_name = "Eurekster"
    api_name = "Yahoo (local substrate)"

    def create_swicki(self, name: str, sites) -> Swicki:
        return Swicki(custom=CustomSearchEngine(
            name=name, engine=self.engine, sites=tuple(sites)))

    # -- probe protocol ------------------------------------------------------------

    def monetization_policy(self) -> dict:
        return {
            "ads_mandatory": "for-profit-only",
            "revenue_share": 0.0,
            "own_ads_allowed": False,
        }

    def ui_customization(self) -> dict:
        return {
            "mode": "basic-styling",
            "coding_required": False,
            "properties": ["color", "font-family", "font-size"],
        }

    def deployment_options(self) -> list:
        return ["search-box-embed"]

    def capability_profile(self) -> CapabilityProfile:
        return CapabilityProfile(
            system=self.system_name,
            search_api="Yahoo",
            custom_sites="Supported",
            proprietary_structured_data="No",
            monetization="Ads mandatory for for-profit entities.",
            custom_ui="Basic styling (e.g., colors, fonts)",
            deployment="Only allows search box on 3rd-party sites",
        )
