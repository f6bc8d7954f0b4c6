"""Google Custom Search baseline: tweak the default engine behaviour.

The paper's §III: such systems "restrict the search to some domains,
automatically add terms to an input query, or reorder search results to
give preference to some URLs" — all three behaviours are implemented here.
Table I: Google API; custom sites supported; no proprietary data; ads
mandatory for for-profit; basic styling; deployment to 3rd-party sites.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import BaselinePlatform, CustomSearchEngine
from repro.core.capability import CapabilityProfile

__all__ = ["CustomEngine", "GoogleCustomSearchPlatform"]


@dataclass
class CustomEngine:
    """One user-configured custom search engine."""

    custom: CustomSearchEngine
    preferred_urls: tuple = ()

    @property
    def name(self) -> str:
        return self.custom.name

    def search(self, query_text: str, count: int = 10):
        """Search with augmentation, then float preferred URLs upward."""
        response = self.custom.search(query_text, count=count * 2)
        preferred = set(self.preferred_urls)

        def sort_key(result):
            return (0 if result.url in preferred else 1,
                    -result.score, result.url)

        return sorted(response.results, key=sort_key)[:count]


class GoogleCustomSearchPlatform(BaselinePlatform):
    """Google Custom Search: behaviour tweaks on the general engine."""

    system_name = "Google Custom"
    api_name = "Google (local substrate)"

    def create_engine(self, name: str, sites=(),
                      augment_terms=(), preferred_urls=()) -> CustomEngine:
        return CustomEngine(
            custom=CustomSearchEngine(
                name=name, engine=self.engine,
                sites=tuple(sites),
                augment_terms=tuple(augment_terms),
            ),
            preferred_urls=tuple(preferred_urls),
        )

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
        return ["third-party-embed"]

    def capability_profile(self) -> CapabilityProfile:
        return CapabilityProfile(
            system=self.system_name,
            search_api="Google",
            custom_sites="Supported",
            proprietary_structured_data="No",
            monetization="Ads mandatory for for-profit entities.",
            custom_ui="Basic styling (e.g., colors, fonts)",
            deployment="3rd-party sites",
        )
