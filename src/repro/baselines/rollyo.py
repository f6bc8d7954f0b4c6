"""Rollyo baseline: "searchrolls" — site restriction with basic styling.

Table I: Yahoo search API; custom sites supported; no proprietary data; the
user may show their own ads; styling limited to colors/fonts; deployment
limited to a search box on 3rd-party sites.
"""

from __future__ import annotations

from repro.baselines.base import BaselinePlatform, CustomSearchEngine
from repro.core.capability import CapabilityProfile

__all__ = ["RollyoPlatform"]


class RollyoPlatform(BaselinePlatform):
    """Rollyo: site-restricted \"searchrolls\" with basic styling."""

    system_name = "Rollyo"
    api_name = "Yahoo (local substrate)"

    _MAX_SITES = 25  # Rollyo capped searchrolls at 25 sites

    def create_searchroll(self, name: str,
                          sites) -> CustomSearchEngine:
        sites = tuple(sites)[: self._MAX_SITES]
        return CustomSearchEngine(name=name, engine=self.engine,
                                  sites=sites)

    # -- probe protocol ------------------------------------------------------------

    def monetization_policy(self) -> dict:
        return {
            "ads_mandatory": False,
            "revenue_share": 0.0,
            "own_ads_allowed": True,  # "Show your own ads"
        }

    def ui_customization(self) -> dict:
        return {
            "mode": "basic-styling",
            "coding_required": False,
            "properties": ["color", "font-family", "font-size",
                           "background"],
        }

    def deployment_options(self) -> list:
        return ["search-box-embed"]

    def capability_profile(self) -> CapabilityProfile:
        return CapabilityProfile(
            system=self.system_name,
            search_api="Yahoo",
            custom_sites="Supported",
            proprietary_structured_data="No",
            monetization="Show your own ads",
            custom_ui="Basic styling (e.g., colors, fonts)",
            deployment="Only allows search box on 3rd-party sites",
        )
