"""Capability profile: the vocabulary of the paper's Table I.

Each platform (Symphony itself and the five baselines) answers the same
six questions — search API, custom sites, proprietary structured data,
monetization, custom UI, deployment. Benchmarks regenerate Table I by
*probing* the live implementations (attempting uploads, site-restricted
searches, monetization configuration...) rather than by printing a
hard-coded matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CapabilityProfile", "TABLE_I_ROWS"]

TABLE_I_ROWS = (
    "Search API",
    "Custom Sites",
    "Proprietary, Structured Data",
    "Monetization",
    "Custom UI",
    "Deployment of Search Applications",
)


@dataclass(frozen=True)
class CapabilityProfile:
    """One column of Table I."""

    system: str
    search_api: str
    custom_sites: str
    proprietary_structured_data: str
    monetization: str
    custom_ui: str
    deployment: str

    def cells(self) -> tuple:
        """Cells in TABLE_I_ROWS order."""
        return (
            self.search_api,
            self.custom_sites,
            self.proprietary_structured_data,
            self.monetization,
            self.custom_ui,
            self.deployment,
        )

