"""Shared machinery for the Table I baseline platforms."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsupportedCapabilityError
from repro.searchengine.engine import SearchOptions

__all__ = ["CustomSearchEngine", "BaselinePlatform"]


@dataclass
class CustomSearchEngine:
    """A user-created custom search engine on a baseline platform.

    The common denominator of Rollyo's "searchrolls", Eurekster's
    "swickis", and Google Custom Search engines: a named, site-restricted
    view of the underlying general engine, with optional query
    augmentation.
    """

    name: str
    engine: object
    sites: tuple = ()
    augment_terms: tuple = ()

    def search(self, query_text: str, count: int = 10):
        options = SearchOptions(
            count=count,
            sites=self.sites,
            augment_terms=self.augment_terms,
        )
        return self.engine.search("web", query_text, options)


class BaselinePlatform:
    """Base class fixing the probe protocol all platforms answer.

    Subclasses override the pieces Table I differentiates; unsupported
    features raise :class:`UnsupportedCapabilityError`, which is exactly
    what the probes detect.
    """

    system_name = "baseline"
    api_name = "unknown"

    def __init__(self, engine) -> None:
        self.engine = engine

    # -- probe protocol -----------------------------------------------------------

    def search_api_name(self) -> str:
        return self.api_name

    def upload_structured_data(self, rows, table_name: str = "data"):
        raise UnsupportedCapabilityError(
            "proprietary-structured-data",
            f"{self.system_name} does not accept designer data uploads",
        )

    def monetization_policy(self) -> dict:
        raise UnsupportedCapabilityError(
            "monetization",
            f"{self.system_name} has no monetization support",
        )

    def ui_customization(self) -> dict:
        raise UnsupportedCapabilityError(
            "custom-ui",
            f"{self.system_name} offers no UI customization",
        )

    def deployment_options(self) -> list:
        raise UnsupportedCapabilityError(
            "deployment",
            f"{self.system_name} offers no deployment assistance",
        )
