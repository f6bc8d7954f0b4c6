"""Weighted site co-occurrence graph mined from query/click logs."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

__all__ = ["SiteCooccurrenceGraph"]


@dataclass
class SiteCooccurrenceGraph:
    """Undirected weighted graph: weight = #queries both sites were
    clicked for (log evidence) plus optional link-structure prior."""

    weights: dict = field(default_factory=dict)   # site -> {site: weight}
    site_counts: dict = field(default_factory=dict)  # site -> total weight
    total_weight: float = 0.0

    # -- construction -----------------------------------------------------------

    def add_edge(self, a: str, b: str, weight: float = 1.0) -> None:
        if a == b or weight <= 0:
            return
        for src, dst in ((a, b), (b, a)):
            row = self.weights.setdefault(src, {})
            row[dst] = row.get(dst, 0.0) + weight
        self.site_counts[a] = self.site_counts.get(a, 0.0) + weight
        self.site_counts[b] = self.site_counts.get(b, 0.0) + weight
        self.total_weight += weight

    @classmethod
    def from_query_log(cls, log) -> "SiteCooccurrenceGraph":
        """Each query with clicks on k sites adds C(k,2) co-click edges."""
        graph = cls()
        for sites in log.clicked_sites_by_query().values():
            for a, b in combinations(sorted(sites), 2):
                graph.add_edge(a, b, 1.0)
        return graph

    def blend_link_graph(self, domain_links: dict,
                         weight: float = 0.25) -> None:
        """Mix in the web's cross-site link counts as a weak prior.

        Useful when click logs are sparse (a cold-start application); the
        prior weight keeps log evidence dominant.
        """
        for source, targets in domain_links.items():
            for target, count in targets.items():
                self.add_edge(source, target, weight * count)

    # -- accessors ---------------------------------------------------------------

    def sites(self) -> list[str]:
        return sorted(self.weights)

    def edge_weight(self, a: str, b: str) -> float:
        return self.weights.get(a, {}).get(b, 0.0)

    def pmi(self, a: str, b: str) -> float:
        """Pointwise mutual information between two sites' occurrences."""
        joint = self.edge_weight(a, b)
        if joint <= 0 or self.total_weight <= 0:
            return 0.0
        p_joint = joint / self.total_weight
        p_a = self.site_counts.get(a, 0.0) / (2 * self.total_weight)
        p_b = self.site_counts.get(b, 0.0) / (2 * self.total_weight)
        if p_a <= 0 or p_b <= 0:
            return 0.0
        import math
        return math.log(p_joint / (p_a * p_b))
