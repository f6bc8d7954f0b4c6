"""Corpus statistics, separable from any single index.

BM25 mixes *global* corpus statistics (document count, document
frequency, average field length) with *local* per-document statistics
(term frequency, field length). On one index both come from the same
object; on a document-partitioned cluster the global half must be
gathered across shards first, or idf drifts and shard scores stop being
comparable. This module makes that split explicit:
:class:`CorpusStats` is the global half as a plain value, collectable
per index and mergeable by summation.
:class:`~repro.searchengine.ranking.BM25Scorer` takes one beside the
index it scores and collects the index's own when none is given, so a
single node and a shard run the same code on the same kind of input,
and a shard under the merged statistics scores exactly as the union of
all shards would.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FieldStats", "CorpusStats"]


@dataclass(frozen=True)
class FieldStats:
    """Aggregate length statistics for one text field."""

    total_length: int = 0
    doc_count: int = 0


@dataclass(frozen=True)
class CorpusStats:
    """The global half of BM25's inputs, summable across shards."""

    doc_count: int
    fields: dict            # field name -> FieldStats
    doc_frequency: dict     # (field name, term) -> int

    @classmethod
    def empty(cls) -> "CorpusStats":
        return cls(0, {}, {})

    @classmethod
    def collect(cls, index, fields, terms) -> "CorpusStats":
        """Gather statistics for ``terms`` over ``fields`` of one index."""
        field_stats = {
            name: FieldStats(index.total_field_length(name),
                             index.field_doc_count(name))
            for name in fields
        }
        doc_frequency = {
            (name, term): index.document_frequency(name, term)
            for name in fields
            for term in terms
        }
        return cls(len(index), field_stats, doc_frequency)

    @staticmethod
    def merge(parts) -> "CorpusStats":
        """Sum per-shard statistics into corpus-wide ones."""
        doc_count = 0
        fields: dict[str, FieldStats] = {}
        doc_frequency: dict[tuple[str, str], int] = {}
        for part in parts:
            doc_count += part.doc_count
            for name, stats in part.fields.items():
                seen = fields.get(name, FieldStats())
                fields[name] = FieldStats(
                    seen.total_length + stats.total_length,
                    seen.doc_count + stats.doc_count,
                )
            for key, df in part.doc_frequency.items():
                doc_frequency[key] = doc_frequency.get(key, 0) + df
        return CorpusStats(doc_count, fields, doc_frequency)

    def average_field_length(self, name: str) -> float:
        stats = self.fields.get(name)
        if stats is None or stats.doc_count == 0:
            return 0.0
        # The union index's own integer operands (total length over
        # documents with the field), hence bit-identical float results.
        return stats.total_length / stats.doc_count
