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
    def collect(cls, index, fields, terms=None, keep=None) -> "CorpusStats":
        """Gather statistics for ``terms`` over ``fields`` of one index;
        ``None`` gathers every term the fields hold, with no zeros.
        ``keep``, the ordinal filter
        :func:`~repro.searchengine.engine.execute_query` takes, narrows
        the documents counted to those it keeps of the index's ordinals."""
        owned = None if keep is None else keep(index.ordinals())
        field_stats, doc_frequency = {}, {}
        for name in fields:
            if owned is None:
                field_stats[name] = FieldStats(index.total_field_length(name),
                                               index.field_doc_count(name))
            else:
                by_ordinal = index.field_lengths(name)
                lengths = [length for length in map(by_ordinal.__getitem__,
                                                    owned)
                           if length is not None] if by_ordinal else []
                field_stats[name] = FieldStats(sum(lengths), len(lengths))
            if terms is None:
                vocabulary = index.term_frequencies(name).items()
            else:
                vocabulary = ((term, index.document_frequency(name, term))
                              for term in terms)
            for term, df in vocabulary:
                if owned is not None:
                    df = len(index.matching(name, term, owned))
                if df or terms is not None:
                    doc_frequency[name, term] = df
        return cls(len(index) if owned is None else len(owned),
                   field_stats, doc_frequency)

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

    def term_frequencies(self) -> dict[str, int]:
        """Document frequency per term, summed over fields: the
        vocabulary a :class:`~repro.searchengine.spelling.SpellingCorrector`
        counts, on statistics collected (or merged) over every term."""
        frequencies: dict[str, int] = {}
        for (__, term), df in self.doc_frequency.items():
            frequencies[term] = frequencies.get(term, 0) + df
        return frequencies

    def average_field_length(self, name: str) -> float:
        stats = self.fields.get(name)
        if stats is None or stats.doc_count == 0:
            return 0.0
        # The union index's own integer operands (total length over
        # documents with the field), hence bit-identical float results.
        return stats.total_length / stats.doc_count
