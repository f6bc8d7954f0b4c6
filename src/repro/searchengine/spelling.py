"""Spelling suggestion ("did you mean") from the index vocabulary.

A classic engine nicety the paper's substrate would provide: when a
query term is absent from (or very rare in) the corpus, suggest the
most frequent vocabulary term within small edit distance.
"""

from __future__ import annotations

from repro.searchengine.stats import CorpusStats

__all__ = ["edit_distance", "SpellingCorrector"]


def edit_distance(a: str, b: str, cap: int = 3) -> int:
    """Levenshtein distance with an early-exit ``cap``."""
    if a == b:
        return 0
    if abs(len(a) - len(b)) >= cap:
        return cap
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        row_min = i
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            value = min(previous[j] + 1, current[j - 1] + 1,
                        previous[j - 1] + cost)
            current.append(value)
            row_min = min(row_min, value)
        if row_min >= cap:
            return cap
        previous = current
    return min(previous[-1], cap)


class SpellingCorrector:
    """Suggests corrections from term frequencies in one or more fields.

    Pass either an ``index`` (with optional ``fields``) or pre-merged
    ``frequencies``; the ``min_frequency`` floor applies in both cases.
    """

    def __init__(self, index=None, fields=None, max_distance: int = 2,
                 min_frequency: int = 2,
                 frequencies: dict | None = None) -> None:
        self._max_distance = max_distance
        if frequencies is None:
            if index is None:
                raise ValueError("need an index or a frequencies dict")
            frequencies = CorpusStats.collect(
                index, fields or index.text_fields()).term_frequencies()
        self._frequencies = {
            term: count for term, count in frequencies.items()
            if count >= min_frequency
        }

    def known(self, term: str) -> bool:
        return term in self._frequencies

    def suggest(self, term: str) -> str | None:
        """The most frequent in-vocabulary term within edit distance.

        Returns None when ``term`` is already known or nothing close
        enough exists. Ties break toward higher frequency, then
        lexicographically for determinism.
        """
        if not term or self.known(term):
            return None
        best: tuple | None = None
        for candidate, frequency in self._frequencies.items():
            if abs(len(candidate) - len(term)) > self._max_distance:
                continue
            distance = edit_distance(term, candidate,
                                     cap=self._max_distance + 1)
            if distance > self._max_distance:
                continue
            key = (distance, -frequency, candidate)
            if best is None or key < best[0]:
                best = (key, candidate)
        return best[1] if best else None

    def suggest_query(self, terms) -> list[str] | None:
        """Correct a whole analyzed query; None when nothing to fix."""
        corrected = []
        changed = False
        for term in terms:
            suggestion = self.suggest(term)
            if suggestion is not None:
                corrected.append(suggestion)
                changed = True
            else:
                corrected.append(term)
        return corrected if changed else None
