"""Query-biased snippet extraction.

Real search APIs return captions centred on the query terms; Symphony's
result layouts bind to that ``snippet`` field. This module picks the
window of the document body holding the most words that match a query
term (a word counts once however many of its tokens match; the earliest
such window wins) and optionally highlights them.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from repro.searchengine.analysis import tokenize

__all__ = ["best_window", "highlight"]

_WORD_RE = re.compile(r"\S+")


def best_window(text: str, hit_positions, width: int = 30) -> str:
    """The ``width``-word window of ``text`` holding the most hit words.

    ``hit_positions`` are positions in ``tokenize(text)`` — what
    ``InvertedIndex.postings`` records for the indexed field — of the
    tokens that match the query; nothing is analyzed here. A whitespace-
    separated word is a hit when any of its tokens is (a word may hold
    none, like ``--``, or several, like ``half-life``). Falls back to
    the leading window when nothing matches. An ellipsis marks a window
    that does not start at the beginning.
    """
    words = _WORD_RE.findall(text)
    if not words:
        return ""
    hits = set(hit_positions)
    if not hits:
        return _render(words, 0, width)
    # Indices of the hit words, counted up to the last hit position. An
    # ASCII alphanumeric word is exactly one token; only the others are
    # tokenized to learn how many positions they take.
    hit_words = []
    position, last = 0, max(hits)
    for index, word in enumerate(words):
        if word.isascii() and word.isalnum():
            end = position + 1
        else:
            end = position + len(tokenize(word))
        if not hits.isdisjoint(range(position, end)):
            hit_words.append(index)
        if end > last:
            break
        position = end
    # Most hit words wins, the earlier window on a tie. A best start
    # s > 0 beats s - 1 only if its last word, s + width - 1, is a hit,
    # so the earliest best start is 0 or ``hit - width + 1``.
    last_start = len(words) - width
    best_start, best_hits = 0, bisect_left(hit_words, width)
    for rank, hit in enumerate(hit_words):
        start = hit - width + 1
        if 0 < start <= last_start:
            window_hits = rank + 1 - bisect_left(hit_words, start)
            if window_hits > best_hits:
                best_start, best_hits = start, window_hits
    return _render(words, best_start, width)


def _render(words, start: int, width: int) -> str:
    window = words[start:start + width]
    prefix = "… " if start > 0 else ""
    suffix = " …" if start + width < len(words) else ""
    return f"{prefix}{' '.join(window)}{suffix}"


def highlight(snippet: str, terms, analyzer,
              open_tag: str = "<b>", close_tag: str = "</b>") -> str:
    """Wrap matching words of ``snippet`` in highlight tags."""
    if not terms:
        return snippet
    term_set = set(terms)

    def wrap(match):
        word = match.group(0)
        if term_set.intersection(analyzer.analyze(word)):
            return f"{open_tag}{word}{close_tag}"
        return word

    return _WORD_RE.sub(wrap, snippet)
