"""Query-biased snippet extraction.

Real search APIs return captions centred on the query terms; Symphony's
result layouts bind to that ``snippet`` field. This module picks the
window of the document body holding the most words that match a query
term (a word counts once however many of its tokens match; the earliest
such window wins) and optionally highlights them.
"""

from __future__ import annotations

import re

from repro.searchengine.analysis import tokenize

__all__ = ["best_window", "highlight"]

_WORD_RE = re.compile(r"\S+")


def best_window(text: str, hit_positions, width: int = 30) -> str:
    """The ``width``-word window of ``text`` holding the most hit words.

    ``hit_positions`` are positions in ``tokenize(text)`` — what
    ``Posting.positions`` records for the indexed field — of the tokens
    that match the query; nothing is analyzed here. A whitespace-
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
    matches = []
    position = 0
    for word in words:
        end = position + len(tokenize(word))
        matches.append(not hits.isdisjoint(range(position, end)))
        position = end
    best_start = 0
    window_hits = sum(matches[:width])
    # Slide the window; most hit words wins, the earlier window on a tie.
    best_key = (window_hits, 0)
    for start in range(1, max(1, len(words) - width + 1)):
        window_hits += matches[start + width - 1] \
            if start + width - 1 < len(words) else 0
        window_hits -= matches[start - 1]
        key = (window_hits, -start)
        if key > best_key:
            best_key = key
            best_start = start
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
