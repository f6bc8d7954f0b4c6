"""Query-biased snippet extraction.

Real search APIs return captions centred on the query terms; Symphony's
result layouts bind to that ``snippet`` field. This module picks the
window of the document body holding the most words that match a query
term (a word counts once however many of its tokens match; the earliest
such window wins). A caption costs its hits, not its body: a body is
tokenized at most once while its token-to-word table stays in a memo.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import lru_cache
from itertools import repeat

from repro.searchengine.analysis import tokenize

__all__ = ["best_window", "CAPTION_MEMO_SIZE"]

#: Most distinct bodies whose token-to-word table is remembered; the
#: least recently captioned leaves first. An LRU, not a memo that stops
#: adding when full: bodies keep being written and removed, and a full
#: memo of removed bodies would stop helping. About 1.4 MB when full of
#: 80-word bodies.
CAPTION_MEMO_SIZE = 4096

# Word indices take two bytes, four in a body of over 65 536 words.
assert array("H").itemsize == 2 and array("I").itemsize == 4


@lru_cache(maxsize=CAPTION_MEMO_SIZE)
def _word_table(text: str) -> array:
    """Entry *p* is the index of the whitespace word holding token *p*
    of ``tokenize(text)``; never mutated. An ASCII alphanumeric word is
    one token; only the others are tokenized to count theirs (none for
    ``--``, two for ``half-life``)."""
    words = text.split()
    table = array("H" if len(words) <= 1 << 16 else "I")
    for index, word in enumerate(words):
        if word.isascii() and word.isalnum():
            table.append(index)
        else:
            table.extend(repeat(index, len(tokenize(word))))
    return table


def best_window(text: str, hit_positions, width: int = 30) -> str:
    """The ``width``-word window of ``text`` holding the most hit words.

    ``hit_positions`` (any iterable) are positions in ``tokenize(text)``
    — what ``InvertedIndex.postings`` records for the indexed field — of
    the tokens that match the query; one outside the body is ignored. A
    word is a hit when any of its tokens is; the body's table, built at
    most once while it stays among the last :data:`CAPTION_MEMO_SIZE`
    captioned, says which word holds each. Falls back to the leading
    window when nothing matches; an ellipsis marks a later start.
    """
    # Equals ``re.findall(r"\S+", text)``: ``re``'s ``\s`` and
    # ``str.isspace`` agree on every code point.
    words = text.split()
    if not words:
        return ""
    table = _word_table(text)
    tokens = len(table)
    hit_words = sorted({table[position] for position in hit_positions
                        if 0 <= position < tokens})
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
