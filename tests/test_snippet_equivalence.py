"""Captions picked from postings positions equal captions picked by
re-analyzing every word of the body, and captions picked through the
memoized token-to-word table equal captions picked by walking the words.

``reference_window`` is the per-word algorithm the engine used before
it read postings positions: analyze each whitespace-separated word,
mark it when one of its stems is a query term, slide the window. It is
the specification; ``materialize_result`` must reproduce it byte for
byte on any body — punctuation-only words (no tokens), hyphenated and
dotted words (several tokens), apostrophes, stop-words, mixed case,
``İ`` (lowercases to two code points) and every kind of Unicode
whitespace — single-node and on a sharded cluster.

``reference_walk`` is the position-level algorithm ``best_window`` used
before it read the memoized table: walk the words up to the last hit,
counting each word's tokens. ``best_window`` must reproduce it byte for
byte for any positions, whether the memo is cold or warm.
"""

import re
from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterConfig, build_clustered_engine
from repro.searchengine import snippets
from repro.searchengine.analysis import Analyzer, tokenize
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import (
    SearchOptions,
    build_engine,
    materialize_result,
)
from repro.searchengine.query import extract_terms, parse_query
from repro.searchengine.snippets import best_window
from repro.simweb.model import SyntheticWeb

WIDTH = 28  # what materialize_result asks for

_WORD_RE = re.compile(r"\S+")


def reference_window(text, terms, analyzer, width):
    words = _WORD_RE.findall(text)
    if not words:
        return ""
    term_set = set(terms)
    matches = [bool(term_set.intersection(analyzer.analyze(word)))
               for word in words]
    best_start, best_hits = 0, sum(matches[:width])
    for start in range(1, len(words) - width + 1):
        hits = sum(matches[start:start + width])
        if hits > best_hits:
            best_start, best_hits = start, hits
    window = words[best_start:best_start + width]
    prefix = "… " if best_start > 0 else ""
    suffix = " …" if best_start + width < len(words) else ""
    return f"{prefix}{' '.join(window)}{suffix}"


def reference_walk(text, hit_positions, width):
    words = _WORD_RE.findall(text)
    if not words:
        return ""
    hits = set(hit_positions)
    hit_words = []
    if hits:
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
    last_start = len(words) - width
    best_start, best_hits = 0, bisect_left(hit_words, width)
    for rank, hit in enumerate(hit_words):
        start = hit - width + 1
        if 0 < start <= last_start:
            window_hits = rank + 1 - bisect_left(hit_words, start)
            if window_hits > best_hits:
                best_start, best_hits = start, window_hits
    window = words[best_start:best_start + width]
    prefix = "… " if best_start > 0 else ""
    suffix = " …" if best_start + width < len(words) else ""
    return f"{prefix}{' '.join(window)}{suffix}"


WORDS = (
    # query words in the forms a stemmer folds together
    "halo", "Halo", "HALO", "halos", "review", "Reviews", "reviewing",
    "zelda", "Zelda's", "game", "Games",
    # no tokens at all
    "--", "…", "!!!", "(", "'", "—", "*",
    # several tokens in one word
    "half-life", "halo-review", "e.g.", "www.halo.com", "3.5/5",
    "rock'n'roll", "re-reviewed", "(halo)", "zelda/halo",
    # apostrophes
    "don't", "halo's", "'tis", "reviewer's", "games'",
    # stop-words, which positions count but the index does not store
    "the", "The", "of", "and", "is", "IT", "the-halo",
    # case folding that changes length or leaves ASCII behind
    "İstanbul", "İ", "HALOİ", "ﬁnal", "straße", "ΣΊΣΥΦΟΣ", "Kelvin",
    # ASCII alphanumeric, so one token without tokenizing
    "Xbox360", "R2D2", "HALO2", "2001", "x",
    # alphanumeric but not ASCII, so tokenized: one token, two, none
    "café", "naïve", "ｈａｌｏ", "²", "halo²",
    "pad", "filler", "lorem",
)
FILLER = ("pad", "filler", "lorem", "--", "the")

SEPARATORS = (" ", " ", " ", "  ", "\t", "\n", "\r\n", "\u00a0",
              "\u2003", "\u3000", "\u2028", "\x1f", "\x85")

QUERIES = (
    "halo", "reviews", "Zelda", '"halo review"', '"the halo"',
    "halo OR zelda", '"halo review" OR games', "halo NOT review",
    "NOT review", "game (halo OR zelda)", "the halo", "half-life",
    "don't", "İstanbul", "www.halo.com", "nosuchword", "xbox360 OR r2d2",
    "halo2", "café", "naïve OR halo",
)

pieces = st.one_of(st.sampled_from(WORDS), st.sampled_from(WORDS),
                   st.text(min_size=1, max_size=6))


@st.composite
def bodies(draw):
    parts = draw(st.lists(pieces, max_size=90))
    seps = draw(st.lists(st.sampled_from(SEPARATORS),
                         min_size=len(parts) + 1, max_size=len(parts) + 1))
    return "".join(sep + part for sep, part in zip(seps, parts)) + seps[-1]


@st.composite
def late_hit_bodies(draw):
    """Filler, then the only words that can hit, all in the last window."""
    lead = draw(st.lists(st.sampled_from(FILLER), min_size=WIDTH,
                         max_size=70))
    tail = draw(st.lists(pieces, min_size=1, max_size=WIDTH))
    return " ".join(lead + tail)


@st.composite
def sparse_bodies(draw):
    """One word a few times among filler, often far enough apart for
    two windows to tie."""
    size = draw(st.integers(0, 90))
    words = draw(st.lists(st.sampled_from(FILLER), min_size=size,
                          max_size=size))
    piece = draw(pieces)
    for __ in range(draw(st.integers(1, 3))):
        words.insert(draw(st.integers(0, len(words))), piece)
    return " ".join(words)


any_body = st.one_of(bodies(), late_hit_bodies(), sparse_bodies(),
                     st.lists(pieces, max_size=WIDTH - 1).map(" ".join))


@st.composite
def bodies_and_positions(draw):
    """A body and any positions: in range, repeated, negative or past
    its last token."""
    text = draw(any_body)
    tokens = len(tokenize(text))
    positions = draw(st.lists(st.integers(-tokens - 3, tokens + 3),
                              max_size=12))
    repeats = draw(st.lists(st.sampled_from(positions), max_size=3)
                   if positions else st.just([]))
    return text, positions + repeats


def documents(texts):
    return [
        FieldedDocument(
            doc_id=f"http://eq.example/{n}",
            fields={"url": f"http://eq.example/{n}", "title": f"doc {n}",
                    "body": text, "site": "eq.example", "topic": "wine"},
        )
        for n, text in enumerate(texts)
    ]


def single_node(docs):
    engine = build_engine(SyntheticWeb(), use_authority=False)
    for doc in docs:
        engine.vertical("web").add(doc)
    return engine


@settings(max_examples=150)
@given(st.lists(any_body, min_size=1, max_size=4),
       st.sampled_from(QUERIES))
def test_materialized_snippet_equals_per_word_reference(texts, query):
    engine = single_node(documents(texts))
    vindex = engine.vertical("web")
    analyzer = vindex.index.analyzer
    terms = extract_terms(parse_query(query), analyzer)
    for doc in documents(texts):
        got = materialize_result(vindex, doc.doc_id, 1.0, terms).snippet
        assert got == reference_window(doc.get("body"), terms, analyzer,
                                       WIDTH), (query, doc.get("body"))


@given(bodies_and_positions(), st.sampled_from((1, 2, 5, WIDTH, 30)))
def test_best_window_equals_reference_walk_cold_and_warm(body, width):
    text, positions = body
    expected = reference_walk(text, positions, width)
    snippets._word_table.cache_clear()
    assert best_window(text, positions, width) == expected
    assert best_window(text, iter(positions), width) == expected


@settings(max_examples=40)
@given(st.lists(bodies(), min_size=1, max_size=8),
       st.sampled_from(QUERIES))
def test_cluster_snippets_equal_single_node_and_reference(texts, query):
    docs = documents(texts)
    single = single_node(docs)
    cluster = build_clustered_engine(
        SyntheticWeb(), ClusterConfig(num_shards=4, replicas_per_shard=1),
        use_authority=False,
    )
    for doc in docs:
        cluster.add_document("web", doc)
    options = SearchOptions(count=10)
    a = single.search("web", query, options)
    b = cluster.search("web", query, options)
    assert [(r.url, r.snippet) for r in b.results] == \
        [(r.url, r.snippet) for r in a.results]
    analyzer = Analyzer()
    terms = extract_terms(parse_query(query), analyzer)
    body_of = {doc.doc_id: doc.get("body") for doc in docs}
    for result in a.results:
        assert result.snippet == reference_window(
            body_of[result.url], terms, analyzer, WIDTH)


def test_analyze_calls_do_not_depend_on_what_is_returned(engine, small_web,
                                                         monkeypatch):
    """Captioning analyzes nothing: one search costs the same number of
    ``Analyzer.analyze`` calls whether it returns one body or ten."""
    calls = []
    analyze = Analyzer.analyze

    def spy(self, text):
        calls.append(text)
        return analyze(self, text)

    monkeypatch.setattr(Analyzer, "analyze", spy)
    entity = small_web.entities["video_games"][0]
    counts = {}
    for count in (1, 10):
        del calls[:]
        response = engine.search("web", f'"{entity}" review',
                                 SearchOptions(count=count))
        assert len(response.results) == min(count, response.total_matches)
        counts[count] = len(calls)
    assert len(response.results) > 1
    assert counts[10] == counts[1]
