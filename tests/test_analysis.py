"""Tests for tokenization, stopwords, and the Porter stemmer."""

import itertools
import string
import sys
import threading

from hypothesis import given, strategies as st

from repro.searchengine.analysis import (
    Analyzer,
    PorterStemmer,
    STEM_MEMO_SIZE,
    STOPWORDS,
    stem_memo,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Halo: Combat Evolved") == \
            ["halo", "combat", "evolved"]

    def test_numbers_kept(self):
        assert tokenize("Top 10 games of 2009") == \
            ["top", "10", "games", "of", "2009"]

    def test_apostrophes_stay_in_token(self):
        assert tokenize("Ann's store") == ["ann's", "store"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("!!! ---") == []

    @given(st.text(max_size=100))
    def test_tokens_are_lowercase(self, text):
        for token in tokenize(text):
            assert token == token.lower()


class TestPorterStemmer:
    # Canonical examples from Porter's paper.
    CASES = {
        "caresses": "caress",
        "ponies": "poni",
        "ties": "ti",
        "caress": "caress",
        "cats": "cat",
        "feed": "feed",
        "agreed": "agre",
        "plastered": "plaster",
        "motoring": "motor",
        "sing": "sing",
        "conflated": "conflat",
        "troubling": "troubl",
        "sized": "size",
        "hopping": "hop",
        "falling": "fall",
        "hissing": "hiss",
        "fizzed": "fizz",
        "happy": "happi",
        "relational": "relat",
        "conditional": "condit",
        "rational": "ration",
        "digitizer": "digit",
        "operator": "oper",
        "feudalism": "feudal",
        "hopefulness": "hope",
        "formaliti": "formal",
        "triplicate": "triplic",
        "formative": "form",
        "formalize": "formal",
        "electrical": "electr",
        "hopeful": "hope",
        "goodness": "good",
        "revival": "reviv",
        "allowance": "allow",
        "inference": "infer",
        "adjustment": "adjust",
        "dependent": "depend",
        "adoption": "adopt",
        "irritant": "irrit",
        "bowdlerize": "bowdler",
        "probate": "probat",
        "controll": "control",
        "roll": "roll",
    }

    def test_known_cases(self):
        stemmer = PorterStemmer()
        failures = {
            word: (stemmer.stem(word), expected)
            for word, expected in self.CASES.items()
            if stemmer.stem(word) != expected
        }
        assert not failures

    def test_short_words_untouched(self):
        stemmer = PorterStemmer()
        for word in ("a", "is", "by"):
            assert stemmer.stem(word) == word

    def test_morphological_variants_collapse(self):
        stemmer = PorterStemmer()
        stems = {stemmer.stem(w)
                 for w in ("review", "reviews", "reviewing", "reviewed")}
        assert len(stems) == 1

    @given(st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz"),
                   min_size=1, max_size=20))
    def test_idempotent_on_own_output_never_grows(self, word):
        stemmer = PorterStemmer()
        stemmed = stemmer.stem(word)
        assert len(stemmed) <= len(word)
        assert stemmed  # never empties a word


class TestStemMemo:
    """``PorterStemmer.stem`` answers from one bounded process-wide memo;
    ``stem_uncached`` is the algorithm itself and the reference here."""

    # Endings Porter's steps act on, so every corpus word is also seen
    # in forms the memo has to get right the first time.
    ENDINGS = ("", "s", "es", "ed", "ing", "ly", "er", "ness", "ful",
               "ation", "ational", "izer", "ization", "ousness", "ement",
               "ibility", "ical", "ism")

    def words(self, web):
        texts = [page.title + " " + page.body for page in web.pages.values()]
        texts += [article.body for article in web.news.values()]
        vocabulary = {token for text in texts for token in tokenize(text)}
        vocabulary.update(TestPorterStemmer.CASES)
        return sorted({word + ending for word in vocabulary
                       for ending in self.ENDINGS})

    def test_memoized_equals_unmemoized(self, small_web):
        words = self.words(small_web)
        assert len(words) >= 2000
        stemmer = PorterStemmer()
        stem_memo.cache_clear()
        for attempt in ("miss", "hit"):
            wrong = {w: (stemmer.stem(w), stemmer.stem_uncached(w))
                     for w in words
                     if stemmer.stem(w) != stemmer.stem_uncached(w)}
            assert not wrong, attempt
        assert stem_memo.cache_info().hits >= len(words)

    def test_memo_never_exceeds_its_bound(self):
        stemmer = PorterStemmer()
        for n in range(STEM_MEMO_SIZE + 1):
            stemmer.stem(f"word{n}")
        info = stem_memo.cache_info()
        assert info.maxsize == STEM_MEMO_SIZE
        assert info.currsize == STEM_MEMO_SIZE
        # The evicted word is simply stemmed again.
        assert stemmer.stem("word0") == stemmer.stem_uncached("word0")

    def test_two_threads_agree(self, small_web):
        words = self.words(small_web)[:3000]
        expected = [PorterStemmer().stem_uncached(w) for w in words]
        stem_memo.cache_clear()
        results = {}

        def work(name):
            stemmer = PorterStemmer()
            results[name] = [stemmer.stem(w) for w in words]

        threads = [threading.Thread(target=work, args=(n,))
                   for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(results[n] == expected for n in range(4))
        assert stem_memo.cache_info().currsize <= STEM_MEMO_SIZE


def step_chain(word):
    """The five steps with no shortcut for words ending in a digit: the
    reference :meth:`PorterStemmer.stem_uncached` must agree with."""
    stemmer = PorterStemmer()
    if len(word) <= 2:
        return word
    for step in (stemmer._step1a, stemmer._step1b, stemmer._step1c,
                 stemmer._step2, stemmer._step3, stemmer._step4,
                 stemmer._step5a, stemmer._step5b):
        word = step(word)
    return word


_ALNUM = string.ascii_lowercase + string.digits


class TestDigitEndingTokens:
    """A token ending in a digit is its own stem, without the steps."""

    def test_every_short_token_equals_the_step_chain(self):
        stemmer = PorterStemmer()
        words = ["".join(chars) + digit
                 for size in range(3)
                 for chars in itertools.product(_ALNUM, repeat=size)
                 for digit in string.digits]
        assert len(words) == 10 * (1 + 36 + 36 ** 2)
        assert not [w for w in words
                    if not stemmer.stem_uncached(w) == step_chain(w) == w]

    @given(st.text(alphabet=_ALNUM + "'", min_size=2, max_size=24),
           st.sampled_from(string.digits))
    def test_longer_tokens_equal_the_step_chain(self, head, digit):
        word = head + digit
        assert PorterStemmer().stem_uncached(word) == step_chain(word) \
            == word

    def test_suffix_shapes_followed_by_a_digit(self):
        stemmer = PorterStemmer()
        for word in TestPorterStemmer.CASES:
            for digit in "09":
                assert stemmer.stem_uncached(word + digit) == \
                    step_chain(word + digit) == word + digit


class TestAnalyzer:
    def test_pipeline(self):
        analyzer = Analyzer()
        assert analyzer.analyze("The latest reviews of the games") == \
            ["latest", "review", "game"]

    def test_stopwords_disabled(self):
        analyzer = Analyzer(use_stopwords=False)
        assert "the" in analyzer.analyze("the game")

    def test_stemming_disabled(self):
        analyzer = Analyzer(use_stemming=False)
        assert analyzer.analyze("reviews games") == ["reviews", "games"]

    def test_positions_skip_stopwords_but_keep_indices(self):
        analyzer = Analyzer()
        pairs = analyzer.analyze_with_positions("the game of the year")
        # tokens: the(0) game(1) of(2) the(3) year(4)
        assert pairs == [("game", 1), ("year", 4)]

    def test_stopword_set_is_lowercase(self):
        assert all(w == w.lower() for w in STOPWORDS)
