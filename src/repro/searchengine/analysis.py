"""Text analysis: tokenization, stopword filtering, and stemming.

The analyzer is the single normalization point shared by indexing and query
parsing, so a term always stems the same way on both sides.

Stemming is a pure function of the word and by far the most expensive
step, so the process keeps one bounded memo of it (:data:`stem_memo`):
index builds, re-indexes, replica builds, query parsing and the ads
matcher stem each distinct word once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = ["tokenize", "STOPWORDS", "PorterStemmer", "Analyzer",
           "STEM_MEMO_SIZE", "stem_memo"]

#: Most distinct words :data:`stem_memo` holds; the least recently
#: stemmed word leaves first. A few MB at worst, and larger than the
#: working vocabulary of an English corpus.
STEM_MEMO_SIZE = 65_536

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)?")

STOPWORDS = frozenset(
    """a an and are as at be but by for from has have if in into is it its
    of on or such that the their then there these they this to was were will
    with""".split()
)


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split into alphanumeric tokens.

    >>> tokenize("Halo: Combat Evolved (2001)")
    ['halo', 'combat', 'evolved', '2001']
    """
    return _TOKEN_RE.findall(text.lower())


class PorterStemmer:
    """The Porter (1980) suffix-stripping stemmer.

    A faithful implementation of the five-step algorithm; enough fidelity
    that morphological variants ("review", "reviews", "reviewing") collapse
    to one index term.
    """

    _VOWELS = "aeiou"

    def stem(self, word: str) -> str:
        """The stem of ``word``, from :data:`stem_memo` when seen before."""
        return stem_memo(word)

    def stem_uncached(self, word: str) -> str:
        """The five steps themselves; what :data:`stem_memo` remembers."""
        # Every rule strips or replaces a suffix ending in a letter, so
        # a word ending in a digit (a SKU, a price, a year) is its own
        # stem.
        if len(word) <= 2 or word[-1].isdigit():
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- measure and predicates --------------------------------------------

    def _is_consonant(self, word: str, i: int) -> bool:
        ch = word[i]
        if ch in self._VOWELS:
            return False
        if ch == "y":
            return i == 0 or not self._is_consonant(word, i - 1)
        return True

    def _measure(self, stem: str) -> int:
        """The Porter 'm' value: number of VC sequences in the stem."""
        m = 0
        prev_vowel = False
        for i in range(len(stem)):
            vowel = not self._is_consonant(stem, i)
            if prev_vowel and not vowel:
                m += 1
            prev_vowel = vowel
        return m

    def _has_vowel(self, stem: str) -> bool:
        return any(not self._is_consonant(stem, i) for i in range(len(stem)))

    def _ends_double_consonant(self, word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and self._is_consonant(word, len(word) - 1)
        )

    def _ends_cvc(self, word: str) -> bool:
        if len(word) < 3:
            return False
        c1 = self._is_consonant(word, len(word) - 3)
        v = not self._is_consonant(word, len(word) - 2)
        c2 = self._is_consonant(word, len(word) - 1)
        return c1 and v and c2 and word[-1] not in "wxy"

    # -- steps ---------------------------------------------------------------

    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem = word[:-3]
            return word[:-1] if self._measure(stem) > 0 else word
        flagged = None
        if word.endswith("ed") and self._has_vowel(word[:-2]):
            flagged = word[:-2]
        elif word.endswith("ing") and self._has_vowel(word[:-3]):
            flagged = word[:-3]
        if flagged is None:
            return word
        word = flagged
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if self._ends_double_consonant(word) and word[-1] not in "lsz":
            return word[:-1]
        if self._measure(word) == 1 and self._ends_cvc(word):
            return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._has_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    # Suffix tables are matched longest first; they are sorted once,
    # here, and ``sorted`` is stable, so equal lengths keep the order
    # they are written in.

    _STEP2_SUFFIXES = tuple(sorted((
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
        ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
        ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
        ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"),
        ("biliti", "ble"),
    ), key=lambda pair: len(pair[0]), reverse=True))

    def _step2(self, word: str) -> str:
        return self._replace_longest(word, self._STEP2_SUFFIXES, 0)

    _STEP3_SUFFIXES = tuple(sorted((
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ), key=lambda pair: len(pair[0]), reverse=True))

    def _step3(self, word: str) -> str:
        return self._replace_longest(word, self._STEP3_SUFFIXES, 0)

    _STEP4_SUFFIXES = tuple(sorted((
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ), key=len, reverse=True))

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if self._measure(stem) > 1:
                    return stem
                return word
        if word.endswith("ion"):
            stem = word[:-3]
            if stem and stem[-1] in "st" and self._measure(stem) > 1:
                return stem
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = self._measure(stem)
            if m > 1 or (m == 1 and not self._ends_cvc(stem)):
                return stem
        return word

    def _step5b(self, word: str) -> str:
        if (
            self._measure(word) > 1
            and self._ends_double_consonant(word)
            and word.endswith("l")
        ):
            return word[:-1]
        return word

    def _replace_longest(self, word, suffixes, min_measure) -> str:
        for suffix, replacement in suffixes:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if self._measure(stem) > min_measure:
                    return stem + replacement
                return word
        return word


#: ``stem_memo(word)`` is ``PorterStemmer().stem_uncached(word)``,
#: remembered for the last :data:`STEM_MEMO_SIZE` distinct words. One per
#: process, safe to call from any thread (``lru_cache`` locks its own
#: bookkeeping); ``stem_memo.cache_info()`` reads hits, misses and size.
stem_memo = lru_cache(maxsize=STEM_MEMO_SIZE)(PorterStemmer().stem_uncached)


@dataclass
class Analyzer:
    """Tokenize → drop stopwords → stem. Shared by index and query sides."""

    use_stopwords: bool = True
    use_stemming: bool = True
    _stemmer: PorterStemmer = field(default_factory=PorterStemmer)

    def analyze(self, text: str) -> list[str]:
        tokens = tokenize(text)
        if self.use_stopwords:
            tokens = [t for t in tokens if t not in STOPWORDS]
        if self.use_stemming:
            tokens = [self._stemmer.stem(t) for t in tokens]
        return tokens

    def analyze_with_positions(self, text: str) -> list[tuple[str, int]]:
        """Like :meth:`analyze` but keeps original token positions.

        Positions are indices into the *unfiltered* token stream so phrase
        queries respect stopword gaps.
        """
        out = []
        for position, token in enumerate(tokenize(text)):
            if self.use_stopwords and token in STOPWORDS:
                continue
            if self.use_stemming:
                token = self._stemmer.stem(token)
            out.append((token, position))
        return out
