"""Query language: lexer, recursive-descent parser, AST, and evaluator.

Grammar (whitespace-separated, implicit AND):

    query    := or_expr
    or_expr  := and_expr ("OR" and_expr)*
    and_expr := unary ("AND"? unary)*
    unary    := "NOT" unary | atom
    atom     := "(" query ")" | PHRASE | FILTER | TERM
    FILTER   := name ":" value            e.g. site:gamespot.com
    PHRASE   := '"' words '"'

``site:`` (and any other keyword-mode field) filters exactly; text fields
match analyzed terms. Evaluation returns the candidate doc-id set plus the
analyzed scoring terms, so ranking happens once, outside the boolean logic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import QueryError
from repro.searchengine.documents import FieldMode

__all__ = [
    "QueryNode", "TermNode", "PhraseNode", "FilterNode", "ValueNode",
    "RangeNode", "AndNode", "OrNode", "NotNode",
    "parse_query", "QueryEvaluator", "extract_terms",
]


class QueryNode:
    """Base class for query AST nodes."""


@dataclass(frozen=True)
class TermNode(QueryNode):
    text: str


@dataclass(frozen=True)
class PhraseNode(QueryNode):
    text: str


@dataclass(frozen=True)
class FilterNode(QueryNode):
    field: str
    value: str


class ValueNode(QueryNode):
    """A node decided per document by ``accepts(value)`` of its stored
    ``field`` (``None`` when absent): range filters, and the typed
    predicates of :mod:`repro.core.structured`."""

    def accepts(self, value) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class RangeNode(ValueNode):
    """Inclusive range filter: ``price:[10 TO 30]``.

    Either bound may be ``*`` (open). Bounds compare numerically when
    both the bound and the document value parse as numbers, otherwise
    lexicographically (which covers ISO dates). A missing or empty
    value is in no range.
    """

    field: str
    low: str
    high: str

    def accepts(self, value) -> bool:
        if value is None or value == "":
            return False
        value = str(value)

        def compare(bound: str, is_low: bool) -> bool:
            if bound == "*":
                return True
            try:
                return (float(value) >= float(bound) if is_low
                        else float(value) <= float(bound))
            except ValueError:
                return (value >= bound if is_low else value <= bound)

        return compare(self.low, True) and compare(self.high, False)


@dataclass(frozen=True)
class AndNode(QueryNode):
    children: tuple


@dataclass(frozen=True)
class OrNode(QueryNode):
    children: tuple


@dataclass(frozen=True)
class NotNode(QueryNode):
    child: QueryNode


# -- lexer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<phrase>"[^"]*")
    | (?P<range>[A-Za-z_][A-Za-z0-9_.]*:\[[^\]]+\])
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<filter>[A-Za-z_][A-Za-z0-9_.]*:[^\s()"]+)
    | (?P<word>[^\s()":]+)
    )
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str


def _lex(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise QueryError(f"cannot lex query near: {remainder[:20]!r}")
        pos = match.end()
        for kind in ("phrase", "range", "lparen", "rparen", "filter",
                     "word"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value))
                break
    return tokens


# -- parser -------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def parse(self) -> QueryNode:
        node = self._or_expr()
        if self._pos != len(self._tokens):
            raise QueryError("unexpected trailing tokens in query")
        return node

    def _peek(self) -> _Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of query")
        self._pos += 1
        return token

    def _or_expr(self) -> QueryNode:
        children = [self._and_expr()]
        while True:
            token = self._peek()
            if token is not None and token.kind == "word" \
                    and token.value == "OR":
                self._next()
                children.append(self._and_expr())
            else:
                break
        if len(children) == 1:
            return children[0]
        return OrNode(tuple(children))

    def _and_expr(self) -> QueryNode:
        children = [self._unary()]
        while True:
            token = self._peek()
            if token is None or token.kind == "rparen":
                break
            if token.kind == "word" and token.value == "OR":
                break
            if token.kind == "word" and token.value == "AND":
                self._next()
                continue
            children.append(self._unary())
        if len(children) == 1:
            return children[0]
        return AndNode(tuple(children))

    def _unary(self) -> QueryNode:
        token = self._peek()
        if token is not None and token.kind == "word" \
                and token.value == "NOT":
            self._next()
            return NotNode(self._unary())
        return self._atom()

    def _atom(self) -> QueryNode:
        token = self._next()
        if token.kind == "lparen":
            node = self._or_expr()
            closing = self._next()
            if closing.kind != "rparen":
                raise QueryError("expected closing parenthesis")
            return node
        if token.kind == "phrase":
            return PhraseNode(token.value.strip('"'))
        if token.kind == "range":
            name, __, body = token.value.partition(":")
            inner = body.strip()[1:-1]  # drop the brackets
            low, sep, high = inner.partition(" TO ")
            if not sep:
                raise QueryError(
                    f"range filter needs 'low TO high': {token.value!r}"
                )
            return RangeNode(name.lower(), low.strip(), high.strip())
        if token.kind == "filter":
            name, __, value = token.value.partition(":")
            return FilterNode(name.lower(), value)
        if token.kind == "word":
            return TermNode(token.value)
        raise QueryError(f"unexpected token: {token.value!r}")


def parse_query(text: str) -> QueryNode:
    """Parse ``text`` into an AST; raises :class:`QueryError` on bad input."""
    if not text or not text.strip():
        raise QueryError("empty query")
    tokens = _lex(text)
    if not tokens:
        raise QueryError("empty query")
    return _Parser(tokens).parse()


def extract_terms(node: QueryNode, analyzer) -> list[str]:
    """Analyzed positive terms of a query, for BM25 scoring and snippets."""
    terms: list[str] = []

    def walk(current: QueryNode, positive: bool) -> None:
        if isinstance(current, TermNode) and positive:
            terms.extend(analyzer.analyze(current.text))
        elif isinstance(current, PhraseNode) and positive:
            terms.extend(analyzer.analyze(current.text))
        elif isinstance(current, (AndNode, OrNode)):
            for child in current.children:
                walk(child, positive)
        elif isinstance(current, NotNode):
            walk(current.child, not positive)

    walk(node, True)
    # Deduplicate but keep first-seen order.
    return list(dict.fromkeys(terms))


class QueryEvaluator:
    """Evaluates a query AST against an :class:`InvertedIndex`.

    ``text_fields`` are the fields searched for bare terms and phrases;
    filters address their named field directly (keyword fields match
    exactly, text fields match all analyzed terms of the value).

    An AND narrows as it goes: each child is evaluated only within the
    documents its earlier siblings left, and every leaf intersects with
    that set from its smaller side, so a restriction costs what is left
    to restrict rather than what it matches in the whole index. An OR of
    filters on one keyword field (a ``site:`` restriction) over fewer
    documents than it has values is one membership pass over those
    documents rather than one look-up per value.
    """

    def __init__(self, index, text_fields: list[str]) -> None:
        self._index = index
        self._text_fields = list(text_fields)

    def candidates(self, node: QueryNode) -> set:
        """The matching ordinals, as a new set the caller owns."""
        return self._eval(node, None)

    def _eval(self, node: QueryNode, within: set | None) -> set:
        """Ordinals matching ``node`` among ``within`` (``None``: all)."""
        if isinstance(node, TermNode):
            return self._eval_term(node.text, within)
        if isinstance(node, PhraseNode):
            return self._eval_phrase(node.text, within)
        if isinstance(node, FilterNode):
            return self._eval_filter(node.field, node.value, within)
        if isinstance(node, ValueNode):
            return self._scan_values(node, within)
        if isinstance(node, AndNode):
            if not node.children:
                return set()
            for child in node.children:
                within = self._eval(child, within)
                if not within:
                    return set()
            return within
        if isinstance(node, OrNode):
            if within is not None and len(within) < len(node.children):
                keyword_or = self._keyword_or(node.children)
                if keyword_or is not None:
                    return self._scan_keyword(*keyword_or, within)
            result: set = set()
            for child in node.children:
                result |= self._eval(child, within)
            return result
        if isinstance(node, NotNode):
            if within is None:
                within = self._index.ordinals()
            return within - self._eval(node.child, within)
        raise QueryError(f"unknown query node: {node!r}")

    def _eval_term(self, text: str, within) -> set:
        matched: set = set()
        for term in self._index.analyzer.analyze(text):
            for field_name in self._text_fields:
                matched |= self._index.matching(field_name, term, within)
        return matched

    def _eval_phrase(self, text: str, within) -> set:
        analyzed = self._index.analyzer.analyze_with_positions(text)
        if not analyzed:
            return set()
        terms, offsets = zip(*analyzed)
        matched: set = set()
        for field_name in self._text_fields:
            matched |= self._index.phrase_matches(field_name, terms, offsets,
                                                  within)
        return matched

    def _scan_values(self, node: ValueNode, within) -> set:
        """The documents of ``within`` whose stored ``node.field`` the
        node accepts: raw document fields, not analyzed postings, which
        is what makes ranges and predicates work for numeric and date
        columns of proprietary data."""
        stored = self._index.stored
        name, accepts = node.field, node.accepts
        return {ordinal for ordinal in (self._index.ordinals()
                                        if within is None else within)
                if accepts(stored(ordinal).fields.get(name))}

    def _keyword_or(self, children) -> tuple | None:
        """``(field, lowered values)`` when every child is a filter on
        one keyword-mode field, else ``None``."""
        first = children[0]
        if not isinstance(first, FilterNode) or \
                self._index.field_modes.get(first.field) != FieldMode.KEYWORD:
            return None
        values = set()
        for child in children:
            if not isinstance(child, FilterNode) or \
                    child.field != first.field:
                return None
            values.add(child.value.lower())
        return first.field, values

    def _scan_keyword(self, field_name: str, values: set, within) -> set:
        """The documents of ``within`` whose keyword field ``field_name``
        is one of ``values``: one pass over what is left, comparing the
        value as the index files it (``str(value).lower()``)."""
        stored = self._index.stored
        matched = set()
        for ordinal in within:
            value = stored(ordinal).fields.get(field_name)
            if value is not None and str(value).lower() in values:
                matched.add(ordinal)
        return matched

    def _eval_filter(self, field_name: str, value: str, within) -> set:
        if self._index.field_modes.get(field_name) == FieldMode.KEYWORD:
            return _narrow(self._index.keyword_matches(field_name, value),
                           within)
        terms = self._index.analyzer.analyze(value)
        if not terms:
            return set()
        for term in terms:
            within = self._index.matching(field_name, term, within)
            if not within:
                break
        return within


def _narrow(docs: set, within) -> set:
    """``docs`` among ``within`` (``None``: all), as a new set; walks
    the smaller of the two."""
    if within is None:
        return set(docs)
    if len(docs) < len(within):
        return {ordinal for ordinal in docs if ordinal in within}
    return {ordinal for ordinal in within if ordinal in docs}
