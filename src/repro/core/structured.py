"""Richer querying of structured data (future work item 2, §IV).

A :class:`StructuredQuery` combines free-text relevance search with typed
field predicates, ordering, and paging over a proprietary source — the
kind of faceted storefront query ("in-stock RPGs under $30, cheapest
first") that plain keyword search can't express. Predicates are query
nodes: the source's vertical evaluates them with the text, so only the
rows of the requested page are ever materialized.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, replace

from repro.core.datasources import SourceResult
from repro.errors import ValidationError
from repro.searchengine.query import ValueNode, extract_terms, parse_query

__all__ = ["FieldPredicate", "StructuredQuery", "execute_structured"]

_OPERATORS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


@dataclass(frozen=True)
class FieldPredicate(ValueNode):
    """One typed predicate: ``price < 30``, ``producer contains 'studio'``.

    A query node, decided per row from the stored value of ``field``.
    """

    field: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in _OPERATORS and self.op != "contains":
            raise ValidationError(
                f"unknown predicate operator {self.op!r}; expected one "
                f"of {sorted(_OPERATORS)} or 'contains'"
            )

    def accepts(self, actual) -> bool:
        # A missing value (None, or the "" an index stores for it)
        # matches no predicate, not even "ne".
        if actual is None or actual == "":
            return False
        if self.op == "contains":
            return str(self.value).lower() in str(actual).lower()
        try:
            return _OPERATORS[self.op](actual, self._coerced(actual))
        except TypeError:
            return False

    def _coerced(self, actual):
        """Coerce the predicate value toward the stored value's type."""
        if isinstance(actual, bool):
            return bool(self.value)
        if isinstance(actual, (int, float)) \
                and not isinstance(self.value, (int, float)):
            try:
                return float(self.value)
            except (TypeError, ValueError):
                return self.value
        return self.value


@dataclass(frozen=True)
class StructuredQuery:
    """Free text (optional) + predicates + ordering + paging."""

    text: str = ""
    predicates: tuple = ()
    order_by: str = ""
    descending: bool = False
    limit: int = 10
    offset: int = 0

    def where(self, field_name: str, op: str,
              value) -> "StructuredQuery":
        """Return a copy with one more predicate (builder style)."""
        return replace(self, predicates=self.predicates + (
            FieldPredicate(field_name, op, value),))


def execute_structured(source, query: StructuredQuery) -> SourceResult:
    """Run a :class:`StructuredQuery` against a proprietary source.

    The predicates are ANDed with the text and evaluated by the source's
    vertical among the rows the text left (every row when there is no
    text). Without ``order_by`` rows come in relevance order, or in table
    order for a query without text. ``order_by`` selects the page by that
    column with a bounded heap, missing values last in either direction
    and ties in the order they came.
    """
    if query.limit <= 0:
        raise ValidationError("structured query limit must be positive")
    if query.order_by and not source.table.schema.has_field(query.order_by):
        raise ValidationError(
            f"cannot order by unknown field {query.order_by!r}"
        )
    vertical = source.vertical()
    node = parse_query(query.text) if query.text else None
    terms = [] if node is None else extract_terms(node,
                                                  vertical.index.analyzer)
    window = query.offset + query.limit
    top, total = source.rank(node, terms,
                             None if query.order_by else window,
                             filters=query.predicates)
    if query.order_by:
        document = vertical.index.document
        name, descending = query.order_by, query.descending

        def by_column(entry):
            value = document(entry[0]).payload.values.get(name)
            if value is None:       # last in either direction
                return (not descending, 0)
            return (descending, value)

        # Both keep ties in the order they came, as a stable sort would.
        pick = heapq.nlargest if descending else heapq.nsmallest
        top = pick(window, top, key=by_column)
    return SourceResult(
        source_id=source.source_id,
        items=source.materialize(top[query.offset:], bool(terms)),
        total_matches=total,
    )
