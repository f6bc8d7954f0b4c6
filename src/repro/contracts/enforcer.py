"""Row-level contract enforcement and schema-drift detection.

The :class:`ContractEnforcer` sits between parsing and storage: every
batch of raw rows is normalized, validated against the table's
:class:`~repro.contracts.contract.DataContract`, and split into clean
rows (loaded), coerced rows (safe casts, counted), and violations
(rejected or quarantined per the contract's policy). Alongside row
validation it diffs the *observed* columns/types against the declared
ones — added, missing, and retyped columns — so a producer silently
changing their feed is caught at the very next refresh instead of
surfacing as corrupt query results weeks later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from repro.storage.records import _COERCERS, FieldType, _classify_value

from .contract import DataContract, FieldContract

__all__ = [
    "Violation",
    "DriftReport",
    "EnforcementResult",
    "ContractEnforcer",
]

#: Observed value types each declared type tolerates without drift.
_COMPATIBLE = {
    FieldType.STRING: None,   # None == anything stringifies
    FieldType.TEXT: None,
    FieldType.INTEGER: {FieldType.INTEGER},
    FieldType.FLOAT: {FieldType.INTEGER, FieldType.FLOAT},
    FieldType.BOOLEAN: {FieldType.BOOLEAN},
    FieldType.DATE: {FieldType.DATE},
    FieldType.URL: {FieldType.URL},
}

#: Rows sampled per batch for drift detection.
DRIFT_SAMPLE_LIMIT = 100

#: Thousands separators a ``coerce``-policy cast may strip from numbers.
_NUM_JUNK = str.maketrans("", "", ",_")


@dataclass(frozen=True)
class Violation:
    """One broken constraint: which row, which field, what rule."""

    row_index: int
    field: str
    rule: str        # "type" | "required" | "range" | "enum" | "extra"
    message: str
    value: object = None


@dataclass(frozen=True)
class DriftReport:
    """Observed columns/types vs. the declared contract."""

    added: tuple = ()      # column names present in data, absent in contract
    missing: tuple = ()    # declared columns absent from every row
    retyped: tuple = ()    # (column, declared_type, observed_type)

    @property
    def drifted(self) -> bool:
        return bool(self.added or self.missing or self.retyped)

    def to_dict(self) -> dict:
        return {
            "added": list(self.added),
            "missing": list(self.missing),
            "retyped": [
                {"field": name, "declared": declared.value,
                 "observed": observed.value}
                for name, declared, observed in self.retyped
            ],
        }


@dataclass
class EnforcementResult:
    """What one batch looked like after the contract had its say."""

    rows: list = field(default_factory=list)        # clean, loadable
    violations: list = field(default_factory=list)  # Violation records
    quarantined: list = field(default_factory=list)  # (raw_row, violations)
    coerced: int = 0
    drift: DriftReport = field(default_factory=DriftReport)


class ContractEnforcer:
    """Validates batches of raw rows against one :class:`DataContract`.

    :meth:`_check_row` is the one function that decides whether a row
    is clean, and each rule is written once: normalization in
    ``FieldContract.normalized``, type conversion in
    ``storage.records._COERCERS``, enum and range in
    :meth:`_constraints`.
    """

    def __init__(self, contract: DataContract) -> None:
        self.contract = contract
        self._field_names = frozenset(f.name for f in contract.fields)
        # Per field: name, spec, converter, and whether it declares any
        # constraint -- most columns do not, and skip that call.
        self._checks = tuple(
            (spec.name, spec, _COERCERS[spec.type],
             bool(spec.allowed) or spec.min_value is not None
             or spec.max_value is not None)
            for spec in contract.fields
        )

    # -- drift ---------------------------------------------------------------

    def detect_drift(self, rows: list) -> DriftReport:
        """Diff observed columns/types against the declared contract.

        Values are classified *after* the contract's own normalization
        (a ``"$49.99"`` price whose field strips currency is a float,
        not drift), and each column's observed type is the majority
        vote over the sample — one typo'd cell in a numeric column is
        a row violation, not a retyped column.
        """
        declared = {f.name: f.type for f in self.contract.fields}
        votes: dict[str, dict] = {}
        for row in islice(rows, DRIFT_SAMPLE_LIMIT):
            normalized = self.contract.normalize_row(row)
            for name, value in normalized.items():
                counts = votes.setdefault(name, {})
                if value is None or value == "":
                    continue
                kind = _classify_value(value)
                counts[kind] = counts.get(kind, 0) + 1
        seen: dict[str, FieldType | None] = {}
        for name, counts in votes.items():
            if not counts:
                seen[name] = None
                continue
            # Deterministic majority: count desc, declared type wins
            # ties, then enum declaration order.
            order = list(FieldType)
            seen[name] = max(
                counts,
                key=lambda k: (counts[k], k == declared.get(name),
                               -order.index(k)),
            )
        added = tuple(sorted(set(seen) - set(declared)))
        if self.contract.allow_extra_fields:
            added = ()
        missing = tuple(n for n in declared if n not in seen)
        retyped = []
        for name, declared_type in declared.items():
            observed = seen.get(name)
            if observed is None:
                continue
            compatible = _COMPATIBLE[declared_type]
            if compatible is not None and observed not in compatible:
                retyped.append((name, declared_type, observed))
        return DriftReport(added, missing, tuple(retyped))

    # -- row validation -------------------------------------------------------

    def enforce(self, rows: list) -> EnforcementResult:
        """Normalize, validate, and split one batch per the policy.

        Under ``reject`` the caller is expected to raise on any
        violation; under ``quarantine`` violating raw rows land in
        ``result.quarantined``; under ``coerce`` safe casts are applied
        first and only rows that *still* violate are quarantined.
        """
        result = EnforcementResult(drift=self.detect_drift(rows))
        coerce = self.contract.policy == "coerce"
        for index, raw in enumerate(rows):
            clean, row_violations, casts = self._check_row(
                index, raw, coerce=coerce)
            if row_violations:
                result.violations.extend(row_violations)
                result.quarantined.append((dict(raw), row_violations))
            else:
                result.rows.append(clean)
                result.coerced += casts
        return result

    def _check_row(self, index: int, raw: dict, coerce: bool):
        """One row → (clean_row, violations, coercion_count).

        ``clean_row`` is only meaningful when ``violations`` is empty.
        """
        violations: list[Violation] = []
        clean: dict = {}
        casts = 0
        for name, spec, convert, constrained in self._checks:
            value = spec.normalized(raw.get(name))
            if value is None or value == "":
                if spec.required or not spec.nullable:
                    violations.append(Violation(
                        index, name, "required",
                        f"field {name!r} is required but empty",
                    ))
                else:
                    clean[name] = None
                continue
            try:
                # ``bool`` stringifies to "True", so it never lands in
                # a numeric column.
                typed = convert(value)
            except (TypeError, ValueError):
                typed = None
                broken = [Violation(
                    index, name, "type",
                    f"field {name!r}: cannot interpret {value!r} "
                    f"as {spec.type.value}", value,
                )]
            else:
                # An uncast value reports its first broken constraint.
                broken = (self._constraints(index, spec, typed)[:1]
                          if constrained else ())
            if broken:
                if coerce:
                    cast, ok = self._safe_cast(spec, value)
                    if ok:
                        casts += 1
                        typed = cast
                        broken = self._constraints(index, spec, cast)
                violations.extend(broken)
            clean[name] = typed
        if raw.keys() != self._field_names \
                and not self.contract.allow_extra_fields:
            for name in raw:
                if name not in self._field_names:
                    violations.append(Violation(
                        index, name, "extra",
                        f"field {name!r} is not in the contract",
                        raw[name],
                    ))
        return clean, violations, casts

    def _safe_cast(self, spec: FieldContract, value):
        """Lossless casts only: "1,299"→1299, "49.0"→49, enum casefold."""
        text = str(value).strip().translate(_NUM_JUNK)
        try:
            if spec.type is FieldType.INTEGER:
                number = float(text)
                if number == int(number):
                    return int(number), True
            elif spec.type is FieldType.FLOAT:
                return float(text), True
        except (ValueError, OverflowError):   # "abc", "nan" / "inf"
            pass
        if spec.allowed:
            folded = str(value).strip().casefold()
            for canonical in spec.allowed:
                if str(canonical).casefold() == folded:
                    return canonical, True
        return None, False

    @staticmethod
    def _constraints(index: int, spec: FieldContract, typed) -> list:
        """Every constraint ``typed`` breaks: enum, then range."""
        violations = []
        if spec.allowed and typed not in spec.allowed:
            violations.append(Violation(
                index, spec.name, "enum",
                f"field {spec.name!r}: {typed!r} not in allowed set "
                f"{list(spec.allowed)}", typed,
            ))
        if isinstance(typed, (int, float)) \
                and not isinstance(typed, bool):
            if spec.min_value is not None and typed < spec.min_value:
                violations.append(Violation(
                    index, spec.name, "range",
                    f"field {spec.name!r}: {typed!r} below minimum "
                    f"{spec.min_value}", typed,
                ))
            if spec.max_value is not None and typed > spec.max_value:
                violations.append(Violation(
                    index, spec.name, "range",
                    f"field {spec.name!r}: {typed!r} above maximum "
                    f"{spec.max_value}", typed,
                ))
        return violations
