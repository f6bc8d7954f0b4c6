"""Data-contract declarations: typed fields, normalization, freshness.

A :class:`DataContract` is the formal agreement between a data producer
(the designer's feed) and the platform (ROADMAP item 3, grounded in the
ODCS-style contract ADR): a typed field schema with constraints
(required/nullable, ranges, enums), canonical-key normalization rules
(trim / case / unit normalization so ``key_field`` upserts and
entity-driven supplemental queries see one canonical spelling), a
violation policy, and a freshness SLA. Contracts are plain frozen data
— enforcement lives in :mod:`repro.contracts.enforcer`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ValidationError
from repro.storage.records import FieldSpec, FieldType, Schema

__all__ = [
    "FieldContract",
    "FreshnessSLA",
    "DataContract",
    "VIOLATION_POLICIES",
    "NORMALIZE_RULES",
    "normalize_value",
]

#: What the enforcer does with a violating row.
VIOLATION_POLICIES = ("reject", "quarantine", "coerce")

_WS_RE = re.compile(r"\s+")
#: ``"12.5 kg"`` / ``"80GB"`` — a number followed by a unit suffix.
_UNIT_RE = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+))\s*([^\d\s.+-]+)$")


def _rule_trim(text: str) -> str:
    return text.strip()


def _rule_collapse_ws(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


def _rule_lower(text: str) -> str:
    return text.lower()


def _rule_upper(text: str) -> str:
    return text.upper()


def _rule_title(text: str) -> str:
    return text.title()


_CURRENCY_TABLE = str.maketrans("", "", "$€£¥,")


def _rule_strip_currency(text: str) -> str:
    return text.translate(_CURRENCY_TABLE).strip()


#: Named normalization rules a :class:`FieldContract` can compose.
NORMALIZE_RULES = {
    "trim": _rule_trim,
    "collapse_ws": _rule_collapse_ws,
    "lower": _rule_lower,
    "upper": _rule_upper,
    "title": _rule_title,
    "strip_currency": _rule_strip_currency,
}


def normalize_value(value, rules: tuple, units: dict | None = None):
    """Apply ``rules`` (then unit normalization) to one raw value.

    Non-string values pass through untouched except for unit handling;
    normalization is about taming the string spellings feeds disagree
    on (``" ACME "`` vs ``"acme"``, ``"$49.99"``, ``"1.2 kg"``).
    """
    if value is None:
        return None
    if isinstance(value, str):
        for rule in rules:
            try:
                value = NORMALIZE_RULES[rule](value)
            except KeyError:
                raise ValidationError(
                    f"unknown normalization rule {rule!r}; expected one "
                    f"of {sorted(NORMALIZE_RULES)}"
                ) from None
        if units:
            match = _UNIT_RE.match(value.strip())
            if match:
                number, suffix = match.groups()
                factor = units.get(suffix) or units.get(suffix.lower())
                if factor is not None:
                    scaled = float(number) * factor
                    return int(scaled) if scaled == int(scaled) \
                        else scaled
    return value


@dataclass(frozen=True)
class FieldContract:
    """One declared column: type, constraints, normalization.

    ``required`` means the column must be present and non-empty in every
    row; ``nullable`` (the default) permits empty/missing *values* for a
    present column. ``allowed`` enumerates the canonical legal values;
    ``min_value``/``max_value`` bound numeric fields. ``normalize``
    names rules from :data:`NORMALIZE_RULES`, applied in order before
    validation; ``units`` maps unit suffixes to multipliers (e.g.
    ``{"kg": 1000, "g": 1}`` canonicalizes weights to grams).
    """

    name: str
    type: FieldType = FieldType.STRING
    required: bool = False
    nullable: bool = True
    min_value: float | None = None
    max_value: float | None = None
    allowed: tuple = ()
    normalize: tuple = ()
    units: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for rule in self.normalize:
            if rule not in NORMALIZE_RULES:
                raise ValidationError(
                    f"field {self.name!r}: unknown normalization rule "
                    f"{rule!r}"
                )

    def normalized(self, value):
        """The canonical spelling of ``value`` under this field's rules."""
        return normalize_value(value, self.normalize, self.units)

    def to_dict(self) -> dict:
        data = {"name": self.name, "type": self.type.value}
        if self.required:
            data["required"] = True
        if not self.nullable:
            data["nullable"] = False
        if self.min_value is not None:
            data["min_value"] = self.min_value
        if self.max_value is not None:
            data["max_value"] = self.max_value
        if self.allowed:
            data["allowed"] = list(self.allowed)
        if self.normalize:
            data["normalize"] = list(self.normalize)
        if self.units:
            data["units"] = dict(self.units)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FieldContract":
        return cls(
            name=data["name"],
            type=FieldType(data.get("type", "string")),
            required=data.get("required", False),
            nullable=data.get("nullable", True),
            min_value=data.get("min_value"),
            max_value=data.get("max_value"),
            allowed=tuple(data.get("allowed", ())),
            normalize=tuple(data.get("normalize", ())),
            units=dict(data.get("units", {})),
        )


@dataclass(frozen=True)
class FreshnessSLA:
    """How stale a dataset may get before its tenant must be told.

    ``max_staleness_ms`` is judged on the simulated clock against the
    feed's last *successful* refresh; ``objective`` is the target
    fraction of freshness checks that find the feed fresh — it feeds
    the platform-wide freshness error budget in :mod:`repro.slo`.
    """

    max_staleness_ms: int
    objective: float = 0.99

    def __post_init__(self) -> None:
        if self.max_staleness_ms <= 0:
            raise ValidationError("max_staleness_ms must be positive")
        if not 0.0 < self.objective < 1.0:
            raise ValidationError("objective must be within (0, 1)")

    def to_dict(self) -> dict:
        return {"max_staleness_ms": self.max_staleness_ms,
                "objective": self.objective}

    @classmethod
    def from_dict(cls, data: dict) -> "FreshnessSLA":
        return cls(**data)


@dataclass(frozen=True)
class DataContract:
    """The governed-ingest agreement for one tenant table."""

    table: str
    fields: tuple
    version: int = 1
    #: Canonical business key; normalized before every upsert so two
    #: spellings of the same entity converge on one record.
    key_field: str = ""
    policy: str = "quarantine"
    freshness: FreshnessSLA | None = None
    #: Columns beyond the declared ones: drift when False (the default),
    #: silently dropped when True.
    allow_extra_fields: bool = False

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValidationError("a contract needs at least one field")
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise ValidationError("duplicate field names in contract")
        if self.policy not in VIOLATION_POLICIES:
            raise ValidationError(
                f"unknown violation policy {self.policy!r}; expected "
                f"one of {VIOLATION_POLICIES}"
            )
        if self.key_field and self.key_field not in names:
            raise ValidationError(
                f"key_field {self.key_field!r} is not a contract field"
            )

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def spec(self, name: str) -> FieldContract:
        for spec in self.fields:
            if spec.name == name:
                return spec
        raise ValidationError(f"no such contract field: {name}")

    def schema(self) -> Schema:
        """The storage schema this contract pins the table to."""
        return Schema(tuple(
            FieldSpec(f.name, f.type, required=f.required)
            for f in self.fields
        ))

    @cached_property
    def _normalizers(self) -> tuple:
        """(name, normalizer) for just the fields that rewrite values —
        precomputed so rule-less fields cost nothing per row."""
        return tuple(
            (f.name, f.normalized) for f in self.fields
            if f.normalize or f.units
        )

    def normalize_row(self, row: dict) -> dict:
        """Canonicalize every declared field's raw value in ``row``."""
        out = dict(row)
        for name, normalized in self._normalizers:
            if name in out:
                out[name] = normalized(out[name])
        return out

    def to_dict(self) -> dict:
        data = {
            "table": self.table,
            "version": self.version,
            "policy": self.policy,
            "fields": [f.to_dict() for f in self.fields],
        }
        if self.key_field:
            data["key_field"] = self.key_field
        if self.freshness is not None:
            data["freshness"] = self.freshness.to_dict()
        if self.allow_extra_fields:
            data["allow_extra_fields"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DataContract":
        freshness = data.get("freshness")
        return cls(
            table=data["table"],
            fields=tuple(FieldContract.from_dict(f)
                         for f in data["fields"]),
            version=data.get("version", 1),
            key_field=data.get("key_field", ""),
            policy=data.get("policy", "quarantine"),
            freshness=(FreshnessSLA.from_dict(freshness)
                       if freshness else None),
            allow_extra_fields=data.get("allow_extra_fields", False),
        )
