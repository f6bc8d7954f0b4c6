"""The application definition: what the designer builds, what the runtime
executes.

§II-C: "The fields that should be used as arguments in these queries are
specified by the application designer in the configuration file for the
application." This module is that configuration file's object model — a
fully declarative, JSON-round-trippable description of source bindings,
primary/supplemental roles, drive-field mappings, the result layout tree,
and presentation settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import (
    ConfigurationError,
    NotFoundError,
    ValidationError,
)

__all__ = [
    "SourceRole",
    "ElementKind",
    "LayoutElement",
    "ResultLayout",
    "SourceSlot",
    "SourceBinding",
    "ApplicationDefinition",
]


class SourceRole(str, Enum):
    """How a bound source participates in query execution."""

    PRIMARY = "primary"
    SUPPLEMENTAL = "supplemental"
    ADS = "ads"
    CUSTOMER = "customer"


class ElementKind(str, Enum):
    """The HTML element kinds the designer palette offers."""

    TEXT = "text"
    IMAGE = "image"
    HYPERLINK = "hyperlink"


@dataclass(frozen=True)
class LayoutElement:
    """One HTML element in a result layout, bound to a source field.

    * TEXT — renders the bound field's value;
    * IMAGE — the bound field supplies ``src``;
    * HYPERLINK — the bound field supplies the anchor text and
      ``href_field`` supplies the target (defaults to the item URL).
    """

    kind: ElementKind
    bind_field: str
    href_field: str = ""
    style: dict = field(default_factory=dict)
    css_class: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "bind_field": self.bind_field,
            "href_field": self.href_field,
            "style": dict(self.style),
            "css_class": self.css_class,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LayoutElement":
        return cls(
            kind=ElementKind(data["kind"]),
            bind_field=data["bind_field"],
            href_field=data.get("href_field", ""),
            style=dict(data.get("style", {})),
            css_class=data.get("css_class", ""),
        )


@dataclass(frozen=True)
class ResultLayout:
    """How one result item renders: an ordered list of elements."""

    elements: tuple = ()

    def to_dict(self) -> dict:
        return {"elements": [e.to_dict() for e in self.elements]}

    @classmethod
    def from_dict(cls, data: dict) -> "ResultLayout":
        return cls(tuple(
            LayoutElement.from_dict(e) for e in data.get("elements", ())
        ))


@dataclass(frozen=True)
class SourceSlot:
    """A region of the page fed by one source binding.

    ``children`` are supplemental slots rendered *inside each result* of
    this slot — the paper's "dragging additional data sources onto the
    current result layout".
    """

    binding_id: str
    heading: str = ""
    result_layout: ResultLayout = field(default_factory=ResultLayout)
    children: tuple = ()
    style: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "binding_id": self.binding_id,
            "heading": self.heading,
            "result_layout": self.result_layout.to_dict(),
            "children": [c.to_dict() for c in self.children],
            "style": dict(self.style),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SourceSlot":
        return cls(
            binding_id=data["binding_id"],
            heading=data.get("heading", ""),
            result_layout=ResultLayout.from_dict(
                data.get("result_layout", {})
            ),
            children=tuple(
                cls.from_dict(c) for c in data.get("children", ())
            ),
            style=dict(data.get("style", {})),
        )

    def walk(self):
        """Yield this slot and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class SourceBinding:
    """One data source attached to the application.

    * PRIMARY bindings receive the end-user query; ``search_fields``
      optionally narrows which proprietary fields are searched.
    * SUPPLEMENTAL bindings are driven by ``drive_fields`` of the parent
      slot's items, joined and suffixed with ``query_suffix``.
    """

    binding_id: str
    source_id: str
    role: SourceRole
    max_results: int = 5
    search_fields: tuple = ()
    drive_fields: tuple = ()
    query_suffix: str = ""

    def __post_init__(self):
        if self.max_results <= 0:
            raise ValidationError("max_results must be positive")
        if self.role == SourceRole.SUPPLEMENTAL and not self.drive_fields:
            raise ValidationError(
                f"supplemental binding {self.binding_id!r} needs "
                "drive_fields"
            )

    def derive_query(self, item, with_suffix: bool = True) -> str:
        """Build this supplemental binding's query from the drive
        fields of one parent-slot ``item``; "" when they are all empty."""
        parts = []
        for field_name in self.drive_fields:
            value = item.get(field_name)
            if value:
                parts.append(f'"{value}"' if " " in value else value)
        if not parts:
            return ""
        query = " ".join(parts)
        if with_suffix and self.query_suffix:
            query = f"{query} {self.query_suffix}"
        return query

    def to_dict(self) -> dict:
        return {
            "binding_id": self.binding_id,
            "source_id": self.source_id,
            "role": self.role.value,
            "max_results": self.max_results,
            "search_fields": list(self.search_fields),
            "drive_fields": list(self.drive_fields),
            "query_suffix": self.query_suffix,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SourceBinding":
        return cls(
            binding_id=data["binding_id"],
            source_id=data["source_id"],
            role=SourceRole(data["role"]),
            max_results=data.get("max_results", 5),
            search_fields=tuple(data.get("search_fields", ())),
            drive_fields=tuple(data.get("drive_fields", ())),
            query_suffix=data.get("query_suffix", ""),
        )


@dataclass(frozen=True)
class ApplicationDefinition:
    """The complete declarative application."""

    app_id: str
    name: str
    owner_tenant: str
    bindings: tuple = ()       # SourceBinding
    slots: tuple = ()          # top-level SourceSlot (primary + ads)
    theme: str = "clean"
    description: str = ""
    settings: dict = field(default_factory=dict)

    # -- lookups ---------------------------------------------------------------

    def binding(self, binding_id: str) -> SourceBinding:
        for candidate in self.bindings:
            if candidate.binding_id == binding_id:
                return candidate
        raise ConfigurationError(
            f"app {self.app_id!r} has no binding {binding_id!r}"
        )

    def bindings_by_role(self, role: SourceRole) -> list[SourceBinding]:
        return [b for b in self.bindings if b.role == role]

    def all_slots(self):
        for slot in self.slots:
            yield from slot.walk()

    def slot(self, binding_id: str) -> SourceSlot:
        for candidate in self.all_slots():
            if candidate.binding_id == binding_id:
                return candidate
        raise NotFoundError(f"no slot for binding {binding_id!r}")

    def validate(self) -> None:
        """Structural validation; raises :class:`ConfigurationError`."""
        binding_ids = [b.binding_id for b in self.bindings]
        if len(binding_ids) != len(set(binding_ids)):
            raise ConfigurationError("duplicate binding ids")
        for slot in self.all_slots():
            self.binding(slot.binding_id)  # raises if missing
        primaries = self.bindings_by_role(SourceRole.PRIMARY)
        if not primaries:
            raise ConfigurationError(
                f"app {self.app_id!r} has no primary content source"
            )
        top_level_ids = {slot.binding_id for slot in self.slots}
        for binding in primaries:
            if binding.binding_id not in top_level_ids:
                raise ConfigurationError(
                    f"primary binding {binding.binding_id!r} has no "
                    "top-level slot"
                )
        for slot in self.slots:
            for child in slot.children:
                child_binding = self.binding(child.binding_id)
                if child_binding.role != SourceRole.SUPPLEMENTAL:
                    raise ConfigurationError(
                        f"nested slot {child.binding_id!r} must bind a "
                        "supplemental source"
                    )

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "app_id": self.app_id,
            "name": self.name,
            "owner_tenant": self.owner_tenant,
            "description": self.description,
            "theme": self.theme,
            "settings": dict(self.settings),
            "bindings": [b.to_dict() for b in self.bindings],
            "slots": [s.to_dict() for s in self.slots],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ApplicationDefinition":
        return cls(
            app_id=data["app_id"],
            name=data["name"],
            owner_tenant=data["owner_tenant"],
            description=data.get("description", ""),
            theme=data.get("theme", "clean"),
            settings=dict(data.get("settings", {})),
            bindings=tuple(
                SourceBinding.from_dict(b) for b in data.get("bindings", ())
            ),
            slots=tuple(
                SourceSlot.from_dict(s) for s in data.get("slots", ())
            ),
        )
