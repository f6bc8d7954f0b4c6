"""The design surface: Fig. 1 as an API.

"The left bar shows various data sources that application designers can
drag-n-drop onto an application... This drag-n-drop process is also used to
configure how individual results should be laid out."

:class:`Designer` is the palette + canvas; a :class:`DesignSession` is one
application being built. Every gesture of the WYSIWYG tool has a method:
dragging a source onto the app (primary), dragging a source onto a result
layout (supplemental), creating text/image/hyperlink elements from source
fields, styling, templates, and the wizard. ``build()`` compiles and
validates the declarative :class:`ApplicationDefinition`; ``describe_
canvas()`` renders the canvas the way Fig. 1 shows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.application import (
    ApplicationDefinition,
    ElementKind,
    LayoutElement,
    ResultLayout,
    SourceBinding,
    SourceRole,
    SourceSlot,
)
from repro.core.datasources import SourceKind
from repro.core.presentation import PresentationWizard, ThemeRegistry
from repro.errors import ConfigurationError, ValidationError
from repro.util import IdGenerator

__all__ = ["DesignIssue", "SlotHandle", "DesignSession", "Designer"]


@dataclass(frozen=True)
class DesignIssue:
    """A validation finding surfaced in the design surface."""

    severity: str   # "error" | "warning"
    message: str
    where: str = ""


@dataclass
class SlotHandle:
    """A designer-side handle to one dragged-on source slot."""

    binding_id: str
    source_id: str
    role: SourceRole
    heading: str = ""
    max_results: int = 5
    search_fields: tuple = ()
    drive_fields: tuple = ()
    query_suffix: str = ""
    elements: list = field(default_factory=list)
    children: list = field(default_factory=list)   # child SlotHandles


class DesignSession:
    """One application under construction on the canvas."""

    def __init__(self, app_id: str, name: str, owner_tenant: str,
                 registry, themes: ThemeRegistry,
                 ids: IdGenerator) -> None:
        self._registry = registry
        self._themes = themes
        self._ids = ids
        self.app_id = app_id
        self.name = name
        self.owner_tenant = owner_tenant
        self.description = ""
        self.theme = "clean"
        self.settings: dict = {}
        self._slots: list[SlotHandle] = []
        self._customer_source_id: str | None = None

    # -- palette -----------------------------------------------------------------

    def palette(self) -> list[dict]:
        """The left bar of Fig. 1: every available data source."""
        return [
            self._registry.get(source_id).describe()
            for source_id in self._registry.ids()
        ]

    # -- drag-and-drop gestures -------------------------------------------------------

    def drag_source_onto_app(self, source_id: str, heading: str = "",
                             max_results: int = 5,
                             search_fields=()) -> SlotHandle:
        """Drop a source onto the application canvas as primary content.

        Ad sources dropped on the app become the application's ad slot
        ("allowing ads to be displayed and configured just like any other
        content source").
        """
        source = self._registry.get(source_id)
        role = (SourceRole.ADS if source.kind == SourceKind.ADS
                else SourceRole.PRIMARY)
        for field_name in search_fields:
            if field_name not in source.fields():
                raise ConfigurationError(
                    f"source {source_id!r} has no field {field_name!r} "
                    "to search by"
                )
        handle = SlotHandle(
            binding_id=self._ids.next_id("binding"),
            source_id=source_id,
            role=role,
            heading=heading or source.name,
            max_results=max_results,
            search_fields=tuple(search_fields),
        )
        self._slots.append(handle)
        return handle

    def drag_source_onto_result_layout(self, parent: SlotHandle,
                                       source_id: str,
                                       drive_fields,
                                       heading: str = "",
                                       max_results: int = 3,
                                       query_suffix: str = "") \
            -> SlotHandle:
        """Drop a source onto a result layout as supplemental content.

        ``drive_fields`` selects "which fields from the first data source
        to use when querying that secondary data" (§II-A).
        """
        self._registry.get(source_id)  # existence check
        parent_source = self._registry.get(parent.source_id)
        for field_name in drive_fields:
            if field_name not in parent_source.fields():
                raise ConfigurationError(
                    f"drive field {field_name!r} is not a field of the "
                    f"primary source {parent.source_id!r}"
                )
        if not drive_fields:
            raise ValidationError(
                "supplemental content needs at least one drive field"
            )
        handle = SlotHandle(
            binding_id=self._ids.next_id("binding"),
            source_id=source_id,
            role=SourceRole.SUPPLEMENTAL,
            heading=heading,
            max_results=max_results,
            drive_fields=tuple(drive_fields),
            query_suffix=query_suffix,
        )
        parent.children.append(handle)
        return handle

    def attach_customer_source(self, source_id: str) -> None:
        """Bind customer data that rewrites the primary query (§II-C)."""
        source = self._registry.get(source_id)
        if source.kind != SourceKind.CUSTOMER:
            raise ConfigurationError(
                f"{source_id!r} is not a customer-data source"
            )
        self._customer_source_id = source_id

    # -- result layout elements ----------------------------------------------------

    def _check_field(self, slot: SlotHandle, field_name: str) -> None:
        source = self._registry.get(slot.source_id)
        if field_name not in source.fields() \
                and field_name not in ("title", "url", "snippet"):
            raise ConfigurationError(
                f"source {slot.source_id!r} has no field {field_name!r}"
            )

    def add_text(self, slot: SlotHandle, bind_field: str,
                 **style) -> LayoutElement:
        self._check_field(slot, bind_field)
        element = LayoutElement(ElementKind.TEXT, bind_field,
                                style=self._css(style))
        slot.elements.append(element)
        return element

    def add_image(self, slot: SlotHandle, bind_field: str,
                  **style) -> LayoutElement:
        self._check_field(slot, bind_field)
        element = LayoutElement(ElementKind.IMAGE, bind_field,
                                style=self._css(style))
        slot.elements.append(element)
        return element

    def add_hyperlink(self, slot: SlotHandle, text_field: str,
                      href_field: str = "", **style) -> LayoutElement:
        self._check_field(slot, text_field)
        if href_field:
            self._check_field(slot, href_field)
        element = LayoutElement(ElementKind.HYPERLINK, text_field,
                                href_field=href_field,
                                style=self._css(style))
        slot.elements.append(element)
        return element

    @staticmethod
    def _css(style: dict) -> dict:
        return {prop.replace("_", "-"): value
                for prop, value in style.items()}

    # -- presentation ---------------------------------------------------------------

    def apply_template(self, theme_name: str) -> None:
        self._themes.get(theme_name)  # raises NotFoundError if unknown
        self.theme = theme_name

    def run_wizard(self, tone: str = "professional",
                   accent_color: str | None = None) -> dict:
        recommendation = PresentationWizard(self._themes).recommend(
            tone, accent_color
        )
        self.apply_template(recommendation["theme"])
        return recommendation

    # -- validation & compile ----------------------------------------------------------

    def validate(self) -> list[DesignIssue]:
        issues = []
        primaries = [s for s in self._slots
                     if s.role == SourceRole.PRIMARY]
        if not primaries:
            issues.append(DesignIssue(
                "error", "application has no primary content source"
            ))
        for slot in primaries:
            if not slot.elements:
                issues.append(DesignIssue(
                    "warning",
                    "result layout has no elements; results will render "
                    "empty",
                    where=slot.binding_id,
                ))
            source = self._registry.get(slot.source_id)
            if source.kind == SourceKind.PROPRIETARY \
                    and not slot.search_fields:
                issues.append(DesignIssue(
                    "warning",
                    "no search fields configured; all fields will be "
                    "searched",
                    where=slot.binding_id,
                ))
            for child in slot.children:
                for drive in child.drive_fields:
                    if drive not in source.fields():
                        issues.append(DesignIssue(
                            "error",
                            f"drive field {drive!r} missing from primary "
                            "source",
                            where=child.binding_id,
                        ))
        return issues

    def build(self) -> ApplicationDefinition:
        """Compile the canvas into a validated application definition."""
        errors = [i for i in self.validate() if i.severity == "error"]
        if errors:
            raise ConfigurationError(
                "cannot build application: "
                + "; ".join(i.message for i in errors)
            )
        bindings = []
        slots = []
        for handle in self._slots:
            bindings.append(self._binding_of(handle))
            slots.append(self._slot_of(handle))
            for child in handle.children:
                bindings.append(self._binding_of(child))
        if self._customer_source_id:
            bindings.append(SourceBinding(
                binding_id=self._ids.next_id("binding"),
                source_id=self._customer_source_id,
                role=SourceRole.CUSTOMER,
                max_results=1,
            ))
        app = ApplicationDefinition(
            app_id=self.app_id,
            name=self.name,
            owner_tenant=self.owner_tenant,
            description=self.description,
            theme=self.theme,
            settings=dict(self.settings),
            bindings=tuple(bindings),
            slots=tuple(slots),
        )
        app.validate()
        return app

    @staticmethod
    def _binding_of(handle: SlotHandle) -> SourceBinding:
        return SourceBinding(
            binding_id=handle.binding_id,
            source_id=handle.source_id,
            role=handle.role,
            max_results=handle.max_results,
            search_fields=handle.search_fields,
            drive_fields=handle.drive_fields,
            query_suffix=handle.query_suffix,
        )

    def _slot_of(self, handle: SlotHandle) -> SourceSlot:
        return SourceSlot(
            binding_id=handle.binding_id,
            heading=handle.heading,
            result_layout=ResultLayout(tuple(handle.elements)),
            children=tuple(self._slot_of(c) for c in handle.children),
        )

    # -- canvas rendering (Fig. 1) ---------------------------------------------------

    def describe_canvas(self) -> str:
        """A textual rendering of the design surface, Fig. 1 style."""
        lines = [f"=== Symphony Designer: {self.name} "
                 f"(theme: {self.theme}) ==="]
        lines.append("[Palette]")
        for entry in self.palette():
            lines.append(
                f"  - {entry['name']} ({entry['kind']}): "
                f"fields={', '.join(entry['fields'])}"
            )
        lines.append("[Canvas]")
        if not self._slots:
            lines.append("  (empty — drag a data source here)")
        for handle in self._slots:
            lines.extend(self._describe_slot(handle, indent=2))
        if self._customer_source_id:
            lines.append(
                f"  * customer data: {self._customer_source_id} "
                "(rewrites the primary query)"
            )
        return "\n".join(lines)

    def _describe_slot(self, handle: SlotHandle, indent: int) -> list[str]:
        pad = " " * indent
        lines = [
            f"{pad}[{handle.role.value}] {handle.heading or handle.source_id}"
            f" <- {handle.source_id} (max {handle.max_results})"
        ]
        if handle.search_fields:
            lines.append(
                f"{pad}  search by: {', '.join(handle.search_fields)}"
            )
        if handle.drive_fields:
            suffix = f' + "{handle.query_suffix}"' if handle.query_suffix \
                else ""
            lines.append(
                f"{pad}  driven by: {', '.join(handle.drive_fields)}{suffix}"
            )
        for element in handle.elements:
            detail = element.bind_field
            if element.kind == ElementKind.HYPERLINK and element.href_field:
                detail += f" -> {element.href_field}"
            lines.append(f"{pad}  element: {element.kind.value}({detail})")
        for child in handle.children:
            lines.extend(self._describe_slot(child, indent + 4))
        return lines


class Designer:
    """The design tool: opens sessions against the platform's sources."""

    def __init__(self, registry, themes: ThemeRegistry | None = None,
                 ids: IdGenerator | None = None) -> None:
        self._registry = registry
        self._themes = themes or ThemeRegistry()
        self._ids = ids or IdGenerator()

    def new_application(self, name: str,
                        owner_tenant: str) -> DesignSession:
        return DesignSession(
            app_id=self._ids.next_id("app"),
            name=name,
            owner_tenant=owner_tenant,
            registry=self._registry,
            themes=self._themes,
            ids=self._ids,
        )
