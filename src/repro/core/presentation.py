"""Presentation: themes, templates, and the HTML renderer.

§II-A Presentation: "further customization of the application's look-and-
feel is supported via templates, wizard-style assistance from Symphony, or
through style properties on individual elements (e.g., color, font-size).
For more web-savvy users, greater control is possible via style-sheets."
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field

from repro.core.application import ElementKind
from repro.errors import NotFoundError, RenderError

__all__ = ["Theme", "ThemeRegistry", "HtmlRenderer",
           "PresentationWizard"]


@dataclass(frozen=True)
class Theme:
    """A named bundle of default styles per rendering role."""

    name: str
    styles: dict = field(default_factory=dict)  # role -> {css prop: value}

    def style_for(self, role: str) -> dict:
        return dict(self.styles.get(role, {}))


_BUILTIN_THEMES = {
    "clean": Theme("clean", {
        "app": {"font-family": "Segoe UI, sans-serif", "color": "#222"},
        "slot": {"margin": "12px 0"},
        "result": {"padding": "8px", "border-bottom": "1px solid #eee"},
        "heading": {"font-size": "18px", "font-weight": "bold"},
        "supplemental": {"margin-left": "24px", "font-size": "12px",
                         "color": "#555"},
        "ad": {"background": "#fdf6e3", "padding": "6px"},
    }),
    "midnight": Theme("midnight", {
        "app": {"font-family": "Segoe UI, sans-serif",
                "background": "#101418", "color": "#e0e6ed"},
        "slot": {"margin": "12px 0"},
        "result": {"padding": "8px",
                   "border-bottom": "1px solid #2a3642"},
        "heading": {"font-size": "18px", "color": "#7fd1ff"},
        "supplemental": {"margin-left": "24px", "font-size": "12px",
                         "color": "#9fb2c4"},
        "ad": {"background": "#1d2733", "padding": "6px"},
    }),
    "storefront": Theme("storefront", {
        "app": {"font-family": "Verdana, sans-serif", "color": "#333"},
        "slot": {"margin": "16px 0"},
        "result": {"padding": "10px", "border": "1px solid #ddd",
                   "border-radius": "4px", "margin-bottom": "8px"},
        "heading": {"font-size": "20px", "color": "#b12704"},
        "supplemental": {"margin-left": "20px", "font-size": "12px"},
        "ad": {"background": "#eef7ee", "padding": "6px"},
    }),
}


class ThemeRegistry:
    """Built-in plus designer-registered themes."""

    def __init__(self) -> None:
        self._themes = dict(_BUILTIN_THEMES)

    def get(self, name: str) -> Theme:
        try:
            return self._themes[name]
        except KeyError:
            raise NotFoundError(
                f"no theme {name!r}; available: {sorted(self._themes)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._themes)


def _inline_style(style: dict) -> str:
    if not style:
        return ""
    body = "; ".join(f"{prop}: {value}"
                     for prop, value in sorted(style.items()))
    return f' style="{html.escape(body, quote=True)}"'


class HtmlRenderer:
    """Renders an executed application into the HTML fragment the embed
    JavaScript injects into the host page (§II-C)."""

    def __init__(self, themes: ThemeRegistry | None = None) -> None:
        self.themes = themes or ThemeRegistry()

    # -- element level ----------------------------------------------------------

    def render_element(self, element, item) -> str:
        value = item.get(element.bind_field)
        style = _inline_style(element.style)
        css = (f' class="{html.escape(element.css_class, quote=True)}"'
               if element.css_class else "")
        if element.kind == ElementKind.TEXT:
            return f"<span{css}{style}>{html.escape(value)}</span>"
        if element.kind == ElementKind.IMAGE:
            if not value:
                return ""
            return (f'<img{css}{style} src="{html.escape(value, quote=True)}"'
                    f' alt="{html.escape(item.get("title"), quote=True)}"/>')
        if element.kind == ElementKind.HYPERLINK:
            href = item.get(element.href_field) if element.href_field \
                else item.url
            if not href:
                return f"<span{css}{style}>{html.escape(value)}</span>"
            return (f'<a{css}{style} href="{html.escape(href, quote=True)}">'
                    f"{html.escape(value)}</a>")
        raise RenderError(f"unknown element kind: {element.kind!r}")

    # -- application level ---------------------------------------------------------

    def render_app(self, app, views, ad_items=()) -> str:
        """Render primary result views (plus ads) per the app's layout.

        ``views`` is a list of ``PrimaryResultView`` from the runtime; each
        carries the primary item and its per-child supplemental results.
        """
        theme = self.themes.get(app.theme)
        parts = [f'<div class="symphony-app" data-app="'
                 f'{html.escape(app.app_id, quote=True)}"'
                 f"{_inline_style(theme.style_for('app'))}>"]
        for slot in app.slots:
            binding = app.binding(slot.binding_id)
            if binding.role.value == "ads":
                parts.append(self._render_ads(slot, theme, ad_items))
            else:
                parts.append(
                    self._render_primary_slot(app, slot, theme, views)
                )
        parts.append("</div>")
        return "".join(parts)

    def _render_primary_slot(self, app, slot, theme, views) -> str:
        style = dict(theme.style_for("slot"))
        style.update(slot.style)
        parts = [f'<div class="symphony-slot"{_inline_style(style)}>']
        if slot.heading:
            parts.append(
                f"<h2{_inline_style(theme.style_for('heading'))}>"
                f"{html.escape(slot.heading)}</h2>"
            )
        for view in views:
            if view.slot_binding_id != slot.binding_id:
                continue
            parts.append(self._render_result(app, slot, theme, view))
        parts.append("</div>")
        return "".join(parts)

    def _render_result(self, app, slot, theme, view) -> str:
        parts = [f'<div class="symphony-result"'
                 f"{_inline_style(theme.style_for('result'))}>"]
        for element in slot.result_layout.elements:
            parts.append(self.render_element(element, view.item))
        for child in slot.children:
            child_result = view.supplemental.get(child.binding_id)
            parts.append(
                self._render_supplemental(child, theme, child_result)
            )
        parts.append("</div>")
        return "".join(parts)

    def _render_supplemental(self, slot, theme, result) -> str:
        parts = [f'<div class="symphony-supplemental"'
                 f"{_inline_style(theme.style_for('supplemental'))}>"]
        if slot.heading:
            parts.append(f"<h3>{html.escape(slot.heading)}</h3>")
        if result is None or not result.items:
            parts.append('<span class="symphony-empty">'
                         "No supplemental results</span>")
        else:
            for item in result.items:
                parts.append('<div class="symphony-subresult">')
                if slot.result_layout.elements:
                    for element in slot.result_layout.elements:
                        parts.append(self.render_element(element, item))
                else:
                    # Default supplemental rendering: linked title.
                    title = html.escape(item.title)
                    if item.url:
                        parts.append(
                            f'<a href="{html.escape(item.url, quote=True)}">'
                            f"{title}</a>"
                        )
                    else:
                        parts.append(f"<span>{title}</span>")
                parts.append("</div>")
        parts.append("</div>")
        return "".join(parts)

    def _render_ads(self, slot, theme, ad_items) -> str:
        parts = [f'<div class="symphony-ads"'
                 f"{_inline_style(theme.style_for('ad'))}>"]
        if slot.heading:
            parts.append(f"<h3>{html.escape(slot.heading)}</h3>")
        for item in ad_items:
            parts.append(
                '<div class="symphony-ad" data-ad="'
                f'{html.escape(item.get("ad_id"), quote=True)}">'
                f'<a href="{html.escape(item.url, quote=True)}">'
                f"{html.escape(item.title)}</a>"
                f"<span> {html.escape(item.snippet)}</span>"
                "</div>"
            )
        if not ad_items:
            parts.append('<span class="symphony-empty">No ads</span>')
        parts.append("</div>")
        return "".join(parts)


class PresentationWizard:
    """Wizard-style assistance: proposes a theme + layout tweaks from a
    couple of plain-language answers (the no-code path to look-and-feel)."""

    _TONE_THEMES = {
        "professional": "clean",
        "playful": "storefront",
        "dark": "midnight",
    }

    def __init__(self, themes: ThemeRegistry | None = None) -> None:
        self.themes = themes or ThemeRegistry()

    def recommend(self, tone: str = "professional",
                  accent_color: str | None = None) -> dict:
        theme_name = self._TONE_THEMES.get(tone.lower(), "clean")
        recommendation = {
            "theme": theme_name,
            "element_styles": {},
        }
        if accent_color:
            recommendation["element_styles"]["heading"] = {
                "color": accent_color
            }
        return recommendation
