"""Tests for themes and the HTML renderer."""

import pytest

from repro.core.application import (
    ApplicationDefinition,
    ElementKind,
    LayoutElement,
    ResultLayout,
    SourceBinding,
    SourceRole,
    SourceSlot,
)
from repro.core.datasources import SourceItem, SourceResult
from repro.core.presentation import (
    HtmlRenderer,
    PresentationWizard,
    ThemeRegistry,
)
from repro.core.runtime import PrimaryResultView
from repro.errors import NotFoundError


def item(**overrides):
    base = dict(
        item_id="i1",
        title="Halo <Odyssey>",
        url="http://shop.example/halo?a=1&b=2",
        snippet="classic & modern",
        fields={"image_url": "http://img.example/1.jpg",
                "description": 'say "hi"'},
    )
    base.update(overrides)
    return SourceItem(**base)


def simple_app(elements, children=(), theme="clean",
               ads_binding=False):
    bindings = [SourceBinding("b1", "s1", SourceRole.PRIMARY)]
    slots = [SourceSlot(
        binding_id="b1", heading="Games",
        result_layout=ResultLayout(tuple(elements)),
        children=tuple(children),
    )]
    if children:
        bindings.append(SourceBinding(
            "b2", "s2", SourceRole.SUPPLEMENTAL, drive_fields=("title",)
        ))
    if ads_binding:
        bindings.append(SourceBinding("b3", "s3", SourceRole.ADS))
        slots.append(SourceSlot(binding_id="b3", heading="Sponsored"))
    return ApplicationDefinition(
        app_id="app-1", name="Test", owner_tenant="t1",
        bindings=tuple(bindings), slots=tuple(slots), theme=theme,
    )


class TestThemes:
    def test_builtins_available(self):
        registry = ThemeRegistry()
        assert {"clean", "midnight", "storefront"} <= set(
            registry.names()
        )

    def test_unknown_theme(self):
        with pytest.raises(NotFoundError):
            ThemeRegistry().get("sparkly")

    def test_style_for_unknown_role_empty(self):
        assert ThemeRegistry().get("clean").style_for("nothing") == {}


class TestElementRendering:
    def setup_method(self):
        self.renderer = HtmlRenderer()

    def test_text_escapes_html(self):
        element = LayoutElement(ElementKind.TEXT, "title")
        html = self.renderer.render_element(element, item())
        assert "&lt;Odyssey&gt;" in html
        assert "<Odyssey>" not in html

    def test_image_src_escaped_and_alt_set(self):
        element = LayoutElement(ElementKind.IMAGE, "image_url")
        html = self.renderer.render_element(element, item())
        assert 'src="http://img.example/1.jpg"' in html
        assert 'alt="Halo &lt;Odyssey&gt;"' in html

    def test_image_empty_field_renders_nothing(self):
        element = LayoutElement(ElementKind.IMAGE, "missing_field")
        assert self.renderer.render_element(element, item()) == ""

    def test_hyperlink_default_href_is_item_url(self):
        element = LayoutElement(ElementKind.HYPERLINK, "title")
        html = self.renderer.render_element(element, item())
        assert 'href="http://shop.example/halo?a=1&amp;b=2"' in html

    def test_hyperlink_href_field_override(self):
        element = LayoutElement(ElementKind.HYPERLINK, "title",
                                href_field="image_url")
        html = self.renderer.render_element(element, item())
        assert 'href="http://img.example/1.jpg"' in html

    def test_hyperlink_without_href_degrades_to_span(self):
        element = LayoutElement(ElementKind.HYPERLINK, "title")
        html = self.renderer.render_element(element, item(url=""))
        assert html.startswith("<span")

    def test_inline_style_rendered(self):
        element = LayoutElement(ElementKind.TEXT, "title",
                                style={"color": "#444",
                                       "font-size": "12px"})
        html = self.renderer.render_element(element, item())
        assert 'style="color: #444; font-size: 12px"' in html

    def test_css_class_rendered(self):
        element = LayoutElement(ElementKind.TEXT, "title",
                                css_class="headline")
        assert 'class="headline"' in \
            self.renderer.render_element(element, item())


class TestAppRendering:
    def render(self, app, views, ads=()):
        return HtmlRenderer().render_app(app, views, ads)

    def view(self, supplemental=None):
        return PrimaryResultView(
            slot_binding_id="b1", item=item(),
            supplemental=supplemental or {},
        )

    def test_wrapper_and_heading(self):
        app = simple_app([LayoutElement(ElementKind.TEXT, "title")])
        html = self.render(app, [self.view()])
        assert 'class="symphony-app"' in html
        assert 'data-app="app-1"' in html
        assert "<h2" in html and "Games" in html

    def test_supplemental_results_rendered(self):
        child = SourceSlot(binding_id="b2", heading="Reviews")
        app = simple_app([LayoutElement(ElementKind.TEXT, "title")],
                         children=(child,))
        supp = SourceResult("s2", (item(title="A review"),), 1)
        html = self.render(app, [self.view({"b2": supp})])
        assert "symphony-supplemental" in html
        assert "A review" in html

    def test_empty_supplemental_placeholder(self):
        child = SourceSlot(binding_id="b2", heading="Reviews")
        app = simple_app([LayoutElement(ElementKind.TEXT, "title")],
                         children=(child,))
        html = self.render(app, [self.view({"b2": SourceResult.empty(
            "s2")})])
        assert "No supplemental results" in html

    def test_ads_slot(self):
        app = simple_app([LayoutElement(ElementKind.TEXT, "title")],
                         ads_binding=True)
        ad = item(title="Buy now", fields={"ad_id": "ad-1"})
        html = self.render(app, [self.view()], ads=(ad,))
        assert "symphony-ads" in html
        assert 'data-ad="ad-1"' in html

    def test_theme_styles_inlined(self):
        app = simple_app([LayoutElement(ElementKind.TEXT, "title")],
                         theme="midnight")
        html = self.render(app, [self.view()])
        assert "#101418" in html  # midnight background

    def test_views_filtered_by_slot(self):
        app = simple_app([LayoutElement(ElementKind.TEXT, "title")])
        stray = PrimaryResultView(slot_binding_id="other",
                                  item=item(title="STRAY"))
        html = self.render(app, [stray])
        assert "STRAY" not in html


class TestWizard:
    def test_tone_mapping(self):
        wizard = PresentationWizard()
        assert wizard.recommend("dark")["theme"] == "midnight"
        assert wizard.recommend("playful")["theme"] == "storefront"
        assert wizard.recommend("unknown-tone")["theme"] == "clean"

    def test_accent_color(self):
        result = PresentationWizard().recommend("professional", "#123")
        assert result["element_styles"]["heading"]["color"] == "#123"
