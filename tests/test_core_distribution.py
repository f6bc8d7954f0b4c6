"""Tests for embed snippets, social publishing, and hosting routes."""

import pytest

from repro.core.application import (
    ApplicationDefinition,
    SourceBinding,
    SourceRole,
    SourceSlot,
)
from repro.core.distribution import (
    HostingRouter,
    Publisher,
    SnippetGenerator,
    SocialPlatform,
)
from repro.errors import NotFoundError, PublicationError


def app(app_id="app-1", name="GamerQueen"):
    return ApplicationDefinition(
        app_id=app_id, name=name, owner_tenant="t1",
        bindings=(SourceBinding("b1", "s1", SourceRole.PRIMARY),),
        slots=(SourceSlot(binding_id="b1"),),
    )


class TestSnippets:
    def test_snippet_contains_html_and_js(self):
        snippet = SnippetGenerator().generate(app())
        assert "<form" in snippet.html
        assert "XMLHttpRequest" in snippet.javascript
        assert "app-1" in snippet.javascript

    def test_snippet_targets_endpoint(self):
        generator = SnippetGenerator(endpoint="https://sym.example/api")
        snippet = generator.generate(app())
        assert "https://sym.example/api/apps/app-1/query" in \
            snippet.javascript

    def test_embed_key_unique_per_generation(self):
        generator = SnippetGenerator()
        a = generator.generate(app())
        b = generator.generate(app())
        assert a.embed_key != b.embed_key

    def test_container_id_from_app_name(self):
        snippet = SnippetGenerator().generate(app(name="Wine Cellar!"))
        assert 'id="symphony-wine-cellar"' in snippet.html


class TestSocialPlatform:
    def test_install_returns_canvas_url(self):
        platform = SocialPlatform("facebook")
        url = platform.install_app(app())
        assert url == "https://facebook.example/apps/gamerqueen"

    def test_reinstall_same_app_idempotent(self):
        platform = SocialPlatform("facebook")
        url = platform.install_app(app())
        assert platform.install_app(app()) == url  # same app id, fine

    def test_slug_collision_rejected(self):
        platform = SocialPlatform("facebook")
        platform.install_app(app(app_id="a1"))
        with pytest.raises(PublicationError):
            platform.install_app(app(app_id="a2"))


class TestPublisher:
    def test_publish_to_platform(self):
        publisher = Publisher()
        publisher.register_platform(SocialPlatform("facebook"))
        publication = publisher.publish_to_platform(app(), "facebook")
        assert publication.target == "facebook"
        assert "facebook.example" in publication.location

    def test_unknown_platform(self):
        with pytest.raises(NotFoundError):
            Publisher().publish_to_platform(app(), "myspace")


class TestRouter:
    def test_mount_and_resolve(self):
        router = HostingRouter()
        path = router.mount(app())
        assert router.resolve(path) == "app-1"

    def test_unmounted_path(self):
        with pytest.raises(NotFoundError):
            HostingRouter().resolve("/apps/ghost/query")

    def test_embed_key_enforced_once_registered(self):
        router = HostingRouter()
        path = router.mount(app(), embed_key="key-1")
        assert router.resolve(path, "key-1") == "app-1"
        with pytest.raises(PublicationError):
            router.resolve(path, "wrong-key")

    def test_open_access_before_keys_registered(self):
        router = HostingRouter()
        path = router.mount(app())
        assert router.resolve(path, "anything") == "app-1"
