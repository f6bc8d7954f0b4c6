"""Distribution & hosting: embed snippets, social publishing, routing.

§II-A: "Application designers can embed the application into their own web
sites by copy-and-pasting auto-generated snippets of JavaScript and HTML
onto a web page. Symphony also supports publishing the application to
social networking sites such as Facebook." Hosting stays with Symphony
regardless of where the app is embedded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NotFoundError, PublicationError
from repro.util import IdGenerator, slugify

__all__ = [
    "EmbedSnippet",
    "SnippetGenerator",
    "SocialPlatform",
    "Publication",
    "Publisher",
    "HostingRouter",
]

_DEFAULT_ENDPOINT = "https://symphony.example/api"


@dataclass(frozen=True)
class EmbedSnippet:
    """The copy-pasteable JS + HTML pair."""

    app_id: str
    embed_key: str
    html: str
    javascript: str


class SnippetGenerator:
    """Auto-generates the embed snippet for a hosted application."""

    def __init__(self, endpoint: str = _DEFAULT_ENDPOINT,
                 ids: IdGenerator | None = None) -> None:
        self.endpoint = endpoint
        self._ids = ids or IdGenerator()

    def generate(self, app) -> EmbedSnippet:
        embed_key = self._ids.token("embed", length=16)
        container_id = f"symphony-{slugify(app.name)}"
        html = (
            f'<div id="{container_id}">\n'
            f'  <form class="symphony-search" '
            f'onsubmit="return symphonyQuery_{embed_key}(this);">\n'
            f'    <input type="text" name="q" '
            f'placeholder="Search {app.name}"/>\n'
            f'    <button type="submit">Search</button>\n'
            f'  </form>\n'
            f'  <div class="symphony-results"></div>\n'
            f"</div>"
        )
        javascript = (
            f"// Auto-generated by Symphony for {app.name}\n"
            f"function symphonyQuery_{embed_key}(form) {{\n"
            f"  var q = form.q.value;\n"
            f"  var xhr = new XMLHttpRequest();\n"
            f"  xhr.open('GET', '{self.endpoint}/apps/{app.app_id}"
            f"/query?key={embed_key}&q=' + encodeURIComponent(q));\n"
            f"  xhr.onload = function() {{\n"
            f"    document.querySelector('#{container_id} "
            f".symphony-results').innerHTML = xhr.responseText;\n"
            f"  }};\n"
            f"  xhr.send();\n"
            f"  return false;\n"
            f"}}"
        )
        return EmbedSnippet(
            app_id=app.app_id,
            embed_key=embed_key,
            html=html,
            javascript=javascript,
        )


@dataclass(frozen=True)
class Publication:
    """One deployment of an application to a target."""

    app_id: str
    target: str            # "web" | platform name (e.g. "facebook")
    location: str          # canvas URL or host page


class SocialPlatform:
    """A simulated social network that hosts canvas applications."""

    def __init__(self, name: str, canvas_root: str | None = None) -> None:
        self.name = name
        self.canvas_root = canvas_root or f"https://{name}.example/apps"
        self._canvas: dict[str, str] = {}

    def install_app(self, app) -> str:
        slug = slugify(app.name)
        if slug in self._canvas and self._canvas[slug] != app.app_id:
            raise PublicationError(
                f"{self.name} already has an app at /{slug}"
            )
        self._canvas[slug] = app.app_id
        return f"{self.canvas_root}/{slug}"


class Publisher:
    """Publishes hosted applications to web pages and social platforms."""

    def __init__(self, snippets: SnippetGenerator | None = None) -> None:
        self.snippets = snippets or SnippetGenerator()
        self._platforms: dict[str, SocialPlatform] = {}

    def register_platform(self, platform: SocialPlatform) -> None:
        self._platforms[platform.name] = platform

    def platform(self, name: str) -> SocialPlatform:
        try:
            return self._platforms[name]
        except KeyError:
            raise NotFoundError(
                f"no social platform registered as {name!r}"
            ) from None

    def embed_on_site(self, app) -> EmbedSnippet:
        return self.snippets.generate(app)

    def publish_to_platform(self, app, platform_name: str) -> Publication:
        platform = self.platform(platform_name)
        canvas_url = platform.install_app(app)
        return Publication(
            app_id=app.app_id, target=platform_name, location=canvas_url,
        )


class HostingRouter:
    """Maps public query URLs back to hosted application ids.

    "Regardless of how an application is distributed, its execution and
    the resources involved are always shouldered by Symphony."
    """

    def __init__(self) -> None:
        self._routes: dict[str, str] = {}
        self._keys: dict[str, set] = {}

    def mount(self, app, embed_key: str = "") -> str:
        path = f"/apps/{app.app_id}/query"
        self._routes[path] = app.app_id
        if embed_key:
            self._keys.setdefault(app.app_id, set()).add(embed_key)
        return path

    def resolve(self, path: str, embed_key: str = "") -> str:
        app_id = self._routes.get(path)
        if app_id is None:
            raise NotFoundError(f"no application mounted at {path!r}")
        valid_keys = self._keys.get(app_id)
        if valid_keys and embed_key not in valid_keys:
            raise PublicationError(
                f"embed key not authorized for {app_id!r}"
            )
        return app_id
