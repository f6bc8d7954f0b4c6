"""robots.txt for the synthetic web.

Sites publish crawl rules; the crawler fetches and honours them. Rules
are generated deterministically per domain: every site disallows its
``/private/`` tree, and a seeded minority of sites disallow deeper
sections or everything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import deterministic_rng

__all__ = ["RobotsRules", "parse_robots", "robots_txt_for"]


@dataclass(frozen=True)
class RobotsRules:
    """Parsed Disallow rules for the wildcard user-agent."""

    disallow: tuple = ()

    def allows(self, path: str) -> bool:
        if not path.startswith("/"):
            path = "/" + path
        return not any(path.startswith(prefix)
                       for prefix in self.disallow if prefix)


def parse_robots(text: str) -> RobotsRules:
    """Parse the ``User-agent: *`` section of a robots.txt document.

    Minimal, standard-shaped parsing: sections start at ``User-agent``
    lines; only the wildcard section's ``Disallow`` rules apply.
    """
    disallow: list[str] = []
    applies = False
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, __, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "user-agent":
            applies = value == "*"
        elif key == "disallow" and applies:
            if value:
                disallow.append(value)
    return RobotsRules(tuple(disallow))


def robots_txt_for(domain: str, seed: object = 2010) -> str:
    """The deterministic robots.txt a synthetic site serves."""
    rng = deterministic_rng((seed, "robots", domain))
    lines = ["User-agent: *", "Disallow: /private/"]
    if rng.random() < 0.15:
        lines.append("Disallow: /news/")
    if rng.random() < 0.05:
        lines = ["User-agent: *", "Disallow: /"]
    lines.append("")
    lines.append("User-agent: evilbot")
    lines.append("Disallow: /")
    return "\n".join(lines)
