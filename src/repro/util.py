"""Small shared utilities: identifiers, deterministic RNG, simulated clock.

The reproduction is fully deterministic: anything random derives from an
explicit seed, and anything time-dependent runs against :class:`SimClock`
rather than the wall clock, so benchmarks and tests replay identically.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
import string
from dataclasses import dataclass, field

__all__ = [
    "IdGenerator",
    "SimClock",
    "deterministic_rng",
    "slugify",
    "stable_hash",
]

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slugify(text: str) -> str:
    """Lowercase ``text`` and collapse non-alphanumerics to single dashes.

    >>> slugify("GamerQueen's  Video Games!")
    'gamerqueen-s-video-games'
    """
    slug = _SLUG_RE.sub("-", text.lower()).strip("-")
    return slug or "item"


def stable_hash(*parts: object) -> int:
    """A process-independent 63-bit hash of ``parts``.

    Python's builtin ``hash`` is salted per process; benchmarks need ids and
    tie-breaks that replay across runs, so we hash through blake2b instead.
    """
    payload = "\x1f".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def deterministic_rng(seed: object) -> random.Random:
    """Return a ``random.Random`` seeded stably from any printable value."""
    return random.Random(stable_hash("rng", seed))


@dataclass
class IdGenerator:
    """Generates readable, unique identifiers like ``app-000042``.

    A shared generator per platform instance keeps ids short and stable;
    the optional ``seed`` only randomizes the suffix alphabet used for
    token-like ids.
    """

    seed: object = 0
    _counters: dict = field(default_factory=dict)

    def next_id(self, prefix: str) -> str:
        if prefix not in self._counters:
            self._counters[prefix] = itertools.count(1)
        value = next(self._counters[prefix])
        return f"{prefix}-{value:06d}"

    def token(self, prefix: str, length: int = 24) -> str:
        """An opaque token (access keys, embed keys) that is still seeded."""
        serial = self.next_id(f"_token_{prefix}")
        rng = deterministic_rng((self.seed, serial))
        alphabet = string.ascii_lowercase + string.digits
        body = "".join(rng.choice(alphabet) for _ in range(length))
        return f"{prefix}_{body}"


class SimClock:
    """A monotonically advancing simulated clock, in milliseconds.

    Subsystems charge simulated latency to the clock (``advance``) and read
    timestamps from it (``now_ms``). Tests can therefore make assertions
    about latency accounting without sleeping.
    """

    def __init__(self, start_ms: int = 1_262_304_000_000) -> None:
        # Default epoch: 2010-01-01T00:00:00Z, the paper's era.
        self._now_ms = int(start_ms)

    @property
    def now_ms(self) -> int:
        return self._now_ms

    def advance(self, delta_ms: float) -> int:
        if delta_ms < 0:
            raise ValueError("cannot move the clock backwards")
        self._now_ms += int(round(delta_ms))
        return self._now_ms

    def timestamp(self) -> float:
        """Seconds since the UNIX epoch, for interoperability."""
        return self._now_ms / 1000.0
