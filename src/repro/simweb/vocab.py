"""Topic vocabularies used to fabricate the synthetic web.

Each topic carries a vocabulary of content words, entity name parts, and a
set of well-known site domains (including the review sites named in the
paper's GamerQueen example: gamespot.com, ign.com, teamxbox.com). Text is
sampled with a Zipf-like distribution so term frequencies look like real
language and ranking behaves sensibly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TopicVocabulary", "topic_vocabulary", "TOPICS"]

_GENERIC_WORDS = [
    "the", "a", "of", "and", "to", "in", "for", "with", "on", "about",
    "best", "new", "guide", "review", "top", "latest", "official", "free",
    "online", "full", "great", "classic", "popular", "complete", "ultimate",
    "list", "find", "compare", "buy", "price", "deal", "release", "edition",
]

_TOPIC_DATA: dict[str, dict[str, list[str]]] = {
    "video_games": {
        "words": [
            "game", "gameplay", "console", "controller", "multiplayer",
            "campaign", "quest", "level", "boss", "graphics", "soundtrack",
            "rpg", "shooter", "platformer", "strategy", "arcade", "pixel",
            "achievement", "xbox", "playstation", "nintendo", "sequel",
            "trailer", "demo", "patch", "mod", "speedrun", "walkthrough",
            "cheats", "lore", "studio", "publisher", "frame", "rating",
            "score", "combo", "inventory", "loot", "dungeon", "raid",
        ],
        "entities": [
            "Halo", "Zelda", "Mario", "Portal", "Bioshock", "Fallout",
            "Starcraft", "Warcraft", "Gears", "Fable", "Oblivion", "Crysis",
            "Tetris", "Myst", "Doom", "Quake", "Spore", "Braid", "Okami",
            "Ico", "Shadow", "Chrono", "Metroid", "Kirby", "Pikmin",
        ],
        "entity_suffixes": [
            "Odyssey", "Legends", "Chronicles", "Reborn", "II", "III",
            "Origins", "Unlimited", "Arena", "Tactics", "Online", "Zero",
        ],
        "sites": [
            "gamespot.com", "ign.com", "teamxbox.com", "gamerhub.example",
            "pixelpress.example", "joystiq.example", "criticalplay.example",
        ],
    },
    "wine": {
        "words": [
            "wine", "vintage", "grape", "vineyard", "tannin", "bouquet",
            "cellar", "oak", "barrel", "terroir", "cabernet", "merlot",
            "chardonnay", "pinot", "riesling", "zinfandel", "syrah",
            "sommelier", "pairing", "decant", "aroma", "finish", "acidity",
            "bottle", "cork", "estate", "harvest", "appellation", "blend",
            "tasting", "notes", "fruit", "berry", "citrus", "spice",
        ],
        "entities": [
            "Silverado", "Duckhorn", "Chateau", "Ridge", "Opus", "Caymus",
            "Stag", "Meridian", "Columbia", "Willamette", "Sonoma", "Napa",
            "Barolo", "Rioja", "Margaux", "Pomerol", "Chianti", "Mosel",
        ],
        "entity_suffixes": [
            "Reserve", "Estate", "Valley", "Hills", "Creek", "Crest",
            "Cellars", "Vineyards", "Selection", "Blanc", "Noir", "Rouge",
        ],
        "sites": [
            "winespectator.example", "cellartracker.example",
            "vinography.example", "decanterly.example", "grapenotes.example",
        ],
    },
    "movies": {
        "words": [
            "movie", "film", "director", "actor", "actress", "screenplay",
            "cinema", "scene", "plot", "sequel", "trilogy", "premiere",
            "drama", "comedy", "thriller", "documentary", "animation",
            "cinematography", "casting", "studio", "boxoffice", "critic",
            "award", "oscar", "festival", "trailer", "soundtrack", "role",
            "performance", "adaptation", "remake", "screening", "reel",
        ],
        "entities": [
            "Inception", "Casablanca", "Vertigo", "Chinatown", "Amelie",
            "Gladiator", "Memento", "Alien", "Rocky", "Jaws", "Psycho",
            "Heat", "Fargo", "Goodfellas", "Rashomon", "Metropolis",
        ],
        "entity_suffixes": [
            "Returns", "Rising", "Forever", "Begins", "Redux", "Part II",
            "Untold", "Legacy", "Dawn", "Nights", "Story", "Affair",
        ],
        "sites": [
            "imdb.example", "rottenreels.example", "screenrant.example",
            "filmdaily.example", "cinephile.example",
        ],
    },
    "health": {
        "words": [
            "health", "symptom", "treatment", "diagnosis", "doctor",
            "nutrition", "vitamin", "exercise", "therapy", "clinic",
            "allergy", "immune", "diet", "sleep", "stress", "wellness",
            "medication", "dosage", "recovery", "prevention", "chronic",
            "cardio", "protein", "fitness", "hydration", "checkup",
        ],
        "entities": [
            "Mayo", "WebMD", "Cleveland", "Hopkins", "Wellness", "CarePlus",
            "VitalSigns", "MedLine", "HealthWise", "NutriCore",
        ],
        "entity_suffixes": [
            "Clinic", "Center", "Institute", "Guide", "Daily", "Journal",
        ],
        "sites": [
            "webmd.example", "mayoclinic.example", "healthline.example",
            "medlineplus.example",
        ],
    },
    "travel": {
        "words": [
            "travel", "flight", "hotel", "itinerary", "destination",
            "beach", "mountain", "museum", "tour", "passport", "visa",
            "luggage", "booking", "resort", "hostel", "landmark", "cruise",
            "adventure", "backpacking", "airfare", "layover", "excursion",
            "sightseeing", "culture", "cuisine", "local", "island",
        ],
        "entities": [
            "Kyoto", "Lisbon", "Patagonia", "Santorini", "Reykjavik",
            "Marrakech", "Queenstown", "Havana", "Zanzibar", "Banff",
            "Tulum", "Dubrovnik", "Hanoi", "Cusco", "Valletta",
        ],
        "entity_suffixes": [
            "Getaway", "Escape", "Guide", "Journey", "Trails", "Diaries",
        ],
        "sites": [
            "expedia.example", "lonelyplanet.example", "tripnotes.example",
            "wanderwise.example",
        ],
    },
    "news": {
        "words": [
            "breaking", "report", "announcement", "statement", "press",
            "conference", "election", "market", "economy", "policy",
            "government", "industry", "technology", "launch", "update",
            "investigation", "analysis", "interview", "coverage", "source",
            "official", "quarterly", "forecast", "summit", "agreement",
        ],
        "entities": [
            "Reuters", "Associated", "Tribune", "Herald", "Gazette",
            "Chronicle", "Observer", "Dispatch", "Courier", "Sentinel",
        ],
        "entity_suffixes": [
            "Daily", "Weekly", "Times", "Post", "Wire", "Report",
        ],
        "sites": [
            "worldwire.example", "dailybrief.example", "newsroom.example",
            "thegazette.example", "morningpost.example",
        ],
    },
    "tech": {
        "words": [
            "software", "hardware", "startup", "cloud", "database",
            "algorithm", "platform", "api", "framework", "release",
            "developer", "opensource", "security", "encryption", "mobile",
            "browser", "server", "network", "benchmark", "processor",
            "storage", "interface", "protocol", "latency", "scaling",
        ],
        "entities": [
            "Nimbus", "Vertex", "Quanta", "Lattice", "Kernel", "Photon",
            "Cobalt", "Zenith", "Helix", "Tensor", "Raster", "Citadel",
        ],
        "entity_suffixes": [
            "Labs", "Systems", "Works", "Stack", "Forge", "Hub",
        ],
        "sites": [
            "techcrunchy.example", "arsdigita.example", "hackerwire.example",
            "stackreport.example",
        ],
    },
}

TOPICS = tuple(sorted(_TOPIC_DATA))


@dataclass(frozen=True)
class TopicVocabulary:
    """The word and naming material for one topic domain."""

    topic: str
    words: tuple[str, ...]
    entities: tuple[str, ...]
    entity_suffixes: tuple[str, ...]
    sites: tuple[str, ...]

    def sample_words(self, rng, count: int) -> list[str]:
        """Sample ``count`` words Zipf-ishly from topic + generic vocab.

        The first words of the (topic, generic) pools are proportionally
        more likely, which gives realistic head/tail term statistics.
        """
        pool = list(self.words) + _GENERIC_WORDS
        out = []
        n = len(pool)
        for _ in range(count):
            # Inverse-CDF of an approximate Zipf over ranks 1..n.
            rank = int(n ** rng.random()) - 1
            out.append(pool[max(0, min(rank, n - 1))])
        return out

    def sample_entity(self, rng) -> str:
        """A two-part proper name like ``Halo Chronicles``."""
        head = rng.choice(self.entities)
        if rng.random() < 0.7:
            return f"{head} {rng.choice(self.entity_suffixes)}"
        return head

    def sample_sentence(self, rng, min_words: int = 6,
                        max_words: int = 14) -> str:
        words = self.sample_words(rng, rng.randint(min_words, max_words))
        if rng.random() < 0.35:
            words.insert(rng.randrange(len(words)),
                         self.sample_entity(rng).lower())
        sentence = " ".join(words)
        return sentence[0].upper() + sentence[1:] + "."

    def sample_paragraph(self, rng, sentences: int = 4) -> str:
        return " ".join(self.sample_sentence(rng) for _ in range(sentences))


def topic_vocabulary(topic: str) -> TopicVocabulary:
    """Return the vocabulary for ``topic`` (one of :data:`TOPICS`)."""
    try:
        data = _TOPIC_DATA[topic]
    except KeyError:
        raise KeyError(
            f"unknown topic {topic!r}; expected one of {', '.join(TOPICS)}"
        ) from None
    return TopicVocabulary(
        topic=topic,
        words=tuple(data["words"]),
        entities=tuple(data["entities"]),
        entity_suffixes=tuple(data["entity_suffixes"]),
        sites=tuple(data["sites"]),
    )


def all_known_sites() -> list[str]:
    """Every well-known domain across topics (deduplicated, sorted)."""
    seen = set()
    for data in _TOPIC_DATA.values():
        seen.update(data["sites"])
    return sorted(seen)
