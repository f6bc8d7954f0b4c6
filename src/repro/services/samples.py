"""Sample services used by examples, tests, and benchmarks.

* :class:`PricingService` — the "real-time pricing and in-stock service"
  from the GamerQueen narrative (§II-B), REST-bound;
* :class:`ReviewArchiveService` — a SOAP-bound archive of editorial
  reviews per entity, exercising the envelope/fault path.
"""

from __future__ import annotations

from repro.errors import ServiceFaultError, ServiceError
from repro.services.rest import RestService
from repro.services.soap import SoapOperation, SoapService
from repro.util import deterministic_rng, slugify

__all__ = ["PricingService", "ReviewArchiveService"]


class PricingService(RestService):
    """Real-time price and stock lookups keyed by product title or SKU."""

    name = "pricing"
    description = "Real-time pricing and in-stock levels"

    def __init__(self, seed: object = 0) -> None:
        super().__init__()
        self._seed = seed
        self._overrides: dict[str, dict] = {}
        self.route("GET /prices/{sku}", self._get_price)
        self.route("POST /prices/{sku}", self._set_price)

    def _sku(self, title_or_sku: str) -> str:
        return slugify(title_or_sku)

    def set_price(self, title_or_sku: str, price: float,
                  stock: int) -> None:
        self._overrides[self._sku(title_or_sku)] = {
            "price": round(float(price), 2),
            "stock": int(stock),
        }

    def _default_quote(self, sku: str) -> dict:
        rng = deterministic_rng((self._seed, "price", sku))
        return {
            "price": round(rng.uniform(9.99, 79.99), 2),
            "stock": rng.randint(0, 40),
        }

    def _get_price(self, params: dict) -> dict:
        sku = self._sku(params["sku"])
        quote = self._overrides.get(sku) or self._default_quote(sku)
        return {
            "sku": sku,
            "price": quote["price"],
            "stock": quote["stock"],
            "in_stock": quote["stock"] > 0,
            "currency": params.get("currency", "USD"),
        }

    def _set_price(self, params: dict) -> dict:
        try:
            price = float(params["price"])
            stock = int(params["stock"])
        except (KeyError, ValueError) as exc:
            raise ServiceError(f"bad price update: {exc}") from exc
        self.set_price(params["sku"], price, stock)
        return {"sku": self._sku(params["sku"]), "updated": True}


class ReviewArchiveService(SoapService):
    """SOAP archive of editorial reviews, keyed by entity name."""

    name = "review-archive"
    description = "Editorial review archive (SOAP)"

    def __init__(self, web=None, seed: object = 0) -> None:
        super().__init__()
        self._seed = seed
        self._reviews: dict[str, list[dict]] = {}
        if web is not None:
            self._seed_from_web(web)
        self.operation(
            SoapOperation(
                name="GetReviews",
                input_parts=("entity",),
                output_parts=("entity", "reviews"),
            ),
            self._get_reviews,
        )
        self.operation(
            SoapOperation(
                name="GetAverageScore",
                input_parts=("entity",),
                output_parts=("entity", "average", "count"),
            ),
            self._get_average,
        )

    def _seed_from_web(self, web) -> None:
        """Derive an archive from the synthetic web's entity pages."""
        for page in web.pages.values():
            if not page.entity:
                continue
            rng = deterministic_rng((self._seed, "review", page.url))
            self._reviews.setdefault(page.entity.lower(), []).append({
                "source": page.site,
                "url": page.url,
                "score": round(rng.uniform(3.0, 9.8), 1),
                "excerpt": page.snippet,
            })

    def _lookup(self, entity: str) -> list[dict]:
        reviews = self._reviews.get(entity.strip().lower())
        if not reviews:
            raise ServiceFaultError(
                "Client.UnknownEntity",
                f"no archived reviews for {entity!r}",
            )
        return reviews

    def _get_reviews(self, params: dict) -> dict:
        entity = params["entity"]
        return {"entity": entity, "reviews": list(self._lookup(entity))}

    def _get_average(self, params: dict) -> dict:
        entity = params["entity"]
        reviews = self._lookup(entity)
        average = sum(r["score"] for r in reviews) / len(reviews)
        return {
            "entity": entity,
            "average": round(average, 2),
            "count": len(reviews),
        }
