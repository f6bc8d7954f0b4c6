"""The advertising service: campaigns, GSP auction, and revenue sharing.

The paper: ads "displayed and configured just like any other content
source", with voluntary monetization that "shares any revenue with the
designer" (Table I). Advertisers run keyword-targeted campaigns with a
bid-per-click and a budget; ad selection runs a generalized second-price
auction over the query's terms; clicks charge the advertiser the GSP price
and credit the application designer their revenue share through a ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NotFoundError, ValidationError
from repro.searchengine.analysis import Analyzer
from repro.services.bus import ServiceDescriptor
from repro.telemetry.metrics import NULL_METRICS
from repro.telemetry.trace import NULL_TRACER
from repro.util import IdGenerator

__all__ = ["Advertiser", "AdCampaign", "AdResult", "LedgerEntry",
           "AdService"]

_DEFAULT_DESIGNER_SHARE = 0.70  # designer keeps 70% of click revenue


@dataclass
class Advertiser:
    advertiser_id: str
    name: str
    balance: float  # prepaid budget, decremented by click charges


@dataclass
class AdCampaign:
    campaign_id: str
    advertiser_id: str
    keywords: tuple            # analyzed keywords this campaign targets
    bid_per_click: float
    headline: str
    url: str
    body: str = ""
    quality: float = 1.0       # quality score multiplier for ranking
    daily_budget: float = 100.0
    spent_today: float = 0.0
    match_type: str = "broad"  # "broad" | "phrase" | "exact"
    negative_keywords: tuple = ()

    def active(self) -> bool:
        return self.spent_today < self.daily_budget

    def matches(self, query_terms: list) -> bool:
        """Does this campaign target the analyzed query?

        * broad  — any campaign keyword appears anywhere in the query;
        * phrase — the keywords appear, in order, as a contiguous run;
        * exact  — the query's term multiset equals the keywords.

        Negative keywords veto a match regardless of match type.
        """
        term_set = set(query_terms)
        if term_set & set(self.negative_keywords):
            return False
        if self.match_type == "exact":
            return tuple(sorted(query_terms)) == tuple(
                sorted(self.keywords)
            )
        if self.match_type == "phrase":
            k = len(self.keywords)
            return any(
                tuple(query_terms[i:i + k]) == self.keywords
                for i in range(len(query_terms) - k + 1)
            )
        return bool(term_set & set(self.keywords))


@dataclass(frozen=True)
class AdResult:
    """One ad selected for display; ``price_per_click`` is the GSP price."""

    ad_id: str
    campaign_id: str
    headline: str
    url: str
    body: str
    price_per_click: float


@dataclass(frozen=True)
class LedgerEntry:
    timestamp_ms: int
    kind: str            # "impression" | "click"
    campaign_id: str
    app_id: str
    amount: float        # charged to the advertiser (0 for impressions)
    designer_credit: float


class AdService:
    """Keyword ad marketplace with second-price click pricing."""

    name = "adcenter"

    def __init__(self, ids: IdGenerator | None = None,
                 designer_share: float = _DEFAULT_DESIGNER_SHARE) -> None:
        if not 0.0 <= designer_share <= 1.0:
            raise ValidationError("designer share must be within [0, 1]")
        self._ids = ids or IdGenerator()
        self._analyzer = Analyzer()
        self.designer_share = designer_share
        self._advertisers: dict[str, Advertiser] = {}
        self._campaigns: dict[str, AdCampaign] = {}
        self._served: dict[str, AdResult] = {}       # ad_id -> result
        self._served_app: dict[str, str] = {}        # ad_id -> app_id
        self.ledger: list[LedgerEntry] = []
        self._tracer = NULL_TRACER
        self._metrics = NULL_METRICS
        self._events = None

    def attach_telemetry(self, telemetry) -> None:
        """Trace auctions and count impressions/clicks/revenue."""
        self._tracer = telemetry.tracer
        self._metrics = telemetry.metrics
        self._events = telemetry.events

    # -- bus integration -------------------------------------------------------

    def describe(self) -> ServiceDescriptor:
        return ServiceDescriptor(
            name=self.name,
            protocol="rest",
            operations=("GET /ads", "POST /clicks/{ad_id}"),
            description="Keyword advertising with revenue share",
        )

    def invoke(self, operation: str, params: dict):
        if operation == "GET /ads":
            ads = self.select_ads(
                params["query"], params.get("app_id", ""),
                count=int(params.get("count", 2)),
                now_ms=int(params.get("now_ms", 0)),
            )
            return [ad.__dict__ for ad in ads]
        if operation.startswith("POST /clicks/"):
            ad_id = operation.rsplit("/", 1)[-1]
            return self.record_click(
                ad_id, now_ms=int(params.get("now_ms", 0))
            )
        raise NotFoundError(f"ad service has no operation {operation!r}")

    # -- account management -------------------------------------------------------

    def create_advertiser(self, name: str, balance: float) -> Advertiser:
        advertiser = Advertiser(
            self._ids.next_id("advertiser"), name, float(balance)
        )
        self._advertisers[advertiser.advertiser_id] = advertiser
        return advertiser

    def advertiser(self, advertiser_id: str) -> Advertiser:
        try:
            return self._advertisers[advertiser_id]
        except KeyError:
            raise NotFoundError(
                f"no advertiser {advertiser_id!r}"
            ) from None

    def create_campaign(self, advertiser_id: str, keywords, bid_per_click:
                        float, headline: str, url: str, body: str = "",
                        quality: float = 1.0,
                        daily_budget: float = 100.0,
                        match_type: str = "broad",
                        negative_keywords=()) -> AdCampaign:
        self.advertiser(advertiser_id)  # existence check
        if bid_per_click <= 0:
            raise ValidationError("bid per click must be positive")
        if match_type not in ("broad", "phrase", "exact"):
            raise ValidationError(
                f"unknown match type {match_type!r}; expected broad, "
                "phrase, or exact"
            )
        analyzed = []
        for keyword in keywords:
            analyzed.extend(self._analyzer.analyze(keyword))
        if not analyzed:
            raise ValidationError("campaign needs at least one keyword")
        negatives = []
        for keyword in negative_keywords:
            negatives.extend(self._analyzer.analyze(keyword))
        keyword_tuple = (tuple(analyzed) if match_type == "phrase"
                         else tuple(dict.fromkeys(analyzed)))
        campaign = AdCampaign(
            campaign_id=self._ids.next_id("campaign"),
            advertiser_id=advertiser_id,
            keywords=keyword_tuple,
            bid_per_click=float(bid_per_click),
            headline=headline,
            url=url,
            body=body,
            quality=float(quality),
            daily_budget=float(daily_budget),
            match_type=match_type,
            negative_keywords=tuple(dict.fromkeys(negatives)),
        )
        self._campaigns[campaign.campaign_id] = campaign
        return campaign

    def campaign(self, campaign_id: str) -> AdCampaign:
        try:
            return self._campaigns[campaign_id]
        except KeyError:
            raise NotFoundError(f"no campaign {campaign_id!r}") from None

    # -- auction ----------------------------------------------------------------

    def _eligible(self, query_terms: list) -> list[AdCampaign]:
        out = []
        for campaign in self._campaigns.values():
            if not campaign.active():
                continue
            advertiser = self._advertisers[campaign.advertiser_id]
            if advertiser.balance < campaign.bid_per_click:
                continue
            if campaign.matches(query_terms):
                out.append(campaign)
        return out

    def select_ads(self, query: str, app_id: str, count: int = 2,
                   now_ms: int = 0, deadline=None) -> list[AdResult]:
        """Run a GSP auction for ``query`` and return up to ``count`` ads.

        Ranking is by bid × quality; the click price for slot *i* is the
        minimum bid that would keep its rank over slot *i+1* (classic GSP),
        floored at a 1-cent reserve.

        Ads are strictly best-effort: when the query's deadline has
        already run out the auction is refused up front
        (:class:`~repro.errors.DeadlineExceededError`) so an overrun
        query ships its organic results without waiting on monetization.
        """
        if deadline is not None:
            deadline.check("ads:auction")
        with self._tracer.span("ads:auction") as span:
            if span:
                span.set("query", query)
                span.set("app_id", app_id)
            selected = self._run_auction(query, app_id, count, now_ms)
            if span:
                span.set("selected", len(selected))
        if selected and self._metrics.enabled:
            self._metrics.counter("ad_impressions_total").inc(
                len(selected)
            )
        return selected

    def _run_auction(self, query: str, app_id: str, count: int,
                     now_ms: int) -> list[AdResult]:
        terms = self._analyzer.analyze(query)
        eligible = self._eligible(terms)
        eligible.sort(
            key=lambda c: (-c.bid_per_click * c.quality, c.campaign_id)
        )
        selected = []
        for rank, campaign in enumerate(eligible[:count]):
            if rank + 1 < len(eligible):
                runner_up = eligible[rank + 1]
                price = (runner_up.bid_per_click * runner_up.quality
                         / campaign.quality) + 0.01
                price = min(price, campaign.bid_per_click)
            else:
                price = 0.01  # reserve price
            ad_id = self._ids.next_id("ad")
            result = AdResult(
                ad_id=ad_id,
                campaign_id=campaign.campaign_id,
                headline=campaign.headline,
                url=campaign.url,
                body=campaign.body,
                price_per_click=round(max(price, 0.01), 2),
            )
            self._served[ad_id] = result
            self._served_app[ad_id] = app_id
            self.ledger.append(LedgerEntry(
                timestamp_ms=now_ms, kind="impression",
                campaign_id=campaign.campaign_id, app_id=app_id,
                amount=0.0, designer_credit=0.0,
            ))
            selected.append(result)
        return selected

    def record_click(self, ad_id: str, now_ms: int = 0) -> dict:
        """Charge the advertiser and credit the designer for one click."""
        ad = self._served.get(ad_id)
        if ad is None:
            raise NotFoundError(f"no served ad {ad_id!r}")
        campaign = self.campaign(ad.campaign_id)
        advertiser = self.advertiser(campaign.advertiser_id)
        charge = min(ad.price_per_click, advertiser.balance)
        advertiser.balance = round(advertiser.balance - charge, 2)
        campaign.spent_today = round(campaign.spent_today + charge, 2)
        credit = round(charge * self.designer_share, 4)
        app_id = self._served_app.get(ad_id, "")
        self.ledger.append(LedgerEntry(
            timestamp_ms=now_ms, kind="click",
            campaign_id=campaign.campaign_id, app_id=app_id,
            amount=charge, designer_credit=credit,
        ))
        if self._metrics.enabled:
            self._metrics.counter("ad_clicks_total").inc()
            self._metrics.counter("ad_revenue_total").inc(charge)
        if self._events is not None:
            self._events.emit(
                "ad.click", ad_id=ad_id,
                campaign_id=campaign.campaign_id, app_id=app_id,
                charged=charge, designer_credit=credit,
            )
        return {"ad_id": ad_id, "charged": charge,
                "designer_credit": credit}

    # -- reporting ----------------------------------------------------------------

    def designer_earnings(self, app_id: str) -> float:
        return round(sum(
            entry.designer_credit for entry in self.ledger
            if entry.app_id == app_id and entry.kind == "click"
        ), 4)

    def advertiser_spend(self, advertiser_id: str) -> float:
        campaign_ids = {
            c.campaign_id for c in self._campaigns.values()
            if c.advertiser_id == advertiser_id
        }
        return round(sum(
            entry.amount for entry in self.ledger
            if entry.campaign_id in campaign_ids and entry.kind == "click"
        ), 4)

    def platform_revenue(self) -> float:
        """Total click revenue retained by the platform (1 - share)."""
        return round(sum(
            entry.amount - entry.designer_credit for entry in self.ledger
            if entry.kind == "click"
        ), 4)
