"""Web-services substrate: the SOAP/REST integration layer plus adCenter.

The paper: "Symphony also supports dynamic data accessed through SOAP and
REST-based web services... We also integrate with advertising services such
as adCenter, allowing ads to be displayed and configured just like any
other content source."

* :mod:`bus` — in-process service bus with latency and fault injection;
* :mod:`rest` — REST-style services (path templates, GET semantics);
* :mod:`soap` — SOAP-style envelopes and operation contracts;
* :mod:`samples` — the pricing/in-stock and review services the examples
  and benchmarks use;
* :mod:`ads` — the ad service: campaigns, a generalized-second-price
  auction, budgets, and a revenue-share ledger.
"""

from repro.services.ads import AdCampaign, AdResult, AdService, Advertiser
from repro.services.bus import ServiceBus, ServiceDescriptor
from repro.services.rest import RestService
from repro.services.samples import PricingService, ReviewArchiveService
from repro.services.soap import SoapEnvelope, SoapService

__all__ = [
    "AdCampaign",
    "AdResult",
    "AdService",
    "Advertiser",
    "ServiceBus",
    "ServiceDescriptor",
    "RestService",
    "PricingService",
    "ReviewArchiveService",
    "SoapEnvelope",
    "SoapService",
]
