"""Platform state export/import.

Symphony is a hosted cloud service — designers expect their tenants,
uploaded tables, configured sources, and hosted applications to survive a
platform restart. This module serializes that state to one JSON document
and restores it onto a freshly constructed platform.

What round-trips: tenants (with tables and next-serial counters), source
configurations, hosted application definitions, customer profiles, and
the ad marketplace (advertisers, campaigns, and the revenue ledger, so
designer earnings survive a restart).
What intentionally does not: the synthetic web and its *initial* search
index (reconstructed deterministically from the seed), service
*registrations* on the bus (code, not data — re-register the same
services before importing), access tokens (security material is
re-minted), and blobs (raw upload archives are replayable from the
sources of truth).

Post-seed index mutations are a different story: a clustered deployment
with ``repro.durability`` enabled logs every add/remove to a per-shard
write-ahead log and snapshots shards into checkpoints, so documents
ingested after the initial build survive a *replica* loss via
checkpoint-restore + WAL replay. That machinery protects replicas
within a running cluster; this module's export/import remains the path
for moving platform state across deployments.
"""

from __future__ import annotations

import json

from repro.core.application import ApplicationDefinition
from repro.core.datasources import (
    AdSource,
    CustomerProfileSource,
    ProprietaryTableSource,
    ServiceSource,
    WebSearchSource,
)
from repro.errors import ConfigurationError
from repro.storage.records import RecordTable
from repro.storage.tenant import Tenant

__all__ = ["export_platform", "import_platform",
           "save_platform", "load_platform"]

_FORMAT_VERSION = 1


def export_platform(symphony) -> dict:
    """Serialize restorable platform state to a plain dict."""
    tenants = []
    for tenant_id in symphony.catalog.tenant_ids():
        tenant = symphony.catalog.tenant(tenant_id)
        tenants.append({
            "tenant_id": tenant.tenant_id,
            "display_name": tenant.display_name,
            "tables": {
                name: json.loads(tenant.table(name).to_json())
                for name in tenant.table_names()
            },
        })
    sources = []
    for source_id in symphony.sources.ids():
        source = symphony.sources.get(source_id)
        try:
            sources.append(source.export_config())
        except NotImplementedError:
            # Unknown custom adapters are the caller's responsibility.
            continue
    apps = [symphony.apps.get(app_id).to_dict()
            for app_id in symphony.apps.ids()]
    return {
        "version": _FORMAT_VERSION,
        "tenants": tenants,
        "sources": sources,
        "applications": apps,
        "ads": symphony.ads.export_state(),
    }


def _restore_source(symphony, config: dict):
    kind = config["type"]
    if kind == "proprietary":
        tenant = symphony.catalog.tenant(config["tenant_id"])
        source = ProprietaryTableSource(
            source_id=config["source_id"],
            name=config["name"],
            table=tenant.table(config["table_name"]),
            search_fields=tuple(config["search_fields"]),
            tenant_id=config["tenant_id"],
        )
        return source
    if kind == "web":
        return WebSearchSource(
            source_id=config["source_id"],
            name=config["name"],
            engine=symphony.engine,
            vertical=config["vertical"],
            sites=tuple(config["sites"]),
            augment_terms=tuple(config["augment_terms"]),
            freshness_days=config["freshness_days"],
        )
    if kind == "service":
        return ServiceSource(
            source_id=config["source_id"],
            name=config["name"],
            bus=symphony.bus,
            service_name=config["service_name"],
            operation=config["operation"],
            query_param=config["query_param"],
            item_fields=tuple(config["item_fields"]),
            title_field=config["title_field"],
            extra_params=dict(config["extra_params"]),
        )
    if kind == "ads":
        return AdSource(
            source_id=config["source_id"],
            name=config["name"],
            ad_service=symphony.ads,
            max_ads=config["max_ads"],
        )
    if kind == "customer":
        source = CustomerProfileSource(
            source_id=config["source_id"],
            name=config["name"],
        )
        for customer_id, terms in config["profiles"].items():
            source.set_profile(customer_id, terms)
        return source
    raise ConfigurationError(f"unknown source type in export: {kind!r}")


def import_platform(symphony, data: dict) -> dict:
    """Restore exported state onto ``symphony``.

    The target platform should be freshly constructed over the same web
    spec and have the same bus services registered. Returns a summary of
    what was restored.
    """
    if data.get("version") != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported export version: {data.get('version')!r}"
        )
    for tenant_data in data["tenants"]:
        tenant = Tenant(tenant_data["tenant_id"],
                        tenant_data["display_name"])
        for table_json in tenant_data["tables"].values():
            tenant.restore_table(
                RecordTable.from_json(json.dumps(table_json))
            )
        symphony.catalog.register_tenant(tenant)
    for config in data["sources"]:
        symphony.sources.add(_restore_source(symphony, config))
    for app_data in data["applications"]:
        app = ApplicationDefinition.from_dict(app_data)
        symphony.apps.register(app)
        symphony.router.mount(app)
    if "ads" in data:
        symphony.ads.restore_state(data["ads"])
    return {
        "tenants": len(data["tenants"]),
        "sources": len(data["sources"]),
        "applications": len(data["applications"]),
    }


def save_platform(symphony, path) -> None:
    """Export to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(export_platform(symphony), handle, indent=2)


def load_platform(symphony, path) -> dict:
    """Import from a JSON file written by :func:`save_platform`."""
    with open(path, encoding="utf-8") as handle:
        return import_platform(symphony, json.load(handle))
