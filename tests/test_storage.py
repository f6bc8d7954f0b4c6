"""Tests for the storage substrate: records, schema inference, blobs,
tokens, tenants, quotas."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    AuthorizationError,
    DuplicateError,
    NotFoundError,
    QuotaExceededError,
    ValidationError,
)
from repro.ingest.pipeline import DatasetIngestor
from repro.storage.blobs import BlobStore
from repro.storage.records import (
    FieldSpec,
    FieldType,
    RecordTable,
    Schema,
    infer_schema,
)
from repro.storage.tenant import Quota, StorageCatalog, Tenant
from repro.storage.tokens import Scope, TokenAuthority


def game_schema():
    return Schema((
        FieldSpec("title", FieldType.STRING, required=True),
        FieldSpec("price", FieldType.FLOAT),
        FieldSpec("stock", FieldType.INTEGER),
        FieldSpec("released", FieldType.DATE),
        FieldSpec("active", FieldType.BOOLEAN),
        FieldSpec("homepage", FieldType.URL),
    ))


class TestCoercion:
    def test_string_passthrough(self):
        assert FieldSpec("t", FieldType.STRING).coerce(42) == "42"

    def test_integer(self):
        assert FieldSpec("n", FieldType.INTEGER).coerce(" 7 ") == 7

    def test_float(self):
        assert FieldSpec("p", FieldType.FLOAT).coerce("49.99") == 49.99

    def test_boolean_variants(self):
        spec = FieldSpec("b", FieldType.BOOLEAN)
        assert spec.coerce("yes") is True
        assert spec.coerce("FALSE") is False
        assert spec.coerce(True) is True

    def test_date_format_enforced(self):
        spec = FieldSpec("d", FieldType.DATE)
        assert spec.coerce("2010-03-01") == "2010-03-01"
        with pytest.raises(ValidationError):
            spec.coerce("03/01/2010")

    def test_url_format_enforced(self):
        spec = FieldSpec("u", FieldType.URL)
        assert spec.coerce("http://a.example/x") == "http://a.example/x"
        with pytest.raises(ValidationError):
            spec.coerce("not-a-url")

    def test_required_missing(self):
        with pytest.raises(ValidationError):
            FieldSpec("t", FieldType.STRING, required=True).coerce("")

    def test_optional_missing_is_none(self):
        assert FieldSpec("t", FieldType.STRING).coerce(None) is None

    def test_bad_integer(self):
        with pytest.raises(ValidationError):
            FieldSpec("n", FieldType.INTEGER).coerce("abc")


class TestSchema:
    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValidationError):
            Schema((FieldSpec("a", FieldType.STRING),
                    FieldSpec("a", FieldType.INTEGER)))

    def test_unknown_row_fields_rejected(self):
        with pytest.raises(ValidationError):
            game_schema().coerce_row({"title": "x", "mystery": 1})

    def test_spec_lookup(self):
        assert game_schema().spec("price").type == FieldType.FLOAT
        with pytest.raises(NotFoundError):
            game_schema().spec("nope")


class TestInference:
    def test_basic_types(self):
        rows = [
            {"title": "Halo", "price": "49.99", "stock": "3",
             "active": "true", "released": "2009-11-03",
             "homepage": "http://halo.example"},
        ]
        schema = infer_schema(rows)
        types = {f.name: f.type for f in schema.fields}
        assert types == {
            "title": FieldType.STRING,
            "price": FieldType.FLOAT,
            "stock": FieldType.INTEGER,
            "active": FieldType.BOOLEAN,
            "released": FieldType.DATE,
            "homepage": FieldType.URL,
        }

    def test_int_widens_to_float(self):
        schema = infer_schema([{"v": "1"}, {"v": "2.5"}])
        assert schema.spec("v").type == FieldType.FLOAT

    def test_conflict_falls_back_to_string(self):
        schema = infer_schema([{"v": "1"}, {"v": "hello"}])
        assert schema.spec("v").type == FieldType.STRING

    def test_long_values_become_text(self):
        schema = infer_schema([{"v": "word " * 30}])
        assert schema.spec("v").type == FieldType.TEXT

    def test_missing_values_ignored(self):
        schema = infer_schema([{"v": ""}, {"v": "7"}])
        assert schema.spec("v").type == FieldType.INTEGER

    def test_all_missing_defaults_string(self):
        schema = infer_schema([{"v": ""}])
        assert schema.spec("v").type == FieldType.STRING

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError):
            infer_schema([])

    def test_field_order_preserved(self):
        schema = infer_schema([{"b": "1", "a": "2"}])
        assert schema.field_names() == ["b", "a"]

    @given(st.lists(
        st.fixed_dictionaries({
            "n": st.integers(-1000, 1000).map(str),
            "f": st.floats(allow_nan=False, allow_infinity=False,
                           width=32).map(lambda v: f"{v:.3f}"),
        }),
        min_size=1, max_size=20,
    ))
    def test_inferred_schema_coerces_its_own_rows(self, rows):
        schema = infer_schema(rows)
        for row in rows:
            coerced = schema.coerce_row(row)
            assert isinstance(coerced["n"], int)
            assert isinstance(coerced["f"], float)


class TestRecordTable:
    def make(self, indexed=("title",)):
        return RecordTable("games", game_schema(), indexed)

    def row(self, title="Halo", **extra):
        base = {"title": title, "price": "49.99", "stock": "3",
                "released": "2009-11-03", "active": "true",
                "homepage": "http://halo.example"}
        base.update(extra)
        return base

    def test_insert_assigns_ids_and_version(self):
        table = self.make()
        record = table.insert(self.row())
        assert record.record_id == "games:1"
        assert record.version == 1
        assert record.values["price"] == 49.99

    def test_insert_duplicate_id(self):
        table = self.make()
        table.insert(self.row(), record_id="r1")
        with pytest.raises(DuplicateError):
            table.insert(self.row(), record_id="r1")

    def test_get_missing(self):
        with pytest.raises(NotFoundError):
            self.make().get("nope")

    def test_update_bumps_version(self):
        table = self.make()
        record = table.insert(self.row())
        updated = table.upsert_by("title", self.row(price="39.99"))
        assert updated.record_id == record.record_id
        assert updated.version == 2
        assert updated.values["price"] == 39.99

    def test_find_via_index_case_insensitive(self):
        table = self.make()
        table.insert(self.row(title="Halo Odyssey"))
        assert len(table.find("title", "halo odyssey")) == 1

    def test_find_unindexed_field_scans(self):
        table = self.make()
        table.insert(self.row())
        assert len(table.find("stock", 3)) == 1

    def test_index_updates_on_update(self):
        table = self.make()
        table.insert(self.row(title="Old"))
        table.upsert_by("homepage", self.row(title="New"))
        assert table.find("title", "Old") == []
        assert len(table.find("title", "New")) == 1

    def test_upsert_by(self):
        table = self.make()
        table.insert(self.row(title="Halo"))
        table.upsert_by("title", self.row(title="Halo", price="9.99"))
        table.upsert_by("title", self.row(title="Zelda"))
        assert len(table) == 2
        assert table.find("title", "Halo")[0].values["price"] == 9.99

    def test_upsert_by_ambiguous(self):
        schema = Schema((FieldSpec("k", FieldType.STRING),))
        table = RecordTable("t", schema, ("k",))
        table.insert({"k": "same"})
        table.insert({"k": "same"})
        with pytest.raises(DuplicateError):
            table.upsert_by("k", {"k": "same"})

    def test_index_on_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            RecordTable("t", game_schema(), ("nope",))


class TestBlobStore:
    def test_put_get(self):
        store = BlobStore()
        store.put("k", b"data", "text/plain", created_ms=5)
        blob = store.get("k")
        assert blob.data == b"data"
        assert blob.size == 4

    def test_missing(self):
        with pytest.raises(NotFoundError):
            BlobStore().get("nope")

    def test_unchanged_detection(self):
        store = BlobStore()
        store.put("k", b"same")
        assert store.unchanged("k", b"same")
        assert not store.unchanged("k", b"different")
        assert not store.unchanged("other", b"same")

    def test_total_bytes_and_overwrite(self):
        store = BlobStore()
        store.put("a", b"12345")
        store.put("b", b"123")
        assert store.total_bytes() == 8
        store.put("a", b"1")
        assert store.total_bytes() == 4


class TestTokens:
    def test_mint_and_authorize(self):
        authority = TokenAuthority()
        token = authority.mint("tenant-1", scopes=(Scope.READ,))
        resolved = authority.authorize(token.value, "tenant-1", Scope.READ)
        assert resolved.tenant_id == "tenant-1"

    def test_wrong_tenant_rejected(self):
        authority = TokenAuthority()
        token = authority.mint("tenant-1")
        with pytest.raises(AuthorizationError):
            authority.authorize(token.value, "tenant-2", Scope.READ)

    def test_scope_escalation_rejected(self):
        authority = TokenAuthority()
        token = authority.mint("tenant-1", scopes=(Scope.READ,))
        with pytest.raises(AuthorizationError):
            authority.authorize(token.value, "tenant-1", Scope.WRITE)

    def test_admin_implies_all(self):
        authority = TokenAuthority()
        token = authority.mint("tenant-1", scopes=(Scope.ADMIN,))
        for scope in Scope:
            authority.authorize(token.value, "tenant-1", scope)

    def test_revocation(self):
        authority = TokenAuthority()
        token = authority.mint("tenant-1")
        authority.revoke(token.value)
        with pytest.raises(AuthorizationError):
            authority.resolve(token.value)


class TestTenantAndQuota:
    def test_table_lifecycle(self):
        tenant = Tenant("t1", "Ann")
        tenant.create_table("games", game_schema())
        assert tenant.has_table("games")
        assert not tenant.has_table("inventory")

    def test_duplicate_table(self):
        tenant = Tenant("t1", "Ann")
        tenant.create_table("games", game_schema())
        with pytest.raises(DuplicateError):
            tenant.create_table("games", game_schema())

    def test_table_quota(self):
        tenant = Tenant("t1", "Ann", Quota(max_tables=1))
        tenant.create_table("a", game_schema())
        with pytest.raises(QuotaExceededError):
            tenant.create_table("b", game_schema())

    def test_record_quota(self):
        tenant = Tenant("t1", "Ann", Quota(max_records_per_table=2))
        tenant.create_table("g", game_schema())
        rows = [{"title": f"G{i}"} for i in range(3)]
        with pytest.raises(QuotaExceededError):
            tenant.insert_rows("g", rows)
        # Partial inserts up to quota are kept.
        assert len(tenant.table("g")) == 2

    def keyed_table(self, limit):
        """A tenant whose table "g" holds G0..G2, loaded keyed on title."""
        tenant = Tenant("t1", "Ann", Quota(max_records_per_table=limit))
        ingestor = DatasetIngestor(tenant)
        ingestor.ingest_rows([{"title": f"G{i}", "stock": "1"}
                              for i in range(3)], "g",
                             schema=game_schema(), key_field="title")
        return tenant, ingestor

    def test_keyed_upload_of_new_keys_past_the_record_quota_raises(self):
        tenant, ingestor = self.keyed_table(3)
        with pytest.raises(QuotaExceededError,
                           match=r"record quota exceeded \(4 > 3\)"):
            ingestor.ingest_rows([{"title": f"N{i}"} for i in range(3)],
                                 "g", key_field="title")
        assert len(tenant.table("g")) == 3

    def test_keyed_upload_keeps_the_rows_before_the_record_quota(self):
        tenant, ingestor = self.keyed_table(4)
        with pytest.raises(QuotaExceededError):
            ingestor.ingest_rows([{"title": "G0", "stock": "7"},
                                  {"title": "N0"}, {"title": "N1"}],
                                 "g", key_field="title")
        table = tenant.table("g")
        assert len(table) == 4
        assert table.find("title", "G0")[0].values["stock"] == 7
        assert table.find("title", "N0")
        assert not table.find("title", "N1")

    def test_keyed_update_at_the_record_quota_succeeds(self):
        tenant, ingestor = self.keyed_table(3)
        report = ingestor.ingest_rows([{"title": "G1", "stock": "5"}],
                                      "g", key_field="title")
        assert (report.inserted, report.updated) == (0, 1)
        table = tenant.table("g")
        assert len(table) == 3
        assert table.find("title", "G1")[0].values["stock"] == 5

    def test_blob_quota(self):
        tenant = Tenant("t1", "Ann", Quota(max_blob_bytes=10))
        tenant.put_blob("a", b"12345", "text/plain")
        with pytest.raises(QuotaExceededError):
            tenant.put_blob("b", b"123456789", "text/plain")

    def test_catalog_isolation(self):
        catalog = StorageCatalog()
        ann = catalog.create_tenant("Ann")
        bea = catalog.create_tenant("Bea")
        ann_token = catalog.authority.mint(ann.tenant_id,
                                           scopes=(Scope.ADMIN,))
        # Ann's token cannot open Bea's space.
        with pytest.raises(AuthorizationError):
            catalog.open(ann_token.value, bea.tenant_id, Scope.READ)
        opened = catalog.open(ann_token.value, ann.tenant_id, Scope.WRITE)
        assert opened is ann

    def test_catalog_unknown_tenant(self):
        catalog = StorageCatalog()
        with pytest.raises(NotFoundError):
            catalog.tenant("tenant-999999")
