"""Tests for repro.contracts: declarations, enforcement, governance.

Covers the contract model (field constraints, normalization rules,
serialization), the enforcer (policy handling, the message text of each
rule, agreement with a first-principles reference over generated
contracts and rows, drift majority voting), the
quarantine/replay loop through the platform facade (including additive
schema evolution and the retype guard), freshness SLA wiring, and every
platform governing its uploads while uncontracted tables load as
before.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import (
    NORMALIZE_RULES,
    VIOLATION_POLICIES,
    ContractEnforcer,
    ContractManager,
    DataContract,
    FieldContract,
    FreshnessSLA,
    normalize_value,
)
from repro.contracts.scenario import run_drifted_feed
from repro.core.datasources import SourceQuery
from repro.core.platform import Symphony
from repro.errors import (
    ConfigurationError,
    ContractViolationError,
    ValidationError,
)
from repro.gateway import Gateway
from repro.storage.records import FieldType
from repro.telemetry import Telemetry
from repro.util import SimClock


def products_contract(policy="quarantine", **overrides) -> DataContract:
    keys = dict(
        table="products",
        fields=(
            FieldContract("sku", FieldType.STRING, required=True,
                          normalize=("trim", "upper")),
            FieldContract("title", FieldType.STRING, required=True,
                          normalize=("collapse_ws",)),
            FieldContract("price", FieldType.FLOAT, min_value=0.0,
                          normalize=("strip_currency",)),
            FieldContract("platform", FieldType.STRING,
                          allowed=("PC", "Xbox", "PS3")),
        ),
        key_field="sku",
        policy=policy,
    )
    keys.update(overrides)
    return DataContract(**keys)


def clean_rows(n=4) -> list:
    return [
        {"sku": f" sku-{i} ", "title": f"Game  {i}",
         "price": f"${10 + i}.99", "platform": ("PC", "Xbox", "PS3")[i % 3]}
        for i in range(n)
    ]


class TestContractModel:
    def test_normalize_rules_chain(self):
        spec = FieldContract("name", normalize=("trim", "upper"))
        assert spec.normalized("  acme  ") == "ACME"

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValidationError):
            FieldContract("name", normalize=("shout",))

    def test_unit_normalization(self):
        value = normalize_value("1.2 kg", ("trim",), {"kg": 1000, "g": 1})
        assert value == 1200

    def test_non_string_passes_through(self):
        assert normalize_value(7, ("upper",)) == 7
        assert normalize_value(None, ("upper",)) is None

    def test_contract_needs_fields(self):
        with pytest.raises(ValidationError):
            DataContract(table="t", fields=())

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValidationError):
            DataContract(table="t", fields=(
                FieldContract("a"), FieldContract("a")))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            products_contract(policy="shrug")

    def test_key_field_must_be_declared(self):
        with pytest.raises(ValidationError):
            products_contract(key_field="upc")

    def test_canonical_key_normalizes(self):
        contract = products_contract()
        key = contract.spec(contract.key_field)
        assert key.normalized("  abc-1 ") == "ABC-1"

    def test_schema_mirrors_fields(self):
        schema = products_contract().schema()
        assert schema.field_names() == ["sku", "title", "price",
                                        "platform"]
        assert schema.spec("price").type is FieldType.FLOAT

    def test_freshness_sla_validation(self):
        with pytest.raises(ValidationError):
            FreshnessSLA(0)
        with pytest.raises(ValidationError):
            FreshnessSLA(1000, objective=1.5)


class TestEnforcer:
    def enforcer(self, **overrides) -> ContractEnforcer:
        return ContractEnforcer(products_contract(**overrides))

    def test_clean_batch_normalized_and_typed(self):
        result = self.enforcer().enforce(clean_rows())
        assert not result.violations
        first = result.rows[0]
        assert first == {"sku": "SKU-0", "title": "Game 0",
                         "price": 10.99, "platform": "PC"}
        assert isinstance(first["price"], float)

    def test_every_violation_rule_fires(self):
        rows = [
            {"sku": "", "title": "A", "price": "$1", "platform": "PC"},
            {"sku": "s1", "title": "B", "price": "free", "platform": "PC"},
            {"sku": "s2", "title": "C", "price": "-4", "platform": "PC"},
            {"sku": "s3", "title": "D", "price": "$1", "platform": "Wii"},
            {"sku": "s4", "title": "E", "price": "$1", "platform": "PC",
             "rating": 5},
        ]
        result = self.enforcer().enforce(rows)
        rules = {v.rule for v in result.violations}
        assert rules == {"required", "type", "range", "enum", "extra"}
        assert len(result.quarantined) == 5
        assert not result.rows

    def test_nullable_empty_value_loads_as_none(self):
        row = {"sku": "s", "title": "T", "price": "", "platform": "PC"}
        result = self.enforcer().enforce([row])
        assert not result.violations
        assert result.rows[0]["price"] is None

    def test_each_rule_message_text(self):
        """Quarantine reports and ``contract.violation`` events print
        these, so the wording is part of the behaviour."""
        rows = [
            {"sku": "", "title": "A", "price": "$1", "platform": "PC"},
            {"sku": "s1", "title": "B", "price": "free", "platform": "PC"},
            {"sku": "s2", "title": "C", "price": "-4", "platform": "PC"},
            {"sku": "s3", "title": "D", "price": "$1", "platform": "Wii"},
            {"sku": "s4", "title": "E", "price": "$1", "platform": "PC",
             "rating": 5},
        ]
        result = self.enforcer().enforce(rows)
        assert [(v.row_index, v.field, v.rule, v.message, v.value)
                for v in result.violations] == [
            (0, "sku", "required", "field 'sku' is required but empty",
             None),
            (1, "price", "type",
             "field 'price': cannot interpret 'free' as float", "free"),
            (2, "price", "range",
             "field 'price': -4.0 below minimum 0.0", -4.0),
            (3, "platform", "enum",
             "field 'platform': 'Wii' not in allowed set "
             "['PC', 'Xbox', 'PS3']", "Wii"),
            (4, "rating", "extra",
             "field 'rating' is not in the contract", 5),
        ]
        stock = ContractEnforcer(DataContract(table="stock", fields=(
            FieldContract("count", FieldType.INTEGER, max_value=9),)))
        assert [v.message for v in stock.enforce(
            [{"count": "12"}]).violations] == [
            "field 'count': 12 above maximum 9"]

    def test_bounds_are_inclusive(self):
        stock = ContractEnforcer(DataContract(table="stock", fields=(
            FieldContract("count", FieldType.INTEGER,
                          min_value=0, max_value=9),)))
        result = stock.enforce([{"count": n} for n in (-1, 0, 9, 10)])
        assert [row["count"] for row in result.rows] == [0, 9]
        assert [(v.row_index, v.rule) for v in result.violations] == [
            (0, "range"), (3, "range")]

    def test_bool_never_lands_in_a_numeric_column(self):
        row = {"sku": "s", "title": "T", "price": True, "platform": "PC"}
        result = self.enforcer().enforce([row])
        assert [(v.field, v.rule) for v in result.violations] == [
            ("price", "type")]

    def test_coerce_policy_counts_safe_casts(self):
        rows = [{"sku": "s", "title": "T", "price": "1,299",
                 "platform": "pc"}]
        result = self.enforcer(policy="coerce").enforce(rows)
        assert not result.violations
        # "1,299" is fixed by strip_currency *normalization* (not a
        # cast); only the enum casefold counts as a coercion.
        assert result.rows[0]["price"] == 1299.0
        assert result.rows[0]["platform"] == "PC"
        assert result.coerced == 1

    def test_coerce_policy_casts_float_shaped_integers(self):
        contract = DataContract(table="stock", fields=(
            FieldContract("sku", FieldType.STRING, required=True),
            FieldContract("count", FieldType.INTEGER),
        ), policy="coerce")
        result = ContractEnforcer(contract).enforce(
            [{"sku": "a", "count": "49.0"},
             {"sku": "b", "count": "49.5"}])
        assert result.rows[0]["count"] == 49
        assert result.coerced == 1
        assert [v.rule for v in result.violations] == ["type"]

    def test_allow_extra_fields_drops_silently(self):
        rows = [{"sku": "s", "title": "T", "price": "$2",
                 "platform": "PC", "rating": 5}]
        result = self.enforcer(allow_extra_fields=True).enforce(rows)
        assert not result.violations
        assert not result.drift.drifted
        assert "rating" not in result.rows[0]


# -- the enforcer against a first-principles reading of the contract --------

_TRUTH = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}
_TIDY = {"trim": str.strip, "lower": str.lower, "upper": str.upper,
         "title": str.title, "collapse_ws": lambda t: " ".join(t.split()),
         "strip_currency": lambda t: re.sub("[$€£¥,]", "", t).strip()}
_SHAPE = {FieldType.DATE: r"\d{4}-\d\d-\d\d", FieldType.URL: r"https?://\S+"}


def reference_cell(f, v, coerce):
    """One cell → (typed value, rules broken, casts), from the prose of
    ``FieldContract`` and ``DataContract.policy`` alone."""
    if isinstance(v, str):
        for rule in f.normalize:
            v = _TIDY[rule](v)
        unit = re.fullmatch(r"([+-]?\d+(?:\.\d+)?)\s*([A-Za-z]+)", v.strip())
        factor = unit and (f.units.get(unit[2])
                           or f.units.get(unit[2].lower()))
        if factor:
            v = float(unit[1]) * factor
            v = int(v) if v == int(v) else v
    if v is None or v == "":
        return None, ["required"] * (f.required or not f.nullable), 0

    def judge(typed):
        number = type(typed) in (int, float)
        low = number and f.min_value is not None and typed < f.min_value
        high = number and f.max_value is not None and typed > f.max_value
        return (["enum"] * bool(f.allowed and typed not in f.allowed)
                + ["range"] * (low + high))
    text = str(v).strip()
    try:
        if f.type in _SHAPE:
            typed = re.fullmatch(_SHAPE[f.type], text)[0]
        elif f.type is FieldType.BOOLEAN:
            typed = v if isinstance(v, bool) else _TRUTH[text.lower()]
        else:   # a bool reads "True": never a number
            typed = {FieldType.INTEGER: int, FieldType.FLOAT: float}.get(
                f.type, lambda _: str(v))(text)
        rules = judge(typed)[:1]    # an uncast value: the first one only
    except (ValueError, TypeError, KeyError):
        typed, rules = None, ["type"]
    if rules and coerce:    # lossless casts: "1,299", "49.0", enum case
        cast = [c for c in f.allowed if str(c).casefold() == text.casefold()]
        try:
            number = float(text.replace(",", "").replace("_", ""))
            if f.type is FieldType.FLOAT:
                cast = [number]
            elif f.type is FieldType.INTEGER and number == int(number):
                cast = [int(number)]
        except (ValueError, OverflowError):
            pass
        if cast:
            return cast[0], judge(cast[0]), 1
    return typed, rules, 0


_NAMES = ("a", "b", "c")
_ABSENT = object()
_ENUM = {
    FieldType.STRING: ("PC", "Xbox", "x", "1"),
    FieldType.TEXT: ("PC", "Xbox", 2),
    FieldType.INTEGER: (1, 2, 3, "x"),
    FieldType.FLOAT: (2.0, 3.5, 1, True),
    FieldType.BOOLEAN: (True, "true"),
    FieldType.DATE: ("2010-01-02", "PC"),
    FieldType.URL: ("http://a.example/b", "x"),
}
_CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(-9, 9),
    st.floats(-9, 9, allow_nan=False).map(lambda x: round(x, 2)),
    st.sampled_from((
        "", "  ", "PC", "pc", " xbox ", "X", "1", " 2 ", "3.5", "-4", "+7",
        "1,299", "49.0", "49.5", "1_0", "$5", "£3.50", "free", "nan", "inf",
        "1e3", "true", "No", "TRUE", "2010-01-02", "2010-1-2",
        "http://a.example/b", "ftp://a.example", "1.2 kg", "3 g", "4k",
        "2 K", "a  b\tc", "Mixed Case")),
    st.text("aB1 $,.-", max_size=5),
)


_GOOD = {
    FieldType.STRING: ("PC", " xbox ", "Mixed Case", "a  b", "1.2 kg", 7),
    FieldType.TEXT: ("PC", "some longer  text", "£3.50", 2.5),
    FieldType.INTEGER: (0, 3, -4, "7", " 2 ", "+1", "3 g"),
    FieldType.FLOAT: (0, 2.5, -1.0, "3.5", "$5", "1.2 kg", "1e1"),
    FieldType.BOOLEAN: (True, False, "yes", "0", "TRUE"),
    FieldType.DATE: ("2010-01-02", " 1999-12-31 "),
    FieldType.URL: ("http://a.example/b", "https://x.example"),
}


def _plausible(f):
    """Cells that usually satisfy ``f``: its enum when it has one (in
    either case), else values of its type."""
    return st.sampled_from(
        f.allowed + tuple(str(c).swapcase() for c in f.allowed)
        or _GOOD[f.type])


@st.composite
def contracts_and_rows(draw):
    bound = st.sampled_from((None, None, -4, 0, 3, 2.5))
    kinds = draw(st.lists(st.sampled_from(list(FieldType)),
                          min_size=1, max_size=3))
    fields = tuple(
        FieldContract(
            name, kind,
            required=draw(st.booleans()), nullable=draw(st.booleans()),
            min_value=draw(bound), max_value=draw(bound),
            allowed=tuple(draw(st.lists(st.sampled_from(_ENUM[kind]),
                                        max_size=3, unique=True))),
            normalize=tuple(draw(st.lists(
                st.sampled_from(sorted(NORMALIZE_RULES)), max_size=2))),
            units=draw(st.sampled_from(({}, {}, {"kg": 1000, "g": 1},
                                        {"k": 0.5}))),
        )
        for name, kind in zip(_NAMES, kinds)
    )
    contract = DataContract(
        table="t", fields=fields,
        policy=draw(st.sampled_from(VIOLATION_POLICIES)),
        allow_extra_fields=draw(st.booleans()))
    rows = draw(st.lists(st.fixed_dictionaries({
        **{f.name: st.one_of(_plausible(f), _plausible(f), _plausible(f),
                             _CELLS, st.just(_ABSENT))
           for f in fields},
        "extra": st.one_of(st.just(_ABSENT), st.just(_ABSENT), _CELLS),
    }), max_size=5))
    rows = [{name: cell for name, cell in row.items()
             if cell is not _ABSENT} for row in rows]
    return contract, rows


class TestEnforcerAgainstReference:
    @settings(max_examples=400)
    @given(contracts_and_rows())
    def test_enforce_agrees_with_reference(self, case):
        contract, rows = case
        declared = [f.name for f in contract.fields]
        clean, broken, coerced = [], [], 0
        for index, raw in enumerate(rows):
            cells = [reference_cell(f, raw.get(f.name),
                                    contract.policy == "coerce")
                     for f in contract.fields]
            bad = [(index, name, rule)
                   for name, (_, rules, _) in zip(declared, cells)
                   for rule in rules]
            if not contract.allow_extra_fields:
                bad += [(index, name, "extra")
                        for name in raw if name not in declared]
            broken += bad
            if not bad:
                clean.append({name: typed for name, (typed, _, _)
                              in zip(declared, cells)})
                coerced += sum(casts for _, _, casts in cells)

        result = ContractEnforcer(contract).enforce(rows)

        def typed(batch):
            return [[(k, type(v), v) for k, v in row.items()]
                    for row in batch]
        assert typed(result.rows) == typed(clean)
        assert [(v.row_index, v.field, v.rule)
                for v in result.violations] == broken
        assert result.coerced == coerced
        assert [raw for raw, _ in result.quarantined] == [
            rows[index] for index in dict.fromkeys(b[0] for b in broken)]


class TestDriftDetection:
    def detect(self, rows, **overrides):
        return ContractEnforcer(
            products_contract(**overrides)).detect_drift(rows)

    def test_added_column(self):
        rows = [dict(r, rating="5") for r in clean_rows()]
        drift = self.detect(rows)
        assert drift.added == ("rating",)

    def test_missing_column(self):
        rows = [{"sku": "s", "title": "T"} for __ in range(3)]
        drift = self.detect(rows)
        assert "price" in drift.missing and "platform" in drift.missing

    def test_retype_needs_majority(self):
        rows = clean_rows(4)
        rows[0]["price"] = "call us"          # one typo: not drift
        assert not self.detect(rows).retyped
        for row in rows[:3]:                  # majority strings: drift
            row["price"] = "call us"
        retyped = self.detect(rows).retyped
        assert [name for name, __, __ in retyped] == ["price"]

    def test_normalization_applies_before_classification(self):
        # "$49.99" classifies as FLOAT once strip_currency runs, so a
        # currency-formatted feed is not retype drift.
        assert not self.detect(clean_rows()).drifted


class TestGovernedPlatform:
    @pytest.fixture()
    def governed(self):
        symphony = Symphony(telemetry=True)
        account = symphony.register_designer("Dana")
        return symphony, account

    def test_reject_policy_raises(self, governed):
        symphony, account = governed
        symphony.register_contract(
            account, products_contract(policy="reject"))
        bad = clean_rows() + [{"sku": "", "title": "x", "price": "$1",
                               "platform": "PC"}]
        with pytest.raises(ContractViolationError):
            symphony.upload_structured_data(account, bad,
                                            table_name="products")

    def test_quarantine_and_replay_idempotence(self, governed):
        symphony, account = governed
        symphony.register_contract(account, products_contract())
        rows = clean_rows() + [
            {"sku": "sku-bad", "title": "B", "price": "call us",
             "platform": "PC"},
        ]
        report = symphony.upload_structured_data(
            account, rows, table_name="products")
        tenant_id = account.tenant.tenant_id
        assert report.inserted == 4 and report.quarantined == 1
        assert len(symphony.contracts.quarantined_rows(
            tenant_id, "products")) == 1

        # Replay without fixing anything: the row re-quarantines
        # exactly once instead of duplicating or vanishing.
        replay = symphony.replay_quarantine(account, "products")
        assert replay.inserted == 0 and replay.quarantined == 1
        assert len(symphony.contracts.quarantined_rows(
            tenant_id, "products")) == 1

        # Relax the contract (price becomes STRING is a retype — not
        # allowed — so drop the constraint instead via a nullable
        # free-text note field and a fixed feed): here we simply fix
        # the row by replaying after the producer re-sends it clean.
        symphony.upload_structured_data(
            account,
            [{"sku": "sku-bad", "title": "B", "price": "$9.99",
              "platform": "PC"}],
            table_name="products")
        table = account.tenant.table("products")
        assert len(table) == 5

    def test_upsert_under_schema_drift(self, governed):
        """A refresh that adds a column (after a widened v2 contract)
        must upsert by canonical key, not duplicate rows."""
        symphony, account = governed
        symphony.register_contract(account, products_contract())
        symphony.upload_structured_data(
            account, clean_rows(), table_name="products")
        table = account.tenant.table("products")
        assert len(table) == 4

        v2 = products_contract(version=2, fields=(
            *products_contract().fields,
            FieldContract("rating", FieldType.FLOAT),
        ))
        symphony.register_contract(account, v2)
        drifted = [
            {"sku": " SKU-0 ", "title": "Game 0 (GOTY)",
             "price": "$49.99", "platform": "PC", "rating": "4.5"},
            {"sku": "sku-9", "title": "New Game", "price": "$59.99",
             "platform": "PS3", "rating": "3.0"},
        ]
        report = symphony.upload_structured_data(
            account, drifted, table_name="products")
        assert report.updated == 1 and report.inserted == 1
        assert len(table) == 5
        updated = table.find("sku", "SKU-0")[0]
        assert updated.values["rating"] == 4.5
        assert updated.values["title"] == "Game 0 (GOTY)"
        # Pre-evolution rows read None for the new column.
        old = table.find("sku", "SKU-1")[0]
        assert old.values.get("rating") is None

    def test_first_load_honours_key_field(self, governed):
        """Two spellings of one key in a table's *first* upload are one
        record (the last wins), so the next delta can upsert it."""
        symphony, account = governed
        symphony.register_contract(account, products_contract())
        first = symphony.upload_http(
            account, "products.csv",
            b"sku,title,price,platform\n"
            b" a ,First,$1,PC\nb,Bee,$2,PC\na,Second,$3,Xbox\n",
            "products", content_type="text/csv")
        assert (first.inserted, first.updated) == (2, 1)
        table = account.tenant.table("products")
        assert [(r.values["sku"], r.values["title"]) for r in table] == [
            ("A", "Second"), ("B", "Bee")]
        delta = symphony.upload_http(
            account, "delta.csv",
            b"sku,title,price,platform\nA,Third,$4,PS3\nc,Cee,$5,PC\n",
            "products", content_type="text/csv")
        assert (delta.inserted, delta.updated) == (1, 1)
        assert [r.values["title"] for r in table] == [
            "Third", "Bee", "Cee"]

    def test_retype_guard_fails_upfront(self, governed):
        symphony, account = governed
        symphony.register_contract(account, products_contract())
        symphony.upload_structured_data(
            account, clean_rows(), table_name="products")
        retyped = products_contract(version=2, fields=(
            FieldContract("sku", FieldType.STRING, required=True),
            FieldContract("title", FieldType.STRING, required=True),
            FieldContract("price", FieldType.STRING),
            FieldContract("platform", FieldType.STRING),
        ))
        with pytest.raises(ConfigurationError):
            symphony.register_contract(account, retyped)

    def test_contract_events_and_metrics(self, governed):
        symphony, account = governed
        symphony.register_contract(account, products_contract())
        rows = clean_rows() + [dict(clean_rows()[0], sku="",
                                    rating="extra")]
        symphony.upload_structured_data(account, rows,
                                        table_name="products")
        events = symphony.telemetry.events
        assert events.by_kind("contract.drift")
        assert events.by_kind("contract.violation")

    def test_status_and_report(self, governed):
        symphony, account = governed
        symphony.register_contract(account, products_contract())
        symphony.upload_structured_data(
            account, clean_rows(), table_name="products")
        status = symphony.contract_status(account.tenant.tenant_id)
        assert status["tables"][0]["loaded"] == 4
        assert "products" in symphony.contract_report()


class TestFreshnessIntegration:
    def test_drifted_feed_scenario_end_to_end(self):
        symphony = Symphony(slo=True)
        report = run_drifted_feed(symphony)
        failed = [c for c in report.checks if not c.ok]
        assert report.ok, failed
        assert report.quarantined == 3
        assert report.replayed == 1 and report.requarantined == 2

    def test_stale_feed_flagged_and_recovered(self):
        clock = SimClock()
        manager = ContractManager(clock, telemetry=Telemetry(clock))
        manager.register("t1", products_contract(
            freshness=FreshnessSLA(5_000)))
        manager.mark_refreshed("t1", "products")
        clock.advance(4_000)
        assert manager.check_freshness() == []
        clock.advance(2_000)
        stale = manager.check_freshness()
        assert [(f.tenant_id, f.table) for f in stale] == \
            [("t1", "products")]
        assert manager.source_status("t1", "products")["stale"]
        # Recovery is edge-triggered on the next check() pass.
        manager.mark_refreshed("t1", "products")
        assert manager.check_freshness() == []
        assert not manager.source_status("t1", "products")["stale"]


    def test_dropping_the_sla_stops_judging_the_feed(self):
        clock = SimClock()
        telemetry = Telemetry(clock)
        manager = ContractManager(clock, telemetry=telemetry)
        manager.register("t1", products_contract(
            freshness=FreshnessSLA(5_000)))
        manager.register("t1", products_contract(version=2))
        clock.advance(10_000)
        assert manager.check_freshness() == []
        assert "stale" not in manager.source_status("t1", "products")
        gauge = telemetry.metrics.gauge(
            "contract_staleness_ms", tenant="t1", table="products")
        assert gauge.value == 0.0


class TestEveryPlatformGoverns:
    def test_bare_platform_quarantines_violating_row(self):
        symphony = Symphony()
        account = symphony.register_designer("Ann")
        symphony.register_contract(account, products_contract())
        assert isinstance(symphony.contracts, ContractManager)
        rows = clean_rows() + [{"sku": "sku-bad", "title": "B",
                                "price": "call us", "platform": "PC"}]
        report = symphony.upload_structured_data(
            account, rows, table_name="products")
        assert report.inserted == 4 and report.quarantined == 1
        assert len(symphony.contracts.quarantined_rows(
            account.tenant.tenant_id, "products")) == 1

    def test_uncontracted_table_loads_as_before(self):
        symphony = Symphony()
        account = symphony.register_designer("Ann")
        report = symphony.upload_structured_data(
            account, [{"a": "1", "b": " x "}, {"a": "2", "b": "y"}],
            table_name="plain")
        assert (report.inserted, report.updated) == (2, 0)
        assert (report.violations, report.quarantined,
                report.coerced, report.drift) == (0, 0, 0, False)
        table = account.tenant.table("plain")
        assert table.schema.spec("a").type is FieldType.INTEGER
        assert [r.values for r in table] == [
            {"a": 1, "b": " x "}, {"a": 2, "b": "y"}]
        assert symphony.contract_status()["tables"] == []
        source = symphony.add_proprietary_source(
            account, "plain", search_fields=("b",))
        result = source.search(SourceQuery(text="y"))
        assert result.total_matches == 1 and result.metadata == {}

    def test_gateway_builds_without_contracts(self):
        symphony = Symphony()
        gateway = Gateway(symphony.runtime, symphony.apps,
                          symphony.sources, symphony.clock,
                          symphony.generations)
        assert gateway.stats()["submitted"] == 0
        assert not hasattr(gateway, "contract_status")
