"""Tests of the canonical request type (repro.api.ExplainRequest)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BASE_CONFIGS,
    ExplainBudget,
    ExplainRequest,
    RequestValidationError,
    SCHEMA_VERSION,
    SCHEMA_VERSION_V2,
    TIERS,
    UnsupportedSchemaVersion,
    resolve_config,
    resolve_registry,
)
from repro.core import AffidavitConfig
from repro.functions import default_registry

SOURCE_CSV = "id,val\n1,100\n2,200\n"
TARGET_CSV = "id,val\n1,1\n2,2\n"


def inline_request(**kwargs):
    return ExplainRequest(source_csv=SOURCE_CSV, target_csv=TARGET_CSV, **kwargs)


# --------------------------------------------------------------------- #
# construction and validation
# --------------------------------------------------------------------- #
class TestValidation:
    def test_minimal_inline_request(self):
        request = inline_request()
        assert request.config == "hid"
        assert request.engine == "columnar"

    def test_needs_some_snapshots(self):
        with pytest.raises(RequestValidationError, match="no snapshots"):
            ExplainRequest()

    def test_rejects_mixed_transports(self):
        with pytest.raises(RequestValidationError, match="not both"):
            ExplainRequest(source_csv=SOURCE_CSV, target_csv=TARGET_CSV,
                           source_path="a.csv", target_path="b.csv")

    def test_rejects_half_inline(self):
        with pytest.raises(RequestValidationError):
            ExplainRequest(source_csv=SOURCE_CSV)

    def test_rejects_unknown_config(self):
        with pytest.raises(RequestValidationError, match="unknown config"):
            inline_request(config="bogus")

    def test_rejects_unknown_engine(self):
        with pytest.raises(RequestValidationError, match="unknown engine"):
            inline_request(engine="gpu")

    def test_rejects_unknown_override_names(self):
        with pytest.raises(RequestValidationError, match="unknown config overrides"):
            inline_request(overrides={"gamma": 1})

    def test_rejects_empty_or_duplicate_functions(self):
        with pytest.raises(RequestValidationError, match="functions"):
            inline_request(functions=())
        with pytest.raises(RequestValidationError, match="repeat"):
            inline_request(functions=("identity", "identity"))

    def test_rejects_bad_delimiter_and_throttle(self):
        with pytest.raises(RequestValidationError, match="delimiter"):
            inline_request(delimiter=";;")
        with pytest.raises(RequestValidationError, match="throttle_seconds"):
            inline_request(throttle_seconds="soon")
        with pytest.raises(RequestValidationError, match="throttle_seconds"):
            inline_request(throttle_seconds=-1)

    @pytest.mark.parametrize("overrides", [
        {"alpha": 7.0},
        {"alpha": -0.1},
        {"beta": 0},
        {"queue_width": 0},
        {"theta": 0.0},
        {"theta": 1.5},
        {"confidence": 1.0},
        {"start_strategy": "sideways"},
        {"max_block_size": 0},
        {"column_cache_entries": 0},
    ])
    def test_out_of_range_search_parameters_fail_at_construction(self, overrides):
        # AffidavitConfig.validate() runs during request construction, so
        # wire-format overrides cannot smuggle in an invalid configuration.
        with pytest.raises(ValueError):
            inline_request(overrides=overrides)


class TestConfigValidate:
    def test_validate_passes_on_legal_config(self):
        AffidavitConfig().validate()

    @pytest.mark.parametrize("field, value, match", [
        ("alpha", 1.5, "alpha must be in"),
        ("beta", 0, "beta must be >="),
        ("queue_width", 0, "queue_width must be >="),
        ("theta", 2.0, "theta must be in"),
        ("confidence", 0.0, "confidence must be in"),
        ("start_strategy", "diagonal", "start_strategy must be one of"),
    ])
    def test_constructor_rejects_out_of_range(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            AffidavitConfig(**{field: value})


class TestIntegerOverrides:
    """Integer search parameters arriving from the wire are type-checked:
    a float or a bool is rejected, never truncated or used as-is."""

    @pytest.mark.parametrize("field", [
        "beta", "queue_width", "max_block_size", "min_generation_successes",
        "max_expansions", "column_cache_entries", "blocking_cache_size",
    ])
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_non_integers_are_rejected(self, field, value):
        payload = inline_request().to_dict()
        payload["overrides"] = {field: value}
        with pytest.raises(RequestValidationError):
            ExplainRequest.from_dict(payload)

    @pytest.mark.parametrize("field", ["beta", "max_expansions"])
    def test_config_constructor_rejects_bools_and_floats(self, field):
        for value in (1.5, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                AffidavitConfig(**{field: value})

    def test_integer_values_and_unbounded_expansions_stay_accepted(self):
        config = resolve_config(inline_request(
            overrides={"beta": 3, "max_expansions": None, "queue_width": 2}
        ))
        assert (config.beta, config.max_expansions, config.queue_width) == (3, None, 2)
        assert resolve_config(
            inline_request(overrides={"max_expansions": "7"})
        ).max_expansions == 7

    @pytest.mark.parametrize("value", ["7.5", "seven"])
    def test_non_integer_strings_are_rejected(self, value):
        with pytest.raises(RequestValidationError):
            inline_request(overrides={"max_expansions": value})


class TestRetiredCacheBounds:
    """``column_cache_entries`` and ``blocking_cache_size`` are constants of
    the evaluator now.  As overrides they are validated exactly as when they
    were configuration fields (an ``int`` >= 1, ``bool`` rejected), then
    ignored."""

    FIELDS = ("column_cache_entries", "blocking_cache_size")

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [1, 2, 64, 4096, 10**12])
    def test_legal_values_are_accepted_and_ignored(self, field, value):
        payload = inline_request().to_dict()
        payload["overrides"] = {field: value, "seed": 4}
        request = ExplainRequest.from_dict(payload)
        assert dict(request.overrides)[field] == value
        assert resolve_config(request) == \
            resolve_config(inline_request(overrides={"seed": 4}))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [
        0, -1, -4096, 2.5, 2.0, 0.0, True, False, None, "7", "64", [4], {},
    ])
    def test_illegal_values_are_still_rejected(self, field, value):
        payload = inline_request().to_dict()
        payload["overrides"] = {field: value}
        with pytest.raises(RequestValidationError):
            ExplainRequest.from_dict(payload)

    @pytest.mark.parametrize("engine", ["columnar", "rowwise", "parallel"])
    def test_one_illegal_bound_rejects_the_request(self, engine):
        with pytest.raises(RequestValidationError):
            inline_request(engine=engine, overrides={
                "column_cache_entries": 8, "blocking_cache_size": 0,
            })
        inline_request(engine=engine, overrides={
            "column_cache_entries": 8, "blocking_cache_size": 2,
        })

    def test_bounds_are_no_longer_configuration_fields(self):
        for field in self.FIELDS:
            assert not hasattr(AffidavitConfig(), field)
            with pytest.raises(TypeError):
                AffidavitConfig().with_overrides(**{field: 8})


# --------------------------------------------------------------------- #
# resolution
# --------------------------------------------------------------------- #
class TestResolution:
    def test_engine_selects_columnar_cache(self):
        assert resolve_config(inline_request(engine="columnar")).columnar_cache is True
        assert resolve_config(inline_request(engine="rowwise")).columnar_cache is False

    def test_explicit_columnar_cache_override_wins(self):
        request = inline_request(engine="columnar",
                                 overrides={"columnar_cache": False})
        assert resolve_config(request).columnar_cache is False

    def test_base_config_and_overrides(self):
        request = inline_request(config="hs", overrides={"seed": 9, "beta": 3})
        config = resolve_config(request)
        assert config.start_strategy == "overlap"
        assert config.seed == 9 and config.beta == 3

    def test_registry_subset(self):
        request = inline_request(functions=("identity", "division"))
        registry = resolve_registry(request)
        assert registry.names == ["identity", "division"]

    def test_unknown_function_names_rejected(self):
        with pytest.raises(RequestValidationError, match="unknown meta functions"):
            resolve_registry(inline_request(functions=("identity", "teleport")))

    def test_no_subset_keeps_full_pool(self):
        assert resolve_registry(inline_request()).names == default_registry().names


# --------------------------------------------------------------------- #
# serialization round-trips
# --------------------------------------------------------------------- #
_names = sorted(default_registry().names)

_override_values = {
    "alpha": st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    "beta": st.integers(min_value=1, max_value=4),
    "queue_width": st.integers(min_value=1, max_value=8),
    "theta": st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    "seed": st.integers(min_value=0, max_value=2**31),
    "max_expansions": st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)),
    "columnar_cache": st.booleans(),
}

request_strategy = st.builds(
    inline_request,
    config=st.sampled_from(sorted(BASE_CONFIGS)),
    overrides=st.dictionaries(
        st.sampled_from(sorted(_override_values)), st.none(), max_size=4
    ).flatmap(
        lambda keys: st.fixed_dictionaries(
            {key: _override_values[key] for key in keys}
        )
    ),
    functions=st.one_of(
        st.none(),
        st.lists(st.sampled_from(_names), min_size=1, max_size=5, unique=True),
    ),
    engine=st.sampled_from(("columnar", "rowwise")),
    name=st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=20
    ),
    throttle_seconds=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    use_cache=st.booleans(),
)


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(request=request_strategy)
    def test_dict_round_trip_is_identity(self, request):
        assert ExplainRequest.from_dict(request.to_dict()) == request

    @settings(max_examples=60, deadline=None)
    @given(request=request_strategy)
    def test_json_round_trip_is_identity(self, request):
        payload = json.loads(json.dumps(request.to_dict()))
        assert ExplainRequest.from_dict(payload) == request

    def test_from_dict_ignores_key_order(self):
        payload = inline_request(overrides={"seed": 3, "beta": 2}).to_dict()
        shuffled = dict(reversed(list(payload.items())))
        shuffled["overrides"] = dict(reversed(list(payload["overrides"].items())))
        assert ExplainRequest.from_dict(payload) == ExplainRequest.from_dict(shuffled)

    def test_to_dict_carries_schema_version(self):
        assert inline_request().to_dict()["schema_version"] == SCHEMA_VERSION

    def test_missing_schema_version_is_accepted(self):
        payload = inline_request().to_dict()
        del payload["schema_version"]
        assert ExplainRequest.from_dict(payload) == inline_request()

    def test_unknown_schema_version_is_rejected(self):
        payload = inline_request().to_dict()
        payload["schema_version"] = "affidavit.request/v99"
        with pytest.raises(UnsupportedSchemaVersion, match="v99"):
            ExplainRequest.from_dict(payload)
        # ... and the rejection is catchable as a plain validation error.
        with pytest.raises(RequestValidationError):
            ExplainRequest.from_dict(payload)

    def test_unknown_fields_are_rejected(self):
        payload = inline_request().to_dict()
        payload["surprise"] = 1
        with pytest.raises(RequestValidationError, match="surprise"):
            ExplainRequest.from_dict(payload)


# --------------------------------------------------------------------- #
# the v2 wire format (budget + strategy)
# --------------------------------------------------------------------- #
_budget_strategy = st.builds(
    ExplainBudget,
    deadline_ms=st.one_of(
        st.none(), st.floats(min_value=0.01, max_value=1e6, allow_nan=False)
    ),
    max_compression_ratio=st.one_of(
        st.none(), st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
    ),
)

_strategy_strategy = st.one_of(
    st.none(),
    st.lists(st.sampled_from(TIERS), min_size=1, max_size=len(TIERS),
             unique=True).map(tuple),
)

v2_request_strategy = st.builds(
    inline_request,
    config=st.sampled_from(sorted(BASE_CONFIGS)),
    engine=st.sampled_from(("columnar", "rowwise")),
    budget=st.one_of(st.none(), _budget_strategy),
    strategy=_strategy_strategy,
    use_cache=st.booleans(),
)


class TestV2Serialization:
    @settings(max_examples=60, deadline=None)
    @given(request=v2_request_strategy)
    def test_dict_round_trip_is_identity_for_both_versions(self, request):
        # Plain requests round-trip through the v1 tag, budgeted/strategied
        # ones through v2 — either way from_dict(to_dict(r)) == r.
        payload = json.loads(json.dumps(request.to_dict()))
        assert payload["schema_version"] == request.schema_version
        assert ExplainRequest.from_dict(payload) == request

    def test_plain_request_serializes_at_v1(self):
        payload = inline_request().to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "budget" not in payload and "strategy" not in payload

    def test_budget_or_strategy_forces_v2(self):
        assert inline_request(budget=50).to_dict()["schema_version"] == SCHEMA_VERSION_V2
        assert (
            inline_request(strategy=("full",)).to_dict()["schema_version"]
            == SCHEMA_VERSION_V2
        )

    def test_v1_payload_must_not_smuggle_v2_fields(self):
        payload = inline_request().to_dict()
        payload["budget"] = 50
        with pytest.raises(RequestValidationError, match="require schema_version"):
            ExplainRequest.from_dict(payload)

    def test_bare_number_budget_is_coerced(self):
        request = inline_request(budget=50)
        assert request.budget == ExplainBudget(deadline_ms=50.0)

    def test_bad_budget_and_strategy_are_rejected(self):
        with pytest.raises(RequestValidationError, match="budget"):
            inline_request(budget=True)
        with pytest.raises(RequestValidationError, match="budget"):
            inline_request(budget=-5)
        with pytest.raises(RequestValidationError, match="strategy"):
            inline_request(strategy=())
        with pytest.raises(RequestValidationError, match="unknown strategy"):
            inline_request(strategy=("warp",))


class TestWireLeniency:
    def test_override_pairs_with_unorderable_values_fail_cleanly(self):
        # Duplicate keys with unorderable values must become a validation
        # error (HTTP 400), not a TypeError from sorting (HTTP 500).
        payload = inline_request().to_dict()
        payload["overrides"] = [["seed", 1], ["seed", {}]]
        with pytest.raises(RequestValidationError):
            ExplainRequest.from_dict(payload)

    def test_numeric_string_throttle_is_coerced(self):
        request = inline_request(throttle_seconds="0.5")
        assert request.throttle_seconds == 0.5
