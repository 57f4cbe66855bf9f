"""Unit tests for the basic meta functions: identity, casing, constant, arithmetic."""

import pickle

import pytest

from repro.functions import (
    IDENTITY,
    Addition,
    AdditionMeta,
    ConstantValue,
    ConstantValueMeta,
    Division,
    DivisionMeta,
    Identity,
    IdentityMeta,
    Lowercasing,
    LowercasingMeta,
    Multiplication,
    MultiplicationMeta,
    Uppercasing,
    UppercasingMeta,
    ValueMapping,
)
from repro.functions.affix import Prefixing
from repro.functions.dates import DateConversion


class TestIdentity:
    def test_apply(self):
        assert IDENTITY.apply("anything") == "anything"

    def test_description_length_zero(self):
        assert IDENTITY.description_length == 0

    def test_is_identity_flag(self):
        assert IDENTITY.is_identity
        assert not ConstantValue("x").is_identity

    def test_equality_and_hash(self):
        assert Identity() == IDENTITY
        assert hash(Identity()) == hash(IDENTITY)

    def test_meta_induces_only_on_equal_values(self):
        meta = IdentityMeta()
        assert list(meta.induce("a", "a")) == [IDENTITY]
        assert list(meta.induce("a", "b")) == []


class TestCasing:
    def test_uppercasing(self):
        assert Uppercasing().apply("Sap") == "SAP"
        assert Uppercasing().description_length == 0

    def test_lowercasing(self):
        assert Lowercasing().apply("SAP") == "sap"

    def test_uppercasing_meta_requires_visible_effect(self):
        meta = UppercasingMeta()
        assert list(meta.induce("abc", "ABC"))
        assert not list(meta.induce("ABC", "ABC"))
        assert not list(meta.induce("abc", "abd"))

    def test_lowercasing_meta(self):
        meta = LowercasingMeta()
        assert list(meta.induce("ABC", "abc"))
        assert not list(meta.induce("abc", "abc"))


class TestConstant:
    def test_apply_ignores_input(self):
        function = ConstantValue("k $")
        assert function.apply("USD") == "k $"
        assert function.apply("") == "k $"

    def test_description_length_one(self):
        assert ConstantValue("x").description_length == 1

    def test_covers(self):
        assert ConstantValue("k $").covers("USD", "k $")
        assert not ConstantValue("k $").covers("USD", "EUR")

    def test_meta_skips_identity_like_examples(self):
        meta = ConstantValueMeta()
        assert [f.constant for f in meta.induce("USD", "k $")] == ["k $"]
        assert not list(meta.induce("same", "same"))

    def test_equality(self):
        assert ConstantValue("a") == ConstantValue("a")
        assert ConstantValue("a") != ConstantValue("b")


class TestAddition:
    def test_apply(self):
        assert Addition(5).apply("10") == "15"
        assert Addition(-5).apply("10") == "5"
        assert Addition("0.5").apply("1.5") == "2"

    def test_not_applicable_to_strings(self):
        assert Addition(1).apply("abc") is None

    def test_description_length(self):
        assert Addition(7).description_length == 1

    def test_meta_induction(self):
        candidates = list(AdditionMeta().induce("10", "15"))
        assert len(candidates) == 1
        assert candidates[0].apply("100") == "105"

    def test_meta_skips_zero_delta(self):
        assert not list(AdditionMeta().induce("10", "10"))

    def test_meta_skips_non_numeric(self):
        assert not list(AdditionMeta().induce("a", "5"))
        assert not list(AdditionMeta().induce("5", "a"))


class TestDivisionAndMultiplication:
    def test_division_running_example(self):
        division = Division(1000)
        assert division.apply("80000") == "80"
        assert division.apply("6540") == "6.54"
        assert division.apply("65") == "0.065"
        assert division.apply("0") == "0"

    def test_division_by_zero_rejected(self):
        with pytest.raises(ValueError):
            Division(0)

    def test_division_not_applicable_to_text(self):
        assert Division(2).apply("two") is None

    def test_multiplication(self):
        assert Multiplication(1000).apply("0.065") == "65"
        assert Multiplication(3).apply("7") == "21"

    def test_division_meta_handles_shrinking_values(self):
        candidates = list(DivisionMeta().induce("6540", "6.54"))
        assert len(candidates) == 1
        assert candidates[0] == Division(1000)

    def test_division_meta_ignores_growing_values(self):
        assert not list(DivisionMeta().induce("5", "50"))

    def test_multiplication_meta_handles_growing_values(self):
        candidates = list(MultiplicationMeta().induce("5", "50"))
        assert candidates == [Multiplication(10)]

    def test_multiplication_meta_ignores_shrinking_values(self):
        assert not list(MultiplicationMeta().induce("50", "5"))

    def test_metas_skip_zero_sources_and_targets(self):
        assert not list(DivisionMeta().induce("0", "5"))
        assert not list(DivisionMeta().induce("5", "0"))
        assert not list(MultiplicationMeta().induce("0", "5"))

    def test_division_description_length(self):
        assert Division(10).description_length == 1
        assert Multiplication(10).description_length == 1


HASHED_FUNCTIONS = [
    IDENTITY,
    Addition(5),
    Division(1000),
    ConstantValue("x"),
    Uppercasing(),
    Prefixing("p-"),
    DateConversion("yyyy-mm-dd", "dd.mm.yyyy"),
    ValueMapping({"a": "b", "c": "d"}),
]


class TestCachedHash:
    @pytest.mark.parametrize("function", HASHED_FUNCTIONS, ids=repr)
    def test_hash_is_the_meta_name_and_parameters_hash(self, function):
        expected = hash((function.meta_name, function.parameters))
        assert hash(function) == expected
        assert hash(function) == expected  # served from the cache

    @pytest.mark.parametrize("function", HASHED_FUNCTIONS, ids=repr)
    def test_pickle_round_trip_rehashes_instead_of_shipping_the_cache(self, function):
        hash(function)
        loaded = pickle.loads(pickle.dumps(function))
        # Another process may hash strings with a different seed, so the
        # cached value must be recomputed, not carried over.
        assert "_hash" not in vars(loaded)
        assert loaded == function
        assert hash(function) == hash(loaded)
