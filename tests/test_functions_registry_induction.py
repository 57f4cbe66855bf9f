"""Unit tests for the function registry and example-based candidate induction."""

import pytest

from repro.functions import (
    CandidatePool,
    ConstantValue,
    Division,
    FunctionRegistry,
    IdentityMeta,
    PrefixReplacement,
    default_registry,
    induce_candidates,
    induce_from_example,
    sat_registry,
)
from repro.functions.identity import IDENTITY


class TestFunctionRegistry:
    def test_default_registry_contains_table1_families(self):
        registry = default_registry()
        for name in (
            "identity", "uppercasing", "constant", "addition", "division",
            "front_masking", "front_char_trimming", "prefixing", "prefix_replacement",
        ):
            assert name in registry

    def test_default_registry_includes_inverse_variants(self):
        registry = default_registry()
        for name in ("lowercasing", "multiplication", "suffixing",
                     "suffix_replacement", "back_masking", "back_char_trimming"):
            assert name in registry

    def test_date_extension_toggle(self):
        assert "date_conversion" in default_registry(include_dates=True)
        assert "date_conversion" not in default_registry(include_dates=False)

    def test_sat_registry_is_minimal(self):
        registry = sat_registry()
        assert set(registry.names) == {"identity", "boolean_negation"}

    def test_register_and_unregister(self):
        registry = FunctionRegistry()
        registry.register(IdentityMeta())
        assert "identity" in registry
        registry.unregister("identity")
        assert "identity" not in registry

    def test_duplicate_registration_rejected(self):
        registry = FunctionRegistry([IdentityMeta()])
        with pytest.raises(ValueError):
            registry.register(IdentityMeta())

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            FunctionRegistry().unregister("missing")

    def test_subset_preserves_order_and_rejects_unknown(self):
        registry = default_registry()
        subset = registry.subset(["division", "identity"])
        assert subset.names == ["division", "identity"]
        with pytest.raises(KeyError):
            registry.subset(["nope"])

    def test_copy_is_independent(self):
        registry = default_registry()
        clone = registry.copy()
        clone.unregister("identity")
        assert "identity" in registry

    def test_len_and_iteration(self):
        registry = default_registry(include_dates=False)
        assert len(registry) == len(list(registry)) == len(registry.names)


class TestInduceFromExample:
    def test_running_example_val_attribute(self):
        # Section 4.4.2: sampling T08 for Val can induce several candidates.
        registry = default_registry()
        candidates = induce_from_example(list(registry), "9800", "9.8")
        assert Division(1000) in candidates
        assert ConstantValue("9.8") in candidates

    def test_running_example_date_attribute(self):
        registry = default_registry()
        candidates = induce_from_example(list(registry), "99991231", "20180701")
        assert PrefixReplacement("9999123", "2018070") in candidates

    def test_equal_values_induce_identity(self):
        registry = default_registry()
        candidates = induce_from_example(list(registry), "IBM", "IBM")
        assert IDENTITY in candidates


class TestCandidatePool:
    def test_counts_each_candidate_once_per_example(self):
        registry = default_registry()
        pool = CandidatePool()
        # Two source values produce the same constant candidate; it must count once.
        pool.add_example(registry, ["10", "20"], "5")
        stats = pool.stats_for(ConstantValue("5"))
        assert stats is not None
        assert stats.generation_count == 1
        assert pool.examples_seen == 1

    def test_generation_counts_accumulate_over_examples(self):
        registry = default_registry()
        pool = CandidatePool()
        pool.add_example(registry, ["1000"], "1")
        pool.add_example(registry, ["2000"], "2")
        pool.add_example(registry, ["3000"], "3")
        counts = pool.generation_counts()
        assert counts[Division(1000)] == 3

    def test_filtered_by_threshold(self):
        registry = default_registry()
        pool = CandidatePool()
        pool.add_example(registry, ["1000"], "1")
        pool.add_example(registry, ["2000"], "2")
        survivors = pool.filtered(2)
        assert Division(1000) in survivors
        # constants are example-specific, generated only once each
        assert ConstantValue("1") not in survivors

    def test_examples_recorded_for_debugging(self):
        registry = default_registry()
        pool = CandidatePool()
        pool.add_example(registry, ["1000"], "1")
        stats = pool.stats_for(Division(1000))
        assert stats.examples == [("1000", "1")]


class TestInduceCandidatesHelper:
    def test_end_to_end_with_threshold(self):
        registry = default_registry()
        examples = [(["80000"], "80"), (["6540"], "6.54"), (["21000"], "21")]
        survivors = induce_candidates(registry, examples, min_generation_count=3)
        assert survivors == [Division(1000)]

    def test_threshold_one_keeps_everything(self):
        registry = default_registry()
        survivors = induce_candidates(registry, [(["5"], "50")], min_generation_count=1)
        assert len(survivors) >= 2  # multiplication and constant at least


class TestInductionMemo:
    def test_memoized_pool_matches_unmemoized_pool(self):
        from repro.functions.induction import InductionMemo

        registry = default_registry()
        examples = [(["80000", "abc"], "80"), (["80000"], "80"), (["abc"], "xabc")]
        memo = InductionMemo()
        plain = CandidatePool()
        for values, target in examples:
            plain.add_example(registry, values, target)
        counts, seen = memo.generation_counts(
            registry,
            [(position, target) for position, (_, target) in enumerate(examples)],
            lambda position: examples[position][0],
        )
        assert list(counts) == plain.candidates
        assert counts == plain.generation_counts()
        assert seen == plain.examples_seen
        assert memo.hits > 0  # the repeated value pair was served from the memo

    def test_memo_clears_when_full(self):
        from repro.functions.induction import InductionMemo

        memo = InductionMemo(max_entries=2)
        registry = default_registry()
        for value in ("1", "2", "3"):
            memo.generation_counts(registry, [(0, "9")], lambda _: [value])
        assert len(memo) <= 2
