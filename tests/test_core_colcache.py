"""Tests of the column cache and the columnar evaluation engine.

Covers the unit behaviour of :class:`repro.core.ColumnCache` (value-map
and code-map reuse, LRU eviction, statistics, the identity fast path,
non-cacheable functions) and the headline guarantee of the engine: columnar evaluation
with cross-state memoization returns **bit-identical** costs and
explanations to the row-wise fallback on randomized snapshot pairs.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import (
    Affidavit,
    AttributeCodec,
    ColumnCache,
    ColumnCacheStats,
    NOT_APPLICABLE,
    NOT_APPLICABLE_CODE,
    StateEvaluator,
    identity_configuration,
    overlap_configuration,
)
from repro.core.blocking import transformed_column
from repro.dataio import Schema, Table
from repro.datagen import generate_problem_instance
from repro.datagen.datasets import load_dataset
from repro.functions import IDENTITY, ValueMapping
from repro.functions.affix import Prefixing
from repro.functions.arithmetic import Addition
from repro.core.extension import PostingsIndex
from repro.linking.histogram import histogram_overlap, value_histogram


def value_map(function, values):
    """*function*'s value map over *values* in string space, inapplicable
    values mapped to the sentinel (the reference for the cache's code maps)."""
    return {
        value: NOT_APPLICABLE if function.apply(value) is None else function.apply(value)
        for value in values
    }


def mapped_histogram(mapping, value_counts):
    """The histogram of a slice under a code map from the cache or a
    :func:`value_map` (``None`` is the identity); inapplicable keys are
    dropped."""
    histogram = Counter()
    for key, count in value_counts.items():
        image = key if mapping is None else mapping[key]
        if image not in (NOT_APPLICABLE, NOT_APPLICABLE_CODE):
            histogram[image] += count
    return histogram


@pytest.fixture
def table() -> Table:
    schema = Schema(["num", "text"])
    return Table(schema, [
        ["1", "a"], ["2", "b"], ["1", "a"], ["3", "c"], ["2", "a"],
    ])


class TestColumnCache:
    def test_identity_is_zero_copy_and_counts_as_hit(self, table):
        cache = ColumnCache(table)
        transformed = cache.transformed("num", IDENTITY)
        assert transformed is table.column_view("num")
        assert cache.stats().hits == 1
        assert cache.stats().applications == 0

    def test_transformed_codes_match_rowwise_column(self, table):
        cache = ColumnCache(table)
        function = Addition(5)
        codes = cache.transformed_codes("num", function)
        codec = cache.codec("num")
        assert list(codes) == [
            codec.code_of(value)
            for value in transformed_column(table, "num", function)
        ]

    def test_enabled_cache_serves_no_string_columns(self, table):
        cache = ColumnCache(table)
        with pytest.raises(ValueError):
            cache.transformed("num", Addition(5))
        assert cache.transformed("num", IDENTITY) is table.column_view("num")

    def test_inapplicable_cells_become_sentinel(self, table):
        cache = ColumnCache(table)
        code_map = cache.code_map_for("text", Addition(5))
        assert {code_map[code] for code in cache.source_value_codes("text")} == {
            NOT_APPLICABLE_CODE
        }

    def test_value_map_is_reused_across_lookups(self, table):
        cache = ColumnCache(table)
        function = Addition(5)
        cache.code_map_for("num", function)
        first_applications = cache.stats().applications
        # Three distinct values -> three applications, not five.
        assert first_applications == 3
        cache.transformed_codes("num", function)
        stats = cache.stats()
        assert stats.applications == first_applications  # nothing recomputed
        assert stats.hits == 1 and stats.misses == 1

    def test_lru_eviction_and_stats(self, table):
        cache = ColumnCache(table, max_entries=1)
        cache.code_map_for("num", Addition(1))
        cache.code_map_for("num", Addition(2))   # evicts Addition(1)
        assert len(cache) == 1
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.entries == 1
        assert stats.max_entries == 1
        # Re-requesting the evicted entry is a miss again.
        cache.transformed_codes("num", Addition(1))
        assert cache.stats().misses == 3
        assert cache.stats().hits == 0

    def test_lru_order_is_by_recency(self, table):
        cache = ColumnCache(table, max_entries=2)
        cache.code_map_for("num", Addition(1))
        cache.code_map_for("num", Addition(2))
        cache.code_map_for("num", Addition(1))   # refresh Addition(1)
        cache.code_map_for("num", Addition(3))   # evicts Addition(2)
        assert cache.stats().evictions == 1
        cache.code_map_for("num", Addition(1))
        assert cache.stats().hits == 2          # still cached

    def test_value_mappings_are_not_cached(self, table):
        cache = ColumnCache(table)
        mapping = ValueMapping({"1": "x", "2": "y"})
        codes = cache.transformed_codes("num", mapping)
        code_of = cache.codec("num").code_of
        assert list(codes) == [code_of("x"), code_of("y"), code_of("x"),
                               NOT_APPLICABLE_CODE, code_of("y")]
        assert len(cache) == 0

    def test_disabled_cache_is_rowwise(self, table):
        cache = ColumnCache(table, enabled=False)
        function = Addition(5)
        first = cache.transformed("num", function)
        second = cache.transformed("num", function)
        assert first == second == transformed_column(table, "num", function)
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 2
        assert stats.applications == 2 * table.n_rows
        assert len(cache) == 0

    def test_clear_drops_entries_keeps_counters(self, table):
        cache = ColumnCache(table)
        cache.code_map_for("num", Addition(1))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1

    def test_max_entries_must_be_positive(self, table):
        with pytest.raises(ValueError):
            ColumnCache(table, max_entries=0)

    def test_stats_as_dict_round_trip(self, table):
        cache = ColumnCache(table)
        cache.code_map_for("num", Addition(1))
        payload = cache.stats().as_dict()
        assert payload["misses"] == 1
        assert payload["entries"] == 1
        assert 0.0 <= payload["hit_rate"] <= 1.0
        assert payload["applications"] == 3

    def test_hit_rate_of_empty_stats_is_zero(self):
        assert ColumnCacheStats().hit_rate == 0.0


class TestDictionaryEncoding:
    def test_codec_is_shared_across_columns_of_one_attribute(self, table):
        cache = ColumnCache(table)
        source_codes = cache.source_value_codes("num")
        other = ["1", "3", "9"]
        other_codes = cache.encoded_column("num", other)
        column = table.column_view("num")
        # Equal values <-> equal codes, across the source column and the
        # externally encoded one.
        for i, value in enumerate(column):
            for j, other_value in enumerate(other):
                assert (value == other_value) == (source_codes[i] == other_codes[j])

    def test_transformed_codes_mirror_transformed_strings(self, table):
        cache = ColumnCache(table)
        function = Addition(5)
        strings = list(ColumnCache(table, enabled=False).transformed("num", function))
        codes = list(cache.transformed_codes("num", function))
        assert len(strings) == len(codes)
        seen = {}
        for value, code in zip(strings, codes):
            assert seen.setdefault(value, code) == code
            assert (value == NOT_APPLICABLE) == (code == NOT_APPLICABLE_CODE)

    def test_inapplicable_cells_get_the_reserved_code(self, table):
        cache = ColumnCache(table)
        codes = cache.transformed_codes("text", Addition(1))  # fails on text
        assert set(codes) == {NOT_APPLICABLE_CODE}
        assert cache.codec("text").code_of(NOT_APPLICABLE) == NOT_APPLICABLE_CODE

    def test_identity_codes_are_the_source_codes(self, table):
        cache = ColumnCache(table)
        assert cache.transformed_codes("num", IDENTITY) is cache.source_value_codes("num")

    def test_code_arrays_are_cached_per_entry(self, table):
        cache = ColumnCache(table)
        function = Addition(5)
        first = cache.transformed_codes("num", function)
        assert cache.transformed_codes("num", function) is first

    def test_eviction_drops_code_arrays(self, table):
        cache = ColumnCache(table, max_entries=1)
        first = cache.transformed_codes("num", Addition(1))
        cache.transformed_codes("num", Addition(2))  # evicts Addition(1)
        assert cache.stats().evictions == 1
        rebuilt = cache.transformed_codes("num", Addition(1))
        assert rebuilt is not first
        assert list(rebuilt) == list(first)

    def test_encoded_column_is_cached_by_column_object(self, table):
        cache = ColumnCache(table)
        column = table.column_view("num")
        first = cache.encoded_column("num", column)
        assert cache.encoded_column("num", column) is first

    def test_code_histograms_match_string_histograms(self, table):
        cache = ColumnCache(table)
        function = Prefixing("p-")
        column = table.column_view("text")
        string_slices = [value_histogram(column[:3]), value_histogram(column[3:])]
        string_result = [mapped_histogram(value_map(function, column), s)
                         for s in string_slices]

        source_codes = cache.source_value_codes("text")
        code_slices = [value_histogram(source_codes[:3]), value_histogram(source_codes[3:])]
        code_map = cache.code_map_for("text", function)
        code_result = [mapped_histogram(code_map, s) for s in code_slices]
        # Same multiset of counts per slice (codes are a bijection on values).
        for strings, codes in zip(string_result, code_result):
            assert sorted(strings.values()) == sorted(codes.values())
            assert len(strings) == len(codes)

    def test_code_histograms_respect_restriction(self, table):
        cache = ColumnCache(table)
        source_codes = cache.source_value_codes("num")
        slices = [value_histogram(source_codes)]
        unrestricted = mapped_histogram(cache.code_map_for("num", IDENTITY), slices[0])
        wanted = {source_codes[0]}
        # Ranking restricts a candidate's histogram to the block's target
        # codes: a postings index whose one block targets exactly *wanted*.
        target = [code for code in source_codes if code in wanted]
        index = PostingsIndex(
            source_codes, target, [(range(len(source_codes)), range(len(target)))]
        )
        assert set(index.keys) >= wanted
        assert index.overlap(cache.code_map_for("num", IDENTITY)) == \
            unrestricted[source_codes[0]]

    def test_code_map_for_counts_one_lookup_per_call(self, table):
        cache = ColumnCache(table)
        first = cache.code_map_for("num", Addition(1))
        assert cache.code_map_for("num", Addition(1)) is first
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)
        assert cache.code_map_for("num", IDENTITY) is None
        assert cache.stats().hits == 2
        with pytest.raises(ValueError):
            ColumnCache(table, enabled=False).code_map_for("num", Addition(1))

    def test_code_arrays_require_the_columnar_engine(self, table):
        disabled = ColumnCache(table, enabled=False)
        with pytest.raises(ValueError):
            disabled.transformed_codes("num", Addition(1))
        # The identity needs no transform: its codes are the source codes.
        assert disabled.transformed_codes("num", IDENTITY) == \
            ColumnCache(table).source_value_codes("num")

    def test_evaluator_threads_the_columnar_flag(self, table):
        schema = Schema(["num", "text"])
        from repro.core import ProblemInstance
        instance = ProblemInstance(source=table, target=Table(schema, [["1", "a"]]))
        assert StateEvaluator(instance).column_cache.enabled
        assert not StateEvaluator(instance, columnar=False).column_cache.enabled

    def test_blocking_cache_info_counts_hits_and_misses(self, table):
        from repro.core import ProblemInstance, SearchState
        schema = Schema(["num", "text"])
        instance = ProblemInstance(source=table, target=Table(schema, [["1", "a"]]))
        evaluator = StateEvaluator(instance)
        state = SearchState.empty(instance.schema).extend("num", IDENTITY)
        evaluator.blocking(state)
        evaluator.blocking(state)
        info = evaluator.blocking_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1
        assert info["entries"] == 1
        assert info["max_entries"] == 64


class TestTransformedHistograms:
    def test_matches_per_cell_histograms(self, table):
        cache = ColumnCache(table)
        function = Prefixing("p")
        column = table.column_view("text")
        codes = cache.source_value_codes("text")
        slices = [value_histogram(codes[:3]), value_histogram(codes[3:])]
        code_map = cache.code_map_for("text", function)
        results = [mapped_histogram(code_map, s) for s in slices]
        code_of = cache.codec("text").code_of
        for cells, histogram in zip((column[:3], column[3:]), results):
            expected = value_histogram(code_of(function.apply(value)) for value in cells)
            assert histogram == expected

    def test_restriction_preserves_overlap(self, table):
        cache = ColumnCache(table)
        function = Prefixing("p")
        source_codes = cache.source_value_codes("text")
        code_map = cache.code_map_for("text", function)
        unrestricted = mapped_histogram(code_map, value_histogram(source_codes))
        target = cache.encoded_column("text", ["pa", "pa", "pz"])
        index = PostingsIndex(
            source_codes, target, [(range(len(source_codes)), range(len(target)))]
        )
        restricted = index.overlap(code_map)
        assert histogram_overlap(unrestricted, value_histogram(target)) == restricted


def _random_instances():
    """Small randomized snapshot pairs covering several datasets and noise
    levels (kept laptop-fast; the benchmark exercises the large ones)."""
    cases = []
    for dataset, records, eta, tau, seed in [
        ("flight-500k", 160, 0.3, 0.3, 1),
        ("flight-500k", 200, 0.1, 0.5, 2),
        ("iris", 150, 0.2, 0.2, 3),
        ("abalone", 180, 0.4, 0.1, 4),
    ]:
        table = load_dataset(dataset, records, seed=seed)
        generated = generate_problem_instance(table, eta=eta, tau=tau, seed=seed)
        cases.append(pytest.param(generated.instance, id=f"{dataset}-s{seed}"))
    return cases


class TestColumnarEquivalence:
    """The columnar engine must be a pure optimisation: same explanations,
    same costs, same search trajectory as the row-wise fallback."""

    @pytest.mark.parametrize("instance", _random_instances())
    def test_full_search_is_bit_identical(self, instance):
        columnar = Affidavit(identity_configuration()).explain(instance)
        rowwise = Affidavit(
            identity_configuration(columnar_cache=False)
        ).explain(instance)
        assert columnar.cost == rowwise.cost
        assert columnar.explanation.functions == rowwise.explanation.functions
        assert columnar.explanation.n_inserted == rowwise.explanation.n_inserted
        assert columnar.explanation.n_deleted == rowwise.explanation.n_deleted
        assert columnar.explanation.core_source_ids == rowwise.explanation.core_source_ids
        assert columnar.expansions == rowwise.expansions
        assert columnar.generated_states == rowwise.generated_states

    def test_overlap_configuration_is_bit_identical(self):
        table = load_dataset("flight-500k", 160, seed=5)
        instance = generate_problem_instance(table, eta=0.2, tau=0.3, seed=5).instance
        columnar = Affidavit(overlap_configuration()).explain(instance)
        rowwise = Affidavit(
            overlap_configuration(columnar_cache=False)
        ).explain(instance)
        assert columnar.cost == rowwise.cost
        assert columnar.explanation.functions == rowwise.explanation.functions

    def test_result_and_progress_carry_cache_stats(self, running_example):
        snapshots = []
        result = Affidavit(
            identity_configuration(), progress=snapshots.append
        ).explain(running_example)
        assert result.cache_stats is not None
        assert result.cache_stats.lookups > 0
        assert result.cache_stats.hit_rate > 0.0
        assert snapshots, "progress callback never fired"
        last = snapshots[-1]
        assert last.cache_hits + last.cache_misses > 0
        assert 0.0 <= last.cache_hit_rate <= 1.0

    def test_rowwise_engine_reports_no_cached_entries(self, running_example):
        config = identity_configuration(columnar_cache=False)
        result = Affidavit(config).explain(running_example)
        assert result.cache_stats is not None
        assert result.cache_stats.entries == 0


class TestDictionaryAndCodecEdgeCases:
    """Degenerate and adversarial value domains through the two encoding
    layers: ``Column.dictionary()`` (column-local) and ``AttributeCodec``
    (shared per-attribute code space).  Surfaced by the fuzzing harness —
    kept as targeted unit tests so the properties stay pinned."""

    def test_empty_column_dictionary(self):
        table = Table(Schema(["A"]), [])
        codes, codebook = table.column_view("A").dictionary()
        assert codes == []
        assert codebook == {}
        assert table.column_view("A").distinct_count() == 0

    def test_single_distinct_value_column(self):
        table = Table(Schema(["A"]), [["same"], ["same"], ["same"]])
        column = table.column_view("A")
        codes, codebook = column.dictionary()
        assert codes == [0, 0, 0]
        assert codebook == {"same": 0}
        assert column.distinct_count() == 1

    def test_dictionary_decodes_back_to_the_column(self):
        table = Table(Schema(["A"]), [["x"], ["y"], ["x"], [""], ["y"]])
        column = table.column_view("A")
        codes, codebook = column.dictionary()
        decode = {code: value for value, code in codebook.items()}
        assert [decode[code] for code in codes] == list(column)
        # Injective: distinct values get distinct codes, densely numbered.
        assert sorted(codebook.values()) == list(range(len(codebook)))

    def test_all_sentinel_transformed_column_is_one_code(self, table):
        # A function inapplicable everywhere yields an all-NOT_APPLICABLE
        # column whose codes collapse onto the single reserved code.
        cache = ColumnCache(table, enabled=False)
        transformed = cache.transformed("text", Addition(5))
        assert set(transformed) == {NOT_APPLICABLE}
        codec = cache.codec("text")
        assert {codec.encode(cell) for cell in transformed} == {
            NOT_APPLICABLE_CODE
        }

    def test_codec_reserves_code_zero_for_the_sentinel(self):
        codec = AttributeCodec()
        assert codec.encode(NOT_APPLICABLE) == NOT_APPLICABLE_CODE
        assert codec.encode("anything") != NOT_APPLICABLE_CODE
        # Pre-assigned: the sentinel is known before any value is seen.
        assert len(codec) >= 1
        assert codec.code_of(NOT_APPLICABLE) == NOT_APPLICABLE_CODE

    def test_codec_is_stable_and_bijective_over_unicode(self):
        values = [
            "", " ", "\t", "NULL", "None",
            "Straße", "STRASSE", "ﬃ", "ﬁre",
            "ΚΌΣΜΕ", "κόσμε",
            "\U0001d518\U0001d52b\U0001d526\U0001d520\U0001d52c\U0001d521\U0001d522",
            " ", "‮tfel", "á", "á",
            "\U0001f642", "\U0001f642\U0001f642", "﻿", "&#x27;&#x27;",
        ]
        codec = AttributeCodec()
        first = [codec.encode(value) for value in values]
        second = [codec.encode(value) for value in values]
        assert first == second, "codes must be stable across encodings"
        assert len(set(first)) == len(values), "distinct values, distinct codes"
        assert NOT_APPLICABLE_CODE not in first

    def test_codec_distinguishes_surrogate_and_lookalike_values(self):
        # Lone surrogates survive CSV-of-weird-data paths via
        # surrogateescape; they must be ordinary, distinct values.
        values = ["\ud800", "\udfff", "\U000103ff", "<not-applicable>"]
        codec = AttributeCodec()
        codes = [codec.encode(value) for value in values]
        assert len(set(codes)) == len(values)
        assert NOT_APPLICABLE_CODE not in codes
        for value, code in zip(values, codes):
            assert codec.code_of(value) == code

    def test_unicode_column_dictionary_round_trip(self):
        # NFC/NFD lookalikes ("á" vs "á") stay distinct: the
        # engines compare byte-for-byte, never normalizing silently.
        rows = [["Straße"], ["STRASSE"], ["Straße"],
                ["\U0001f642"], ["á"], ["á"], ["\U0001f642"]]
        table = Table(Schema(["A"]), rows)
        column = table.column_view("A")
        codes, codebook = column.dictionary()
        assert len(codes) == len(rows)
        assert len(codebook) == 5
        decode = {code: value for value, code in codebook.items()}
        assert [decode[code] for code in codes] == [row[0] for row in rows]
