"""Unit tests for blocking under search states (Definitions 4.3/4.4)."""

import random
from array import array

import pytest

from repro.core import (
    NOT_APPLICABLE_CODE,
    ColumnCache,
    ProblemInstance,
    SearchState,
    build_blocking,
    refine_blocking,
    refine_blocking_bounds,
)
from repro.core.blocking import (
    NOT_APPLICABLE,
    blocking_components,
    max_distinct_source_values,
    transformed_column,
)
from repro.dataio import Schema, Table
from repro.datagen import generate_problem_instance
from repro.datagen.datasets import load_dataset
from repro.datagen.running_example import running_example_instance
from repro.functions import IDENTITY, ConstantValue, Division, ValueMapping


@pytest.fixture
def instance():
    schema = Schema(["kind", "amount"])
    source = Table(schema, [("A", "1000"), ("A", "2000"), ("B", "3000")])
    target = Table(schema, [("A", "1"), ("A", "2"), ("B", "3"), ("C", "9")])
    return ProblemInstance(source=source, target=target)


class TestBuildBlocking:
    def test_no_assignments_yields_single_block(self, instance):
        blocking = build_blocking(instance, SearchState.empty(instance.schema))
        assert len(blocking) == 1
        block = next(iter(blocking))
        assert len(block.source_ids) == 3
        assert len(block.target_ids) == 4

    def test_identity_assignment_groups_by_value(self, instance):
        state = SearchState.empty(instance.schema).extend("kind", IDENTITY)
        blocking = build_blocking(instance, state)
        assert len(blocking) == 3  # A, B, C
        mixed = blocking.mixed_blocks()
        assert len(mixed) == 2  # A and B have both sides

    def test_source_cells_are_transformed_before_blocking(self, instance):
        state = SearchState.empty(instance.schema).extend("amount", Division(1000))
        blocking = build_blocking(instance, state)
        # "1000"/1000 = "1" matches target "1": a mixed block must exist.
        assert any(
            block.is_mixed and len(block.source_ids) == 1 for block in blocking
        )

    def test_inapplicable_cells_never_match_targets(self, instance):
        state = SearchState.empty(instance.schema).extend("amount", ValueMapping({}))
        blocking = build_blocking(instance, state)
        assert blocking.unaligned_source_bound() == 3
        assert blocking.unaligned_target_bound() == 4

    def test_transformed_column_marks_inapplicable_cells(self, instance):
        column = transformed_column(instance.source, "amount", ValueMapping({"1000": "x"}))
        assert column == ["x", NOT_APPLICABLE, NOT_APPLICABLE]


class TestBounds:
    def test_bounds_with_no_assignment(self, instance):
        blocking = build_blocking(instance, SearchState.empty(instance.schema))
        assert blocking.unaligned_target_bound() == 1  # |T| - |S|
        assert blocking.unaligned_source_bound() == 0

    def test_bounds_with_identity(self, instance):
        state = SearchState.empty(instance.schema).extend("kind", IDENTITY)
        blocking = build_blocking(instance, state)
        # block C has a target but no source record
        assert blocking.unaligned_target_bound() == 1
        assert blocking.unaligned_source_bound() == 0

    def test_bounds_with_constant(self, instance):
        state = SearchState.empty(instance.schema).extend("kind", ConstantValue("A"))
        blocking = build_blocking(instance, state)
        # all sources land in block A (2 targets), so one source is surplus,
        # and blocks B and C have surplus targets.
        assert blocking.unaligned_source_bound() == 1
        assert blocking.unaligned_target_bound() == 2


class TestRefinement:
    def test_refine_equals_build_from_scratch(self, instance):
        base_state = SearchState.empty(instance.schema).extend("kind", IDENTITY)
        base = build_blocking(instance, base_state)
        refined = refine_blocking(instance, base, "amount", Division(1000))

        full_state = base_state.extend("amount", Division(1000))
        rebuilt = build_blocking(instance, full_state)

        assert refined.unaligned_source_bound() == rebuilt.unaligned_source_bound()
        assert refined.unaligned_target_bound() == rebuilt.unaligned_target_bound()
        assert len(refined.mixed_blocks()) == len(rebuilt.mixed_blocks())

    def test_refine_on_running_example(self):
        instance = running_example_instance()
        state = SearchState.empty(instance.schema).extend("Type", IDENTITY)
        base = build_blocking(instance, state)
        refined = refine_blocking(instance, base, "Org", IDENTITY)
        state2 = state.extend("Org", IDENTITY)
        rebuilt = build_blocking(instance, state2)
        assert refined.unaligned_source_bound() == rebuilt.unaligned_source_bound()
        assert refined.unaligned_target_bound() == rebuilt.unaligned_target_bound()


def _block_contents(blocking):
    """The blocks as ``(source_ids, target_ids)`` pairs in first-seen order —
    the representation every engine must agree on exactly (the search's RNG
    consumption depends on the order)."""
    return [(block.source_ids, block.target_ids) for block in blocking]


class TestEncodedBlocking:
    def _caches(self, instance):
        return (
            ColumnCache(instance.source),                 # columnar codes
            ColumnCache(instance.source, enabled=False),  # row-wise strings
        )

    def test_encoded_build_matches_string_build(self):
        instance = running_example_instance()
        encoded_cache, string_cache = self._caches(instance)
        state = (
            SearchState.empty(instance.schema)
            .extend("Type", IDENTITY)
            .extend("Unit", ConstantValue("k $"))
            .extend("Org", IDENTITY)
        )
        encoded = build_blocking(instance, state, encoded_cache)
        strings = build_blocking(instance, state, string_cache)
        assert _block_contents(encoded) == _block_contents(strings)
        assert encoded.unaligned_bounds() == strings.unaligned_bounds()

    @pytest.mark.parametrize("columnar", [True, False])
    def test_block_ids_are_int32_arrays(self, instance, columnar):
        cache = ColumnCache(instance.source, enabled=columnar)
        state = SearchState.empty(instance.schema).extend("kind", IDENTITY)
        for blocking in (
            build_blocking(instance, state, cache),
            refine_blocking(instance, build_blocking(instance, state, cache),
                            "amount", Division(1000), cache),
        ):
            assert isinstance(blocking.source_blocks, array)
            assert isinstance(blocking.target_blocks, array)
            assert blocking.source_blocks.typecode == "i"
            assert blocking.target_blocks.typecode == "i"
            assert len(blocking.source_blocks) == instance.n_source_records
            assert len(blocking.target_blocks) == instance.n_target_records
            used = set(blocking.source_blocks) | set(blocking.target_blocks)
            assert used == set(range(len(blocking)))

    def test_encoded_refine_matches_string_refine(self, instance):
        encoded_cache, string_cache = self._caches(instance)
        base_state = SearchState.empty(instance.schema).extend("kind", IDENTITY)
        encoded = refine_blocking(
            instance, build_blocking(instance, base_state, encoded_cache),
            "amount", Division(1000), encoded_cache,
        )
        strings = refine_blocking(
            instance, build_blocking(instance, base_state, string_cache),
            "amount", Division(1000), string_cache,
        )
        assert _block_contents(encoded) == _block_contents(strings)

    @pytest.mark.parametrize("columnar", [True, False])
    def test_bounds_only_refinement_matches_materialised(self, instance, columnar):
        cache = ColumnCache(instance.source, enabled=columnar)
        base = build_blocking(
            instance, SearchState.empty(instance.schema).extend("kind", IDENTITY),
            cache,
        )
        for function in (IDENTITY, Division(1000), ConstantValue("1"),
                         ValueMapping({"1000": "1"})):
            materialised = refine_blocking(
                instance, base, "amount", function, cache
            ).unaligned_bounds()
            bounds_only = refine_blocking_bounds(
                instance, base, "amount", function, cache
            )
            assert bounds_only == materialised

    def test_not_applicable_code_never_matches_targets(self, instance):
        cache = ColumnCache(instance.source)
        state = SearchState.empty(instance.schema).extend("amount", ValueMapping({}))
        blocking = build_blocking(instance, state, cache)
        assert blocking.unaligned_source_bound() == 3
        assert blocking.unaligned_target_bound() == 4
        # The inapplicable cells carry the reserved code, which the target
        # encoding never assigns to a real value.
        codes = cache.transformed_codes("amount", ValueMapping({}))
        assert set(codes) == {NOT_APPLICABLE_CODE}
        target_codes = cache.encoded_column(
            "amount", instance.target.column_view("amount")
        )
        assert NOT_APPLICABLE_CODE not in target_codes


class TestMemoizedViews:
    def test_unaligned_bounds_are_computed_once(self, instance):
        state = SearchState.empty(instance.schema).extend("kind", IDENTITY)
        blocking = build_blocking(instance, state)
        first = blocking.unaligned_bounds()
        assert blocking.unaligned_bounds() is first

    def test_mixed_blocks_are_fresh_views(self, instance):
        # Views are built per call and never retained by the blocking: the
        # search's blocking LRU must hold only the block-id arrays.
        state = SearchState.empty(instance.schema).extend("kind", IDENTITY)
        blocking = build_blocking(instance, state)
        first = blocking.mixed_blocks()
        second = blocking.mixed_blocks()
        assert first == second
        assert first is not second
        assert len(first) == 2
        assert blocking.__slots__ == (
            "source_blocks", "target_blocks", "n_blocks", "_bounds"
        )

    def test_repr_reports_counts(self, instance):
        state = SearchState.empty(instance.schema).extend("kind", IDENTITY)
        assert repr(build_blocking(instance, state)) == (
            "BlockingResult(3 blocks, 2 mixed)"
        )


class TestIndeterminacy:
    def test_max_distinct_source_values(self, instance):
        state = SearchState.empty(instance.schema).extend("kind", IDENTITY)
        blocking = build_blocking(instance, state)
        mixed = blocking.mixed_blocks()
        # in block A there are two distinct amounts, in block B one.
        amounts = instance.source.column_view("amount")
        kinds = instance.source.column_view("kind")
        assert max_distinct_source_values(mixed, amounts) == 2
        assert max_distinct_source_values(mixed, kinds) == 1

    def test_running_example_figure3_block(self):
        # Figure 3: under H₁ = (*, *, *, id, *, const 'k $', id) the block with
        # index ('C', 'k $', 'SAP') holds S08, S09, S10 and T08, T10.
        instance = running_example_instance()
        state = (
            SearchState.empty(instance.schema)
            .extend("Type", IDENTITY)
            .extend("Unit", ConstantValue("k $"))
            .extend("Org", IDENTITY)
        )
        blocking = build_blocking(instance, state)
        source = instance.source
        target = instance.target
        matching = [
            block for block in blocking
            if {source.cell(i, "ID1") for i in block.source_ids} == {"S08", "S09", "S10"}
        ]
        assert len(matching) == 1
        block = matching[0]
        assert {target.cell(i, "ID1") for i in block.target_ids} == {"T08", "T10"}
        assert block.surplus_sources == 1
        assert block.surplus_targets == 0


# --------------------------------------------------------------------------- #
# reference grouping
# --------------------------------------------------------------------------- #
def _reference_build(instance, state, cache):
    """Dict-of-lists grouping by the tuple of decided components, in
    first-seen order over the source rows, then the target rows."""
    decided = state.decided_functions
    if not decided:
        return [(list(range(instance.n_source_records)),
                 list(range(instance.n_target_records)))]
    components = [
        blocking_components(instance, attribute, decided[attribute], cache)
        for attribute in instance.schema if attribute in decided
    ]
    blocks = {}
    for row, key in enumerate(zip(*(source for source, _ in components))):
        blocks.setdefault(key, ([], []))[0].append(row)
    for row, key in enumerate(zip(*(target for _, target in components))):
        blocks.setdefault(key, ([], []))[1].append(row)
    return list(blocks.values())


def _reference_refine(blocks, source_components, target_components):
    """Dict-of-lists refinement keyed by ``(parent index, component)``,
    walking parents in order, each parent's source rows before its targets."""
    refined = {}
    for parent, (source_ids, target_ids) in enumerate(blocks):
        for row in source_ids:
            refined.setdefault((parent, source_components[row]), ([], []))[0].append(row)
        for row in target_ids:
            refined.setdefault((parent, target_components[row]), ([], []))[1].append(row)
    return list(refined.values())


def _reference_bounds(blocks):
    target_bound = sum(max(0, len(t) - len(s)) for s, t in blocks)
    source_bound = sum(max(0, len(s) - len(t)) for s, t in blocks)
    return target_bound, source_bound


def _views(blocking):
    return [(block.source_ids, block.target_ids) for block in blocking.views()]


def _assert_matches_reference(blocking, reference):
    assert _views(blocking) == reference
    assert list(blocking) == blocking.views()
    assert len(blocking) == len(reference)
    assert [(block.source_ids, block.target_ids)
            for block in blocking.mixed_blocks()] == [
        (source_ids, target_ids) for source_ids, target_ids in reference
        if source_ids and target_ids
    ]
    assert blocking.unaligned_bounds() == _reference_bounds(reference)


def _random_function(rng, column):
    """A function that merges, splits or leaves the column's values: the
    identity, a constant, or a value mapping over part of the domain (the
    rest inapplicable, i.e. the sentinel)."""
    choice = rng.randrange(3)
    if choice == 0:
        return IDENTITY
    if choice == 1:
        return ConstantValue("k")
    values = sorted(set(column))
    kept = rng.sample(values, min(len(values), max(1, len(values) * 2 // 3)))
    return ValueMapping({value: f"v{rng.randrange(3)}" for value in kept})


def _datagen_instance(dataset, records, seed, *, drop=None):
    table = load_dataset(dataset, records, seed=seed)
    instance = generate_problem_instance(table, eta=0.3, tau=0.3, seed=seed).instance
    if drop is None:
        return instance
    empty = Table(instance.schema, [])
    if drop == "source":
        return ProblemInstance(source=empty, target=instance.target)
    return ProblemInstance(source=instance.source, target=empty)


REFERENCE_CASES = [
    ("flight-500k", 120, 1, None),
    ("iris", 90, 2, None),
    ("abalone", 100, 3, None),
    ("nursery", 80, 4, None),
    ("iris", 60, 5, "source"),
    ("iris", 60, 6, "target"),
]


class TestReferenceGrouping:
    """Fresh builds and chained refinements reproduce the dict-of-lists
    grouping exactly — blocks, their order and their row lists — in every
    component space (columnar codes, row-wise strings through a disabled
    cache, uncached strings)."""

    @staticmethod
    def _caches(instance):
        return [
            ColumnCache(instance.source),
            ColumnCache(instance.source, enabled=False),
            None,
        ]

    @pytest.mark.parametrize("case", REFERENCE_CASES, ids=lambda c: f"{c[0]}-{c[2]}-{c[3]}")
    def test_builds_and_refinements_match_reference(self, case):
        dataset, records, seed, drop = case
        instance = _datagen_instance(dataset, records, seed, drop=drop)
        rng = random.Random(seed)
        attributes = list(instance.schema)
        rng.shuffle(attributes)
        attributes = attributes[:5]
        functions = [
            _random_function(rng, instance.source.column_view(attribute))
            for attribute in attributes
        ]
        for cache in self._caches(instance):
            state = SearchState.empty(instance.schema)
            blocking = build_blocking(instance, state, cache)
            reference = _reference_build(instance, state, cache)
            _assert_matches_reference(blocking, reference)
            for attribute, function in zip(attributes, functions):
                source_components, target_components = blocking_components(
                    instance, attribute, function, cache
                )
                refined = refine_blocking(instance, blocking, attribute, function, cache)
                reference = _reference_refine(
                    reference, source_components, target_components
                )
                _assert_matches_reference(refined, reference)
                assert refine_blocking_bounds(
                    instance, blocking, attribute, function, cache
                ) == refined.unaligned_bounds()
                state = state.extend(attribute, function)
                rebuilt = build_blocking(instance, state, cache)
                _assert_matches_reference(
                    rebuilt, _reference_build(instance, state, cache)
                )
                assert rebuilt.unaligned_bounds() == refined.unaligned_bounds()
                blocking = refined

    @pytest.mark.parametrize("drop", ["source", "target"])
    def test_empty_side_keeps_one_all_rows_block(self, drop):
        instance = _datagen_instance("iris", 40, 7, drop=drop)
        blocking = build_blocking(instance, SearchState.empty(instance.schema))
        assert len(blocking) == 1
        assert _views(blocking) == [(list(range(instance.n_source_records)),
                                     list(range(instance.n_target_records)))]
        assert blocking.mixed_blocks() == []
