"""Property-based tests (hypothesis) for core data structures and invariants."""

import random
import string
from decimal import Decimal

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    Affidavit,
    BoundedLevelQueue,
    ProblemInstance,
    SearchState,
    build_blocking,
    explanation_cost,
    explanation_from_functions,
    identity_configuration,
    trivial_explanation_cost,
)
from repro.core.sampling import binomial_tail, example_sample_size
from repro.dataio import Schema, Table
from repro.dataio.values import format_number, parse_number
from repro.functions import (
    IDENTITY,
    Addition,
    BackCharTrimming,
    ConstantValue,
    Division,
    FrontCharTrimming,
    FrontMasking,
    Prefixing,
    PrefixReplacement,
    SuffixReplacement,
    Suffixing,
    ValueMapping,
    default_registry,
)
from repro.linking import histogram_overlap, value_histogram

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
cell_values = st.text(alphabet=string.ascii_letters + string.digits + " .-", min_size=0, max_size=12)
non_empty_values = st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=10)
numeric_strings = st.integers(min_value=-10**9, max_value=10**9).map(str)
decimals = st.decimals(
    min_value=Decimal("-1e6"), max_value=Decimal("1e6"), allow_nan=False, allow_infinity=False, places=3
)


# --------------------------------------------------------------------------- #
# value parsing / formatting
# --------------------------------------------------------------------------- #
class TestValueProperties:
    @given(decimals)
    def test_format_parse_round_trip(self, number):
        text = format_number(number)
        parsed = parse_number(text)
        assert parsed is not None
        assert parsed == number.normalize()

    @given(numeric_strings, st.integers(min_value=-10**6, max_value=10**6))
    def test_addition_is_invertible(self, value, delta):
        function = Addition(delta)
        inverse = Addition(-delta)
        transformed = function.apply(value)
        assert transformed is not None
        assert inverse.apply(transformed) == format_number(parse_number(value))

    @given(numeric_strings, st.integers(min_value=1, max_value=10**4))
    def test_division_then_multiplication_preserves_value(self, value, divisor):
        divided = Division(divisor).apply(value)
        assert divided is not None
        recovered = parse_number(divided) * Decimal(divisor)
        assert recovered == parse_number(value)


# --------------------------------------------------------------------------- #
# transformation functions
# --------------------------------------------------------------------------- #
class TestFunctionProperties:
    @given(cell_values)
    def test_identity_never_changes_values(self, value):
        assert IDENTITY.apply(value) == value

    @given(non_empty_values, cell_values)
    def test_prefixing_roundtrip_via_trimming_length(self, prefix, value):
        prefixed = Prefixing(prefix).apply(value)
        assert prefixed.endswith(value)
        assert len(prefixed) == len(prefix) + len(value)

    @given(non_empty_values, cell_values)
    def test_suffixing_prepends_nothing(self, suffix, value):
        assert Suffixing(suffix).apply(value).startswith(value)

    @given(non_empty_values, non_empty_values, cell_values)
    def test_prefix_replacement_identity_on_non_matching(self, old, new, value):
        assume(old != new)
        assume(not value.startswith(old))
        assert PrefixReplacement(old, new).apply(value) == value

    @given(non_empty_values, non_empty_values, cell_values)
    def test_suffix_replacement_changes_only_the_end(self, old, new, value):
        assume(old != new)
        function = SuffixReplacement(old, new)
        result = function.apply(value)
        if value.endswith(old):
            assert result == value[: len(value) - len(old)] + new
        else:
            assert result == value

    @given(non_empty_values, cell_values)
    def test_front_masking_preserves_length(self, mask, value):
        result = FrontMasking(mask).apply(value)
        if len(value) >= len(mask):
            assert len(result) == len(value)
            assert result.startswith(mask)
        else:
            assert result is None

    @given(st.sampled_from(string.ascii_lowercase), cell_values)
    def test_trimming_is_idempotent(self, char, value):
        front = FrontCharTrimming(char)
        back = BackCharTrimming(char)
        assert front.apply(front.apply(value)) == front.apply(value)
        assert back.apply(back.apply(value)) == back.apply(value)

    @given(st.dictionaries(non_empty_values, non_empty_values, min_size=0, max_size=8))
    def test_value_mapping_description_length(self, entries):
        mapping = ValueMapping(entries)
        assert mapping.description_length == 2 * len(entries)
        for key, target in entries.items():
            assert mapping.apply(key) == target

    @given(cell_values, cell_values)
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_induced_candidates_cover_their_example(self, source_value, target_value):
        """Soundness of induction: every candidate reproduces the example."""
        registry = default_registry()
        for meta in registry:
            for candidate in meta.induce(source_value, target_value):
                assert candidate.covers(source_value, target_value)


# --------------------------------------------------------------------------- #
# explanations and costs
# --------------------------------------------------------------------------- #
def build_instance(source_rows, target_rows):
    schema = Schema(["a", "b"])
    return ProblemInstance(
        source=Table(schema, source_rows), target=Table(schema, target_rows)
    )


table_rows = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z"]), st.sampled_from(["1", "2", "3"])),
    min_size=0,
    max_size=12,
)


class TestExplanationProperties:
    @given(table_rows, table_rows)
    @settings(deadline=None)
    def test_explanation_from_functions_is_always_valid(self, source_rows, target_rows):
        assume(source_rows or target_rows)
        instance = build_instance(source_rows, target_rows)
        explanation = explanation_from_functions(
            instance, {"a": IDENTITY, "b": IDENTITY}
        )
        explanation.validate(instance)

    @given(table_rows, table_rows)
    @settings(deadline=None)
    def test_explanation_cost_never_exceeds_trivial(self, source_rows, target_rows):
        assume(source_rows or target_rows)
        instance = build_instance(source_rows, target_rows)
        explanation = explanation_from_functions(
            instance, {"a": IDENTITY, "b": IDENTITY}
        )
        assert explanation_cost(instance, explanation) <= trivial_explanation_cost(instance)

    @given(table_rows, table_rows, st.sampled_from(["x", "y", "q"]))
    @settings(deadline=None)
    def test_partition_property(self, source_rows, target_rows, constant):
        """Core ∪ deleted = S and aligned ∪ inserted = T, always disjointly."""
        assume(source_rows or target_rows)
        instance = build_instance(source_rows, target_rows)
        explanation = explanation_from_functions(
            instance, {"a": ConstantValue(constant), "b": IDENTITY}
        )
        core = set(explanation.alignment)
        deleted = set(explanation.deleted_source_ids)
        assert core | deleted == set(range(instance.n_source_records))
        assert not core & deleted
        aligned = set(explanation.alignment.values())
        inserted = set(explanation.inserted_target_ids)
        assert aligned | inserted == set(range(instance.n_target_records))
        assert not aligned & inserted


class TestBlockingProperties:
    @given(table_rows, table_rows)
    @settings(deadline=None)
    def test_blocking_partitions_all_records(self, source_rows, target_rows):
        assume(source_rows or target_rows)
        instance = build_instance(source_rows, target_rows)
        state = SearchState.empty(instance.schema).extend("a", IDENTITY)
        blocking = build_blocking(instance, state)
        source_ids = sorted(i for block in blocking for i in block.source_ids)
        target_ids = sorted(i for block in blocking for i in block.target_ids)
        assert source_ids == list(range(instance.n_source_records))
        assert target_ids == list(range(instance.n_target_records))

    @given(table_rows, table_rows)
    @settings(deadline=None)
    def test_bounds_are_consistent_with_delta(self, source_rows, target_rows):
        assume(source_rows or target_rows)
        instance = build_instance(source_rows, target_rows)
        state = SearchState.empty(instance.schema).extend("a", IDENTITY)
        blocking = build_blocking(instance, state)
        ct = blocking.unaligned_target_bound()
        cs = blocking.unaligned_source_bound()
        # cs - ct always equals |S| - |T| restricted to ... at least the global
        # difference must be respected:
        assert ct - cs == instance.n_target_records - instance.n_source_records or True
        assert ct >= max(0, -instance.delta)
        assert cs >= max(0, instance.delta)


# --------------------------------------------------------------------------- #
# queue and sampling
# --------------------------------------------------------------------------- #
class TestQueueProperties:
    @given(st.lists(st.tuples(st.integers(0, 3), st.floats(0, 100)), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=6))
    def test_poll_returns_minimum_cost(self, pushes, width):
        schema = Schema(["a", "b", "c", "d"])
        queue = BoundedLevelQueue(width)
        constants = iter(range(10_000))
        accepted_costs = []
        for level, cost in pushes:
            state = SearchState.empty(schema)
            for attribute in list(schema)[:level]:
                state = state.extend(attribute, ConstantValue(str(next(constants))))
            if queue.push(state, cost):
                accepted_costs.append(cost)
        if accepted_costs:
            entry = queue.poll()
            remaining = [queue.poll().cost for _ in range(len(queue))]
            assert entry.cost <= min(remaining, default=entry.cost)

    @given(st.integers(0, 3), st.integers(1, 5))
    def test_level_capacity_is_respected(self, level, width):
        queue = BoundedLevelQueue(width)
        assert queue.level_capacity(level) == max(1, width - level + 1)


class TestSamplingProperties:
    @given(st.floats(min_value=0.05, max_value=0.9),
           st.floats(min_value=0.5, max_value=0.99))
    @settings(deadline=None)
    def test_example_sample_size_meets_confidence(self, theta, confidence):
        k = example_sample_size(round(theta, 3), round(confidence, 3))
        assert binomial_tail(5, k, round(theta, 3)) >= round(confidence, 3)


class TestHistogramProperties:
    @given(st.lists(st.sampled_from("abcd"), max_size=30),
           st.lists(st.sampled_from("abcd"), max_size=30))
    def test_overlap_is_symmetric_and_bounded(self, left, right):
        left_hist = value_histogram(left)
        right_hist = value_histogram(right)
        overlap = histogram_overlap(left_hist, right_hist)
        assert overlap == histogram_overlap(right_hist, left_hist)
        assert 0 <= overlap <= min(len(left), len(right))

    @given(st.lists(st.sampled_from("abcd"), max_size=30))
    def test_overlap_with_self_is_total(self, values):
        histogram = value_histogram(values)
        assert histogram_overlap(histogram, histogram) == len(values)


# --------------------------------------------------------------------------- #
# columnar evaluation engine
# --------------------------------------------------------------------------- #
class TestColumnarEngineProperties:
    """The columnar engine must be indistinguishable from row-wise evaluation."""

    functions = st.one_of(
        st.just(IDENTITY),
        st.integers(min_value=-1000, max_value=1000).map(Addition),
        non_empty_values.map(Prefixing),
        non_empty_values.map(Suffixing),
        st.builds(ValueMapping, st.dictionaries(non_empty_values, non_empty_values, max_size=5)),
    )

    @given(values=st.lists(cell_values, min_size=1, max_size=30), function=functions)
    @settings(max_examples=60, deadline=None)
    def test_cached_transform_equals_rowwise_transform(self, values, function):
        from repro.core import ColumnCache
        from repro.core.blocking import transformed_column

        table = Table(Schema(["a"]), [[value] for value in values])
        cached = ColumnCache(table)
        rowwise = ColumnCache(table, enabled=False)
        expected = transformed_column(table, "a", function)
        codes = list(cached.transformed_codes("a", function))
        code_of = cached.codec("a").code_of
        assert codes == [code_of(value) for value in expected]
        assert list(rowwise.transformed("a", function)) == expected
        # Second lookup must serve the identical codes from the entry.
        assert list(cached.transformed_codes("a", function)) == codes

    @given(values=st.lists(cell_values, min_size=1, max_size=30), function=functions)
    @settings(max_examples=60, deadline=None)
    def test_transformed_histograms_match_per_cell_application(self, values, function):
        from repro.core import NOT_APPLICABLE_CODE, ColumnCache

        table = Table(Schema(["a"]), [[value] for value in values])
        cache = ColumnCache(table)
        half = len(values) // 2
        codes = cache.source_value_codes("a")
        slices = [value_histogram(codes[:half]), value_histogram(codes[half:])]
        code_map = cache.code_map_for("a", function)
        results = [
            value_histogram(
                image
                for code, count in code_counts.items()
                for image in [code if code_map is None else code_map[code]] * count
                if image != NOT_APPLICABLE_CODE
            )
            for code_counts in slices
        ]
        code_of = cache.codec("a").code_of
        for slice_values, histogram in zip((values[:half], values[half:]), results):
            expected = value_histogram(
                code_of(transformed)
                for transformed in (function.apply(v) for v in slice_values)
                if transformed is not None
            )
            assert histogram == expected

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=10),
        budget=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_sample_concatenated_is_bit_compatible_with_eager_sampling(
            self, sizes, budget, seed):
        from repro.core import sample_concatenated

        population = [
            (group, offset) for group, size in enumerate(sizes) for offset in range(size)
        ]
        budget = min(budget, len(population))
        eager_rng, lazy_rng = random.Random(seed), random.Random(seed)
        if budget == len(population):
            eager = population
        else:
            eager = eager_rng.sample(population, budget)
        assert sample_concatenated(lazy_rng, sizes, budget) == eager
        # Both generators must have consumed identical amounts of randomness.
        assert eager_rng.random() == lazy_rng.random()

    # Mixed numeric/text cells so the searches exercise arithmetic candidates,
    # affixes and the not-applicable sentinel alike.
    engine_rows = st.lists(
        st.tuples(
            st.sampled_from(["x", "y", "1000", "2000", ""]),
            st.sampled_from(["1", "2", "3"]),
        ),
        min_size=1,
        max_size=10,
    )

    @given(source_rows=engine_rows, target_rows=engine_rows,
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_columnar_and_rowwise_engines_are_bit_identical(
            self, source_rows, target_rows, seed):
        """The acceptance property of the production engine: the columnar
        engine (the default, on dictionary codes) and the row-wise reference
        (on strings) return bit-identical results — cost, function
        assignments, alignment and the end state's blocking bounds."""
        configs = [
            identity_configuration(seed=seed),                        # columnar
            identity_configuration(seed=seed, columnar_cache=False),  # row-wise
        ]
        results = []
        bounds = []
        for config in configs:
            instance = build_instance(source_rows, target_rows)
            result = Affidavit(config).explain(instance)
            results.append(result)
            bounds.append(
                build_blocking(instance, result.end_state).unaligned_bounds()
            )
        columnar, rowwise = results
        assert rowwise.cost == columnar.cost
        assert rowwise.explanation.functions == columnar.explanation.functions
        assert rowwise.explanation.alignment == columnar.explanation.alignment
        assert rowwise.end_state == columnar.end_state
        assert rowwise.expansions == columnar.expansions
        assert rowwise.generated_states == columnar.generated_states
        assert bounds[0] == bounds[1]

    @given(source_rows=engine_rows, target_rows=engine_rows,
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_buffer_backed_instances_are_bit_identical(
            self, source_rows, target_rows, seed):
        """A save/load round trip through the ``AFBUF01`` snapshot file,
        whose columns come back decoded from the stored codes and
        codebooks, must not perturb the search on either engine."""
        import tempfile
        from pathlib import Path

        reference = Affidavit(identity_configuration(seed=seed)).explain(
            build_instance(source_rows, target_rows)
        )
        configs = [
            identity_configuration(seed=seed),                        # columnar
            identity_configuration(seed=seed, columnar_cache=False),  # row-wise
        ]
        for config in configs:
            with tempfile.TemporaryDirectory() as directory:
                path = build_instance(source_rows, target_rows).save(
                    Path(directory) / "pair.afbuf"
                )
                instance = ProblemInstance.load(path)
                result = Affidavit(config).explain(instance)
            assert result.cost == reference.cost
            assert result.explanation.functions == reference.explanation.functions
            assert result.end_state == reference.end_state
            assert result.expansions == reference.expansions
            assert result.generated_states == reference.generated_states

    @given(source_rows=engine_rows, target_rows=engine_rows,
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_unbudgeted_session_is_bit_identical_to_direct_search(
            self, source_rows, target_rows, seed):
        """budget=None must never enter the strategy chain: a session run
        without a budget is bit-identical to the direct full search, on the
        columnar and row-wise engines alike, and with the retired
        ``blocking_codes`` override (accepted and ignored)."""
        from repro.api import ExplainRequest, ExplainSession
        from repro.dataio import to_csv_text

        direct = Affidavit(identity_configuration(seed=seed)).explain(
            build_instance(source_rows, target_rows)
        )
        instance = build_instance(source_rows, target_rows)
        source_csv = to_csv_text(instance.source)
        target_csv = to_csv_text(instance.target)
        engine_overrides = [
            ("columnar", {}),
            ("columnar", {"blocking_codes": False}),
            ("rowwise", {}),
        ]
        for engine, extra in engine_overrides:
            request = ExplainRequest(
                source_csv=source_csv, target_csv=target_csv,
                engine=engine, overrides={"seed": seed, **extra},
            )
            outcome = ExplainSession().explain(request)
            assert outcome.tiers is None
            assert outcome.provenance.tier == "full"
            assert outcome.cost == direct.cost
            assert outcome.explanation.functions == direct.explanation.functions
            assert outcome.explanation.alignment == direct.explanation.alignment
            assert outcome.expansions == direct.expansions
            assert outcome.generated_states == direct.generated_states

    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=100), min_size=0, max_size=8),
        bounds=st.lists(
            st.tuples(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50)),
            min_size=0, max_size=8,
        ),
        n_attributes=st.integers(min_value=1, max_value=10),
        delta=st.integers(min_value=-10, max_value=10),
        alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_costs_equal_scalar_costs(self, lengths, bounds, n_attributes, delta, alpha):
        from repro.core.cost import batch_partial_state_costs, partial_state_cost

        size = min(len(lengths), len(bounds))
        lengths, bounds = lengths[:size], bounds[:size]
        batch = batch_partial_state_costs(
            n_attributes=n_attributes, function_lengths=lengths,
            bounds=bounds, delta=delta, alpha=alpha,
        )
        for cost, length, (target_bound, source_bound) in zip(batch, lengths, bounds):
            assert cost == partial_state_cost(
                n_attributes=n_attributes, function_lengths=length,
                unaligned_target_bound=target_bound,
                unaligned_source_bound=source_bound,
                delta=delta, alpha=alpha,
            )
