"""Equivalence tests of the columnar engine's induction and ranking kernels.

The columnar engine counts candidate generations over interned function ids
(:meth:`repro.functions.induction.InductionMemo.generation_counts`) and
ranks candidates through a :class:`repro.core.extension.PostingsIndex`.
Both must reproduce the row-wise reference exactly — the same candidates,
counts and first-generation order, the same ``(score, -order, candidate)``
triples.
"""

from __future__ import annotations

import random

import pytest

from repro.core import SearchState, StateEvaluator, identity_configuration
from repro.core.colcache import ColumnCache
from repro.core.extension import StateExpander, count_postings
from repro.core.sampling import sample_concatenated
from repro.datagen import generate_problem_instance
from repro.datagen.datasets import load_dataset
from repro.dataio import Schema, Table
from repro.functions import IDENTITY, CandidatePool
from repro.functions.affix import Prefixing
from repro.functions.casing import Uppercasing
from repro.functions.trimming import BackCharTrimming, FrontCharTrimming
from repro.linking.histogram import indexed_histogram

CASES = [
    ("flight-500k", 120, 0.3, 0.3, 1),
    ("flight-500k", 100, 0.1, 0.5, 2),
    ("iris", 100, 0.2, 0.2, 3),
    ("abalone", 120, 0.4, 0.1, 4),
]

#: Undecided attributes tried per state and induced candidates ranked per
#: call (keeps the row-wise reference fast).
ATTRIBUTES_PER_STATE = 4
CANDIDATES_PER_CALL = 40


def _instance(dataset, records, eta, tau, seed):
    table = load_dataset(dataset, records, seed=seed)
    return generate_problem_instance(table, eta=eta, tau=tau, seed=seed).instance


def _states(instance):
    """The empty state and a deeper state with identity-assigned attributes,
    whose blocking has many small (often single-valued) blocks."""
    empty = SearchState.empty(instance.schema)
    deeper = empty
    for attribute in empty.undecided_attributes[:2]:
        deeper = deeper.extend(attribute, IDENTITY)
    return [empty, deeper]


def _expander(instance, *, columnar=True, seed=0, should_stop=None, **config):
    evaluator = StateEvaluator(instance, columnar=columnar)
    configuration = identity_configuration(seed=seed, **config)
    expander = StateExpander(instance, configuration, evaluator, random.Random(seed),
                             should_stop=should_stop)
    return expander, evaluator


def _sampled_examples(expander, mixed_blocks, seed):
    sizes = [len(block.target_ids) for block in mixed_blocks]
    budget = min(expander.example_budget, sum(sizes))
    return sample_concatenated(random.Random(seed), sizes, budget)


def _pool_counts(instance, mixed_blocks, attribute, sampled):
    """The reference: a plain, un-memoised pool fed the same examples."""
    source = instance.source.column_view(attribute)
    target = instance.target.column_view(attribute)
    pool = CandidatePool()
    for block_index, offset in sampled:
        block = mixed_blocks[block_index]
        values = sorted({source[row] for row in block.source_ids})
        pool.add_example(instance.registry, values, target[block.target_ids[offset]])
    return pool


def _undecided_with_mixed_blocks(instance, evaluator, state):
    mixed = evaluator.blocking(state).mixed_blocks()
    return mixed, state.undecided_attributes[:ATTRIBUTES_PER_STATE]


# --------------------------------------------------------------------------- #
# induction
# --------------------------------------------------------------------------- #
class TestInternedInduction:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[4]}")
    def test_counts_order_and_examples_match_candidate_pool(self, case):
        instance = _instance(*case)
        expander, evaluator = _expander(instance)
        for depth, state in enumerate(_states(instance)):
            mixed, attributes = _undecided_with_mixed_blocks(instance, evaluator, state)
            if not mixed:
                continue
            for attribute in attributes:
                sampled = _sampled_examples(expander, mixed, seed=depth)
                counts, seen = expander._generation_counts(mixed, attribute, sampled)
                pool = _pool_counts(instance, mixed, attribute, sampled)
                assert list(counts) == pool.candidates
                assert list(counts.items()) == list(pool.generation_counts().items())
                assert seen == pool.examples_seen == len(sampled)

    def test_repeated_examples_within_a_call_count_every_time(self):
        instance = _instance(*CASES[0])
        expander, evaluator = _expander(instance)
        mixed, attributes = _undecided_with_mixed_blocks(
            instance, evaluator, SearchState.empty(instance.schema))
        sampled = [(0, 0)] * 5 + [(0, 1)] * 3
        for attribute in attributes[:4]:
            counts, seen = expander._generation_counts(mixed, attribute, sampled)
            pool = _pool_counts(instance, mixed, attribute, sampled)
            assert list(counts.items()) == list(pool.generation_counts().items())
            assert seen == 8

    def test_stop_mid_sample_truncates_like_the_pool(self):
        instance = _instance(*CASES[0])
        polls = []

        def should_stop():
            polls.append(None)
            return len(polls) >= 2

        expander, evaluator = _expander(instance, should_stop=should_stop)
        mixed, attributes = _undecided_with_mixed_blocks(
            instance, evaluator, SearchState.empty(instance.schema))
        sampled = _sampled_examples(expander, mixed, seed=0)
        assert len(sampled) > 64, "the sample must outlast two stop polls"
        counts, seen = expander._generation_counts(mixed, attributes[0], sampled)
        # Polled at positions 31 and 63; the second poll stops the sample.
        assert seen == 63
        pool = _pool_counts(instance, mixed, attributes[0], sampled[:seen])
        assert list(counts.items()) == list(pool.generation_counts().items())
        assert seen == pool.examples_seen

    def test_rowwise_engine_agrees(self):
        instance = _instance(*CASES[2])
        columnar, evaluator = _expander(instance)
        rowwise, _ = _expander(instance, columnar=False)
        mixed, attributes = _undecided_with_mixed_blocks(
            instance, evaluator, SearchState.empty(instance.schema))
        for attribute in attributes:
            sampled = _sampled_examples(columnar, mixed, seed=5)
            assert list(columnar._generation_counts(mixed, attribute, sampled)[0].items()) \
                == list(rowwise._generation_counts(mixed, attribute, sampled)[0].items())


# --------------------------------------------------------------------------- #
# ranking
# --------------------------------------------------------------------------- #
#: Two distinct candidates with the same image on trimming-free values (the
#: identity's): the postings index scores them from one memoised overlap.
SAME_IMAGE = [FrontCharTrimming("#"), BackCharTrimming("#")]


def _ranking_inputs(instance, expander, evaluator, state, attribute, seed):
    mixed = evaluator.blocking(state).mixed_blocks()
    sampled = _sampled_examples(expander, mixed, seed)
    counts, _ = expander._generation_counts(mixed, attribute, sampled)
    candidates = [IDENTITY, *SAME_IMAGE, *list(counts)[:CANDIDATES_PER_CALL]]
    block_indices = sorted(random.Random(seed).sample(range(len(mixed)), min(40, len(mixed))))
    return mixed, candidates, block_indices


class TestPostingsRanking:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[4]}")
    def test_scores_equal_rowwise(self, case):
        instance = _instance(*case)
        expander, evaluator = _expander(instance)
        saw_single_valued = False
        for depth, state in enumerate(_states(instance)):
            mixed = evaluator.blocking(state).mixed_blocks()
            if not mixed:
                continue
            for attribute in state.undecided_attributes[:ATTRIBUTES_PER_STATE]:
                mixed, candidates, block_indices = _ranking_inputs(
                    instance, expander, evaluator, state, attribute, seed=depth)
                source = instance.source.column_view(attribute)
                saw_single_valued |= any(
                    len({source[row] for row in mixed[i].source_ids}) == 1
                    for i in block_indices
                )
                columnar = expander._score_candidates_columnar(
                    candidates, mixed, block_indices, attribute)
                reference = expander._score_candidates_rowwise(
                    candidates, mixed, block_indices, attribute)
                assert columnar == reference
        assert saw_single_valued

    def test_same_image_candidates_share_the_identity_overlap(self):
        instance = _instance(*CASES[0])
        expander, evaluator = _expander(instance)
        state = SearchState.empty(instance.schema)
        attribute = state.undecided_attributes[0]
        mixed, _, block_indices = _ranking_inputs(
            instance, expander, evaluator, state, attribute, seed=0)
        scored = expander._score_candidates_columnar(
            [IDENTITY, *SAME_IMAGE], mixed, block_indices, attribute)
        overlaps = [score + candidate.description_length
                    for score, _, candidate in scored]
        assert overlaps[0] > 0
        assert overlaps == [overlaps[0]] * 3

    def test_one_code_map_lookup_per_candidate(self):
        instance = _instance(*CASES[0])
        expander, evaluator = _expander(instance)
        state = SearchState.empty(instance.schema)
        attribute = state.undecided_attributes[0]
        mixed, candidates, block_indices = _ranking_inputs(
            instance, expander, evaluator, state, attribute, seed=0)
        cache = evaluator.column_cache
        before = cache.stats().lookups
        expander._score_candidates_columnar(candidates, mixed, block_indices, attribute)
        assert cache.stats().lookups - before == len(candidates)

    def test_postings_equal_merged_block_histograms(self):
        column = [7, 3, 7, 7, 5, 3, 9, 3, 5, 7]
        blocks = [[0, 1, 2], [3], [], [4, 5, 3, 6], [7, 8, 9, 0], [9, 9]]
        reference = {}
        for position, ids in enumerate(blocks):
            for key, count in indexed_histogram(column, ids).items():
                reference.setdefault(key, {})[position] = count
        postings = count_postings(column, blocks)
        assert list(postings) == list(reference) == [7, 3, 5, 9]
        assert [list(counts.items()) for counts in postings.values()] == \
            [list(counts.items()) for counts in reference.values()]


# --------------------------------------------------------------------------- #
# code maps
# --------------------------------------------------------------------------- #
class TestCodeMaps:
    def test_code_map_is_sized_to_the_source_domain(self):
        table = Table(Schema(["name"]), [("ann",), ("bob",), ("ann",), ("cy",)])
        cache = ColumnCache(table)
        upper = cache.code_map_for("name", Uppercasing())
        domain = cache.source_value_codes("name")
        assert len(upper) == max(domain) + 1
        assert len(cache.codec("name")) > len(upper)  # the images were encoded
        # Every further candidate grows the codec, never a code map.
        for prefix in "abcdefgh":
            cache.code_map_for("name", Prefixing(prefix))
        assert len(cache.codec("name")) > 3 * len(upper)
        assert len(cache.code_map_for("name", Uppercasing())) == len(upper)
        assert len(cache.code_map_for("name", Prefixing("z"))) == len(upper)
        codec = cache.codec("name")
        for value in ("ann", "bob", "cy"):
            assert upper[codec.code_of(value)] == codec.code_of(value.upper())
