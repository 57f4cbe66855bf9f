"""Extending search states: candidate induction, ranking and the map fallback.

This module implements the ``Extensions`` procedure of Algorithm 1 together
with its two sub-routines (Sections 4.3 and 4.4):

1. **Attribute selection** — undecided attributes are ordered by their
   *indeterminacy* (the maximum number of distinct source values over all
   mixed blocks); the ``β`` most determined ones are tried first.
2. **Candidate induction** — up to ``k`` target records are sampled from mixed
   blocks; every meta-function instantiation consistent with producing the
   sampled target value from *some* source value of the same block becomes a
   candidate; candidates generated fewer times than the binomial significance
   threshold are discarded.
3. **Candidate ranking** — candidates are scored by their value-histogram
   overlap on the blocks of ``k'`` sampled source records (Cochran's formula)
   minus their description length; the best ``β`` survive.
4. **Greedy-map benchmark** — every surviving candidate must lead to a cheaper
   state than extending the attribute with a greedy value mapping built from a
   block-respecting random alignment; attributes where nothing beats the map
   are earmarked for a value mapping (``MAP_MARKER``).
5. **Finalisation** — when every undecided attribute is earmarked, the state
   is finalised by resolving the markers one after another with greedy maps,
   re-sampling the alignment after each resolution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import (
    Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from ..dataio import Table
from ..functions import AttributeFunction
from ..functions.induction import CandidatePool, InductionMemo
from ..obs import Tracer, ensure_tracer
from ..linking.alignment import AlignmentPairs, induce_greedy_mapping, sample_random_alignment
from ..linking.histogram import block_overlap
from .blocking import (
    Block,
    BlockingResult,
    build_blocking,
    max_distinct_source_values,
    refine_blocking,
    refine_blocking_bounds,
)
from .colcache import ColumnCache
from .config import AffidavitConfig
from .evaluator import StateEvaluator
from .instance import ProblemInstance
from .sampling import (
    cochran_sample_size,
    example_sample_size,
    generation_threshold,
    sample_concatenated,
)
from .search_state import MAP_MARKER, SearchState


@dataclass(frozen=True)
class Extension:
    """One candidate successor state produced by the expander."""

    state: SearchState
    cost: float
    #: The blocking of the successor (``None`` for finalised end states whose
    #: blocking was not materialised).
    blocking: Optional[BlockingResult]
    #: The attribute that was assigned in this step (``None`` for finalised
    #: states where several markers were resolved at once).
    attribute: Optional[str]


#: A sampled block as ``(source row ids, target row ids)``.
BlockIds = Tuple[Sequence[int], Sequence[int]]


def induce_generation_counts(
        memo: InductionMemo, instance: ProblemInstance, attribute: str,
        examples: Iterable[Tuple[Hashable, int]],
        block_source_ids: Callable[[Hashable], Sequence[int]],
) -> Tuple[Dict[AttributeFunction, int], int]:
    """Generation counts of *attribute*'s candidates over sampled examples.

    Each example is a ``(block key, target row id)`` pair and
    *block_source_ids* gives a block's source row ids.  The example's source
    values are the block's distinct source values in sorted order, exactly
    as the row-wise :class:`CandidatePool` path sees them, and the returned
    counts iterate in first-generation order.
    """
    source_column = instance.source.column_view(attribute)
    target_column = instance.target.column_view(attribute)

    def block_values(block_key: Hashable) -> List[str]:
        return sorted({source_column[row] for row in block_source_ids(block_key)})

    return memo.generation_counts(
        instance.registry,
        ((block_key, target_column[row]) for block_key, row in examples),
        block_values,
    )


class _GroupOverlaps(dict):
    """``(target key, source keys) -> summed overlap`` over a postings index,
    filled on first lookup.

    The overlap a candidate gains from sending a group of source keys onto
    one target key depends on nothing else, so candidates sharing a group
    (the identity's ``(k, (k,))`` pairs above all) share its score.  Within
    a block the group's source counts add up before the minimum with the
    target count is taken."""

    __slots__ = ("_postings", "_targets")

    def __init__(self, postings: Mapping[Hashable, Dict[int, int]],
                 targets: Mapping[Hashable, Dict[int, int]]):
        super().__init__()
        self._postings = postings
        self._targets = targets

    def __missing__(self, group: Tuple[Hashable, Tuple[Hashable, ...]]) -> int:
        target_key, source_keys = group
        wanted = self._targets[target_key]
        merged: Dict[int, int] = {}
        for source_key in source_keys:
            counts = self._postings[source_key]
            for position in counts.keys() & wanted.keys():
                merged[position] = merged.get(position, 0) + counts[position]
        self[group] = overlap = sum(map(min, merged.values(),
                                        map(wanted.__getitem__, merged)))
        return overlap


def count_postings(column: Sequence[Hashable],
                   blocks: Sequence[Sequence[int]]) -> Dict[Hashable, Dict[int, int]]:
    """``{key: {block position: count}}`` of ``column[i]`` over each block's
    row ids *i*.

    Counted row by row: most ranking calls sample blocks of one or two rows,
    where a histogram per block costs more than the counting itself.  Keys
    iterate in first-seen order and each key's positions ascend, exactly as
    when merging one :func:`~repro.linking.histogram.indexed_histogram` per
    block.
    """
    index: Dict[Hashable, Dict[int, int]] = {}
    for position, ids in enumerate(blocks):
        for key in map(column.__getitem__, ids):
            counts = index.get(key)
            if counts is None:
                index[key] = {position: 1}
            else:
                counts[position] = counts.get(position, 0) + 1
    return index


class PostingsIndex:
    """Histogram overlap of many candidates over one ranking call's blocks.

    Section 4.4.3 scores a candidate by how much of each sampled block's
    target histogram its transformed source histogram covers.  Instead of
    one histogram pass per candidate and block, the index is built once per
    call: every distinct source key (a dictionary code in the search) and
    every target key gets its postings ``{block position: count}``.  A
    candidate is then scored from its *image* of the distinct source keys,
    gathered in C from its code map:

    * an image that misses every target key scores 0 after one
      ``isdisjoint`` check;
    * otherwise the matching source keys are grouped by their target key
      and the per-group overlaps summed; each group is scored once per call
      and shared by every candidate that forms it.

    Overlaps are also memoised per image tuple, so distinct candidates that
    agree on the sample (e.g. non-matching affixes that all collapse to the
    identity image) are scored once.  The scores equal the per-block
    histogram overlaps of the row-wise engine exactly.
    """

    __slots__ = ("keys", "_target_keys", "_gather", "_groups", "_overlaps")

    def __init__(self, source_column: Sequence[Hashable],
                 target_column: Sequence[Hashable], blocks: Sequence[BlockIds]):
        postings = count_postings(source_column, [ids for ids, _ in blocks])
        targets = count_postings(target_column, [ids for _, ids in blocks])
        #: The distinct source keys in first-sample order; also the image of
        #: the identity.
        self.keys: Tuple[Hashable, ...] = tuple(postings)
        self._target_keys = targets.keys()
        if len(self.keys) == 1:
            (only,) = self.keys
            self._gather = lambda mapping: (mapping[only],)
        elif self.keys:
            self._gather = itemgetter(*self.keys)
        else:
            self._gather = lambda mapping: ()
        self._groups = _GroupOverlaps(postings, targets)
        self._overlaps: Dict[Tuple[Hashable, ...], int] = {}

    def overlap(self, mapping: Optional[Mapping]) -> int:
        """Summed overlap of the candidate whose source-key map is *mapping*
        (``None`` for the identity)."""
        image = self.keys if mapping is None else self._gather(mapping)
        target_keys = self._target_keys
        if target_keys.isdisjoint(image):
            return 0
        overlap = self._overlaps.get(image)
        if overlap is None:
            grouped: Dict[Hashable, List[Hashable]] = {}
            for source_key, target_key in compress(
                    zip(self.keys, image), map(target_keys.__contains__, image)):
                sources = grouped.get(target_key)
                if sources is None:
                    grouped[target_key] = [source_key]
                else:
                    sources.append(source_key)
            groups = self._groups
            overlap = 0
            for target_key, sources in grouped.items():
                overlap += groups[target_key, tuple(sources)]
            self._overlaps[image] = overlap
        return overlap


def candidate_overlaps(cache: ColumnCache, target: Table, attribute: str,
                       functions: Sequence[AttributeFunction],
                       blocks: Sequence[BlockIds]) -> List[int]:
    """Sampled-block overlap of every function, through one postings index.

    The index is keyed by the attribute's dictionary codes and each
    function's image is gathered from its code map: one map lookup per
    function.
    """
    index = PostingsIndex(
        cache.source_value_codes(attribute),
        cache.encoded_column(attribute, target.column_view(attribute)),
        blocks,
    )
    return [
        index.overlap(cache.code_map_for(attribute, function))
        for function in functions
    ]


class StateExpander:
    """Produces the successor states of a search state (Algorithm 1)."""

    def __init__(self, instance: ProblemInstance, config: AffidavitConfig,
                 evaluator: StateEvaluator, rng: Optional[random.Random] = None,
                 *, tracer: Optional[Tracer] = None,
                 should_stop: Optional[Callable[[], bool]] = None):
        self._instance = instance
        self._config = config
        # The run's cooperative stop predicate, polled per attribute, before
        # ranking and every 32 induction examples; ``None`` never stops.
        self._should_stop = should_stop
        self._evaluator = evaluator
        self._rng = rng if rng is not None else random.Random(config.seed)
        # Per-phase span sink; the no-op default keeps the hot path free.
        self._tracer = ensure_tracer(tracer)
        self._example_budget = example_sample_size(
            config.theta, config.confidence,
            min_successes=config.min_generation_successes,
        )
        self._ranking_budget = cochran_sample_size(config.theta)
        # Cross-state memo of per-example candidate induction over interned
        # function ids; only the columnar engine uses it (the row-wise
        # fallback stays pre-memoization so benchmarks and equivalence tests
        # compare against the true baseline).  Induction is deterministic per
        # (source, target) value pair, so memoization cannot change the
        # induced candidates.
        self._induction_memo: Optional[InductionMemo] = (
            InductionMemo() if evaluator.columnar else None
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def example_budget(self) -> int:
        """Number of target records sampled per attribute for induction (k)."""
        return self._example_budget

    @property
    def ranking_budget(self) -> int:
        """Number of source records sampled per attribute for ranking (k')."""
        return self._ranking_budget

    def expand(self, state: SearchState,
               blocking: Optional[BlockingResult] = None) -> List[Extension]:
        """All successor states of *state* (the ``Extensions`` procedure)."""
        if blocking is None:
            blocking = self._evaluator.blocking(state)
        undecided = state.undecided_attributes
        if not undecided:
            if state.map_marked_attributes:
                return [self._finalize(state)]
            return []

        # The one materialisation of this state's block views: every phase
        # of the expansion reads them, and they are dropped with it (the
        # search never expands a state twice).
        mixed_blocks = blocking.mixed_blocks()
        ordered = self._order_by_indeterminacy(undecided, mixed_blocks)
        alignment = sample_random_alignment(mixed_blocks, self._rng)

        extensions: List[Extension] = []
        map_candidates: List[str] = []
        cursor = 0
        batch = ordered[: self._config.beta]
        cursor = len(batch)
        should_stop = self._should_stop
        while not extensions and batch:
            for attribute in batch:
                if should_stop is not None and should_stop():
                    # Per-attribute induction is the expensive inner phase:
                    # polling here caps the cooperative overshoot at one
                    # attribute instead of one full expansion.  Hand back the
                    # successors found so far; the search loop observes the
                    # stop before its next poll and finalises best-so-far.
                    return extensions
                found = self._extensions_for_attribute(
                    state, blocking, mixed_blocks, alignment, attribute
                )
                if found:
                    extensions.extend(found)
                else:
                    map_candidates.append(attribute)
            if extensions or cursor >= len(ordered):
                batch = []
            else:
                batch = [ordered[cursor]]
                cursor += 1

        if extensions:
            return extensions

        # Every undecided attribute is best served by a value mapping: mark
        # them all and finalise the state into an end state.
        marked = state
        for attribute in undecided:
            marked = marked.extend(attribute, MAP_MARKER)
        return [self._finalize(marked)]

    # ------------------------------------------------------------------ #
    # attribute ordering
    # ------------------------------------------------------------------ #
    def _order_by_indeterminacy(self, attributes: Sequence[str],
                                mixed_blocks: Sequence[Block]) -> List[str]:
        """Most determined attribute first (Section 4.3)."""
        source = self._instance.source
        scored = [
            (max_distinct_source_values(mixed_blocks, source.column_view(attribute)),
             self._instance.schema.index_of(attribute),
             attribute)
            for attribute in attributes
        ]
        scored.sort()
        return [attribute for _, _, attribute in scored]

    # ------------------------------------------------------------------ #
    # per-attribute extension
    # ------------------------------------------------------------------ #
    def _extensions_for_attribute(self, state: SearchState, blocking: BlockingResult,
                                  mixed_blocks: Sequence[Block],
                                  alignment: AlignmentPairs,
                                  attribute: str) -> List[Extension]:
        """Extensions of *state* on *attribute* that beat the greedy map.

        The greedy map and every ranked candidate are refined against the
        current blocking (through the column cache) and their successor costs
        are scored in one batch; only candidates beating the greedy benchmark
        materialise successor states.
        """
        candidates = self._induce_ranked_candidates(mixed_blocks, attribute)
        if not candidates:
            # Nothing to compare against the greedy benchmark; skip building
            # it (no RNG is involved, so the search trajectory is unchanged).
            return []
        with self._tracer.span("greedy_map"):
            greedy_map = induce_greedy_mapping(
                alignment, self._instance.source, self._instance.target, attribute
            )
        functions: List[AttributeFunction] = [greedy_map] + candidates

        cache = self._evaluator.column_cache
        with self._tracer.span("refine_bounds") as span:
            span.add("functions", len(functions))
            # Bounds only: almost every candidate loses to the greedy
            # benchmark, so refined blockings are built for the winners only.
            bounds = [
                refine_blocking_bounds(
                    self._instance, blocking, attribute, function, cache
                )
                for function in functions
            ]
        base_length = state.function_description_length
        costs = self._evaluator.batch_costs_from_bounds(
            [base_length + function.description_length for function in functions],
            bounds,
        )

        greedy_cost = costs[0]
        extensions: List[Extension] = []
        for position in range(1, len(functions)):
            cost = costs[position]
            if cost < greedy_cost:
                function = functions[position]
                with self._tracer.span("blocking_refine"):
                    refined = refine_blocking(
                        self._instance, blocking, attribute, function, cache
                    )
                successor = state.extend(attribute, function)
                self._evaluator.remember_blocking(successor, refined)
                extensions.append(
                    Extension(state=successor, cost=cost, blocking=refined, attribute=attribute)
                )
        return extensions

    # ------------------------------------------------------------------ #
    # candidate induction and ranking (Section 4.4)
    # ------------------------------------------------------------------ #
    def _induce_ranked_candidates(self, mixed_blocks: Sequence[Block],
                                  attribute: str) -> List[AttributeFunction]:
        """The top-β candidate functions for *attribute* over the state's
        mixed blocks."""
        if not mixed_blocks:
            return []
        with self._tracer.span("induction") as span:
            candidates = self._induce_candidates(mixed_blocks, attribute)
            span.add("candidates", len(candidates))
        if not candidates:
            return []
        should_stop = self._should_stop
        if should_stop is not None and should_stop():
            # Ranking transforms whole columns per candidate; once the
            # deadline has passed, skip it and report no viable candidates
            # so the expansion winds down immediately.
            return []
        with self._tracer.span("ranking") as span:
            span.add("candidates", len(candidates))
            ranked = self._rank_candidates(candidates, mixed_blocks, attribute)
        return ranked[: self._config.beta]

    def _induce_candidates(self, mixed_blocks: Sequence[Block],
                           attribute: str) -> List[AttributeFunction]:
        """Sample target records and induce significant candidate functions.

        Sampling draws ``(block, offset)`` pairs directly from the blocks'
        target-record counts (no flattened population list), and per-example
        induction is memoized across states by value pair.
        """
        sizes = [len(block.target_ids) for block in mixed_blocks]
        total = sum(sizes)
        budget = min(self._example_budget, total)
        if budget == 0:
            return []
        sampled = sample_concatenated(self._rng, sizes, budget)

        counts, examples_seen = self._generation_counts(mixed_blocks, attribute, sampled)
        threshold = generation_threshold(
            self._example_budget, examples_seen,
            min_successes=self._config.min_generation_successes,
        )
        return [
            function for function, count in counts.items() if count >= threshold
        ]

    def _generation_counts(
            self, mixed_blocks: Sequence[Block], attribute: str,
            sampled: Sequence[Tuple[int, int]],
    ) -> Tuple[Dict[AttributeFunction, int], int]:
        """Per-candidate generation counts over the sampled examples.

        The returned mapping iterates in first-generation order — the order
        :meth:`CandidatePool.filtered` would produce — which downstream
        ranking relies on for stable tie-breaking.  The columnar engine
        counts through :func:`induce_generation_counts`, the row-wise engine
        through a plain :class:`CandidatePool`.
        """
        should_stop = self._should_stop

        def examples() -> Iterable[Tuple[int, int]]:
            for position, (block_index, offset) in enumerate(sampled):
                # Per-example induction is the single most expensive inner
                # loop, so a deadline firing mid-attribute truncates the
                # sample instead of finishing it.  The significance threshold
                # scales with ``examples_seen``, so a truncated sample still
                # yields honest (if fewer) candidates; without a stop hook
                # the loop and the trajectory are unchanged.
                if should_stop is not None and position % 32 == 31 and should_stop():
                    return
                yield block_index, mixed_blocks[block_index].target_ids[offset]

        if self._induction_memo is not None:
            return induce_generation_counts(
                self._induction_memo, self._instance, attribute, examples(),
                lambda block_index: mixed_blocks[block_index].source_ids,
            )
        # Row-wise engine: the un-memoised pool, the reference the interned
        # path is tested against.
        source_column = self._instance.source.column_view(attribute)
        target_column = self._instance.target.column_view(attribute)
        pool = CandidatePool()
        block_values: Dict[int, List[str]] = {}
        for block_index, target_row in examples():
            values = block_values.get(block_index)
            if values is None:
                values = sorted({
                    source_column[source_id]
                    for source_id in mixed_blocks[block_index].source_ids
                })
                block_values[block_index] = values
            pool.add_example(self._instance.registry, values, target_column[target_row])
        return pool.generation_counts(), pool.examples_seen

    def _rank_candidates(self, candidates: Sequence[AttributeFunction],
                         mixed_blocks: Sequence[Block],
                         attribute: str) -> List[AttributeFunction]:
        """Rank candidates by sampled histogram overlap minus description length.

        The columnar engine indexes the sampled blocks once and scores each
        candidate from its memoized code map — see
        :class:`PostingsIndex`.  The row-wise fallback applies every
        candidate cell by cell per block, as the pre-columnar engine did.
        Both paths produce identical overlap scores and ranking.
        """
        sizes = [len(block.source_ids) for block in mixed_blocks]
        total = sum(sizes)
        budget = min(self._ranking_budget, total)
        sampled = sample_concatenated(self._rng, sizes, budget)

        sampled_block_indices: List[int] = []
        seen = set()
        for block_index, _ in sampled:
            if block_index not in seen:
                seen.add(block_index)
                sampled_block_indices.append(block_index)

        if self._evaluator.columnar:
            scored = self._score_candidates_columnar(
                candidates, mixed_blocks, sampled_block_indices, attribute
            )
        else:
            scored = self._score_candidates_rowwise(
                candidates, mixed_blocks, sampled_block_indices, attribute
            )
        scored.sort(key=lambda item: (-item[0], -item[1]))
        return [candidate for _, _, candidate in scored]

    def _score_candidates_columnar(
            self, candidates: Sequence[AttributeFunction],
            mixed_blocks: Sequence[Block], block_indices: Sequence[int],
            attribute: str) -> List[Tuple[float, int, AttributeFunction]]:
        """Overlap scores through a :class:`PostingsIndex` of the sampled
        blocks and each candidate's memoized code map.  Scores equal :meth:`_score_candidates_rowwise`.
        """
        blocks = [
            (mixed_blocks[i].source_ids, mixed_blocks[i].target_ids)
            for i in block_indices
        ]
        overlaps = candidate_overlaps(
            self._evaluator.column_cache, self._instance.target, attribute,
            candidates, blocks,
        )
        return [
            (overlap - candidate.description_length, -order, candidate)
            for order, (candidate, overlap) in enumerate(zip(candidates, overlaps))
        ]

    def _score_candidates_rowwise(
            self, candidates: Sequence[AttributeFunction],
            mixed_blocks: Sequence[Block], block_indices: Sequence[int],
            attribute: str) -> List[Tuple[float, int, AttributeFunction]]:
        """Overlap scores via per-cell application (pre-columnar baseline)."""
        source_column = self._instance.source.column_view(attribute)
        target_column = self._instance.target.column_view(attribute)
        evaluated_blocks = [
            (
                [source_column[source_id] for source_id in mixed_blocks[i].source_ids],
                [target_column[target_id] for target_id in mixed_blocks[i].target_ids],
            )
            for i in block_indices
        ]
        scored: List[Tuple[float, int, AttributeFunction]] = []
        for order, candidate in enumerate(candidates):
            overlap = sum(
                block_overlap(candidate, source_values, target_values)
                for source_values, target_values in evaluated_blocks
            )
            scored.append((overlap - candidate.description_length, -order, candidate))
        return scored

    # ------------------------------------------------------------------ #
    # finalisation of map-marked attributes
    # ------------------------------------------------------------------ #
    def _finalize(self, state: SearchState) -> Extension:
        """Resolve every ``MAP_MARKER`` with a greedy map, one at a time."""
        with self._tracer.span("finalize"):
            return self._finalize_impl(state)

    def finalize_rushed(self, state: SearchState) -> SearchState:
        """Resolve every ``MAP_MARKER`` against a single blocking build.

        The cancelled-search path wants *an* end state now, not the
        marginally better one :meth:`_finalize` gets from re-blocking after
        each resolved marker (k+1 blocking builds for k markers, the
        dominant post-deadline cost).  The caller recomputes the final cost
        from the explanation either way, so only the state is returned.
        """
        with self._tracer.span("finalize_rushed"):
            blocking = build_blocking(
                self._instance, state, self._evaluator.column_cache
            )
            alignment = sample_random_alignment(blocking.mixed_blocks(), self._rng)
            current = state
            for attribute in state.map_marked_attributes:
                mapping = induce_greedy_mapping(
                    alignment, self._instance.source, self._instance.target,
                    attribute,
                )
                current = current.replace(attribute, mapping)
            return current

    def _finalize_impl(self, state: SearchState) -> Extension:
        cache = self._evaluator.column_cache
        current = state
        while True:
            marked = current.map_marked_attributes
            if not marked:
                break
            blocking = build_blocking(self._instance, current, cache)
            alignment = sample_random_alignment(blocking.mixed_blocks(), self._rng)
            attribute = marked[0]
            mapping = induce_greedy_mapping(
                alignment, self._instance.source, self._instance.target, attribute
            )
            current = current.replace(attribute, mapping)
        final_blocking = build_blocking(self._instance, current, cache)
        self._evaluator.remember_blocking(current, final_blocking)
        cost = self._evaluator.cost(current, final_blocking)
        return Extension(state=current, cost=cost, blocking=final_blocking, attribute=None)
