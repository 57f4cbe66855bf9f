"""Induction of candidate attribute functions from noisy input–output examples.

Section 4.4.2 of the paper: for an attribute, sample up to ``k`` distinct
target records from blocks that contain both source and target records and try
to produce each sampled target value from *any* source value in the same
block.  Every meta-function instantiation consistent with at least one such
example becomes a candidate; candidates that were generated fewer times than
a binomial significance test requires are filtered out.

This module provides the per-example induction and the aggregation /
filtering; the sampling of blocks lives in :mod:`repro.core.extension` because
it depends on the search state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .base import AttributeFunction
from .registry import FunctionRegistry


class InductionMemo:
    """Per-example induction results over interned function ids.

    ``meta.induce(source_value, target_value)`` is deterministic and the same
    value pairs recur across blocks, examples and — most importantly — search
    states, so the candidates of a pair are induced once and remembered.
    Every induced function is *interned* as a small int the first time it is
    seen, and a value pair maps to the tuple of its candidates' distinct ids
    in registry order.  Counting generations then hashes ints instead of
    :class:`AttributeFunction` objects; ids map back to functions only for the
    returned counts.  One memo must only ever be used with a single registry;
    the state expander owns one per search.

    The memo is cleared wholesale — pairs and ids together — once it holds
    *max_entries* pairs.  That happens only at the start of a
    :meth:`generation_counts` call, so no id outlives its function.
    """

    __slots__ = ("_pairs", "_ids", "_functions", "_max_entries", "hits", "misses")

    def __init__(self, max_entries: int = 262_144):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._pairs: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        self._ids: Dict[AttributeFunction, int] = {}
        self._functions: List[AttributeFunction] = []
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._pairs)

    def _induce_pair(self, registry: FunctionRegistry, source_value: str,
                     target_value: str) -> Tuple[int, ...]:
        """Induce, intern and remember the candidates of one value pair: their
        distinct ids in registry order."""
        self.misses += 1
        ids = self._ids
        functions = self._functions
        induced = []
        for meta in registry:
            for function in meta.induce(source_value, target_value):
                function_id = ids.get(function)
                if function_id is None:
                    function_id = ids[function] = len(functions)
                    functions.append(function)
                induced.append(function_id)
        self._pairs[source_value, target_value] = result = tuple(dict.fromkeys(induced))
        return result

    def generation_counts(
            self, registry: FunctionRegistry,
            examples: Iterable[Tuple[Hashable, str]],
            block_values: Callable[[Hashable], Sequence[str]],
    ) -> Tuple[Dict[AttributeFunction, int], int]:
        """``(function -> generation count, examples seen)`` over *examples*.

        Each example is a ``(block key, target value)`` pair; *block_values*
        gives a block's source values (called once per block key).  Counts
        and iteration order equal a :class:`CandidatePool` fed the same
        examples: each example counts a candidate at most once, and the
        result iterates in first-generation order.  An example repeating
        within the call reuses its deduplicated id tuple; an example whose
        block holds one source value is that value pair's id tuple.
        """
        if len(self._pairs) >= self._max_entries:
            self._pairs.clear()
            self._ids.clear()
            self._functions.clear()
        pair_ids = self._pairs.get
        induce_pair = self._induce_pair
        values_by_block: Dict[Hashable, Sequence[str]] = {}
        per_example: Dict[Tuple[Hashable, str], Tuple[int, ...]] = {}
        seen: List[Tuple[int, ...]] = []
        lookups = 0
        misses = self.misses
        for example in examples:
            example_ids = per_example.get(example)
            if example_ids is None:
                block_key, target_value = example
                values = values_by_block.get(block_key)
                if values is None:
                    values = values_by_block[block_key] = block_values(block_key)
                parts = []
                for value in values:
                    ids = pair_ids((value, target_value))
                    if ids is None:
                        ids = induce_pair(registry, value, target_value)
                    parts.append(ids)
                lookups += len(parts)
                # A pair's ids are distinct already, so a block with one
                # source value needs no merge.
                example_ids = per_example[example] = parts[0] if len(parts) == 1 \
                    else tuple(dict.fromkeys(chain.from_iterable(parts)))
            seen.append(example_ids)
        self.hits += lookups - (self.misses - misses)
        # One counting pass; it meets the ids in the order the examples
        # generated them, so first-generation order is kept.
        counts = Counter(chain.from_iterable(seen))
        functions = self._functions
        return (
            {functions[function_id]: count for function_id, count in counts.items()},
            len(seen),
        )


@dataclass
class CandidateStats:
    """Bookkeeping for one candidate function during induction."""

    function: AttributeFunction
    generation_count: int = 0
    examples: List[Tuple[str, str]] = field(default_factory=list)

    def record(self, source_value: str, target_value: str) -> None:
        self.generation_count += 1
        if len(self.examples) < 5:
            self.examples.append((source_value, target_value))


class CandidatePool:
    """Accumulates candidate functions over many induction examples."""

    def __init__(self) -> None:
        self._stats: Dict[AttributeFunction, CandidateStats] = {}
        self._examples_seen = 0

    @property
    def examples_seen(self) -> int:
        """Number of (target value, block) induction examples processed."""
        return self._examples_seen

    @property
    def candidates(self) -> List[AttributeFunction]:
        return list(self._stats)

    def stats_for(self, function: AttributeFunction) -> Optional[CandidateStats]:
        return self._stats.get(function)

    def generation_counts(self) -> Counter:
        """Histogram ``function -> number of examples that generated it``."""
        return Counter({f: s.generation_count for f, s in self._stats.items()})

    def add_example(self, registry: FunctionRegistry, source_values: Sequence[str],
                    target_value: str) -> None:
        """Induce candidates for one sampled target value.

        Every source value of the target's block is tried as the input half of
        the example, but each candidate is counted at most once per example so
        that large blocks do not dominate the significance statistics.
        """
        self._examples_seen += 1
        generated_here = set()
        for source_value in source_values:
            for meta in registry:
                for function in meta.induce(source_value, target_value):
                    if function in generated_here:
                        continue
                    generated_here.add(function)
                    stats = self._stats.get(function)
                    if stats is None:
                        stats = CandidateStats(function)
                        self._stats[function] = stats
                    stats.record(source_value, target_value)

    def filtered(self, min_generation_count: int) -> List[AttributeFunction]:
        """Candidates generated at least *min_generation_count* times."""
        return [
            stats.function
            for stats in self._stats.values()
            if stats.generation_count >= min_generation_count
        ]

    def __len__(self) -> int:
        return len(self._stats)


def induce_candidates(registry: FunctionRegistry,
                      examples: Iterable[Tuple[Sequence[str], str]],
                      *, min_generation_count: int = 1) -> List[AttributeFunction]:
    """Convenience wrapper: induce and filter candidates from explicit examples.

    Parameters
    ----------
    registry:
        The meta functions to instantiate.
    examples:
        Iterable of ``(source values of the block, sampled target value)``.
    min_generation_count:
        Minimum number of examples a candidate must be generated from to
        survive filtering (Section 4.4.2's significance threshold).
    """
    pool = CandidatePool()
    for source_values, target_value in examples:
        pool.add_example(registry, source_values, target_value)
    return pool.filtered(min_generation_count)
