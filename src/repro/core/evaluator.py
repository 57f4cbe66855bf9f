"""Cost evaluation of search states (Section 4.5).

The evaluator ties together blocking and the partial-cost lower bounds: for a
search state ``H`` it computes

* ``c_f(H)`` — description length of the functions assigned so far,
* ``c_t(H)`` — target records that can no longer be aligned (blocks with more
  targets than sources),
* ``c_s(H)`` — source records that can no longer be aligned,

and combines them into the state cost of Definition 4.6.  For end states the
result coincides with the explanation cost of Definition 3.10, which is what
allows the best-first search to stop as soon as it polls an end state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from .blocking import BlockingResult, build_blocking
from .colcache import ColumnCache, ColumnCacheStats
from .cost import batch_partial_state_costs, partial_state_cost
from .instance import ProblemInstance
from .search_state import SearchState

#: LRU bound of the column cache: maximum number of cached
#: ``(function, attribute)`` value maps (each at most one entry per distinct
#: value of the column).
COLUMN_CACHE_ENTRIES = 4096

#: LRU bound of the state-keyed blocking cache: how many recently used
#: blockings are kept so sibling extensions and queue re-polls of a state
#: reuse the parent blocking instead of rebuilding it.
BLOCKING_CACHE_SIZE = 64


class StateEvaluator:
    """Computes blockings and costs of search states for one problem instance.

    The evaluator is the owner of the search's :class:`ColumnCache`: every
    blocking it builds transforms source columns through the cache, so the
    per-attribute application work is shared across all states of one search.
    ``columnar=False`` switches to the row-wise fallback engine (identical
    results, no memoization, string blocking keys) — the reference engine of
    the equivalence tests and the baseline of the evaluator benchmark.

    It also owns the search's *state-keyed blocking LRU*: sibling extensions
    of one parent and re-polls of a queued state ask for the same blocking
    many times, and the LRU answers all but the first from memory
    (``cache_size`` states, with hit/miss counters in
    :meth:`blocking_cache_info`).  An entry is a :class:`BlockingResult`,
    i.e. two block-id arrays; the expander builds block views from it only
    for the state it expands.
    """

    def __init__(self, instance: ProblemInstance, *, alpha: float = 0.5,
                 cache_size: int = BLOCKING_CACHE_SIZE, columnar: bool = True):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self._instance = instance
        self._alpha = alpha
        self._cache_size = max(1, cache_size)
        self._blocking_cache: "OrderedDict[SearchState, BlockingResult]" = OrderedDict()
        self._blocking_hits = 0
        self._blocking_misses = 0
        self._column_cache = ColumnCache(
            instance.source, max_entries=COLUMN_CACHE_ENTRIES, enabled=columnar,
        )

    @property
    def instance(self) -> ProblemInstance:
        return self._instance

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def column_cache(self) -> ColumnCache:
        """The per-attribute application cache shared across search states."""
        return self._column_cache

    @property
    def columnar(self) -> bool:
        """True when the columnar (memoized) engine is active."""
        return self._column_cache.enabled

    def cache_stats(self) -> ColumnCacheStats:
        """Snapshot of the column cache's hit/miss/eviction counters."""
        return self._column_cache.stats()

    # ------------------------------------------------------------------ #
    # blocking with a small LRU cache
    # ------------------------------------------------------------------ #
    def blocking(self, state: SearchState) -> BlockingResult:
        """The blocking result of *state*, cached across repeated lookups."""
        cached = self._blocking_cache.get(state)
        if cached is not None:
            self._blocking_hits += 1
            self._blocking_cache.move_to_end(state)
            return cached
        self._blocking_misses += 1
        blocking = build_blocking(self._instance, state, self._column_cache)
        self.remember_blocking(state, blocking)
        return blocking

    def blocking_cache_info(self) -> Dict[str, int]:
        """Counters of the state-keyed blocking LRU (hits, misses, size)."""
        return {
            "hits": self._blocking_hits,
            "misses": self._blocking_misses,
            "entries": len(self._blocking_cache),
            "max_entries": self._cache_size,
        }

    def remember_blocking(self, state: SearchState, blocking: BlockingResult) -> None:
        """Store an externally computed blocking (e.g. produced by refinement)."""
        self._blocking_cache[state] = blocking
        self._blocking_cache.move_to_end(state)
        while len(self._blocking_cache) > self._cache_size:
            self._blocking_cache.popitem(last=False)

    # ------------------------------------------------------------------ #
    # costs
    # ------------------------------------------------------------------ #
    def cost(self, state: SearchState,
             blocking: Optional[BlockingResult] = None) -> float:
        """The state cost ``c(H)`` (Definition 4.6)."""
        if blocking is None:
            blocking = self.blocking(state)
        target_bound, source_bound = blocking.unaligned_bounds()
        return self.cost_from_bounds(
            state,
            unaligned_target_bound=target_bound,
            unaligned_source_bound=source_bound,
        )

    def cost_from_bounds(self, state: SearchState, *, unaligned_target_bound: int,
                         unaligned_source_bound: int) -> float:
        """The state cost given precomputed blocking bounds."""
        return partial_state_cost(
            n_attributes=self._instance.n_attributes,
            function_lengths=state.function_description_length,
            unaligned_target_bound=unaligned_target_bound,
            unaligned_source_bound=unaligned_source_bound,
            delta=self._instance.delta,
            alpha=self._alpha,
        )

    def batch_costs_from_bounds(self, function_lengths: Sequence[int],
                                bounds: Sequence[Tuple[int, int]]) -> List[float]:
        """State costs for many candidate extensions in one call.

        *function_lengths* holds ``c_f`` per candidate successor,
        *bounds* the matching ``(c_t, c_s)`` pairs from its refined blocking.
        Element *i* equals what :meth:`cost_from_bounds` would return for the
        *i*-th successor — the expander uses this to score a whole candidate
        batch against the greedy-map benchmark at once.
        """
        return batch_partial_state_costs(
            n_attributes=self._instance.n_attributes,
            function_lengths=function_lengths,
            bounds=bounds,
            delta=self._instance.delta,
            alpha=self._alpha,
        )
