"""The Affidavit search engine (Algorithm 1).

``Affidavit.explain`` runs the best-first search over per-attribute function
assignments and converts the first end state it polls into a valid
explanation (Proposition 3.6).  The search is deterministic for a fixed
configuration seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from ..dataio import Table
from ..functions import FunctionRegistry
from ..obs import Tracer, ensure_tracer
from .colcache import ColumnCacheStats
from .config import AffidavitConfig, engine_name, identity_configuration
from .cost import explanation_cost, trivial_explanation_cost
from .evaluator import StateEvaluator
from .explanation import Explanation, explanation_from_functions, trivial_explanation
from .extension import StateExpander
from .initialization import start_states
from .instance import ProblemInstance
from .queue import BoundedLevelQueue
from .search_state import MAP_MARKER, SearchState


@dataclass(frozen=True)
class SearchProgress:
    """Snapshot handed to the run's ``progress`` observer (see
    :class:`Affidavit`) once per expansion — enough for a job monitor to
    display liveness and quality."""

    expansions: int
    generated_states: int
    queue_size: int
    best_cost: Optional[float]
    #: Column-cache counters at snapshot time; lets operators watch the hit
    #: rate live.  Under the row-wise fallback engine the cache stores
    #: nothing, so misses accumulate per lookup and only zero-work identity
    #: lookups count as hits.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of column lookups served from the cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class AffidavitResult:
    """Outcome of one search run."""

    explanation: Explanation
    cost: float
    trivial_cost: float
    end_state: SearchState
    expansions: int
    generated_states: int
    runtime_seconds: float
    config: AffidavitConfig
    #: True when the run's ``should_stop`` predicate ended the search early;
    #: the explanation is then the finalised best partial state, still valid
    #: but not necessarily what an uninterrupted run would have returned.
    cancelled: bool = False
    #: Final column-cache counters of the run (``None`` for results built
    #: before the columnar engine existed, e.g. unpickled ones).
    cache_stats: Optional[ColumnCacheStats] = None
    #: The evaluation engine that ran: ``"columnar"`` or ``"rowwise"``.
    engine: str = "columnar"
    #: Final blocking-LRU counters (``hits`` / ``misses`` / ``entries`` /
    #: ``max_entries``) of the run's evaluator; ``None`` on results built by
    #: older code paths.
    blocking_cache: Optional[Dict[str, int]] = None

    @property
    def compression_ratio(self) -> float:
        """Cost relative to the trivial explanation (< 1 means compression)."""
        if self.trivial_cost == 0:
            return 1.0
        return self.cost / self.trivial_cost

    def summary(self) -> str:
        lines = [
            f"cost                : {self.cost:.1f} (trivial {self.trivial_cost:.1f}, "
            f"ratio {self.compression_ratio:.2f})",
            f"expansions          : {self.expansions} "
            f"(generated {self.generated_states} states)",
            f"runtime             : {self.runtime_seconds:.3f}s",
        ]
        if self.cache_stats is not None and self.cache_stats.lookups:
            lines.append(
                f"column cache        : {self.cache_stats.hits} hits / "
                f"{self.cache_stats.lookups} lookups "
                f"({self.cache_stats.hit_rate:.0%} hit rate)"
            )
        if self.blocking_cache:
            hits = self.blocking_cache.get("hits", 0)
            lookups = hits + self.blocking_cache.get("misses", 0)
            if lookups:
                lines.append(
                    f"blocking cache      : {hits} hits / {lookups} lookups "
                    f"({hits / lookups:.0%} hit rate)"
                )
        lines.append(self.explanation.summary())
        return "\n".join(lines)


class Affidavit:
    """Facade of the search algorithm.

    The configuration holds the search parameters only; a run's observers
    are keyword arguments:

    ``tracer``
        Span sink for per-phase timings; defaults to the no-op tracer so the
        hot path pays nothing unless somebody is listening.
    ``progress``
        Called once per state expansion with a :class:`SearchProgress`.
    ``should_stop``
        Polled at the top of every expansion, before each attribute, before
        ranking and every 32 induction examples; returning ``True`` stops
        the search, which then finalises the best partial state seen so far
        and flags the result as cancelled.

    None of them influences the search trajectory: results stay
    bit-identical with or without observers, until ``should_stop`` fires.

    Examples
    --------
    >>> from repro import Affidavit, ProblemInstance
    >>> engine = Affidavit()
    >>> result = engine.explain(instance)          # doctest: +SKIP
    >>> result.explanation.functions["Val"]        # doctest: +SKIP
    Division(1000)
    """

    def __init__(self, config: Optional[AffidavitConfig] = None, *,
                 tracer: Optional[Tracer] = None,
                 progress: Optional[Callable[[SearchProgress], None]] = None,
                 should_stop: Optional[Callable[[], bool]] = None):
        self._config = config if config is not None else identity_configuration()
        self._tracer = ensure_tracer(tracer)
        self._progress = progress
        self._should_stop = should_stop

    @property
    def config(self) -> AffidavitConfig:
        return self._config

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def explain(self, instance: ProblemInstance) -> AffidavitResult:
        """Run the search on *instance* and return the best explanation found."""
        config = self._config
        started = time.perf_counter()

        evaluator = StateEvaluator(
            instance, alpha=config.alpha, columnar=config.columnar_cache,
        )
        rng = random.Random(config.seed)
        expander = StateExpander(instance, config, evaluator, rng,
                                 tracer=self._tracer,
                                 should_stop=self._should_stop)
        with self._tracer.span("search") as span:
            result = self._search(instance, config, evaluator, expander, started)
            span.add("expansions", result.expansions)
            span.add("generated_states", result.generated_states)
        return result

    def _search(self, instance: ProblemInstance, config: AffidavitConfig,
                evaluator: StateEvaluator, expander: StateExpander,
                started: float) -> AffidavitResult:
        queue = BoundedLevelQueue(config.queue_width)

        generated = 0
        initial_states = start_states(instance, config)
        if all(state.is_end_state for state in initial_states):
            # Degenerate case (e.g. a single-attribute schema under Hid, or an
            # overlap start state that pre-assigns every attribute): the start
            # states leave nothing to search, so add the empty state to give
            # the engine a chance to consider non-identity functions.
            initial_states = initial_states + [SearchState.empty(instance.schema)]
        for state in initial_states:
            cost = evaluator.cost(state)
            if queue.push(state, cost):
                generated += 1

        expanded: Set[SearchState] = set()
        expansions = 0
        best_entry = None
        best_seen_partial = None
        cancelled = False
        progress = self._progress
        should_stop = self._should_stop

        while queue:
            if should_stop is not None and should_stop():
                cancelled = True
                break
            entry = queue.poll()
            if entry.state.is_end_state:
                best_entry = entry
                break
            if entry.state in expanded:
                continue
            if best_seen_partial is None or entry.cost < best_seen_partial.cost:
                best_seen_partial = entry
            if config.max_expansions is not None and expansions >= config.max_expansions:
                break
            expanded.add(entry.state)
            expansions += 1
            with self._tracer.span("blocking"):
                blocking = evaluator.blocking(entry.state)
            for extension in expander.expand(entry.state, blocking):
                if extension.state in expanded:
                    continue
                if queue.push(extension.state, extension.cost):
                    generated += 1
            if progress is not None:
                cache_stats = evaluator.cache_stats()
                progress(SearchProgress(
                    expansions=expansions,
                    generated_states=generated,
                    queue_size=len(queue),
                    best_cost=(
                        best_seen_partial.cost if best_seen_partial is not None else None
                    ),
                    cache_hits=cache_stats.hits,
                    cache_misses=cache_stats.misses,
                    cache_evictions=cache_stats.evictions,
                ))

        if best_entry is None:
            # The expansion budget ran out or the queue drained without an
            # end state: force-finalise the best partial state seen so far.
            fallback_state = (
                best_seen_partial.state if best_seen_partial is not None
                else start_states(instance, config)[0]
            )
            marked = fallback_state
            for attribute in marked.undecided_attributes:
                marked = marked.extend(attribute, MAP_MARKER)
            if marked.is_end_state:
                end_state, end_cost = marked, evaluator.cost(marked)
            elif cancelled:
                # The caller's budget is already spent: resolve the markers
                # against one blocking build instead of one per marker.  The
                # returned cost is recomputed from the explanation below, so
                # only the trajectory of *non*-cancelled runs must (and
                # does) stay bit-identical.
                end_state, end_cost = expander.finalize_rushed(marked), None
            else:
                finalized = expander.expand(marked)[0]
                end_state, end_cost = finalized.state, finalized.cost
        else:
            end_state, end_cost = best_entry.state, best_entry.cost

        explanation = explanation_from_functions(instance, end_state.decided_functions)
        final_cost = explanation_cost(instance, explanation, alpha=config.alpha)
        trivial_cost = trivial_explanation_cost(instance, alpha=config.alpha)
        if final_cost > trivial_cost:
            # The trivial explanation is always available; never return worse.
            explanation = trivial_explanation(instance)
            final_cost = trivial_cost
            end_state = SearchState.from_functions(
                instance.schema, explanation.functions
            )

        runtime = time.perf_counter() - started
        return AffidavitResult(
            explanation=explanation,
            cost=final_cost,
            trivial_cost=trivial_cost,
            end_state=end_state,
            expansions=expansions,
            generated_states=generated,
            runtime_seconds=runtime,
            config=config,
            cancelled=cancelled,
            cache_stats=evaluator.cache_stats(),
            engine=engine_name(config),
            blocking_cache=evaluator.blocking_cache_info(),
        )


def explain_snapshots(source: Table, target: Table, *,
                      config: Optional[AffidavitConfig] = None,
                      registry: Optional[FunctionRegistry] = None,
                      name: str = "instance") -> AffidavitResult:
    """Convenience one-call API: build the instance and run the search.

    Note that both snapshots are frozen in place (the search memoizes column
    transforms); pass ``table.copy()`` to keep a mutable original.
    """
    if registry is not None:
        instance = ProblemInstance(source=source, target=target, registry=registry, name=name)
    else:
        instance = ProblemInstance(source=source, target=target, name=name)
    return Affidavit(config).explain(instance)
