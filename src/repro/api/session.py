"""The session facade: the one place where work enters the search engine.

:class:`ExplainSession` owns everything between a request and an outcome.
Its one :meth:`~ExplainSession.prepare` step loads the snapshots, builds the
problem instance over the resolved function pool and resolves the
configuration; :meth:`~ExplainSession.run` then does engine dispatch,
progress and cancellation wiring.  The CLI, the HTTP service's job manager,
the batch runner and library callers all go through those two steps, so
they behave identically.  Sessions are immutable; the fluent builder
methods return new sessions:

    >>> from repro.api import ExplainRequest, Session
    >>> outcome = (
    ...     Session()
    ...     .with_config("hid", seed=7)
    ...     .with_functions("identity", "division")
    ...     .explain(ExplainRequest(source_path="old.csv", target_path="new.csv"))
    ... )                                                      # doctest: +SKIP
    >>> outcome.explanation.functions["Val"]                   # doctest: +SKIP
    Division(1000)
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, Optional, Tuple, Union

from ..core import (
    Affidavit,
    AffidavitConfig,
    ProblemInstance,
    SearchProgress,
)
from ..dataio import Table, TableError
from ..dataio.buffers import (
    BufferFormatError,
    content_digest,
    open_snapshot_pair,
    write_snapshot_pair,
)
from ..functions import FunctionRegistry, default_registry
from ..obs import NULL_TRACER, Span, Tracer, ensure_tracer, get_registry
from .budget import TIER_FULL, ExplainBudget, validate_strategy
from .errors import RequestValidationError
from .events import SearchCompleted, SearchEvent, SearchProgressed, SearchStarted
from .outcome import ExplainOutcome
from .request import (
    ExplainRequest,
    PreparedRun,
    config_with_overrides,
    named_config,
    resolve_config,
    resolve_registry,
    subset_registry,
)
from .strategies import StrategyChain

ProgressCallback = Callable[[SearchProgress], None]
StopCallback = Callable[[], bool]

# Library-level metrics: every completed run, whichever front door it came
# through (the CLI, the service's jobs and the batch runner all execute here).
_api_metrics = get_registry()
_EXPLAINS_TOTAL = _api_metrics.counter(
    "repro_explains_total",
    "Explanation runs completed through repro.api",
    ("engine",),
)
_EXPLAINS_CANCELLED_TOTAL = _api_metrics.counter(
    "repro_explains_cancelled_total",
    "Explanation runs that were cancelled cooperatively",
)
_EXPLAIN_LATENCY = _api_metrics.histogram(
    "repro_explain_seconds",
    "End-to-end explanation latency (snapshot loading plus search)",
)


def _chain_progress(first: Optional[ProgressCallback],
                    second: Optional[ProgressCallback]) -> Optional[ProgressCallback]:
    if first is None:
        return second
    if second is None:
        return first

    def chained(progress: SearchProgress) -> None:
        first(progress)
        second(progress)

    return chained


def _chain_stop(first: Optional[StopCallback],
                second: Optional[StopCallback]) -> Optional[StopCallback]:
    if first is None:
        return second
    if second is None:
        return first

    def chained() -> bool:
        return first() or second()

    return chained


class ExplainSession:
    """Facade over the Affidavit engine for request-driven explanation runs.

    Parameters
    ----------
    config:
        Session-level search configuration.  When set it is authoritative:
        requests executed through this session run with exactly this
        configuration, and their ``config`` / ``overrides`` / ``engine``
        fields only contribute provenance.  When unset (the default) the
        configuration is resolved from each request.
    registry:
        Session-level meta-function pool; requests may subset it by name.
        Defaults to :func:`repro.functions.default_registry`.
    progress_callback / should_stop:
        The run observers every search of this session gets (see
        :meth:`with_progress` / :meth:`with_cancellation`).
    data_root:
        Directory that request snapshot paths are confined to (``None``
        resolves paths as given).
    snapshot_cache:
        Directory for the content-addressed binary snapshot cache (see
        :meth:`with_snapshot_cache`); ``None`` (the default) disables it.
    tracer:
        A :class:`repro.obs.Tracer` recording per-phase spans of every run
        (see :meth:`with_tracer`).  ``None`` (the default) uses the no-op
        tracer: zero overhead, no ``outcome.trace``.
    """

    def __init__(self, *,
                 config: Optional[AffidavitConfig] = None,
                 registry: Optional[FunctionRegistry] = None,
                 progress_callback: Optional[ProgressCallback] = None,
                 should_stop: Optional[StopCallback] = None,
                 data_root: Optional[Path] = None,
                 tracer: Optional[Tracer] = None,
                 budget: Optional[ExplainBudget] = None,
                 strategy: Optional[Tuple[str, ...]] = None,
                 snapshot_cache: Optional[Path] = None):
        self._config = config
        self._registry = registry
        self._progress_callback = progress_callback
        self._should_stop = should_stop
        self._data_root = data_root
        self._snapshot_cache = snapshot_cache
        self._tracer = tracer
        self._budget = budget
        self._strategy = strategy

    # ------------------------------------------------------------------ #
    # fluent builder
    # ------------------------------------------------------------------ #
    def _clone(self, **changes) -> "ExplainSession":
        state = {
            "config": self._config,
            "registry": self._registry,
            "progress_callback": self._progress_callback,
            "should_stop": self._should_stop,
            "data_root": self._data_root,
            "tracer": self._tracer,
            "budget": self._budget,
            "strategy": self._strategy,
            "snapshot_cache": self._snapshot_cache,
        }
        state.update(changes)
        return ExplainSession(**state)

    def with_config(self, config: Union[AffidavitConfig, str, None] = None,
                    **overrides) -> "ExplainSession":
        """A session pinned to *config* — an :class:`AffidavitConfig`, a base
        name (``"hid"`` / ``"hs"``), or ``None`` to keep the current one —
        with *overrides* applied on top.  Names and overrides resolve exactly
        as a request's do (:func:`~repro.api.request.config_with_overrides`):
        the same values are accepted, and rejected with the same message."""
        if isinstance(config, str):
            config = named_config(config)
        elif config is None:
            config = self._config
        if overrides:
            base = config if config is not None else named_config("hid")
            config = config_with_overrides(base, overrides)
        return self._clone(config=config)

    def with_registry(self, registry: FunctionRegistry) -> "ExplainSession":
        """A session using *registry* as its meta-function pool."""
        return self._clone(registry=registry)

    def with_functions(self, *names: str) -> "ExplainSession":
        """A session whose pool is restricted to the named families.

        Accepts either ``with_functions("identity", "division")`` or a single
        iterable ``with_functions(["identity", "division"])``.
        """
        if len(names) == 1 and not isinstance(names[0], str):
            names = tuple(names[0])
        base = self._registry if self._registry is not None else default_registry()
        return self._clone(registry=subset_registry(base, names))

    def with_progress(self, callback: ProgressCallback) -> "ExplainSession":
        """A session that also reports progress to *callback*."""
        return self._clone(
            progress_callback=_chain_progress(self._progress_callback, callback)
        )

    def with_cancellation(self, should_stop: StopCallback) -> "ExplainSession":
        """A session that also polls *should_stop* once per expansion."""
        return self._clone(should_stop=_chain_stop(self._should_stop, should_stop))

    def with_data_root(self, data_root: Union[str, Path, None]) -> "ExplainSession":
        """A session confining request snapshot paths to *data_root*."""
        return self._clone(
            data_root=Path(data_root) if data_root is not None else None
        )

    def with_snapshot_cache(self, cache_dir: Union[str, Path, None]) -> "ExplainSession":
        """A session caching materialised snapshots as binary buffer packs.

        Every snapshot pair this session loads is persisted under
        *cache_dir* as one content-addressed ``.afbuf`` file (keyed by a
        digest of the raw CSV bytes plus the delimiter).  A later request
        over the same bytes skips CSV parsing: the cache file is read and
        every column decoded from its stored codes and codebook.
        Corrupt or missing cache entries fall back to the CSV path and are
        rewritten.  ``None`` disables caching.
        """
        return self._clone(
            snapshot_cache=Path(cache_dir) if cache_dir is not None else None
        )

    def with_budget(self, budget: Union[ExplainBudget, float, int, None], *,
                    strategy: Optional[Tuple[str, ...]] = None) -> "ExplainSession":
        """A session whose runs go through the strategy chain under *budget*.

        *budget* is an :class:`~repro.api.budget.ExplainBudget` or a bare
        number of milliseconds (``None`` removes the session budget again).
        *strategy* optionally pins the tier walk order.  A session budget is
        authoritative: it wins over whatever ``budget`` a request carries.
        Runs of a session with neither budget nor strategy (and requests
        without them) bypass the chain entirely and stay bit-identical to
        the plain engines.
        """
        if budget is not None and not isinstance(budget, ExplainBudget):
            if isinstance(budget, bool) or not isinstance(budget, (int, float)):
                raise RequestValidationError(
                    f"budget must be an ExplainBudget, a number of "
                    f"milliseconds or None, got {budget!r}"
                )
            budget = ExplainBudget(deadline_ms=float(budget))
        if strategy is not None:
            strategy = tuple(strategy)
            validate_strategy(strategy)
        return self._clone(budget=budget, strategy=strategy)

    def with_tracer(self, tracer: Optional[Tracer]) -> "ExplainSession":
        """A session whose runs record per-phase spans into *tracer*.

        Each run becomes one ``explain`` root span (snapshot loading and
        the search phases) and the finished tree is attached to the outcome as
        ``outcome.trace``.  Tracing never changes results: runs stay
        bit-identical with tracing on or off.  ``None`` reverts to the
        zero-overhead no-op tracer.
        """
        return self._clone(tracer=tracer)

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> Optional[AffidavitConfig]:
        return self._config

    @property
    def registry(self) -> Optional[FunctionRegistry]:
        return self._registry

    def resolve_config(self, request: Optional[ExplainRequest] = None) -> AffidavitConfig:
        """The configuration a run of *request* would use: the session's
        pinned configuration when one is set, otherwise the request's named
        base plus its overrides and engine choice."""
        if self._config is not None:
            return self._config
        return resolve_config(request)

    def resolve_registry(self, request: Optional[ExplainRequest] = None) -> FunctionRegistry:
        """The meta-function pool a run of *request* would use."""
        return resolve_registry(request, self._registry)

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    def prepare(self, request: ExplainRequest) -> PreparedRun:
        """Turn *request* into a run, timing the load.

        Loads the two snapshots (paths confined to the session's data root,
        through the snapshot cache when one is configured), builds the
        problem instance over the resolved function pool and resolves the
        configuration.  Every malformed request — unreadable or
        inconsistent snapshots, unknown function names, invalid overrides —
        raises :class:`RequestValidationError` here, before any search.
        """
        started = time.perf_counter()
        source, target = self._load_tables(request)
        try:
            instance = ProblemInstance(
                source=source, target=target,
                registry=self.resolve_registry(request), name=request.name,
            )
        except TableError as error:
            # Snapshots that violate the engine's input contract (mismatched
            # schemas, reserved sentinel cells) are the client's problem.
            raise RequestValidationError(str(error)) from error
        return self._bind(instance, request, time.perf_counter() - started)

    def _bind(self, instance: ProblemInstance, request: Optional[ExplainRequest],
              load_seconds: float = 0.0) -> PreparedRun:
        """The run of *request* on an already-built *instance*."""
        return PreparedRun(
            instance=instance,
            config=self.resolve_config(request),
            request=request,
            load_seconds=load_seconds,
            # A pinned configuration is not the request's named base.
            base_config=(
                None if request is None or self._config is not None
                else request.config
            ),
        )

    def _snapshot_cache_path(self, request: ExplainRequest) -> Optional[Path]:
        """The content-addressed cache file for the request's snapshot bytes,
        or ``None`` when the bytes cannot be read (the CSV path will produce
        the proper validation error) or inline CSV holds a lone surrogate,
        which no UTF-8 cache key or ``AFBUF01`` value blob can carry."""
        try:
            if request.source_csv is not None:
                chunks = (
                    request.source_csv.encode("utf-8"),
                    request.target_csv.encode("utf-8"),
                )
            else:
                chunks = (
                    ExplainRequest._resolve(
                        request.source_path, self._data_root
                    ).read_bytes(),
                    ExplainRequest._resolve(
                        request.target_path, self._data_root
                    ).read_bytes(),
                )
        except (OSError, UnicodeEncodeError):
            return None
        digest = content_digest(*chunks, request.delimiter.encode("utf-8"))
        return self._snapshot_cache / f"{digest}.afbuf"

    def _load_tables(self, request: ExplainRequest) -> Tuple[Table, Table]:
        """The request's two snapshots.

        With a snapshot cache configured (:meth:`with_snapshot_cache`), a
        cache hit decodes the binary buffer pack instead of re-parsing CSV;
        misses parse the CSV once and write the pack for next time.
        """
        cache_path = None
        if self._snapshot_cache is not None:
            cache_path = self._snapshot_cache_path(request)
            if cache_path is not None:
                try:
                    source, target, _name = open_snapshot_pair(cache_path)
                    return source, target
                except (BufferFormatError, OSError):
                    pass  # missing or corrupt cache entry: rebuild from CSV
        source, target = request.load_tables(self._data_root)
        if cache_path is not None:
            try:
                write_snapshot_pair(source, target, cache_path, name=request.name)
            except OSError:
                pass  # an unwritable cache never fails the run
        return source, target

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def explain(self, request: ExplainRequest) -> ExplainOutcome:
        """Load the request's snapshots, run the search, return the outcome."""
        return self.run(self.prepare(request))

    def explain_instance(self, instance: ProblemInstance,
                         request: Optional[ExplainRequest] = None) -> ExplainOutcome:
        """Run the search on a pre-built instance (the instance's registry
        wins over any ``request.functions`` subset)."""
        return self.run(self._bind(instance, request))

    def explain_tables(self, source: Table, target: Table, *,
                       name: str = "instance") -> ExplainOutcome:
        """Convenience wrapper for two in-memory tables.

        Both snapshots are frozen in place (the search memoizes column
        transforms); pass ``table.copy()`` to keep a mutable original.
        """
        registry = self.resolve_registry(None)
        instance = ProblemInstance(
            source=source, target=target, registry=registry, name=name
        )
        return self.explain_instance(instance)

    def explain_iter(self, request: ExplainRequest) -> Iterator[SearchEvent]:
        """Stream the run as typed events: one :class:`SearchStarted`, one
        :class:`SearchProgressed` per expansion, one :class:`SearchCompleted`
        carrying the outcome.  Closing the iterator early cancels the search
        cooperatively (within one expansion)."""
        prepared = self.prepare(request)

        events: "queue.Queue[object]" = queue.Queue()
        abandoned = threading.Event()
        failure: list = []

        streaming = (
            self.with_progress(lambda progress: events.put(SearchProgressed(progress)))
            .with_cancellation(abandoned.is_set)
        )

        def run() -> None:
            try:
                events.put(SearchCompleted(streaming.run(prepared)))
            except BaseException as error:  # noqa: BLE001 - re-raised in consumer
                failure.append(error)
                events.put(None)

        worker = threading.Thread(
            target=run, name="affidavit-explain-iter", daemon=True
        )
        try:
            yield SearchStarted.of(prepared)
            worker.start()
            while True:
                event = events.get()
                if event is None:
                    raise failure[0]
                yield event
                if isinstance(event, SearchCompleted):
                    return
        finally:
            abandoned.set()
            if worker.is_alive():
                worker.join()

    def run(self, prepared: PreparedRun) -> ExplainOutcome:
        """Search a prepared run and return its outcome.

        The session's budget/strategy win over the request's; when neither
        sets either, the run bypasses the strategy chain and stays
        bit-identical to the plain engines.
        """
        request = prepared.request
        budget = self._budget
        if budget is None and request is not None:
            budget = request.budget
        strategy = self._strategy
        if strategy is None and request is not None:
            strategy = request.strategy
        if budget is None and strategy is None:
            return self._execute(prepared)
        chain = StrategyChain(self, budget=budget, strategy=strategy)
        return chain.run(prepared)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _execute(self, prepared: PreparedRun, *, tier: str = TIER_FULL,
                 confidence: Optional[str] = None) -> ExplainOutcome:
        """One search of *prepared*.

        The one place a run's observers are put together: the session's
        progress and cancellation chain (which carries the job manager's
        callbacks and the strategy chain's deadline), then a sleep per
        expansion when the request asks for ``throttle_seconds``.
        """
        progress = self._progress_callback
        request = prepared.request
        if request is not None and request.throttle_seconds > 0:
            seconds = request.throttle_seconds
            progress = _chain_progress(progress, lambda _: time.sleep(seconds))
        load_seconds = prepared.load_seconds
        tracer = ensure_tracer(self._tracer)
        with tracer.span("explain") as root:
            if tracer.enabled and load_seconds > 0.0:
                # Loading happened before the root span opened; attach it as
                # a synthetic child so the tree covers the whole run.
                root.attach(Span(
                    name="load",
                    start=max(0.0, tracer.now() - load_seconds),
                    duration=load_seconds,
                ))
            result = Affidavit(
                prepared.config, tracer=tracer,
                progress=progress, should_stop=self._should_stop,
            ).explain(prepared.instance)
        trace = root.snapshot() if tracer is not NULL_TRACER else None
        _EXPLAINS_TOTAL.inc(engine=result.engine)
        if result.cancelled:
            _EXPLAINS_CANCELLED_TOTAL.inc()
        _EXPLAIN_LATENCY.observe(load_seconds + result.runtime_seconds)
        return ExplainOutcome.from_result(
            result, prepared, trace=trace, tier=tier, confidence=confidence,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the session's resources.  A session holds none that need
        releasing, so this is a no-op kept with the context-manager protocol
        for callers written against builds that owned worker processes."""

    def __enter__(self) -> "ExplainSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Short alias for the fluent style: ``Session().with_config(...).explain(...)``.
Session = ExplainSession
