"""Sharded parallel search engine (``engine="parallel"``).

The columnar engine evaluates one candidate extension at a time; on a
multi-core machine most of the hardware idles while one core walks blocks.
This module shards the three pure phases of the per-attribute candidate
evaluation across a persistent :class:`concurrent.futures.ProcessPoolExecutor`:

1. **Candidate induction** — the sampled ``(block, target value)`` examples
   are split into contiguous shards; each worker counts its shard with the
   sequential kernel (:func:`~repro.core.extension.induce_generation_counts`
   over a worker-local :class:`~repro.functions.induction.InductionMemo`)
   and ships back ``(function, generation count)`` pairs in
   first-generation order.
2. **Candidate ranking** — the sampled blocks are split into weight-balanced
   contiguous shards; each worker scores *every* candidate on its shard
   with the sequential kernel (:func:`~repro.core.extension.candidate_overlaps`
   through a worker-local :class:`~repro.core.colcache.ColumnCache`) and
   ships back per-candidate integer overlaps.
3. **Refinement bounds** — the state's block ids are split into
   weight-balanced contiguous ranges; each worker receives the blocking's
   two block-id arrays and its range, refines the rows of those blocks
   under every candidate function and ships back the per-function
   ``(c_t, c_s)`` bound contributions.

All three phases are deterministic given their inputs, and every merge is
order-stable (ordered first-seen merge for induction, integer sums for
ranking and bounds), so the parallel engine is **bit-identical** to the
columnar engine: every random draw stays in the coordinator, in the same
order, and the merged shard results equal what the sequential loops produce.
The equivalence is property-tested the same way rowwise-vs-columnar already
is.

The pool itself (:class:`ShardPool`) is owned by the caller — typically an
:class:`~repro.api.session.ExplainSession` or the service's
:class:`~repro.service.jobs.JobManager` — created lazily, reused across
searches, and shut down on ``close()``.  Workers cache problem instances by
token (shipped once, on demand, via a retry-on-miss protocol) together with
their per-shard column caches and induction memos, so repeated searches over
the same snapshots pay the serialisation cost once per worker.

When the pool cannot start, breaks mid-search, or a phase is too small to
amortise the IPC, every phase falls back to the sequential code path on the
already-drawn samples — results are unchanged, only the wall clock differs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import signal
import threading
import time
import uuid
from array import array
from collections import Counter, OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import suppress
from itertools import chain, compress
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..functions import AttributeFunction
from ..functions.induction import InductionMemo
from ..obs import get_registry
from .blocking import BlockingResult, count_bounds, refine_blocking_bounds
from .colcache import ColumnCache
from .extension import StateExpander, candidate_overlaps, induce_generation_counts
from .instance import ProblemInstance

#: Below these work sizes a phase stays in the coordinator: the IPC round trip
#: costs more than the sequential loop.  The thresholds only steer *where* a
#: phase runs, never *what* it returns, so they are safe to tune (tests pin
#: them to 0 to force every phase through the pool).
MIN_REMOTE_EXAMPLES = 16
MIN_REMOTE_RECORDS = 512

#: How many problem instances each worker process (and the coordinator-side
#: blob registry) retains; older entries are re-shipped on demand.
INSTANCE_CACHE_LIMIT = 4

# Coordinator-side shard accounting.  ``compute`` is time measured inside the
# worker around the actual task; ``ship`` is everything else the coordinator
# waited for — pickling, queueing, transport, the retry-on-miss round trip.
# The split is the diagnostic the ROADMAP's binary-columnar-store item needs:
# it says whether more workers or a cheaper wire format is the next win.
_shard_registry = get_registry()
_SHARD_TASKS = _shard_registry.counter(
    "repro_shard_tasks_total",
    "Shard tasks completed across all parallel-engine phases",
    ("phase",),
)
_SHARD_COMPUTE_SECONDS = _shard_registry.counter(
    "repro_shard_compute_seconds_total",
    "In-worker compute time of completed shard tasks",
    ("phase",),
)
_SHARD_SHIP_SECONDS = _shard_registry.counter(
    "repro_shard_ship_seconds_total",
    "Shipping overhead (coordinator wall time minus in-worker compute) of "
    "completed shard tasks",
    ("phase",),
)


def default_parallel_workers() -> int:
    """Worker count used when ``engine="parallel"`` is requested without an
    explicit ``parallel_workers`` override: every core up to four.  On a
    single-core machine this is 1, which the engine dispatch treats as "no
    pool" — the graceful fallback to the columnar engine."""
    return min(4, multiprocessing.cpu_count() or 1)


class PoolUnavailable(RuntimeError):
    """The shard pool cannot run tasks (failed to start, broken, or closed)."""


class _InstanceMissing(Exception):
    """Worker-side signal: the task referenced an instance token the worker
    has not seen yet; the coordinator retries with the shipping blob."""

    def __init__(self, token: str):
        super().__init__(token)
        self.token = token


# --------------------------------------------------------------------------- #
# packed wire formats
# --------------------------------------------------------------------------- #
# Shard payloads used to pickle Python ``List[int]`` row-id lists on every
# dispatch — tens of thousands of PyLong objects per phase.  Ids now cross
# the process boundary as flat ``array('i')`` byte buffers (a memcpy for
# pickle) and are read back as zero-copy ``memoryview`` casts.

def _pack_ids(ids: Sequence[int]) -> bytes:
    """A row-id list as packed int32 bytes."""
    return array("i", ids).tobytes()


def _unpack_ids(blob: bytes) -> Sequence[int]:
    """The zero-copy integer view of :func:`_pack_ids` bytes."""
    return memoryview(blob).cast("i")


def _pack_blocks(blocks: Sequence[Tuple[Sequence[int], Sequence[int]]],
                 ) -> Tuple[bytes, bytes]:
    """Blocks as two flat buffers: per-block ``(n_source, n_target)`` lengths
    and the concatenated source+target row ids."""
    lengths = array("i")
    flat = array("i")
    for source_ids, target_ids in blocks:
        lengths.append(len(source_ids))
        lengths.append(len(target_ids))
        flat.extend(source_ids)
        flat.extend(target_ids)
    return lengths.tobytes(), flat.tobytes()


def _unpack_blocks(lengths_blob: bytes, flat_blob: bytes,
                   ) -> List[Tuple[Sequence[int], Sequence[int]]]:
    """Rebuild :func:`_pack_blocks` blocks as zero-copy id views."""
    lengths = memoryview(lengths_blob).cast("i")
    flat = memoryview(flat_blob).cast("i")
    blocks: List[Tuple[Sequence[int], Sequence[int]]] = []
    position = 0
    for index in range(0, len(lengths), 2):
        n_sources = lengths[index]
        n_targets = lengths[index + 1]
        blocks.append((
            flat[position:position + n_sources],
            flat[position + n_sources:position + n_sources + n_targets],
        ))
        position += n_sources + n_targets
    return blocks


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #
class _WorkerContext:
    """Per-instance state a worker keeps between tasks: the instance itself,
    the per-shard column cache and the induction memo.

    The cache runs with dictionary encoding on, so each worker builds its
    attribute code dictionaries exactly once per shipped instance and every
    later shard over that instance works on integer code arrays.  Codes are
    worker-local (assignment order may differ between processes); only
    code-independent integers — generation counts, overlaps, bounds — ever
    cross back to the coordinator, so the merge stays bit-identical.
    """

    __slots__ = ("instance", "cache", "memo", "results")

    def __init__(self, instance: ProblemInstance, cache_entries: int):
        self.instance = instance
        self.cache = ColumnCache(
            instance.source, max_entries=cache_entries, enabled=True
        )
        self.memo = InductionMemo()
        #: LRU of completed shard-task results, keyed by payload digest.
        #: Every shard task is a pure function of the frozen instance and
        #: its payload, so a warm long-lived pool answers repeated tasks —
        #: re-explains of a shipped instance — without recomputing.
        self.results: "OrderedDict[Tuple[str, bytes], object]" = OrderedDict()


_WORKER_CONTEXTS: "OrderedDict[str, _WorkerContext]" = OrderedDict()


def _init_worker() -> None:
    """Run once per worker process: leave interrupt handling to the owner.

    A terminal Ctrl-C delivers SIGINT to the whole foreground process group;
    without this the idle workers die mid-``queue.get`` with noisy
    KeyboardInterrupt tracebacks while the coordinator is already shutting
    the pool down cleanly."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _attach_shipped_instance(name: str, size: int) -> ProblemInstance:
    """Read a shipped instance out of a coordinator-owned shared segment.

    The worker copies the blob out (one memcpy) and detaches immediately, so
    segment lifetime stays entirely with the coordinator.  Attaching
    re-registers the segment name, but spawn workers share the coordinator's
    resource-tracker process, so the registration set already holds the name
    (a no-op) and the coordinator's unlink clears it exactly once —
    unregistering here would strip the coordinator's own entry and trade a
    clean shutdown for tracker KeyError noise (bpo-39959 does not bite when
    the tracker is shared).
    """
    segment = shared_memory.SharedMemory(name=name)
    try:
        blob = bytes(segment.buf[:size])
    finally:
        segment.close()
    return ProblemInstance.from_ship_bytes(blob)


def _worker_context(token: str, blob: Optional[bytes]) -> _WorkerContext:
    context = _WORKER_CONTEXTS.get(token)
    if context is not None:
        _WORKER_CONTEXTS.move_to_end(token)
        return context
    if blob is None:
        raise _InstanceMissing(token)
    shipped = pickle.loads(blob)
    if shipped[0] == "shm":
        _kind, segment_name, size, cache_entries = shipped
        try:
            instance = _attach_shipped_instance(segment_name, size)
        except FileNotFoundError:
            # The coordinator unlinked the segment between dispatch and
            # execution (eviction or close); ask for a re-ship.
            raise _InstanceMissing(token) from None
    else:
        _kind, instance, cache_entries = shipped
    context = _WorkerContext(instance, cache_entries)
    _WORKER_CONTEXTS[token] = context
    while len(_WORKER_CONTEXTS) > INSTANCE_CACHE_LIMIT:
        _WORKER_CONTEXTS.popitem(last=False)
    return context


#: Completed shard-task results kept per worker context (LRU).  Results are
#: small (integer counts, overlaps and bounds), so the bound is generous.
RESULT_CACHE_LIMIT = 1024

#: Completed shard-task results kept per registered instance on the
#: *coordinator* (LRU) — repeated tasks short-circuit before any dispatch.
SHARD_RESULT_CACHE_LIMIT = 4096


def _result_key(task: Callable, payload: tuple) -> Tuple[str, bytes]:
    """Cache key of one shard task: the task name plus its payload digest.

    Payloads pickle deterministically (packed id buffers, attribute names
    and function descriptors), so the digest identifies the result of this
    pure function of the registered instance exactly."""
    return (
        task.__name__,
        hashlib.sha256(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        ).digest(),
    )


def _timed(task: Callable, token: str, blob: Optional[bytes],
           *payload) -> Tuple[object, float]:
    """Run *task* in the worker and return ``(result, compute_seconds)``.

    Every shard task is dispatched through this wrapper, so the coordinator
    can split its observed wall time into in-worker compute and shipping
    overhead.  :class:`_InstanceMissing` propagates untouched — the
    retry-on-miss protocol is unaffected.

    Results are memoised on the worker context: a shard task is a pure
    function of the frozen instance and its payload, so the payload's pickle
    digest identifies the result exactly and a warm pool serves repeated
    tasks (re-explains of a shipped instance) straight from cache.
    """
    started = time.perf_counter()
    context = _worker_context(token, blob)
    key = _result_key(task, payload)
    cached = context.results.get(key)
    if cached is not None:
        context.results.move_to_end(key)
        return cached, time.perf_counter() - started
    result = task(token, blob, *payload)
    context.results[key] = result
    while len(context.results) > RESULT_CACHE_LIMIT:
        context.results.popitem(last=False)
    return result, time.perf_counter() - started


def _induce_shard(token: str, blob: Optional[bytes], attribute: str,
                  block_sources: Dict[int, bytes], examples_blob: bytes,
                  ) -> Tuple[List[Tuple[AttributeFunction, int]], int]:
    """Induce one contiguous shard of sampled examples.

    *examples_blob* holds packed ``(block id, target row id)`` int32 pairs in
    sample order — target row *ids*, not values: the worker already owns the
    instance, so the example strings are read from its own target column
    instead of being shipped.  *block_sources* maps each referenced block id
    to its packed source row ids.  Returns the ``(candidate, generation
    count)`` pairs in first-generation order plus the number of examples
    processed.
    """
    context = _worker_context(token, blob)
    pairs = memoryview(examples_blob).cast("i")
    counts, examples_seen = induce_generation_counts(
        context.memo, context.instance, attribute,
        zip(pairs[0::2], pairs[1::2]),
        lambda block_id: _unpack_ids(block_sources[block_id]),
    )
    return list(counts.items()), examples_seen


def _score_shard(token: str, blob: Optional[bytes], attribute: str,
                 functions: Sequence[AttributeFunction],
                 lengths_blob: bytes, flat_blob: bytes) -> List[int]:
    """Overlap contributions of one contiguous shard of sampled blocks.

    Runs the sequential ranking kernel
    (:func:`~repro.core.extension.candidate_overlaps`) on the shard's blocks
    through the worker's code-space column cache.  Overlaps are
    code-independent integers and additive across shards.  Blocks arrive as
    packed int32 buffers (see :func:`_pack_blocks`) and are walked as
    zero-copy views.
    """
    context = _worker_context(token, blob)
    return candidate_overlaps(
        context.cache, context.instance.target, attribute, functions,
        _unpack_blocks(lengths_blob, flat_blob),
    )


def _bounds_shard(token: str, blob: Optional[bytes], attribute: str,
                  functions: Sequence[AttributeFunction],
                  source_blocks_blob: bytes, target_blocks_blob: bytes,
                  first_block: int, end_block: int,
                  ) -> List[Tuple[int, int]]:
    """Refinement-bound contributions of the blocks ``first_block`` to
    ``end_block - 1``.

    The blocking arrives as its two packed block-id arrays (see
    :func:`_pack_ids`).  For each function, the rows of the shard's blocks
    are keyed by ``(block id, code)`` and counted — the shard-local form of
    ``BlockingResult.refined_bounds`` on the worker's code arrays.  Blocks
    are the unit of the split, so the contributions of disjoint ranges sum
    to the whole blocking's bounds.
    """
    context = _worker_context(token, blob)
    cache = context.cache
    source_blocks = _unpack_ids(source_blocks_blob)
    target_blocks = _unpack_ids(target_blocks_blob)
    source_rows = [first_block <= block < end_block for block in source_blocks]
    target_rows = [first_block <= block < end_block for block in target_blocks]
    shard_source_blocks = list(compress(source_blocks, source_rows))
    shard_target_keys = list(zip(
        compress(target_blocks, target_rows),
        compress(
            cache.encoded_column(
                attribute, context.instance.target.column_view(attribute)
            ),
            target_rows,
        ),
    ))
    return [
        count_bounds(
            zip(shard_source_blocks,
                compress(cache.transformed_codes(attribute, function), source_rows)),
            shard_target_keys,
        )
        for function in functions
    ]


# --------------------------------------------------------------------------- #
# coordinator side
# --------------------------------------------------------------------------- #
class _RegisteredInstance:
    """A shipped instance pinned in the coordinator's registry.

    ``blob`` is the small pickled ship descriptor handed to workers; when
    the instance travels through shared memory, ``segment`` is the
    coordinator-owned segment holding the flat buffer-pack payload.  The
    coordinator is the segment's sole owner: workers only ever attach,
    copy out and close, so :meth:`release` can unlink unconditionally.

    ``results`` is the coordinator-side shard-result cache: each completed
    task's result keyed by its payload digest.  A shard task is a pure
    function of the frozen instance and its payload, so a warm pool serves
    repeated tasks — re-explains of a registered instance, overlapping
    sub-work between requests — without any worker round trip at all.
    Callers treat returned results as immutable (they merge, never mutate),
    so cached objects are handed back as-is."""

    __slots__ = ("instance", "blob", "segment", "results")

    def __init__(self, instance: ProblemInstance, blob: bytes,
                 segment: Optional[shared_memory.SharedMemory] = None):
        self.instance = instance
        self.blob = blob
        self.segment = segment
        self.results: "OrderedDict[Tuple[str, bytes], object]" = OrderedDict()

    def release(self) -> None:
        """Close and unlink the backing segment, if any.  Idempotent."""
        segment, self.segment = self.segment, None
        if segment is not None:
            with suppress(Exception):
                segment.close()
            with suppress(Exception):
                segment.unlink()


class ShardPool:
    """A persistent, bounded process pool for sharded search phases.

    The executor is created lazily on first use (so requesting the parallel
    engine costs nothing until a phase is actually big enough to shard) and
    survives across searches — worker-side instance caches make the second
    search over the same snapshots start warm.  ``close()`` shuts the
    workers down; a closed or broken pool reports ``available() == False``
    and every later use raises :class:`PoolUnavailable`, which callers treat
    as "run this phase sequentially".

    The default ``spawn`` start method keeps the pool safe to use from
    threaded hosts (the HTTP service's worker threads); *executor_factory*
    exists for tests that need to simulate pools that cannot start.
    """

    def __init__(self, workers: int, *, start_method: str = "spawn",
                 executor_factory: Optional[Callable[[int], ProcessPoolExecutor]] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._start_method = start_method
        self._executor_factory = executor_factory
        self._executor: Optional[ProcessPoolExecutor] = None
        self._broken = False
        self._closed = False
        self._lock = threading.Lock()
        self._registered: "OrderedDict[str, _RegisteredInstance]" = OrderedDict()
        self._tokens: Dict[int, str] = {}

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def started(self) -> bool:
        """True once the executor exists (it is created lazily)."""
        with self._lock:
            return self._executor is not None

    def available(self) -> bool:
        """True while the pool can (still) run tasks."""
        with self._lock:
            return not self._broken and not self._closed

    # -- executor and instance registry -------------------------------- #
    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise PoolUnavailable("shard pool is closed")
            if self._broken:
                raise PoolUnavailable("shard pool is broken")
            if self._executor is None:
                try:
                    if self._executor_factory is not None:
                        self._executor = self._executor_factory(self._workers)
                    else:
                        self._executor = ProcessPoolExecutor(
                            max_workers=self._workers,
                            mp_context=multiprocessing.get_context(self._start_method),
                            initializer=_init_worker,
                        )
                except Exception as error:
                    self._broken = True
                    raise PoolUnavailable(f"cannot start worker pool: {error}") from error
            return self._executor

    def _token_for(self, instance: ProblemInstance,
                   cache_entries: int) -> Tuple[str, Optional[bytes]]:
        """The instance's token, plus its ship blob when the registration
        is new — a fresh instance is unknown to every worker, so the first
        dispatch ships the blob proactively instead of paying a guaranteed
        miss-and-retry round trip per shard.

        The ship blob itself is tiny: the snapshots travel as one flat
        buffer-pack payload placed in a ``multiprocessing.shared_memory``
        segment, so the pickled descriptor shrinks to the segment name plus
        metadata and workers pay one memcpy to receive the instance.  Hosts
        without shared memory (or failing to allocate it) fall back to
        pickling the instance inline."""
        with self._lock:
            token = self._tokens.get(id(instance))
            if token is not None:
                self._registered.move_to_end(token)
                return token, None
            token = uuid.uuid4().hex
            segment: Optional[shared_memory.SharedMemory] = None
            try:
                payload = instance.ship_bytes()
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, len(payload))
                )
                segment.buf[:len(payload)] = payload
                blob = pickle.dumps(
                    ("shm", segment.name, len(payload), cache_entries),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except Exception:
                if segment is not None:
                    with suppress(Exception):
                        segment.close()
                    with suppress(Exception):
                        segment.unlink()
                segment = None
                blob = pickle.dumps(
                    ("inline", instance, cache_entries),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            # Pinning the instance keeps ``id(instance)`` unambiguous for the
            # registry's lifetime.
            self._registered[token] = _RegisteredInstance(instance, blob, segment)
            self._tokens[id(instance)] = token
            while len(self._registered) > INSTANCE_CACHE_LIMIT:
                evicted_token, registered = self._registered.popitem(last=False)
                self._tokens.pop(id(registered.instance), None)
                registered.release()
            return token, blob

    def segment_names(self) -> List[str]:
        """Names of the live shared-memory segments this pool owns (tests
        use this to assert nothing leaks into ``/dev/shm``)."""
        with self._lock:
            return [
                registered.segment.name
                for registered in self._registered.values()
                if registered.segment is not None
            ]

    def _mark_broken(self, error: BaseException) -> PoolUnavailable:
        with self._lock:
            self._broken = True
            registered_entries = list(self._registered.values())
            self._registered.clear()
            self._tokens.clear()
        # A broken pool never ships again; unlink its segments immediately so
        # a crashed worker cannot strand payloads in /dev/shm.
        for registered in registered_entries:
            registered.release()
        return PoolUnavailable(f"shard pool broke: {error}")

    # -- task execution ------------------------------------------------- #
    def start_shards(self, task: Callable, instance: ProblemInstance,
                     cache_entries: int, payloads: Sequence[tuple]) -> tuple:
        """Submit *task* once per payload; returns an opaque handle for
        :meth:`collect_shards`.  Splitting submission from collection lets the
        coordinator overlap its own work with the workers'.

        Payloads whose result is already in the registered instance's
        shard-result cache are not submitted at all — a warm pool answers
        them without a worker round trip."""
        executor = self._ensure_executor()
        token, fresh_blob = self._token_for(instance, cache_entries)
        keys = [_result_key(task, payload) for payload in payloads]
        hits: Dict[int, object] = {}
        with self._lock:
            registered = self._registered.get(token)
            if registered is not None:
                for position, key in enumerate(keys):
                    if key in registered.results:
                        registered.results.move_to_end(key)
                        hits[position] = registered.results[key]
        dispatched = time.perf_counter()
        try:
            futures = {
                position: executor.submit(
                    _timed, task, token, fresh_blob, *payloads[position]
                )
                for position in range(len(payloads))
                if position not in hits
            }
        except BrokenExecutor as error:  # workers died before dispatch
            raise self._mark_broken(error) from error
        except RuntimeError as error:  # shut down between _ensure and submit
            raise PoolUnavailable(str(error)) from error
        return (task, token, payloads, keys, hits, futures, dispatched)

    def collect_shards(self, handle: tuple,
                       record: Optional[Callable[[int, float, float], None]] = None,
                       ) -> List[object]:
        """Results of :meth:`start_shards`, in payload order.

        Shards whose worker had not cached the instance token yet raised
        :class:`_InstanceMissing`; those are retried once with the pickled
        instance attached, so an instance crosses each process boundary at
        most once per worker.

        *record*, when given, is called once per shard with ``(position,
        wall_seconds, compute_seconds)`` — wall time from dispatch to result
        receipt (retries included) against time spent inside the worker.
        Cache-served shards are recorded with zero wall and compute time."""
        task, token, payloads, keys, hits, futures, dispatched = handle
        results: List[object] = [None] * len(payloads)
        received: List[float] = [0.0] * len(payloads)
        misses: List[int] = []
        for position, future in futures.items():
            try:
                results[position] = future.result()
                received[position] = time.perf_counter()
            except _InstanceMissing:
                misses.append(position)
            except BrokenExecutor as error:
                raise self._mark_broken(error) from error
        if misses:
            with self._lock:
                registered = self._registered.get(token)
                executor = self._executor
            if registered is None or executor is None:
                raise PoolUnavailable("instance evicted during shard dispatch")
            try:
                retries = [
                    executor.submit(
                        _timed, task, token, registered.blob, *payloads[position]
                    )
                    for position in misses
                ]
            except BrokenExecutor as error:
                raise self._mark_broken(error) from error
            except RuntimeError as error:
                raise PoolUnavailable(str(error)) from error
            for position, future in zip(misses, retries):
                try:
                    results[position] = future.result()
                    received[position] = time.perf_counter()
                except _InstanceMissing as error:
                    # The retry carried the full ship blob; a second miss
                    # means the segment vanished underneath us (evicted or
                    # unlinked) — treat the pool as unusable for this call.
                    raise PoolUnavailable(
                        "instance ship blob unreadable on retry"
                    ) from error
                except BrokenExecutor as error:
                    raise self._mark_broken(error) from error
        unwrapped: List[object] = [None] * len(payloads)
        fresh: List[Tuple[Tuple[str, bytes], object]] = []
        for position in range(len(payloads)):
            if position in hits:
                unwrapped[position] = hits[position]
                if record is not None:
                    record(position, 0.0, 0.0)
                continue
            result, compute_seconds = results[position]
            unwrapped[position] = result
            fresh.append((keys[position], result))
            if record is not None:
                record(position, received[position] - dispatched, compute_seconds)
        if fresh:
            with self._lock:
                registered = self._registered.get(token)
                if registered is not None:
                    for key, result in fresh:
                        registered.results[key] = result
                        registered.results.move_to_end(key)
                    while len(registered.results) > SHARD_RESULT_CACHE_LIMIT:
                        registered.results.popitem(last=False)
        return unwrapped

    def map_shards(self, task: Callable, instance: ProblemInstance,
                   cache_entries: int, payloads: Sequence[tuple],
                   record: Optional[Callable[[int, float, float], None]] = None,
                   ) -> List[object]:
        """Run *task* once per payload and return the results in payload order
        (``collect_shards(start_shards(...))``)."""
        return self.collect_shards(
            self.start_shards(task, instance, cache_entries, payloads), record
        )

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        """Shut the workers down and mark the pool unusable.  Idempotent."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
            registered_entries = list(self._registered.values())
            self._registered.clear()
            self._tokens.clear()
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        # Unlink after shutdown: workers have exited, so no attach can race
        # the unlink and every segment leaves /dev/shm here.
        for registered in registered_entries:
            registered.release()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = (
            "closed" if self._closed else
            "broken" if self._broken else
            "started" if self._executor is not None else "idle"
        )
        return f"ShardPool({self._workers} workers, {state})"


# --------------------------------------------------------------------------- #
# shard splitting
# --------------------------------------------------------------------------- #
def split_contiguous(items: Sequence, parts: int) -> List[List]:
    """Split *items* into at most *parts* contiguous, near-even chunks.

    Empty chunks are dropped; concatenating the chunks reproduces *items* —
    the property every order-stable merge in this module relies on.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    total = len(items)
    if total == 0:
        return []
    parts = min(parts, total)
    base, extra = divmod(total, parts)
    chunks: List[List] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start:start + size]))
        start += size
    return chunks


def split_weighted(items: Sequence, weights: Sequence[int],
                   parts: int) -> List[List]:
    """Split *items* into at most *parts* contiguous chunks of similar weight.

    A greedy scan cuts whenever the running chunk reaches the ideal share of
    the remaining weight; like :func:`split_contiguous` the concatenation of
    the chunks reproduces *items*.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if len(items) == 0:
        return []
    if parts == 1 or len(items) <= parts:
        return split_contiguous(items, parts)
    remaining_weight = sum(weights)
    chunks: List[List] = []
    current: List = []
    current_weight = 0
    for position, (item, weight) in enumerate(zip(items, weights)):
        current.append(item)
        current_weight += weight
        parts_left = parts - len(chunks)
        items_left = len(items) - position - 1
        if parts_left > 1 and items_left >= parts_left - 1:
            share = remaining_weight / parts_left
            if current_weight >= share:
                chunks.append(current)
                remaining_weight -= current_weight
                current = []
                current_weight = 0
        elif parts_left <= 1:
            break
    tail_start = sum(len(chunk) for chunk in chunks) + len(current)
    current.extend(items[tail_start:])
    if current:
        chunks.append(current)
    return chunks


# --------------------------------------------------------------------------- #
# the sharded expander
# --------------------------------------------------------------------------- #
class ParallelStateExpander(StateExpander):
    """A :class:`StateExpander` that runs its pure phases on a shard pool.

    Every random draw happens in the base class, in the coordinator, in the
    sequential order; only the deterministic per-sample work is sharded.
    Each overridden hook falls back to the sequential implementation — on
    the *already drawn* samples, so the trajectory cannot fork — when the
    pool is unavailable or the phase is too small to amortise the IPC.
    """

    def __init__(self, instance, config, evaluator, rng=None, *, pool: ShardPool,
                 tracer=None):
        super().__init__(instance, config, evaluator, rng, tracer=tracer)
        self._pool = pool
        self._cache_entries = config.column_cache_entries
        self._ran_remote = False

    def _shard_recorder(self, phase: str) -> Callable[[int, float, float], None]:
        """A per-shard accounting hook for :meth:`ShardPool.collect_shards`.

        Always feeds the process-wide ship/compute counters; with a live
        tracer each shard additionally becomes a ``shard`` span (child of
        the currently open phase span) carrying its ship-vs-compute split.
        """
        tracer = self._tracer

        def record(position: int, wall_seconds: float, compute_seconds: float) -> None:
            ship_seconds = max(0.0, wall_seconds - compute_seconds)
            _SHARD_TASKS.inc(phase=phase)
            _SHARD_COMPUTE_SECONDS.inc(compute_seconds, phase=phase)
            _SHARD_SHIP_SECONDS.inc(ship_seconds, phase=phase)
            if tracer.enabled:
                tracer.event("shard", wall_seconds, counters={
                    "shard": float(position),
                    "compute_seconds": compute_seconds,
                    "ship_seconds": ship_seconds,
                })

        return record

    @property
    def engine_used(self) -> str:
        """The engine this run truthfully was: ``"parallel"`` while the pool
        is usable (or has done remote work), ``"columnar"`` once every phase
        had to fall back because the pool never managed to run anything —
        e.g. process spawning is forbidden on the host."""
        if self._ran_remote or self._pool.available():
            return "parallel"
        return "columnar"

    # -- phase 1: candidate induction ----------------------------------- #
    def _generation_counts(self, mixed_blocks, attribute, sampled):
        if len(sampled) < MIN_REMOTE_EXAMPLES or not self._pool.available():
            return super()._generation_counts(mixed_blocks, attribute, sampled)
        payloads = []
        for chunk in split_contiguous(sampled, self._pool.workers):
            # Pure row-id wire format: block source ids as packed int32
            # buffers plus a flat (block_index, target_row_id) pair stream.
            # The worker resolves both columns from its cached instance, so
            # no cell strings cross the process boundary.
            block_sources: Dict[int, bytes] = {}
            example_pairs = array("i")
            for block_index, offset in chunk:
                block = mixed_blocks[block_index]
                if block_index not in block_sources:
                    block_sources[block_index] = _pack_ids(block.source_ids)
                example_pairs.append(block_index)
                example_pairs.append(block.target_ids[offset])
            payloads.append((attribute, block_sources, example_pairs.tobytes()))
        try:
            shard_results = self._pool.map_shards(
                _induce_shard, self._instance, self._cache_entries, payloads,
                self._shard_recorder("induction"),
            )
        except PoolUnavailable:
            return super()._generation_counts(mixed_blocks, attribute, sampled)
        self._ran_remote = True
        # Ordered first-seen merge: contiguous example shards merged in shard
        # order reproduce the sequential pool's first-generation order.
        merged: Dict[AttributeFunction, int] = {}
        examples_seen = 0
        for pairs, seen in shard_results:
            examples_seen += seen
            for function, count in pairs:
                merged[function] = merged.get(function, 0) + count
        return merged, examples_seen

    # -- phase 2: candidate ranking ------------------------------------- #
    def _score_candidates_columnar(self, candidates, mixed_blocks, block_indices,
                                   attribute):
        blocks = [mixed_blocks[index] for index in block_indices]
        weights = [
            len(block.source_ids) + len(block.target_ids) for block in blocks
        ]
        if sum(weights) < MIN_REMOTE_RECORDS or not self._pool.available():
            return super()._score_candidates_columnar(
                candidates, mixed_blocks, block_indices, attribute
            )
        functions = list(candidates)
        payloads = [
            (
                attribute,
                functions,
                *_pack_blocks(
                    [(block.source_ids, block.target_ids) for block in chunk]
                ),
            )
            for chunk in split_weighted(blocks, weights, self._pool.workers)
        ]
        try:
            shard_results = self._pool.map_shards(
                _score_shard, self._instance, self._cache_entries, payloads,
                self._shard_recorder("ranking"),
            )
        except PoolUnavailable:
            return super()._score_candidates_columnar(
                candidates, mixed_blocks, block_indices, attribute
            )
        self._ran_remote = True
        overlaps = [sum(per_shard) for per_shard in zip(*shard_results)]
        return [
            (overlap - candidate.description_length, -order, candidate)
            for order, (candidate, overlap) in enumerate(zip(candidates, overlaps))
        ]

    # -- phase 3: refinement bounds ------------------------------------- #
    def _refinement_bounds(self, blocking: BlockingResult, attribute: str,
                           functions: Sequence[AttributeFunction]):
        source_blocks = blocking.source_blocks
        target_blocks = blocking.target_blocks
        # Non-cacheable functions (the greedy value mapping, unique per state)
        # stay in the coordinator: their lookup tables can hold an entry per
        # aligned record, so shipping them to every shard would dwarf the
        # refinement they pay for.  Their bounds are computed locally while
        # the workers handle the cacheable candidates — overlapping, not
        # serialising, the two halves.
        remote = [
            position for position, function in enumerate(functions)
            if function.cacheable
        ]
        n_records = len(source_blocks) + len(target_blocks)
        if not remote or n_records < MIN_REMOTE_RECORDS or not self._pool.available():
            return super()._refinement_bounds(blocking, attribute, functions)
        remote_functions = [functions[position] for position in remote]
        block_sizes = Counter(chain(source_blocks, target_blocks))
        weights = [block_sizes[block] for block in range(blocking.n_blocks)]
        source_blob = source_blocks.tobytes()
        target_blob = target_blocks.tobytes()
        payloads = [
            (attribute, remote_functions, source_blob, target_blob,
             chunk[0], chunk[-1] + 1)
            for chunk in split_weighted(
                range(blocking.n_blocks), weights, self._pool.workers
            )
        ]
        try:
            handle = self._pool.start_shards(
                _bounds_shard, self._instance, self._cache_entries, payloads
            )
        except PoolUnavailable:
            return super()._refinement_bounds(blocking, attribute, functions)
        cache = self._evaluator.column_cache
        local_bounds = {
            position: refine_blocking_bounds(
                self._instance, blocking, attribute, functions[position], cache
            )
            for position, function in enumerate(functions)
            if not function.cacheable
        }
        try:
            shard_results = self._pool.collect_shards(
                handle, self._shard_recorder("refine_bounds")
            )
        except PoolUnavailable:
            # The local half is already done; finish the remote half locally.
            for position in remote:
                local_bounds[position] = refine_blocking_bounds(
                    self._instance, blocking, attribute, functions[position], cache
                )
            return [local_bounds[position] for position in range(len(functions))], None
        self._ran_remote = True
        for offset, position in enumerate(remote):
            local_bounds[position] = (
                sum(shard[offset][0] for shard in shard_results),
                sum(shard[offset][1] for shard in shard_results),
            )
        return [local_bounds[position] for position in range(len(functions))], None
