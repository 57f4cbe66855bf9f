"""Job manager: a bounded, priority-ordered worker pool around an
:class:`~repro.api.ExplainSession`.

One :class:`Job` is one explanation request for a snapshot pair.  The
manager's session prepares every request (loads the snapshots, resolves the
configuration and the function pool) and runs it, exactly as a library call
would.  Jobs move through the classic lifecycle

    queued -> running -> done | failed | cancelled

with four service-specific twists:

* **One result store.**  Submissions are keyed by
  :func:`~repro.api.store.idempotency_key` — the parsed snapshots, the
  resolved configuration and the function pool.  The manager's one
  :class:`~repro.api.store.ResultStore` (an in-process
  :class:`~repro.api.store.MemoryResultStore` by default, or a shared
  sqlite store) is consulted before queueing: a hit materialises as an
  immediately-``done`` job flagged ``cache_hit`` and ``store_hit`` — no
  worker is consumed — and every exact run publishes its serialized outcome
  to it.  N replicas pointed at one sqlite store deduplicate identical
  work, and a restarted replica keeps serving results computed before the
  restart.
* **Admission control.**  ``max_queue_depth`` bounds the number of admitted
  (queued or running) jobs; a submission over the bound raises
  :class:`AdmissionError` with a load-derived retry hint, which the HTTP
  layer maps to ``429`` + ``Retry-After``.  Within the bound, jobs are
  dequeued highest ``priority`` first (ties in submission order).
* **Cooperative cancellation.**  ``DELETE``-ing a running job sets an event
  that the job's session hands the search as its ``should_stop`` run
  argument; the search polls it once per expansion, so even a search deep
  in a large instance stops within one expansion.  Queued jobs cancel
  immediately without ever occupying a worker.

Every job also owns a :class:`JobEventBuffer` — a bounded, sequence-numbered
buffer of ``affidavit.event/v1`` frames (started / progressed / terminal)
that the worker's progress callback fills and ``GET /v1/jobs/<id>/events``
streams.  The ``started`` and ``progressed`` frames are the library's own
:class:`~repro.api.SearchStarted` / :class:`~repro.api.SearchProgressed`
events, exactly as :meth:`~repro.api.ExplainSession.explain_iter` yields
them.  ``progressed`` frames are rate-limited: the first expansion gets
one, later ones at most one per :data:`PROGRESS_FRAME_INTERVAL_S`.

The workers are plain threads draining a :class:`queue.PriorityQueue`; the
search is pure Python, but explain jobs spend their time in hash/loop-heavy
code that releases the GIL rarely, so the pool primarily bounds *concurrent
memory* and provides backpressure, and it parallelises the I/O-bound parts
(CSV parsing, result serialisation) across requests.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
import queue
import threading
import time
import traceback
import uuid
from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..api import (
    ExplainOutcome,
    ExplainRequest,
    ExplainSession,
    MemoryResultStore,
    PreparedRun,
    ResultStore,
    SearchEvent,
    SearchProgressed,
    SearchStarted,
    TERMINAL_FRAME_KINDS,
    idempotency_key,
    make_frame,
)
from ..core import AffidavitResult, SearchProgress
from ..obs import get_registry

#: One logger for the whole service tier; records carry the job id both in
#: the message and as ``record.job_id`` (via ``extra``) for structured sinks.
logger = logging.getLogger("repro.service")

_job_metrics = get_registry()
_JOBS_SUBMITTED = _job_metrics.counter(
    "repro_jobs_submitted_total",
    "Explain jobs accepted by the job manager",
)
_JOBS_COMPLETED = _job_metrics.counter(
    "repro_jobs_completed_total",
    "Explain jobs that reached a terminal state",
    ("state",),
)
_JOBS_CACHE_HITS = _job_metrics.counter(
    "repro_jobs_cache_hits_total",
    "Explain jobs answered from the result store",
)
_JOBS_QUEUE_DEPTH = _job_metrics.gauge(
    "repro_jobs_queue_depth",
    "Jobs currently queued or running",
)
_JOB_LATENCY = _job_metrics.histogram(
    "repro_job_latency_seconds",
    "Submission-to-completion latency of explain jobs",
)
_JOBS_BY_TIER = _job_metrics.counter(
    "repro_jobs_answered_by_tier_total",
    "Completed explain jobs by answering strategy tier and confidence",
    ("tier", "confidence"),
)
#: Submissions refused by admission control: ``queue_full`` here, and
#: ``quota_exceeded`` for the HTTP layer's per-client quotas.
ADMISSION_REJECTED = _job_metrics.counter(
    "repro_admission_rejected_total",
    "Submissions rejected by admission control",
    ("reason",),
)

#: Least time between two ``progressed`` frames of one job.  A small search
#: expands a state about once a millisecond, and publishing a frame for each
#: expansion added several milliseconds to a 60-record job's wall time; the
#: job's polled progress and the session's progress observers still see
#: every expansion.
PROGRESS_FRAME_INTERVAL_S = 0.1

#: Queue priority of the shutdown sentinels — far below any request priority,
#: so workers drain every admitted job before exiting.
_SENTINEL_PRIORITY = 1 << 30


class AdmissionError(RuntimeError):
    """A submission the service refused to queue (HTTP: 429).

    ``reason`` is the machine-readable code (``queue_full`` here;
    the HTTP layer uses ``quota_exceeded`` for per-client limits) and
    ``retry_after_seconds`` the server's load-derived backoff hint.
    """

    def __init__(self, message: str, *, reason: str,
                 retry_after_seconds: float):
        super().__init__(message)
        self.reason = reason
        self.retry_after_seconds = retry_after_seconds


class JobState(enum.Enum):
    """Lifecycle states of an explanation job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class JobNotFound(KeyError):
    """Raised when a job id is unknown to the manager."""


class JobEventBuffer:
    """A bounded, sequence-numbered buffer of one job's event frames.

    The worker appends ``affidavit.event/v1`` frames (sequences start at 1
    and never reset); stream readers collect frames after a cursor and block
    on :meth:`wait` for more.  When the bound is exceeded the oldest frames
    are dropped — readers that resume from before the retained window learn
    how many frames they lost via :meth:`collect`'s second return value.
    A terminal frame (``completed``/``failed``) closes the buffer.
    """

    def __init__(self, job_id: str, max_frames: int = 256):
        if max_frames < 2:
            raise ValueError(f"max_frames must be >= 2, got {max_frames}")
        self.job_id = job_id
        self.max_frames = max_frames
        self._frames: Deque[Dict[str, Any]] = deque()
        self._next_sequence = 1
        self._dropped = 0
        self._closed = False
        self._cond = threading.Condition()

    @property
    def closed(self) -> bool:
        """Whether a terminal frame has been appended."""
        with self._cond:
            return self._closed

    @property
    def last_sequence(self) -> int:
        with self._cond:
            return self._next_sequence - 1

    def append(self, kind: str, **payload: Any) -> Optional[Dict[str, Any]]:
        """Append one frame; returns it, or ``None`` after the buffer closed
        (a cancel/worker race may observe one extra progress callback)."""
        with self._cond:
            if self._closed:
                return None
            frame = make_frame(kind, job_id=self.job_id,
                               sequence=self._next_sequence, **payload)
            self._next_sequence += 1
            self._frames.append(frame)
            while len(self._frames) > self.max_frames:
                self._frames.popleft()
                self._dropped += 1
            if kind in TERMINAL_FRAME_KINDS:
                self._closed = True
            self._cond.notify_all()
            return frame

    def publish(self, event: SearchEvent) -> Optional[Dict[str, Any]]:
        """Append *event* as a frame: its ``to_dict()`` under the envelope."""
        payload = event.to_dict()
        return self.append(payload.pop("kind"), **payload)

    def collect(self, after: int) -> Tuple[List[Dict[str, Any]], int, bool]:
        """``(frames with sequence > after, frames lost to the bound,
        closed)``, all read under one lock.

        The second value is nonzero only when *after* points before the
        oldest retained frame — the stream emits one ``truncated`` frame so
        resuming clients know their view has a hole.  The third says whether
        the terminal frame had been appended when the frames were taken: a
        reader that finds it ``True`` and no terminal frame among *frames*
        has already seen (or lost) the terminal frame.  Reading ``closed``
        separately would race a job finishing between the two reads.
        """
        with self._cond:
            frames = [frame for frame in self._frames
                      if frame["sequence"] > after]
            oldest = self._next_sequence - len(self._frames)
            lost = max(0, oldest - after - 1)
            return frames, lost, self._closed

    def wait(self, after: int, timeout: Optional[float]) -> bool:
        """Block until a frame past *after* exists or the buffer closes;
        ``False`` on timeout."""
        def ready() -> bool:
            return self._closed or self._next_sequence - 1 > after
        with self._cond:
            return self._cond.wait_for(ready, timeout)


class Job:
    """One explanation request tracked by the :class:`JobManager`.

    All mutable fields are guarded by an internal lock; readers get consistent
    snapshots via the properties.  Waiting for completion uses an event, not
    polling.
    """

    def __init__(self, job_id: str, key: str, run: PreparedRun, seq: int = 0):
        self.id = job_id
        self.key = key
        #: Monotonic submission number — the jobs-listing cursor.
        self.seq = seq
        #: The originating :class:`repro.api.ExplainRequest`.
        self.request: ExplainRequest = run.request
        self.name = self.request.name
        #: Scheduling priority (higher dequeues first).
        self.priority = self.request.priority
        #: Retained for result rendering (SQL scripts and reports need the
        #: snapshots, not just the explanation).
        self.instance = run.instance
        #: The streamable event history of this job.
        self.events = JobEventBuffer(job_id)
        self.submitted_at = time.time()
        self._lock = threading.Lock()
        self._state = JobState.QUEUED
        self._cache_hit = False
        self._admitted = False
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        self._outcome: Optional[ExplainOutcome] = None
        self._error: Optional[str] = None
        self._progress: Optional[SearchProgress] = None
        self._cancel_event = threading.Event()
        self._done_event = threading.Event()
        #: Manager hook fired exactly once, on the terminal transition (the
        #: transition guard makes terminal states sticky, so the hook cannot
        #: fire twice however races between worker and cancel resolve).
        self._on_terminal = None

    # -- read side ----------------------------------------------------- #
    @property
    def state(self) -> JobState:
        with self._lock:
            return self._state

    @property
    def cache_hit(self) -> bool:
        with self._lock:
            return self._cache_hit

    @property
    def store_hit(self) -> bool:
        """Whether the result came from the result store.  The store is
        the one result cache, so this equals :attr:`cache_hit`; both stay
        on the wire for existing clients."""
        return self.cache_hit

    @property
    def started_at(self) -> Optional[float]:
        with self._lock:
            return self._started_at

    @property
    def finished_at(self) -> Optional[float]:
        with self._lock:
            return self._finished_at

    @property
    def result(self) -> Optional[AffidavitResult]:
        """The live search result of a run this process searched; ``None``
        for store hits and baseline answers (read :attr:`outcome`)."""
        outcome = self.outcome
        return None if outcome is None else outcome.result

    @property
    def outcome(self) -> Optional[ExplainOutcome]:
        """The typed :class:`repro.api.ExplainOutcome` of a finished run."""
        with self._lock:
            return self._outcome

    @property
    def error(self) -> Optional[str]:
        with self._lock:
            return self._error

    @property
    def progress(self) -> Optional[SearchProgress]:
        with self._lock:
            return self._progress

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; ``False`` on timeout."""
        return self._done_event.wait(timeout)

    # -- write side (manager/worker only) ------------------------------ #
    def _record_progress(self, progress: SearchProgress) -> None:
        with self._lock:
            self._progress = progress

    def _transition(self, state: JobState, *,
                    outcome: Optional[ExplainOutcome] = None,
                    error: Optional[str] = None,
                    cache_hit: bool = False) -> None:
        with self._lock:
            if self._state.is_terminal:
                return
            self._state = state
            if state is JobState.RUNNING:
                self._started_at = time.time()
                return
            if outcome is not None:
                self._outcome = outcome
            if error is not None:
                self._error = error
            self._cache_hit = self._cache_hit or cache_hit
            if state.is_terminal:
                self._finished_at = time.time()
        if state.is_terminal:
            self._done_event.set()
            if self._on_terminal is not None:
                try:
                    self._on_terminal(self)
                except Exception:  # noqa: BLE001 - accounting must not kill a worker
                    logger.exception("job %s terminal hook failed", self.id,
                                     extra={"job_id": self.id})


def _short_error(error: Optional[str]) -> str:
    lines = [line for line in (error or "").strip().splitlines() if line.strip()]
    return lines[-1] if lines else "unknown error"


class JobManager:
    """Runs explanation jobs on a bounded worker pool with one result store.

    Parameters
    ----------
    workers:
        Number of concurrent explain workers (>= 1).
    session:
        The :class:`~repro.api.ExplainSession` that prepares and runs every
        job: its data root confines path requests, its function pool is the
        one requests subset, and its observers see every job's search.
        Defaults to a plain ``ExplainSession()``.
    cache_entries / cache_ttl:
        Sizing of the default in-process
        :class:`~repro.api.store.MemoryResultStore` (ignored when *store* is
        given).
    store:
        The :class:`~repro.api.store.ResultStore` to use instead, e.g. a
        sqlite store shared by several replicas: consulted before queueing,
        fed by every exact run.  The manager never closes it — the creator
        owns its lifetime, so one store can back several managers.
    max_queue_depth:
        Upper bound on *admitted* (queued + running) jobs; ``None`` (the
        default) disables the bound.  Submissions over it raise
        :class:`AdmissionError`.  Store hits bypass admission — they never
        occupy a worker.
    max_retained_jobs:
        Upper bound on the job registry.  When a submission would exceed it,
        the oldest *terminal* jobs (and their snapshots/results) are dropped;
        live jobs are never evicted, so a burst of work can temporarily push
        the registry above the bound.  Keeps a long-running service from
        accumulating every job it ever ran.
    """

    def __init__(self, workers: int = 2, *,
                 session: Optional[ExplainSession] = None,
                 cache_entries: int = 128,
                 cache_ttl: Optional[float] = None,
                 store: Optional[ResultStore] = None,
                 max_queue_depth: Optional[int] = None,
                 max_retained_jobs: int = 1024):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retained_jobs < 1:
            raise ValueError(f"max_retained_jobs must be >= 1, got {max_retained_jobs}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}")
        self.workers = workers
        self.session = session if session is not None else ExplainSession()
        self.max_retained_jobs = max_retained_jobs
        self.max_queue_depth = max_queue_depth
        self.store = store if store is not None else MemoryResultStore(
            max_entries=cache_entries, ttl_seconds=cache_ttl
        )
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._order = itertools.count()
        self._closed = False
        #: Admitted (queued or running) jobs — the admission-control gauge.
        self._active = 0
        #: Exponentially weighted mean of non-cached job latency, feeding
        #: the ``Retry-After`` estimate.
        self._latency_ewma: Optional[float] = None
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"affidavit-worker-{index}", daemon=True)
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit_request(self, request: ExplainRequest) -> Job:
        """Queue one explain job for *request* and return its :class:`Job`.

        The manager's session prepares the request — loads its snapshots,
        resolves its configuration and function pool — and the idempotency
        key digests the parsed tables, the resolved configuration and the
        function pool.  With ``request.use_cache`` a stored exact answer
        under that key finishes the job at once.

        Raises :class:`repro.api.RequestValidationError` for malformed
        requests, unreadable snapshots or unknown function names, and
        :class:`AdmissionError` when the queue is at ``max_queue_depth``.
        """
        if self._closed:
            raise RuntimeError("JobManager is shut down")
        run = self.session.prepare(request)
        instance = run.instance
        key = idempotency_key(instance.source, instance.target, run.config,
                              tuple(instance.registry.names))
        seq = next(self._counter)
        job = Job(f"job-{seq:04d}-{uuid.uuid4().hex[:8]}", key, run, seq=seq)
        job._on_terminal = self._on_job_terminal
        if request.use_cache:
            outcome = self.store.get_outcome(key, run)
            if outcome is not None:
                self._register(job)
                job._transition(JobState.DONE, outcome=outcome, cache_hit=True)
                return job

        self._admit(job)
        self._register(job)
        # PriorityQueue orders ascending, so higher priorities are negated;
        # the submission order breaks ties and keeps the job tuple out of
        # the comparison.
        self._queue.put((-job.priority, next(self._order), (job, run)))
        return job

    def _register(self, job: Job) -> None:
        _JOBS_SUBMITTED.inc()
        _JOBS_QUEUE_DEPTH.inc()
        logger.info("job %s submitted (%s)%s", job.id, job.name,
                    f" priority={job.priority}" if job.priority else "",
                    extra={"job_id": job.id})
        with self._lock:
            self._jobs[job.id] = job
            self._prune_locked()

    def _admit(self, job: Job) -> None:
        """Reserve one admission slot or raise :class:`AdmissionError`.

        The slot is released exactly once, by :meth:`_on_job_terminal` (the
        terminal hook is exactly-once by the transition guard).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("JobManager is shut down")
            if self.max_queue_depth is not None \
                    and self._active >= self.max_queue_depth:
                retry = self._retry_after_locked()
                ADMISSION_REJECTED.inc(reason="queue_full")
                raise AdmissionError(
                    f"job queue is full ({self._active} jobs admitted, "
                    f"limit {self.max_queue_depth}); retry in ~{retry}s",
                    reason="queue_full", retry_after_seconds=retry,
                )
            self._active += 1
            job._admitted = True

    def _retry_after_locked(self) -> int:
        """Seconds a rejected client should back off: the queue's expected
        drain time per worker, from the latency EWMA (caller holds the
        lock)."""
        ewma = self._latency_ewma if self._latency_ewma else 1.0
        estimate = (self._active / max(1, self.workers)) * ewma
        return max(1, min(60, math.ceil(estimate)))

    def retry_after_seconds(self) -> int:
        """The current backoff hint (what a 429 would say right now)."""
        with self._lock:
            return self._retry_after_locked()

    def _prune_locked(self) -> None:
        """Drop the oldest terminal jobs once the registry exceeds its bound
        (caller holds ``self._lock``; dicts preserve insertion order)."""
        excess = len(self._jobs) - self.max_retained_jobs
        if excess <= 0:
            return
        for job_id in [j.id for j in self._jobs.values() if j.state.is_terminal][:excess]:
            del self._jobs[job_id]

    def _on_job_terminal(self, job: Job) -> None:
        """Exactly-once accounting when a job reaches a terminal state."""
        state = job.state
        _JOBS_QUEUE_DEPTH.dec()
        _JOBS_COMPLETED.inc(state=state.value)
        if job.cache_hit:
            _JOBS_CACHE_HITS.inc()
        outcome = job.outcome
        if state is JobState.DONE and outcome is not None:
            _JOBS_BY_TIER.inc(
                tier=outcome.provenance.tier,
                confidence=outcome.provenance.confidence,
            )
        finished_at = job.finished_at
        latency = None if finished_at is None else max(0.0, finished_at - job.submitted_at)
        if latency is not None:
            _JOB_LATENCY.observe(latency)
        if job._admitted:
            with self._lock:
                self._active = max(0, self._active - 1)
                if latency is not None and not job.cache_hit:
                    self._latency_ewma = latency if self._latency_ewma is None \
                        else 0.7 * self._latency_ewma + 0.3 * latency
        # The terminal frame ends this job's event stream.
        if state is JobState.FAILED:
            job.events.append("failed", state="failed",
                              error=_short_error(job.error))
        else:
            job.events.append(
                "completed", state=state.value,
                cache_hit=job.cache_hit, store_hit=job.store_hit,
                outcome=None if outcome is None else outcome.to_dict(),
            )
        if state is JobState.FAILED:
            logger.warning("job %s failed: %s", job.id, _short_error(job.error),
                           extra={"job_id": job.id})
        else:
            logger.info("job %s %s in %.3fs%s", job.id, state.value,
                        latency if latency is not None else 0.0,
                        " (store hit)" if job.store_hit else "",
                        extra={"job_id": job.id})

    # ------------------------------------------------------------------ #
    # worker body
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            _, _, item = self._queue.get()
            if item is None:  # shutdown sentinel
                return
            try:
                self._run(*item)
            except Exception:  # noqa: BLE001 - the loop must survive any job
                job = item[0]
                job._transition(JobState.FAILED,
                                error=traceback.format_exc(limit=20))

    def _run(self, job: Job, run: PreparedRun) -> None:
        if job._cancel_event.is_set() or job.state.is_terminal:
            job._transition(JobState.CANCELLED, error="cancelled before start")
            return
        job._transition(JobState.RUNNING)
        if job.state.is_terminal:
            # Lost the race against a concurrent cancel — don't search.
            return
        job.events.publish(SearchStarted.of(run))

        # Monotonic time before which no further progressed frame is
        # published; the first expansion always gets one.
        next_frame_at = 0.0

        def on_progress(progress: SearchProgress) -> None:
            nonlocal next_frame_at
            job._record_progress(progress)
            now = time.monotonic()
            if now >= next_frame_at:
                next_frame_at = now + PROGRESS_FRAME_INTERVAL_S
                job.events.publish(SearchProgressed(progress))

        session = (
            self.session
            .with_progress(on_progress)
            .with_cancellation(job._cancel_event.is_set)
        )
        try:
            outcome = session.run(run)
        except Exception:  # noqa: BLE001 - a job failure must not kill the worker
            job._transition(JobState.FAILED, error=traceback.format_exc(limit=20))
            return
        outcome = replace(outcome, idempotency_key=job.key)
        # A plain run stops early only when asked to — by this job's cancel
        # or the session's own cancellation predicate.  Inside the strategy
        # chain a deadline stops it too, and that is an answer, not a
        # cancelled job.
        if job._cancel_event.is_set() or (outcome.cancelled and outcome.tiers is None):
            job._transition(JobState.CANCELLED, outcome=outcome)
            return
        if job.request.use_cache:
            self.store.put_outcome(job.key, outcome)
        job._transition(JobState.DONE, outcome=outcome)

    # ------------------------------------------------------------------ #
    # queries and control
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(job_id)
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def list_jobs(self, *, state: Optional[str] = None, after: int = 0,
                  limit: int = 100) -> Tuple[List[Job], Optional[int]]:
        """A page of jobs in submission order: ``(jobs, next_cursor)``.

        *state* filters on the state's wire value; *after* is the exclusive
        cursor (a job ``seq`` from a previous page); *next_cursor* is
        ``None`` on the last page.  Pruned jobs simply vanish from the walk —
        cursors stay valid because ``seq`` never reorders.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        selected = [job for job in self.jobs()
                    if job.seq > after
                    and (state is None or job.state.value == state)]
        selected.sort(key=lambda job: job.seq)
        page = selected[:limit]
        next_cursor = page[-1].seq if len(selected) > limit else None
        return page, next_cursor

    def counts(self) -> Dict[str, int]:
        """Jobs per state name — the health endpoint's view of the pool."""
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs():
            counts[job.state.value] += 1
        return counts

    def active(self) -> int:
        """Admitted (queued + running) jobs right now."""
        with self._lock:
            return self._active

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; ``True`` unless the job already finished.

        Queued jobs are cancelled immediately (a worker that later dequeues
        the entry sees the terminal state and skips it); running jobs stop
        cooperatively within one search expansion.
        """
        job = self.get(job_id)
        if job.state.is_terminal:
            return False
        job._cancel_event.set()
        if job.state is JobState.QUEUED:
            job._transition(JobState.CANCELLED, error="cancelled while queued")
        return True

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Wait until every submitted job is terminal; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in self.jobs():
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not job.wait(remaining):
                return False
        return True

    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        """Stop accepting work and (optionally) cancel everything in flight.

        The shutdown sentinels sort below every request priority, so with
        ``wait=True`` the workers drain all admitted jobs first (already
        instantly-terminal ones when *cancel_pending* cancelled them)."""
        with self._lock:
            first_close = not self._closed
            self._closed = True
        if cancel_pending:
            for job in self.jobs():
                if not job.state.is_terminal:
                    self.cancel(job.id)
        if first_close:
            for _ in self._threads:
                self._queue.put((_SENTINEL_PRIORITY, next(self._order), None))
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True, cancel_pending=True)
