"""The HTTP face of the explanation service (stdlib ``http.server``).

Endpoints
---------
``GET /healthz``
    Liveness plus pool/store/admission statistics — suitable for
    load-balancer checks (``cache`` and ``store`` both report the one result
    store's counters).
``POST /v1/explain``
    Submit a snapshot pair (inline CSV or server-side paths).  Responds
    ``202 Accepted`` with the job view, or ``200 OK`` when the result store
    already holds the exact answer (``cache_hit`` and ``store_hit`` both
    ``true``).
    Over-capacity submissions get ``429`` + ``Retry-After`` — from the
    bounded job queue or from the per-client token-bucket quota (clients
    identified by the ``X-Client-Id`` header).
``GET /v1/jobs[?state=&limit=&cursor=]``
    Jobs known to the manager, in submission order, with an optional state
    filter and cursor pagination (``next_cursor`` is ``null`` on the last
    page).
``GET /v1/jobs/<id>``
    State, progress and timestamps of one job.
``GET /v1/jobs/<id>/events[?after=&wait=&heartbeat=]``
    The job's event stream as NDJSON (default) or SSE (with
    ``Accept: text/event-stream``): versioned ``affidavit.event/v1`` frames
    (started / progressed / completed / failed), heartbeats while idle, and
    resume-from-sequence via the ``Last-Event-ID`` header or ``after=``.
``GET /v1/jobs/<id>/result[?format=json|sql|report]``
    The explanation in the requested format; ``409 Conflict`` while the job
    is still queued/running.
``DELETE /v1/jobs/<id>``
    Cooperative cancellation (queued jobs die immediately, running searches
    stop within one expansion).

Every error response across all routes is a versioned ``affidavit.error/v1``
envelope: ``{"schema_version", "code", "message", "error"}`` plus
``retry_after_ms`` on backpressure responses (the legacy ``"error"`` key
mirrors ``message`` for older clients).

The server is a :class:`http.server.ThreadingHTTPServer`: request handling is
cheap and threaded, while the heavy search work stays on the manager's
bounded worker pool — accepting a burst of submissions never oversubscribes
the machine.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..api import (
    TERMINAL_FRAME_KINDS,
    ExplainRequest,
    ExplainSession,
    MemoryResultStore,
    RequestValidationError,
    ResultStore,
    heartbeat_frame,
    make_frame,
    open_store,
)
from ..export import explanation_to_sql, render_report
from ..obs import PROM_CONTENT_TYPE, get_registry, render_prometheus
from .jobs import (
    ADMISSION_REJECTED,
    AdmissionError,
    JobManager,
    JobNotFound,
    JobState,
    logger,
)
from .schemas import job_view, result_view

#: Default request-body cap; override per server via ``max_body_bytes``.
MAX_BODY_BYTES = 64 * 1024 * 1024

RESULT_FORMATS = ("json", "sql", "report")

#: Version tag of the error envelope every route answers failures with.
ERROR_SCHEMA_VERSION = "affidavit.error/v1"

#: Header identifying the quota principal; absent/blank maps to "anonymous".
CLIENT_ID_HEADER = "X-Client-Id"

#: Content type of the default (non-SSE) event stream.
NDJSON_CONTENT_TYPE = "application/x-ndjson"
SSE_CONTENT_TYPE = "text/event-stream"

#: Default seconds between keep-alive frames on an idle event stream.
DEFAULT_HEARTBEAT_SECONDS = 15.0

#: Default page size of ``GET /v1/jobs`` (also the cap's order of magnitude).
DEFAULT_JOBS_LIMIT = 100
MAX_JOBS_LIMIT = 1000


def error_envelope(code: str, message: str, *,
                   retry_after_ms: Optional[int] = None,
                   **extra: Any) -> Dict[str, Any]:
    """The ``affidavit.error/v1`` body shared by every error response."""
    payload: Dict[str, Any] = {
        "schema_version": ERROR_SCHEMA_VERSION,
        "code": code,
        "message": message,
        # Legacy alias — pre-envelope clients read payload["error"].
        "error": message,
    }
    if retry_after_ms is not None:
        payload["retry_after_ms"] = int(retry_after_ms)
    payload.update(extra)
    return payload


class _HttpError(Exception):
    """A client error with a definite status and machine-readable code.

    Raised by body parsing, turned into an ``affidavit.error/v1`` response —
    so a too-large body is a 413 and a malformed one a 400, never a 500.
    """

    def __init__(self, status: int, message: str, code: str):
        super().__init__(message)
        self.status = status
        self.code = code


class ClientQuotas:
    """Per-client token buckets, keyed on the ``X-Client-Id`` header.

    Each client refills at *rate_per_second* tokens up to *burst*; a request
    costs one token.  :meth:`try_acquire` returns ``None`` when admitted or
    the seconds until a token becomes available (the 429's ``Retry-After``).
    The client map is LRU-bounded so an id-spraying client cannot grow it
    without bound — evicting an idle bucket merely refills a full burst,
    which the refill rule would have granted anyway.
    """

    def __init__(self, rate_per_second: float, burst: Optional[float] = None,
                 *, max_clients: int = 4096,
                 clock: Callable[[], float] = time.monotonic):
        if rate_per_second <= 0:
            raise ValueError(
                f"rate_per_second must be positive, got {rate_per_second}")
        self.rate = float(rate_per_second)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        if max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {max_clients}")
        self._max_clients = max_clients
        self._clock = clock
        self._lock = threading.Lock()
        #: client id -> [tokens, last refill timestamp]
        self._buckets: "OrderedDict[str, list]" = OrderedDict()

    def try_acquire(self, client_id: str) -> Optional[float]:
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = [self.burst, now]
                self._buckets[client_id] = bucket
                while len(self._buckets) > self._max_clients:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(client_id)
                tokens, updated = bucket
                bucket[0] = min(self.burst, tokens + (now - updated) * self.rate)
                bucket[1] = now
            if bucket[0] >= 1.0:
                bucket[0] -= 1.0
                return None
            return (1.0 - bucket[0]) / self.rate

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            clients = len(self._buckets)
        return {"rate_per_second": self.rate, "burst": self.burst,
                "clients": clients}


_http_metrics = get_registry()
_HTTP_REQUESTS = _http_metrics.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, route template and status code",
    ("method", "route", "status"),
)
_HTTP_LATENCY = _http_metrics.histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency, by method and route template",
    ("method", "route"),
)


class AffidavitHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server that owns a :class:`JobManager`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], manager: JobManager, *,
                 verbose: bool = False,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 quotas: Optional[ClientQuotas] = None,
                 heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
                 owned_store: Optional[ResultStore] = None):
        super().__init__(address, _Handler)
        self.manager = manager
        self.verbose = verbose
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        if heartbeat_seconds <= 0:
            raise ValueError(
                f"heartbeat_seconds must be positive, got {heartbeat_seconds}")
        self.max_body_bytes = max_body_bytes
        self.quotas = quotas
        self.heartbeat_seconds = heartbeat_seconds
        #: A store this server opened itself (from a spec string) and must
        #: close on shutdown; externally supplied stores stay the caller's.
        self._owned_store = owned_store
        self.started_at = time.time()

    def shutdown_service(self, *, cancel_pending: bool = True) -> None:
        """Stop the HTTP loop and wind down the worker pool."""
        self.shutdown()
        self.server_close()
        self.manager.shutdown(wait=True, cancel_pending=cancel_pending)
        if self._owned_store is not None:
            self._owned_store.close()


class _Handler(BaseHTTPRequestHandler):
    server: AffidavitHTTPServer  # narrowed for readability
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _serve(self) -> None:
        """Resolve the path once through :data:`_ROUTES` and run the
        method's handler; an unexpected error becomes a 500 JSON response
        instead of a dropped connection.  Every exchange lands in the
        request counter and latency histogram under its route template."""
        started = time.perf_counter()
        self._status = 0
        route_label = "unmatched"
        try:
            parsed = urlparse(self.path)
            route_label, handlers, job_ids = _match_route(parsed.path)
            handler = handlers.get(self.command)
            query = parse_qs(parsed.query)
            if handler is None:
                # A known template with the wrong method is also not found.
                self._send_error(404, "not_found", f"no such route: {parsed.path}")
            elif not job_ids:
                handler(self, query)
            else:
                try:
                    job = self.server.manager.get(job_ids[0])
                except JobNotFound:
                    self._send_error(404, "unknown_job", f"unknown job: {job_ids[0]}")
                else:
                    handler(self, job, query)
        except BrokenPipeError:  # client went away mid-response
            self.close_connection = True
        except Exception as error:  # noqa: BLE001
            self.close_connection = True
            logger.exception("unhandled error on %s %s", self.command, self.path)
            try:
                self._send_error(500, "internal_error", f"internal error: {error}")
            except OSError:
                pass
        finally:
            _HTTP_REQUESTS.inc(method=self.command, route=route_label,
                               status=str(self._status or 0))
            _HTTP_LATENCY.observe(time.perf_counter() - started,
                                  method=self.command, route=route_label)

    # http.server dispatches on do_<METHOD>; every method goes through the table.
    do_GET = do_POST = do_DELETE = _serve

    def _get_health(self, _query: Dict[str, list]) -> None:
        self._send_json(200, self._health_payload())

    def _get_metrics(self, _query: Dict[str, list]) -> None:
        self._send_text(200, render_prometheus(), content_type=PROM_CONTENT_TYPE)

    def _get_job(self, job, _query: Dict[str, list]) -> None:
        self._send_json(200, job_view(job))

    def _post_explain(self, _query: Dict[str, list]) -> None:
        if self.server.quotas is not None:
            client = (self.headers.get(CLIENT_ID_HEADER) or "").strip() or "anonymous"
            retry = self.server.quotas.try_acquire(client)
            if retry is not None:
                ADMISSION_REJECTED.inc(reason="quota_exceeded")
                # The body stays unread; the connection must close so the
                # unparsed bytes cannot masquerade as the next request.
                self.close_connection = True
                self._send_error(
                    429, "quota_exceeded",
                    f"client {client!r} exceeded its request quota",
                    retry_after_seconds=retry)
                return
        try:
            payload = self._read_json_body()
            request = ExplainRequest.from_dict(payload)
            # The manager's session loads the snapshots (confined to the
            # served data root) and resolves the config and function pool.
            job = self.server.manager.submit_request(request)
        except _HttpError as error:
            self._send_error(error.status, error.code, str(error))
            return
        except AdmissionError as error:
            self._send_error(429, error.reason, str(error),
                             retry_after_seconds=error.retry_after_seconds)
            return
        except RequestValidationError as error:
            self._send_error(400, "invalid_request", str(error))
            return
        status = 200 if job.state is JobState.DONE else 202
        self._send_json(status, job_view(job))

    # ------------------------------------------------------------------ #
    # endpoint bodies
    # ------------------------------------------------------------------ #
    def _health_payload(self) -> Dict[str, Any]:
        manager = self.server.manager
        store = manager.store.stats().to_dict()
        quotas = self.server.quotas
        return {
            "status": "ok",
            "version": __version__,
            "workers": manager.workers,
            "uptime_seconds": round(time.time() - self.server.started_at, 3),
            "jobs": manager.counts(),
            "cache": store,
            "store": store,
            "admission": {
                "active": manager.active(),
                "max_queue_depth": manager.max_queue_depth,
                "retry_after_seconds": manager.retry_after_seconds(),
            },
            "quota": None if quotas is None else quotas.to_dict(),
        }

    def _list_jobs(self, query: Dict[str, list]) -> None:
        state = query.get("state", [None])[0]
        if state is not None and state not in {s.value for s in JobState}:
            self._send_error(
                400, "invalid_state",
                f"unknown state {state!r} "
                f"(use {sorted(s.value for s in JobState)})")
            return
        raw_limit = query.get("limit", [str(DEFAULT_JOBS_LIMIT)])[0]
        try:
            limit = int(raw_limit)
        except ValueError:
            limit = -1
        if not 1 <= limit <= MAX_JOBS_LIMIT:
            self._send_error(
                400, "invalid_limit",
                f"limit must be an integer in [1, {MAX_JOBS_LIMIT}], "
                f"got {raw_limit!r}")
            return
        raw_cursor = query.get("cursor", [None])[0]
        after = 0
        if raw_cursor is not None:
            try:
                after = int(raw_cursor)
            except ValueError:
                after = -1
            if after < 0:
                self._send_error(
                    400, "invalid_cursor",
                    f"cursor must be a non-negative integer from a previous "
                    f"page's next_cursor, got {raw_cursor!r}")
                return
        jobs, next_cursor = self.server.manager.list_jobs(
            state=state, after=after, limit=limit)
        self._send_json(200, {
            "jobs": [job_view(job) for job in jobs],
            "next_cursor": None if next_cursor is None else str(next_cursor),
        })

    def _send_result(self, job, query: Dict[str, list]) -> None:
        fmt = query.get("format", ["json"])[0]
        if fmt not in RESULT_FORMATS:
            self._send_error(400, "unknown_format",
                             f"unknown format {fmt!r} (use {RESULT_FORMATS})")
            return
        state = job.state
        if state is JobState.FAILED:
            self._send_error(500, "job_failed", job.error or "job failed",
                             state=state.value)
            return
        if job.outcome is None:
            self._send_error(
                409, "result_not_ready",
                f"job is {state.value}; result not available yet",
                state=state.value)
            return
        if fmt == "json":
            self._send_json(200, result_view(job))
            return
        # sql/report rendering needs the snapshots; store-hit jobs have them
        # too (this replica materialised the request itself).
        explanation = job.outcome.explanation
        if fmt == "sql":
            table_name = query.get("table", [job.name])[0]
            script = explanation_to_sql(
                job.instance, explanation, table_name=table_name
            )
            self._send_text(200, script, content_type="application/sql")
        else:
            report = render_report(job.instance, explanation, title=job.name)
            self._send_text(200, report + "\n")

    def _cancel_job(self, job, _query: Dict[str, list]) -> None:
        accepted = self.server.manager.cancel(job.id)
        if accepted:
            self._send_json(202, {"id": job.id, "cancelling": True,
                                  "state": job.state.value})
        else:
            self._send_error(409, "job_already_finished",
                             "job already finished",
                             id=job.id, cancelling=False,
                             state=job.state.value)

    # ------------------------------------------------------------------ #
    # event streaming
    # ------------------------------------------------------------------ #
    def _stream_events(self, job, query: Dict[str, list]) -> None:
        """Stream the job's event buffer as NDJSON or SSE.

        ``after``/``Last-Event-ID`` resume from a sequence; ``wait`` caps how
        long the stream stays open while the job is live (default: until the
        terminal frame); ``heartbeat`` overrides the keep-alive interval.
        """
        raw_after = query.get("after", [None])[0]
        if raw_after is None:
            raw_after = (self.headers.get("Last-Event-ID") or "").strip() or "0"
        try:
            after = int(raw_after)
        except ValueError:
            after = -1
        if after < 0:
            self._send_error(
                400, "invalid_cursor",
                f"event cursor must be a non-negative frame sequence, "
                f"got {raw_after!r}")
            return
        wait = self._seconds_param(query, "wait", default=None,
                                   minimum=0.0, maximum=3600.0)
        heartbeat = self._seconds_param(query, "heartbeat",
                                        default=self.server.heartbeat_seconds,
                                        minimum=0.05, maximum=3600.0)
        if wait is ... or heartbeat is ...:  # error already sent
            return
        sse = SSE_CONTENT_TYPE in (self.headers.get("Accept") or "")

        # No Content-Length — the response is framed by connection close.
        self._status = 200
        self.send_response(200)
        self.send_header("Content-Type",
                         SSE_CONTENT_TYPE if sse else NDJSON_CONTENT_TYPE)
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()

        deadline = None if wait is None else time.monotonic() + wait
        cursor = after
        truncation_reported = False
        while True:
            frames, lost, closed = job.events.collect(cursor)
            if lost and not truncation_reported:
                truncation_reported = True
                self._write_frame(
                    make_frame("truncated", job_id=job.id, dropped=lost), sse)
            for frame in frames:
                self._write_frame(frame, sse)
                cursor = frame["sequence"]
                if frame["kind"] in TERMINAL_FRAME_KINDS:
                    return
            if closed:
                # The buffer was closed when these frames were taken, so the
                # terminal frame lies at or before the cursor (e.g. a resume
                # past the end): nothing more will ever arrive.  The flag
                # comes from the same snapshot as the frames — a job that
                # finishes after it is seen on the next pass.
                return
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return
            timeout = heartbeat if remaining is None else min(heartbeat, remaining)
            if not job.events.wait(cursor, timeout):
                self._write_frame(heartbeat_frame(job.id), sse)

    def _seconds_param(self, query: Dict[str, list], name: str, *,
                       default: Optional[float], minimum: float,
                       maximum: float):
        """A float seconds query param; sends a 400 and returns ``...`` on
        junk (the caller checks for the sentinel and bails)."""
        raw = query.get(name, [None])[0]
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value < 0:
            self._send_error(400, f"invalid_{name}",
                             f"{name} must be a non-negative number of "
                             f"seconds, got {raw!r}")
            return ...
        return min(max(value, minimum), maximum)

    def _write_frame(self, frame: Dict[str, Any], sse: bool) -> None:
        data = json.dumps(frame)
        if sse:
            sequence = frame.get("sequence")
            prefix = f"id: {sequence}\n" if sequence is not None else ""
            chunk = f"{prefix}data: {data}\n\n"
        else:
            chunk = data + "\n"
        self.wfile.write(chunk.encode("utf-8"))
        self.wfile.flush()

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _read_json_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            raise _HttpError(400, "malformed Content-Length header",
                             "bad_content_length") from None
        if length <= 0:
            raise _HttpError(400, "request body is empty", "empty_body")
        limit = self.server.max_body_bytes
        if length > limit:
            # The body stays unread; keeping the connection alive would let
            # it be parsed as the next request line.
            self.close_connection = True
            raise _HttpError(
                413, f"request body of {length} bytes exceeds the "
                     f"{limit}-byte limit", "body_too_large")
        raw = self.rfile.read(length)
        if len(raw) < length:
            # The client promised more bytes than it sent (or the connection
            # dropped mid-body): a truncated request, not a server fault.
            self.close_connection = True
            raise _HttpError(
                400, f"request body truncated: Content-Length was {length} "
                     f"but only {len(raw)} bytes arrived", "truncated_body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"invalid JSON body: {error}",
                             "invalid_json") from error

    def _send_error(self, status: int, code: str, message: str, *,
                    retry_after_seconds: Optional[float] = None,
                    **extra: Any) -> None:
        """One ``affidavit.error/v1`` response; sets ``Retry-After`` (whole
        seconds, rounded up) when a backoff hint is given."""
        headers: Dict[str, str] = {}
        retry_after_ms: Optional[int] = None
        if retry_after_seconds is not None:
            retry_after_ms = max(1, math.ceil(retry_after_seconds * 1000.0))
            headers["Retry-After"] = str(max(1, math.ceil(retry_after_seconds)))
        body = error_envelope(code, message, retry_after_ms=retry_after_ms,
                              **extra)
        self._send_bytes(status, json.dumps(body).encode("utf-8"),
                         "application/json", extra_headers=headers)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_bytes(status, body, "application/json")

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        # backslashreplace: a lone surrogate in a CSV cell is rendered as
        # its escape instead of failing the response.
        self._send_bytes(status, text.encode("utf-8", errors="backslashreplace"),
                         content_type)

    def _send_bytes(self, status: int, body: bytes, content_type: str,
                    extra_headers: Optional[Dict[str, str]] = None) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # http.server writes to stderr by default; route per-request lines
        # through the service logger instead (INFO when the server was asked
        # to be verbose, DEBUG otherwise).
        level = logging.INFO if self.server.verbose else logging.DEBUG
        logger.log(level, "%s %s", self.address_string(), format % args)


#: Every route the server answers: its template (also the route label of the
#: request metrics) and its handler per method.  ``{id}`` matches one path
#: segment, a job id; the job is looked up before its handler runs.
_ROUTES: Tuple[Tuple[str, Dict[str, Callable[..., None]]], ...] = (
    ("/healthz", {"GET": _Handler._get_health}),
    ("/metrics", {"GET": _Handler._get_metrics}),
    ("/v1/explain", {"POST": _Handler._post_explain}),
    ("/v1/jobs", {"GET": _Handler._list_jobs}),
    ("/v1/jobs/{id}", {"GET": _Handler._get_job, "DELETE": _Handler._cancel_job}),
    ("/v1/jobs/{id}/result", {"GET": _Handler._send_result}),
    ("/v1/jobs/{id}/events", {"GET": _Handler._stream_events}),
)


def _match_route(path: str) -> Tuple[str, Dict[str, Callable[..., None]], List[str]]:
    """``(template, handlers by method, job ids)`` of *path*; an unknown
    path is ``("unmatched", {}, [])``.  Empty segments are ignored."""
    parts = [part for part in path.split("/") if part]
    for template, handlers in _ROUTES:
        segments = template.strip("/").split("/")
        if len(segments) == len(parts) and all(
                segment in ("{id}", part) for segment, part in zip(segments, parts)):
            return template, handlers, [
                part for segment, part in zip(segments, parts) if segment == "{id}"
            ]
    return "unmatched", {}, []


def create_server(host: str = "127.0.0.1", port: int = 0, *,
                  manager: Optional[JobManager] = None,
                  workers: int = 2,
                  cache_entries: int = 128,
                  cache_ttl: Optional[float] = None,
                  store: Optional[Union[ResultStore, str]] = None,
                  max_queue_depth: Optional[int] = None,
                  quota_rate: Optional[float] = None,
                  quota_burst: Optional[float] = None,
                  data_root: Optional[Path] = None,
                  verbose: bool = False,
                  max_body_bytes: int = MAX_BODY_BYTES,
                  heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS) -> AffidavitHTTPServer:
    """Build a ready-to-serve HTTP server (port 0 picks an ephemeral port).

    *store* is either a live :class:`~repro.api.store.ResultStore`
    (shared with other replicas in-process; the caller closes it) or a spec
    string for :func:`~repro.api.store.open_store` (``"sqlite:PATH"`` or a
    bare path; the server closes it on shutdown).  Without one — or with
    ``"memory"`` — the manager keeps its in-process memory store sized by
    *cache_entries* / *cache_ttl*.
    *data_root* confines server-side snapshot paths; it becomes the data
    root of the manager's session (a caller-built *manager* brings its own).
    *quota_rate*/*quota_burst* enable per-client token-bucket admission;
    *max_queue_depth* bounds admitted jobs (429 + ``Retry-After`` beyond).
    """
    owned_store: Optional[ResultStore] = None
    if isinstance(store, str):
        store = owned_store = open_store(store)
    if manager is None:
        manager = JobManager(workers=workers,
                             session=ExplainSession(data_root=data_root),
                             cache_entries=cache_entries,
                             cache_ttl=cache_ttl, store=store,
                             max_queue_depth=max_queue_depth)
    elif data_root is not None:
        raise ValueError("a caller-built manager confines paths through its "
                         "own session; pass data_root to that session")
    quotas = None
    if quota_rate is not None:
        quotas = ClientQuotas(quota_rate, quota_burst)
    return AffidavitHTTPServer((host, port), manager, verbose=verbose,
                               max_body_bytes=max_body_bytes,
                               quotas=quotas,
                               heartbeat_seconds=heartbeat_seconds,
                               owned_store=owned_store)


def configure_logging(log_level: str = "info") -> None:
    """Point the ``repro.service`` logger at stderr at *log_level*.

    Only attaches a handler when the logger has none, so hosts that already
    configured :mod:`logging` (or tests using caplog) keep their setup.
    """
    level = getattr(logging, log_level.upper(), None)
    if not isinstance(level, int):
        raise ValueError(f"unknown log level: {log_level!r}")
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s: %(message)s"
        ))
        logger.addHandler(handler)


def serve_forever(host: str = "127.0.0.1", port: int = 8080, *,
                  workers: int = 2,
                  cache_entries: int = 128,
                  cache_ttl: Optional[float] = None,
                  store: Optional[str] = None,
                  max_queue_depth: Optional[int] = None,
                  quota_rate: Optional[float] = None,
                  quota_burst: Optional[float] = None,
                  data_root: Optional[Path] = None,
                  verbose: bool = True,
                  log_level: str = "info",
                  max_body_bytes: int = MAX_BODY_BYTES) -> int:
    """Blocking entry point used by ``repro-affidavit serve``."""
    configure_logging(log_level)
    server = create_server(host, port, workers=workers,
                           cache_entries=cache_entries, cache_ttl=cache_ttl,
                           store=store, max_queue_depth=max_queue_depth,
                           quota_rate=quota_rate, quota_burst=quota_burst,
                           data_root=data_root, verbose=verbose,
                           max_body_bytes=max_body_bytes)
    bound_host, bound_port = server.server_address[:2]
    logger.info(
        "affidavit service listening on http://%s:%s "
        "(%s workers, %s store%s%s%s)",
        bound_host, bound_port, workers,
        server.manager.store.backend,
        "" if not isinstance(server.manager.store, MemoryResultStore)
        else f" of {cache_entries} entries"
        + ("" if cache_ttl is None else f", ttl {cache_ttl:g}s"),
        "" if max_queue_depth is None else f", queue depth {max_queue_depth}",
        "" if quota_rate is None else f", quota {quota_rate:g}/s",
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        logger.info("shutting down ...")
    finally:
        server.shutdown_service()
    return 0
