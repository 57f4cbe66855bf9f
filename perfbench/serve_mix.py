"""The serve-mix workload: an open loop against the HTTP serving tier.

The server runs in its own process, started the way an operator would start
it (``python -m repro.cli serve``).  One client thread POSTs on schedule over
a keep-alive connection; a second thread follows each job's event stream in
submission order.  A request's latency runs from its due time to the moment
its terminal event frame reaches the client.

A stream that ends without a terminal frame is resumed once from its last
sequence (``?after=``), as an SSE client would; the server closes streams
early when a job finishes between its collect and closed checks.  Streams
still without a terminal frame after the resume count as failed requests.
"""

from __future__ import annotations

import json
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT, peak_rss_mb, program_env

from inputs import INLINE, Pair, Slot

HOST = "127.0.0.1"
_LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")
#: Socket timeout of every client call.
IO_TIMEOUT_S = 60.0
#: Seconds the followers may take, after the last send, to see every job end.
DRAIN_S = 90.0
TERMINAL_KINDS = ("completed", "failed")


def request_body(pair: Pair) -> bytes:
    if pair.transport == INLINE:
        payload = {"source_csv": pair.source_csv, "target_csv": pair.target_csv}
    else:
        payload = {"source_path": f"{pair.label}_source.csv",
                   "target_path": f"{pair.label}_target.csv"}
    payload["name"] = pair.label
    return json.dumps(payload).encode("utf-8")


def _default_sigint() -> None:
    # The server stops on SIGINT (KeyboardInterrupt).  A shell starts
    # background jobs with SIGINT ignored, and Python then installs no
    # handler, so restore the default before the server's interpreter starts.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One ``repro.cli serve`` process with its own sqlite store."""

    def __init__(self, run_dir: Path, data_root: Path, tag: str):
        self.log_path = run_dir / f"server-{tag}.log"
        self._args = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--store", f"sqlite:{run_dir / f'store-{tag}.sqlite'}",
            "--data-root", str(data_root),
        ]
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> None:
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                self._args, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                env=program_env(), cwd=ROOT, preexec_fn=_default_sigint,
            )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = _LISTENING.search(
                self.log_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                self.port = int(match.group(1))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; log: {self.log_path.read_text()}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


# --------------------------------------------------------------------- #
# client calls
# --------------------------------------------------------------------- #
def post_explain(conn: HTTPConnection, body: bytes) -> Tuple[int, Dict[str, Any]]:
    conn.request("POST", "/v1/explain", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    return response.status, json.loads(data) if data else {}


@dataclass
class StreamResult:
    terminal: Optional[Dict[str, Any]] = None
    terminal_at: Optional[float] = None
    started_at: Optional[float] = None
    resumed: bool = False
    error: Optional[str] = None


def follow_events(port: int, job_id: str) -> StreamResult:
    """Read a job's NDJSON event stream to its terminal frame, resuming once
    from the last sequence if the server closes the stream early."""
    result = StreamResult()
    after = 0
    for attempt in range(2):
        conn = HTTPConnection(HOST, port, timeout=IO_TIMEOUT_S)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events?after={after}")
            response = conn.getresponse()
            if response.status != 200:
                result.error = f"events answered {response.status}"
                return result
            for raw in response:
                frame = json.loads(raw)
                received = time.perf_counter()
                if frame.get("sequence") is not None:
                    after = frame["sequence"]
                if frame["kind"] == "started":
                    result.started_at = received
                elif frame["kind"] in TERMINAL_KINDS:
                    result.terminal, result.terminal_at = frame, received
                    return result
        except (OSError, HTTPException, ValueError) as error:
            result.error = f"{type(error).__name__}: {error}"
            return result
        finally:
            conn.close()
        if attempt == 0:
            result.resumed = True
    result.error = "event stream ended without a terminal frame after resuming"
    return result


def scrape_counters(port: int, names: Tuple[str, ...]) -> Dict[str, float]:
    """Sum each named counter over its label sets in ``/metrics``."""
    conn = HTTPConnection(HOST, port, timeout=IO_TIMEOUT_S)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    totals = {name: 0.0 for name in names}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        if name in totals:
            totals[name] += float(value)
    return totals


# --------------------------------------------------------------------- #
# set-up and the open loop
# --------------------------------------------------------------------- #
def warm_up(server: Server, warmup: List[Pair]) -> None:
    """One untimed request of each kind: inline, path, and a byte-identical
    repeat of the inline one (a cache hit)."""
    bodies = [request_body(pair) for pair in warmup]
    bodies.append(bodies[0])
    conn = HTTPConnection(HOST, server.port, timeout=IO_TIMEOUT_S)
    try:
        for body in bodies:
            status, view = post_explain(conn, body)
            if status not in (200, 202):
                raise RuntimeError(f"warm-up request answered {status}: {view}")
            stream = follow_events(server.port, view["id"])
            if stream.terminal is None or stream.terminal["kind"] != "completed":
                raise RuntimeError(f"warm-up request did not complete: {stream}")
    finally:
        conn.close()


@dataclass
class Sent:
    """One scheduled request as the client saw it."""

    position: int
    slot: Slot
    due_at: float
    sent_at: float = 0.0
    replied_at: float = 0.0
    status: int = 0
    view: Dict[str, Any] = field(default_factory=dict)
    stream: Optional[StreamResult] = None
    error: Optional[str] = None


def open_loop(port: int, schedule: List[Slot], bodies: List[bytes]) -> Tuple[List[Sent], float]:
    """Send on schedule and follow every job; ``(requests, start time)``."""
    follow: "queue.Queue[Optional[Sent]]" = queue.Queue()
    started = time.perf_counter() + 0.05
    sent: List[Sent] = [Sent(position=position, slot=slot, due_at=started + slot.due_s)
                        for position, slot in enumerate(schedule)]

    def sender() -> None:
        conn = HTTPConnection(HOST, port, timeout=IO_TIMEOUT_S)
        try:
            for request in sent:
                delay = request.due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request.sent_at = time.perf_counter()
                try:
                    request.status, request.view = post_explain(conn, bodies[request.slot.pair])
                except (OSError, HTTPException, ValueError) as error:
                    request.error = f"{type(error).__name__}: {error}"
                    conn.close()
                    conn = HTTPConnection(HOST, port, timeout=IO_TIMEOUT_S)
                request.replied_at = time.perf_counter()
                if request.error is None and request.status not in (200, 202):
                    request.error = f"submission answered {request.status}"
                if request.error is None:
                    follow.put(request)
        finally:
            conn.close()
            follow.put(None)

    def follower() -> None:
        while True:
            request = follow.get()
            if request is None:
                return
            request.stream = follow_events(port, request.view["id"])
            if request.stream.error is not None:
                request.error = request.stream.error

    threads = [threading.Thread(target=sender, name="perfbench-sender", daemon=True),
               threading.Thread(target=follower, name="perfbench-follower",
                                daemon=True)]
    for thread in threads:
        thread.start()
    deadline = started + (schedule[-1].due_s if schedule else 0.0) + DRAIN_S
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()))
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("the serve-mix client did not drain in time")
    return sent, started
