"""The job event stream: buffer semantics, frame wire shape, HTTP streaming.

Pins the ``affidavit.event/v1`` contract end to end — sequences start at 1
and only grow, eviction is reported as one ``truncated`` frame, terminal
frames close the stream and match what polling the job reports, resume works
via both ``Last-Event-ID`` and ``?after=``, and SSE framing is available on
request.
"""

from __future__ import annotations

import json
import math
import threading
import time
import types
import urllib.error
import urllib.request

import pytest

from repro.api import (
    EVENT_SCHEMA_VERSION,
    RequestValidationError,
    UnsupportedSchemaVersion,
    make_frame,
    parse_frame,
)
from repro.datagen import generate_problem_instance
from repro.datagen.datasets import load_dataset
from repro.dataio import to_csv_text
from repro.service import create_server
from repro.service.jobs import PROGRESS_FRAME_INTERVAL_S, JobEventBuffer


# --------------------------------------------------------------------- #
# buffer unit tests
# --------------------------------------------------------------------- #
class TestJobEventBuffer:
    def test_sequences_start_at_one_and_grow(self):
        buffer = JobEventBuffer("job-x")
        first = buffer.append("progressed", expansions=1)
        second = buffer.append("progressed", expansions=2)
        assert first["sequence"] == 1
        assert second["sequence"] == 2
        frames, lost, closed = buffer.collect(0)
        assert lost == 0
        assert not closed
        assert [f["sequence"] for f in frames] == [1, 2]

    def test_collect_after_cursor_skips_delivered(self):
        buffer = JobEventBuffer("job-x")
        for n in range(1, 5):
            buffer.append("progressed", expansions=n)
        frames, lost, closed = buffer.collect(2)
        assert lost == 0
        assert [f["sequence"] for f in frames] == [3, 4]

    def test_eviction_reports_lost_frames(self):
        buffer = JobEventBuffer("job-x", max_frames=4)
        for n in range(1, 11):
            buffer.append("progressed", expansions=n)
        frames, lost, closed = buffer.collect(0)
        assert len(frames) == 4
        assert [f["sequence"] for f in frames] == [7, 8, 9, 10]
        assert lost == 6
        # A cursor inside the retained window loses nothing.
        frames, lost, closed = buffer.collect(8)
        assert lost == 0
        assert [f["sequence"] for f in frames] == [9, 10]

    def test_terminal_kind_closes_buffer(self):
        buffer = JobEventBuffer("job-x")
        buffer.append("completed", state="done", outcome=None)
        assert buffer.closed
        assert buffer.append("progressed", expansions=1) is None
        frames, _, closed = buffer.collect(0)
        assert [f["kind"] for f in frames] == ["completed"]
        assert closed

    def test_wait_returns_on_new_frame(self):
        buffer = JobEventBuffer("job-x")
        result = {}

        def waiter():
            result["woke"] = buffer.wait(0, timeout=5.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        buffer.append("progressed", expansions=1)
        thread.join(timeout=5.0)
        assert result["woke"] is True

    def test_wait_times_out_without_frames(self):
        buffer = JobEventBuffer("job-x")
        assert buffer.wait(0, timeout=0.05) is False

    def test_requires_room_for_two_frames(self):
        with pytest.raises(ValueError):
            JobEventBuffer("job-x", max_frames=1)


# --------------------------------------------------------------------- #
# frame wire shape
# --------------------------------------------------------------------- #
class TestParseFrame:
    def test_started_round_trip(self):
        frame = make_frame("started", job_id="j1", sequence=1, name="n",
                           engine="columnar", n_source_records=4,
                           n_target_records=4, n_attributes=3)
        parsed = parse_frame(json.loads(json.dumps(frame)))
        assert parsed.kind == "started"
        assert parsed.sequence == 1
        assert parsed.payload["engine"] == "columnar"
        assert not parsed.terminal

    def test_completed_round_trip_is_terminal(self):
        frame = make_frame("completed", job_id="j1", sequence=9,
                           state="done", cache_hit=False, store_hit=False,
                           outcome=None)
        parsed = parse_frame(frame)
        assert parsed.terminal
        assert parsed.payload["state"] == "done"
        assert parsed.outcome is None

    def test_failed_round_trip(self):
        frame = make_frame("failed", job_id="j1", sequence=2,
                           state="failed", error="boom")
        parsed = parse_frame(frame)
        assert parsed.terminal
        assert parsed.payload["error"] == "boom"

    def test_heartbeat_and_truncated_are_unsequenced(self):
        assert parse_frame(make_frame("heartbeat", job_id="j1")).sequence is None
        parsed = parse_frame(make_frame("truncated", job_id="j1", dropped=3))
        assert parsed.payload["dropped"] == 3
        with pytest.raises(RequestValidationError):
            parse_frame(make_frame("heartbeat", job_id="j1", sequence=4))

    def test_rejects_version_skew(self):
        frame = make_frame("heartbeat", job_id="j1")
        frame["schema_version"] = "affidavit.event/v99"
        with pytest.raises(UnsupportedSchemaVersion):
            parse_frame(frame)

    @pytest.mark.parametrize("broken", [
        {"schema_version": EVENT_SCHEMA_VERSION, "kind": "nope", "job_id": "j"},
        {"schema_version": EVENT_SCHEMA_VERSION, "kind": "started", "job_id": ""},
        {"schema_version": EVENT_SCHEMA_VERSION, "kind": "started",
         "job_id": "j", "sequence": 0, "name": "n", "engine": "e",
         "n_source_records": 1, "n_target_records": 1, "n_attributes": 1},
        {"schema_version": EVENT_SCHEMA_VERSION, "kind": "completed",
         "job_id": "j", "sequence": 1, "state": "exploded", "outcome": None},
        {"schema_version": EVENT_SCHEMA_VERSION, "kind": "failed",
         "job_id": "j", "sequence": 1, "state": "failed", "error": ""},
        "not even an object",
    ])
    def test_rejects_malformed_frames(self, broken):
        with pytest.raises(RequestValidationError):
            parse_frame(broken)


# --------------------------------------------------------------------- #
# HTTP streaming
# --------------------------------------------------------------------- #
@pytest.fixture
def server():
    instance = create_server(workers=2)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown_service()
    thread.join(timeout=10.0)


@pytest.fixture
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def http(base_url, method, path, body=None, headers=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    req = urllib.request.Request(base_url + path, method=method, data=data,
                                 headers=all_headers)
    try:
        with urllib.request.urlopen(req, timeout=30.0) as response:
            return response.status, response.read().decode("utf-8"), \
                dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8"), dict(error.headers)


def explain_body(divisor, rows=6, **extra):
    source = "id,val\n" + "".join(
        f"{i},{i * 7 * divisor}\n" for i in range(1, rows + 1))
    target = "id,val\n" + "".join(f"{i},{i * 7}\n" for i in range(1, rows + 1))
    body = {"source_csv": source, "target_csv": target, "name": f"div{divisor}"}
    body.update(extra)
    return body


def stream_frames(base_url, path, headers=None):
    """All frames of one (bounded) events request, parsed and validated."""
    status, text, response_headers = http(base_url, "GET", path,
                                          headers=headers)
    assert status == 200, text
    frames = [parse_frame(json.loads(line))
              for line in text.splitlines() if line.strip()]
    return frames, response_headers


def test_stream_full_lifecycle_ndjson(base_url):
    status, text, _ = http(base_url, "POST", "/v1/explain", explain_body(3))
    assert status in (200, 202)
    job_id = json.loads(text)["id"]

    frames, headers = stream_frames(base_url, f"/v1/jobs/{job_id}/events")
    assert headers["Content-Type"] == "application/x-ndjson"
    kinds = [f.kind for f in frames]
    assert kinds[0] == "started"
    assert kinds[-1] == "completed"
    assert "progressed" in kinds
    assert all(f.job_id == job_id for f in frames)
    sequences = [f.sequence for f in frames if f.sequence is not None]
    assert sequences == sorted(sequences)
    assert len(set(sequences)) == len(sequences)
    terminal = frames[-1]
    assert terminal.payload["state"] == "done"
    # The terminal frame carries the full serialized outcome.
    assert terminal.outcome is not None
    assert terminal.outcome.cost <= terminal.outcome.trivial_cost
    # And it agrees with what polling reports.
    status, text, _ = http(base_url, "GET", f"/v1/jobs/{job_id}")
    assert json.loads(text)["state"] == "done"


def test_progressed_frames_are_rate_limited(base_url):
    # A wide search capped at 150 expansions: a few milliseconds each.
    generated = generate_problem_instance(
        load_dataset("flight-500k", 16, seed=1), eta=0.3, tau=0.3, seed=1)
    body = {
        "source_csv": to_csv_text(generated.instance.source),
        "target_csv": to_csv_text(generated.instance.target),
        "name": "wide", "use_cache": False,
        "overrides": {"beta": 6, "queue_width": 50, "max_expansions": 150},
    }
    status, text, _ = http(base_url, "POST", "/v1/explain", body)
    assert status == 202, text
    job_id = json.loads(text)["id"]

    frames, _ = stream_frames(base_url, f"/v1/jobs/{job_id}/events")
    frames = [frame for frame in frames if frame.kind != "heartbeat"]
    terminal = frames[-1]
    assert terminal.kind == "completed"
    expansions = terminal.outcome.expansions
    assert expansions > 100
    assert [frame.kind for frame in frames[:2]] == ["started", "progressed"]
    assert frames[1].payload["expansions"] == 1
    sequences = [frame.sequence for frame in frames]
    assert all(a < b for a, b in zip(sequences, sequences[1:]))

    view = json.loads(http(base_url, "GET", f"/v1/jobs/{job_id}")[1])
    run_s = view["finished_at"] - view["started_at"]
    progressed = [frame for frame in frames if frame.kind == "progressed"]
    assert len(progressed) <= math.ceil(run_s / PROGRESS_FRAME_INTERVAL_S) + 1
    assert len(progressed) < expansions
    # The polled progress still follows every expansion.
    assert view["progress"]["expansions"] == expansions


class _ClosingBuffer(JobEventBuffer):
    """A buffer whose job finishes right after the stream's first snapshot:
    the terminal frame lands between ``collect`` and the stream's next look
    at the buffer."""

    def __init__(self):
        super().__init__("job-race")
        self.append("started", name="race", engine="columnar",
                    n_source_records=1, n_target_records=1, n_attributes=1)
        self._finished = False

    def collect(self, after):
        snapshot = super().collect(after)
        if not self._finished:
            self._finished = True
            self.append("completed", state="done", cache_hit=False,
                        store_hit=False, outcome=None)
        return snapshot


def test_stream_delivers_terminal_frame_when_job_closes_mid_collect(
        server, base_url, monkeypatch):
    job = types.SimpleNamespace(id="job-race", events=_ClosingBuffer())
    monkeypatch.setattr(server.manager, "get", lambda job_id: job)
    frames, _ = stream_frames(base_url, "/v1/jobs/job-race/events")
    assert [f.kind for f in frames] == ["started", "completed"]
    assert frames[-1].terminal


def test_stream_resumes_via_last_event_id_and_after(base_url):
    status, text, _ = http(base_url, "POST", "/v1/explain", explain_body(5))
    job_id = json.loads(text)["id"]
    full, _ = stream_frames(base_url, f"/v1/jobs/{job_id}/events")
    cursor = full[0].sequence
    assert cursor == 1

    resumed, _ = stream_frames(base_url, f"/v1/jobs/{job_id}/events",
                               headers={"Last-Event-ID": str(cursor)})
    assert [f.sequence for f in resumed] == \
        [f.sequence for f in full if f.sequence and f.sequence > cursor]

    via_param, _ = stream_frames(
        base_url, f"/v1/jobs/{job_id}/events?after={cursor}")
    assert [f.sequence for f in via_param] == [f.sequence for f in resumed]

    # Resuming past the terminal frame yields an empty, closed stream.
    last = full[-1].sequence
    drained, _ = stream_frames(base_url,
                               f"/v1/jobs/{job_id}/events?after={last}")
    assert drained == []


def test_stream_sse_format(base_url):
    status, text, _ = http(base_url, "POST", "/v1/explain", explain_body(7))
    job_id = json.loads(text)["id"]
    status, text, headers = http(base_url, "GET",
                                 f"/v1/jobs/{job_id}/events",
                                 headers={"Accept": "text/event-stream"})
    assert status == 200
    assert headers["Content-Type"] == "text/event-stream"
    events = [block for block in text.split("\n\n") if block.strip()]
    frames = []
    for block in events:
        lines = dict(line.split(": ", 1) for line in block.splitlines())
        frame = parse_frame(json.loads(lines["data"]))
        if frame.sequence is not None:
            assert int(lines["id"]) == frame.sequence
        frames.append(frame)
    assert frames[-1].terminal


def test_stream_heartbeats_on_idle_job(base_url):
    body = explain_body(11, throttle_seconds=0.3)
    status, text, _ = http(base_url, "POST", "/v1/explain", body)
    job_id = json.loads(text)["id"]
    frames, _ = stream_frames(
        base_url, f"/v1/jobs/{job_id}/events?wait=1&heartbeat=0.05")
    assert any(f.kind == "heartbeat" for f in frames)
    http(base_url, "DELETE", f"/v1/jobs/{job_id}")


def test_cache_hit_job_streams_single_completed_frame(base_url):
    body = explain_body(13)
    status, text, _ = http(base_url, "POST", "/v1/explain", body)
    job_id = json.loads(text)["id"]
    stream_frames(base_url, f"/v1/jobs/{job_id}/events")  # wait until done

    status, text, _ = http(base_url, "POST", "/v1/explain", body)
    assert status == 200
    repeat = json.loads(text)
    assert repeat["cache_hit"] is True
    frames, _ = stream_frames(base_url, f"/v1/jobs/{repeat['id']}/events")
    assert [f.kind for f in frames] == ["completed"]
    assert frames[0].payload["cache_hit"] is True


def test_invalid_cursor_is_enveloped_400(base_url):
    status, text, _ = http(base_url, "POST", "/v1/explain", explain_body(17))
    job_id = json.loads(text)["id"]
    for path in (f"/v1/jobs/{job_id}/events?after=banana",
                 f"/v1/jobs/{job_id}/events?after=-3",
                 f"/v1/jobs/{job_id}/events?wait=banana"):
        status, text, _ = http(base_url, "GET", path)
        assert status == 400
        payload = json.loads(text)
        assert payload["schema_version"] == "affidavit.error/v1"
        assert payload["code"] in ("invalid_cursor", "invalid_wait")
        assert payload["error"] == payload["message"]
    stream_frames(base_url, f"/v1/jobs/{job_id}/events")  # drain before teardown


def test_unknown_job_events_is_enveloped_404(base_url):
    status, text, _ = http(base_url, "GET", "/v1/jobs/nope/events")
    assert status == 404
    payload = json.loads(text)
    assert payload["schema_version"] == "affidavit.error/v1"
    assert payload["code"] == "unknown_job"
