"""Admission control: bounded queue depth, per-client quotas, priorities.

The deterministic saturation pattern from the cancellation tests: a blocker
job parks inside its session's progress callback on a threading.Event, so
the worker pool is provably busy while the assertions run — no sleeps, no
racing the scheduler.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ExplainRequest, ExplainSession
from repro.service import AdmissionError, JobManager, JobState, create_server
from repro.service.server import ClientQuotas


def make_request(salt: int, **kwargs) -> ExplainRequest:
    """A distinct snapshot pair per salt (distinct idempotency keys)."""
    return ExplainRequest(
        source_csv="id,val\n" + "".join(f"{i},{i * 100 * salt}\n" for i in range(1, 5)),
        target_csv="id,val\n" + "".join(f"{i},{i * salt}\n" for i in range(1, 5)),
        **kwargs,
    )


@pytest.fixture
def gate():
    """(session, in_search, release, armed): once *armed* is set, every
    search of *session* parks at its first expansion until released."""
    in_search = threading.Event()
    release = threading.Event()
    armed = threading.Event()

    def parked(progress) -> None:
        if armed.is_set():
            in_search.set()
            release.wait(timeout=30.0)

    yield ExplainSession().with_progress(parked), in_search, release, armed
    release.set()


# --------------------------------------------------------------------- #
# manager-level queue depth
# --------------------------------------------------------------------- #
def test_saturated_queue_rejects_with_retry_after(gate):
    session, in_search, release, armed = gate
    armed.set()
    with JobManager(workers=1, max_queue_depth=2, session=session) as manager:
        blocker = manager.submit_request(make_request(2, use_cache=False))
        assert in_search.wait(10.0)
        queued = manager.submit_request(make_request(3, use_cache=False))
        assert manager.active() == 2

        with pytest.raises(AdmissionError) as excinfo:
            manager.submit_request(make_request(5, use_cache=False))
        error = excinfo.value
        assert error.reason == "queue_full"
        assert error.retry_after_seconds >= 1
        assert isinstance(error, RuntimeError)  # stays a RuntimeError subtype

        release.set()
        assert blocker.wait(30.0) and queued.wait(30.0)
        # Terminal jobs release their admission slots: submissions flow again.
        job = manager.submit_request(make_request(7, use_cache=False))
        assert job.wait(30.0)
        assert manager.active() == 0


def test_cache_hits_bypass_admission(gate):
    session, in_search, release, armed = gate
    with JobManager(workers=1, max_queue_depth=1, session=session) as manager:
        warm = manager.submit_request(make_request(11))
        assert warm.wait(30.0)

        armed.set()
        blocker = manager.submit_request(make_request(13, use_cache=False))
        assert in_search.wait(10.0)
        with pytest.raises(AdmissionError):
            manager.submit_request(make_request(17, use_cache=False))
        # The saturated queue still answers already-computed requests.
        hit = manager.submit_request(make_request(11))
        assert hit.state is JobState.DONE
        assert hit.cache_hit is True
        release.set()
        assert blocker.wait(30.0)


def test_priority_orders_the_queue(gate):
    session, in_search, release, armed = gate
    armed.set()
    with JobManager(workers=1, session=session) as manager:
        blocker = manager.submit_request(make_request(2, use_cache=False))
        assert in_search.wait(10.0)
        low = manager.submit_request(make_request(3, priority=-5, use_cache=False))
        medium = manager.submit_request(make_request(5, priority=0, use_cache=False))
        high = manager.submit_request(make_request(7, priority=10, use_cache=False))
        assert (low.priority, medium.priority, high.priority) == (-5, 0, 10)

        release.set()
        for job in (blocker, low, medium, high):
            assert job.wait(30.0)
        assert high.started_at < medium.started_at < low.started_at


# --------------------------------------------------------------------- #
# quotas (unit)
# --------------------------------------------------------------------- #
def test_quota_buckets_are_per_client():
    tick = [0.0]
    quotas = ClientQuotas(rate_per_second=1.0, burst=2, clock=lambda: tick[0])
    assert quotas.try_acquire("a") is None
    assert quotas.try_acquire("a") is None
    retry = quotas.try_acquire("a")
    assert retry is not None and retry > 0
    assert quotas.try_acquire("b") is None  # b has its own bucket
    tick[0] = 1.5  # refill grants a another token
    assert quotas.try_acquire("a") is None


def test_quota_client_map_is_bounded():
    quotas = ClientQuotas(rate_per_second=1.0, max_clients=4)
    for n in range(40):
        quotas.try_acquire(f"client-{n}")
    assert quotas.to_dict()["clients"] == 4


def test_quota_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ClientQuotas(rate_per_second=0)
    with pytest.raises(ValueError):
        ClientQuotas(rate_per_second=1.0, burst=0.5)


# --------------------------------------------------------------------- #
# HTTP level
# --------------------------------------------------------------------- #
def _post(base_url, body, client=None):
    data = json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if client is not None:
        headers["X-Client-Id"] = client
    req = urllib.request.Request(base_url + "/v1/explain", method="POST",
                                 data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=30.0) as response:
            return response.status, json.loads(response.read()), \
                dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _body(salt, **extra):
    body = {
        "source_csv": "id,val\n" + "".join(
            f"{i},{i * 100 * salt}\n" for i in range(1, 5)),
        "target_csv": "id,val\n" + "".join(
            f"{i},{i * salt}\n" for i in range(1, 5)),
        "name": f"salt{salt}",
    }
    body.update(extra)
    return body


@pytest.fixture
def bounded_server():
    server = create_server(workers=1, max_queue_depth=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown_service()
    thread.join(timeout=10.0)


def test_http_429_with_retry_after_when_saturated(bounded_server):
    # throttle_seconds keeps the single admitted job busy for seconds.
    status, view, _ = _post(bounded_server, _body(2, throttle_seconds=0.5,
                                                  use_cache=False))
    assert status == 202
    blocker_id = view["id"]

    status, payload, headers = _post(bounded_server, _body(3))
    assert status == 429
    assert payload["schema_version"] == "affidavit.error/v1"
    assert payload["code"] == "queue_full"
    assert payload["error"] == payload["message"]
    assert payload["retry_after_ms"] >= 1
    assert int(headers["Retry-After"]) >= 1

    # Cancel the blocker; its slot frees and submissions are admitted again.
    req = urllib.request.Request(
        f"{bounded_server}/v1/jobs/{blocker_id}", method="DELETE")
    with urllib.request.urlopen(req, timeout=30.0):
        pass
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        status, view, _ = _post(bounded_server, _body(5))
        if status in (200, 202):
            break
        time.sleep(0.05)
    assert status in (200, 202)


@pytest.fixture
def quota_server():
    server = create_server(workers=1, quota_rate=0.001, quota_burst=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown_service()
    thread.join(timeout=10.0)


def test_http_quota_isolates_clients(quota_server):
    # Invalid bodies still consume quota tokens (the check runs first), so
    # the test never queues real work.
    for _ in range(2):
        status, payload, _ = _post(quota_server, {}, client="alice")
        assert status == 400
    status, payload, headers = _post(quota_server, {}, client="alice")
    assert status == 429
    assert payload["code"] == "quota_exceeded"
    assert "alice" in payload["message"]
    assert int(headers["Retry-After"]) >= 1
    # Bob's bucket is untouched.
    status, payload, _ = _post(quota_server, {}, client="bob")
    assert status == 400
    # No client header at all falls back to the shared anonymous bucket.
    status, payload, _ = _post(quota_server, {})
    assert status == 400


@pytest.fixture
def plain_server():
    server = create_server(workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown_service()
    thread.join(timeout=10.0)


def test_priority_field_round_trips_and_validates(plain_server):
    status, view, _ = _post(plain_server, _body(2, priority=5))
    assert status in (200, 202)
    assert view["priority"] == 5

    status, payload, _ = _post(plain_server, _body(3, priority=101))
    assert status == 400
    assert payload["schema_version"] == "affidavit.error/v1"
    assert payload["code"] == "invalid_request"

    status, payload, _ = _post(plain_server, _body(3, priority="high"))
    assert status == 400


def test_healthz_reports_admission_state(bounded_server):
    with urllib.request.urlopen(f"{bounded_server}/healthz",
                                timeout=30.0) as response:
        health = json.loads(response.read())
    assert health["admission"]["max_queue_depth"] == 1
    assert health["admission"]["active"] == 0
    assert health["admission"]["retry_after_seconds"] >= 1
    assert health["quota"] is None
