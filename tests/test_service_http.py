"""End-to-end HTTP round-trips against a live server on an ephemeral port.

Covers the acceptance criteria of the service subsystem: health checks,
>= 4 concurrent explain jobs completing with correct explanations, a
cache-hit-flagged repeat submission, DELETE cancellation mid-search, result
formats, and the error paths — all with stdlib ``urllib`` only.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import create_server

POLL_INTERVAL = 0.02


@pytest.fixture
def server():
    instance = create_server(workers=4)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown_service()
    thread.join(timeout=10.0)


@pytest.fixture
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def request(base_url: str, method: str, path: str, body=None):
    """(status, parsed-or-text body) of one HTTP exchange."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        base_url + path, method=method, data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30.0) as response:
            raw = response.read().decode("utf-8")
            status = response.status
            content_type = response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:
        raw = error.read().decode("utf-8")
        status = error.code
        content_type = error.headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return status, json.loads(raw)
    return status, raw


def wait_for_state(base_url: str, job_id: str, states, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, view = request(base_url, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if view["state"] in states:
            return view
        time.sleep(POLL_INTERVAL)
    raise AssertionError(f"job {job_id} never reached {states}")


def division_pair(divisor: int, rows: int = 6):
    source = "id,val\n" + "".join(f"{i},{i * 7 * divisor}\n" for i in range(1, rows + 1))
    target = "id,val\n" + "".join(f"{i},{i * 7}\n" for i in range(1, rows + 1))
    return source, target


def explain_body(divisor: int, **extra):
    source, target = division_pair(divisor)
    body = {"source_csv": source, "target_csv": target, "name": f"div{divisor}"}
    body.update(extra)
    return body


# --------------------------------------------------------------------- #
# health
# --------------------------------------------------------------------- #
def test_healthz(base_url):
    status, payload = request(base_url, "GET", "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["workers"] == 4
    assert set(payload["jobs"]) == {"queued", "running", "done", "failed", "cancelled"}
    assert payload["cache"]["size"] == 0
    assert payload["uptime_seconds"] >= 0


# --------------------------------------------------------------------- #
# submit / poll / result
# --------------------------------------------------------------------- #
def test_explain_round_trip_json_sql_report(base_url):
    status, view = request(base_url, "POST", "/v1/explain", explain_body(100))
    assert status in (200, 202)
    assert view["cache_hit"] is False
    job_id = view["id"]

    wait_for_state(base_url, job_id, {"done"})
    status, result = request(base_url, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 200
    assert result["cancelled"] is False
    assert result["cost"] <= result["trivial_cost"]
    function = result["explanation"]["functions"]["val"]
    assert function["meta"] == "division"
    assert float(function["parameters"][0]) == pytest.approx(100)

    status, script = request(base_url, "GET", f"/v1/jobs/{job_id}/result?format=sql")
    assert status == 200
    assert "UPDATE" in script and "div100" in script

    status, report = request(base_url, "GET", f"/v1/jobs/{job_id}/result?format=report")
    assert status == 200
    assert "div100" in report


def test_lone_surrogate_cell_renders_in_every_format(base_url):
    # The CSV parser accepts a lone surrogate; the text formats must still
    # go out as valid UTF-8 instead of failing the response.  The cells sit
    # in a deleted and an inserted record, so the SQL script spells them out.
    body = {
        "source_csv": "id,val\n1,700\n2,1400\n3,2100\n9,1\ud800\n",
        "target_csv": "id,val\n1,7\n2,14\n3,21\n8,1\ud800\n",
        "name": "surrogate",
    }
    status, view = request(base_url, "POST", "/v1/explain", body)
    assert status in (200, 202)
    wait_for_state(base_url, view["id"], {"done"})
    for fmt in ("json", "sql", "report"):
        status, _ = request(base_url, "GET",
                            f"/v1/jobs/{view['id']}/result?format={fmt}")
        assert status == 200, fmt


def test_four_concurrent_jobs_complete(base_url):
    divisors = (2, 10, 100, 1000)
    job_ids = {}
    for divisor in divisors:
        status, view = request(base_url, "POST", "/v1/explain", explain_body(divisor))
        assert status in (200, 202)
        job_ids[divisor] = view["id"]

    for divisor, job_id in job_ids.items():
        wait_for_state(base_url, job_id, {"done"})
        status, result = request(base_url, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 200
        function = result["explanation"]["functions"]["val"]
        assert function["meta"] == "division"
        assert float(function["parameters"][0]) == pytest.approx(divisor)

    status, listing = request(base_url, "GET", "/v1/jobs")
    assert status == 200
    assert len(listing["jobs"]) == len(divisors)


def test_repeat_submission_is_cache_hit(base_url):
    body = explain_body(50)
    status, first = request(base_url, "POST", "/v1/explain", body)
    assert status in (200, 202)
    wait_for_state(base_url, first["id"], {"done"})

    status, second = request(base_url, "POST", "/v1/explain", body)
    assert status == 200                      # served straight from the cache
    assert second["cache_hit"] is True
    assert second["state"] == "done"
    assert second["id"] != first["id"]
    assert second["idempotency_key"] == first["idempotency_key"]

    status, health = request(base_url, "GET", "/healthz")
    assert health["cache"]["hits"] == 1

    # The cached job serves results in every format too.
    status, result = request(base_url, "GET", f"/v1/jobs/{second['id']}/result")
    assert status == 200
    assert result["cache_hit"] is True


def test_different_config_is_not_a_cache_hit(base_url):
    status, first = request(base_url, "POST", "/v1/explain", explain_body(60))
    wait_for_state(base_url, first["id"], {"done"})
    status, second = request(
        base_url, "POST", "/v1/explain",
        explain_body(60, overrides={"seed": 99}),
    )
    assert second["cache_hit"] is False


# --------------------------------------------------------------------- #
# cancellation
# --------------------------------------------------------------------- #
def test_delete_cancels_running_job_mid_search(base_url):
    # One second of sleep per expansion: the job is guaranteed to still be
    # mid-search when the DELETE lands right after the first progress report.
    body = explain_body(100, throttle_seconds=1.0, use_cache=False)
    status, view = request(base_url, "POST", "/v1/explain", body)
    assert status == 202
    job_id = view["id"]

    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        status, view = request(base_url, "GET", f"/v1/jobs/{job_id}")
        if view["progress"] is not None:
            break
        time.sleep(POLL_INTERVAL)
    assert view["state"] == "running"

    status, payload = request(base_url, "DELETE", f"/v1/jobs/{job_id}")
    assert status == 202
    assert payload["cancelling"] is True

    final = wait_for_state(base_url, job_id, {"cancelled"})
    assert final["state"] == "cancelled"

    # A cancelled search never populates the idempotency cache.
    status, health = request(base_url, "GET", "/healthz")
    assert health["cache"]["size"] == 0


def test_delete_finished_job_conflicts(base_url):
    status, view = request(base_url, "POST", "/v1/explain", explain_body(100))
    wait_for_state(base_url, view["id"], {"done"})
    status, payload = request(base_url, "DELETE", f"/v1/jobs/{view['id']}")
    assert status == 409
    assert payload["cancelling"] is False


# --------------------------------------------------------------------- #
# error paths
# --------------------------------------------------------------------- #
def test_unknown_routes_and_jobs_are_404(base_url):
    assert request(base_url, "GET", "/nope")[0] == 404
    assert request(base_url, "GET", "/v1/jobs/job-missing")[0] == 404
    assert request(base_url, "GET", "/v1/jobs/job-missing/result")[0] == 404
    assert request(base_url, "DELETE", "/v1/jobs/job-missing")[0] == 404
    assert request(base_url, "POST", "/v1/nope", {})[0] == 404


def test_validation_errors_are_400(base_url):
    status, payload = request(base_url, "POST", "/v1/explain", {})
    assert status == 400 and "error" in payload
    status, _ = request(base_url, "POST", "/v1/explain",
                        {"source_csv": "a\n1\n"})          # missing target
    assert status == 400
    status, _ = request(base_url, "POST", "/v1/explain",
                        explain_body(2, config="bogus"))
    assert status == 400
    status, _ = request(base_url, "POST", "/v1/explain",
                        explain_body(2, overrides={"alpha": 7.0}))
    assert status == 400
    status, _ = request(base_url, "POST", "/v1/explain",
                        explain_body(2, unknown_field=1))
    assert status == 400
    status, _ = request(
        base_url, "POST", "/v1/explain",
        {"source_csv": "a,b\n1,2\n", "target_csv": "c\n3\n"},  # schema mismatch
    )
    assert status == 400


def test_fractional_integer_override_is_a_400_envelope(base_url):
    status, payload = request(
        base_url, "POST", "/v1/explain", explain_body(2, overrides={"beta": 2.5})
    )
    assert status == 400
    assert payload["schema_version"] == "affidavit.error/v1"
    assert payload["code"] == "invalid_request"
    assert "beta" in payload["message"]


def test_retired_parallel_engine_requests_over_http(base_url):
    status, view = request(base_url, "POST", "/v1/explain", explain_body(
        3, engine="parallel", overrides={"parallel_workers": 2}))
    assert status in (200, 202)
    wait_for_state(base_url, view["id"], {"done"})
    status, result = request(base_url, "GET", f"/v1/jobs/{view['id']}/result")
    assert status == 200
    assert result["provenance"]["engine"] == "columnar"
    status, payload = request(base_url, "POST", "/v1/explain", explain_body(
        3, engine="parallel", overrides={"parallel_workers": "2.9"}))
    assert status == 400
    assert payload["code"] == "invalid_request"


def test_wrong_typed_fields_are_400_not_dropped_connections(base_url):
    cases = [
        {"source_csv": 123, "target_csv": "id\n1\n"},
        {"source_csv": "id\n1\n", "target_csv": ["id", "1"]},
        {"source_path": 7, "target_path": 8},
        {"source_csv": "id\n1\n", "target_csv": "id\n1\n", "name": 5},
        {"source_csv": "id\n1\n", "target_csv": "id\n1\n", "use_cache": "yes"},
        {"source_csv": "id\n1\n", "target_csv": "id\n1\n",
         "throttle_seconds": "soon"},
    ]
    for body in cases:
        status, payload = request(base_url, "POST", "/v1/explain", body)
        assert status == 400, body
        assert "error" in payload


def test_result_of_running_job_conflicts(base_url):
    body = explain_body(100, throttle_seconds=1.0, use_cache=False,
                        name="slowpoke")
    status, view = request(base_url, "POST", "/v1/explain", body)
    job_id = view["id"]
    status, payload = request(base_url, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 409
    assert payload["state"] in ("queued", "running")
    request(base_url, "DELETE", f"/v1/jobs/{job_id}")   # don't leak the worker
    wait_for_state(base_url, job_id, {"cancelled", "done"})


def test_unknown_result_format_is_400(base_url):
    status, view = request(base_url, "POST", "/v1/explain", explain_body(100))
    wait_for_state(base_url, view["id"], {"done"})
    status, _ = request(base_url, "GET",
                        f"/v1/jobs/{view['id']}/result?format=yaml")
    assert status == 400


# --------------------------------------------------------------------- #
# the repro.api wire format
# --------------------------------------------------------------------- #
def test_unknown_schema_version_is_400(base_url):
    body = explain_body(2, schema_version="affidavit.request/v99")
    status, payload = request(base_url, "POST", "/v1/explain", body)
    assert status == 400
    assert "schema_version" in payload["error"]


def test_declared_schema_version_is_accepted(base_url):
    body = explain_body(4, schema_version="affidavit.request/v1")
    status, view = request(base_url, "POST", "/v1/explain", body)
    assert status in (200, 202)
    wait_for_state(base_url, view["id"], {"done"})


def test_functions_field_restricts_the_pool(base_url):
    body = explain_body(25, functions=["identity", "division"])
    status, view = request(base_url, "POST", "/v1/explain", body)
    assert status in (200, 202)
    wait_for_state(base_url, view["id"], {"done"})
    status, result = request(base_url, "GET", f"/v1/jobs/{view['id']}/result")
    assert status == 200
    assert result["provenance"]["registry"] == ["identity", "division"]
    assert result["explanation"]["functions"]["val"]["meta"] == "division"


def test_unknown_function_name_is_400(base_url):
    status, payload = request(
        base_url, "POST", "/v1/explain", explain_body(2, functions=["warp"])
    )
    assert status == 400
    assert "warp" in payload["error"]


def test_unknown_engine_is_400(base_url):
    status, _ = request(
        base_url, "POST", "/v1/explain", explain_body(2, engine="quantum")
    )
    assert status == 400


def test_cache_hit_is_key_order_independent(base_url):
    body = explain_body(75, overrides={"seed": 4, "beta": 2})
    status, first = request(base_url, "POST", "/v1/explain", body)
    assert status in (200, 202)
    wait_for_state(base_url, first["id"], {"done"})

    shuffled = dict(reversed(list(body.items())))
    shuffled["overrides"] = dict(reversed(list(body["overrides"].items())))
    status, second = request(base_url, "POST", "/v1/explain", shuffled)
    assert status == 200
    assert second["cache_hit"] is True
    assert second["idempotency_key"] == first["idempotency_key"]


def test_result_payload_carries_timings_and_provenance(base_url):
    status, view = request(base_url, "POST", "/v1/explain", explain_body(30))
    wait_for_state(base_url, view["id"], {"done"})
    status, result = request(base_url, "GET", f"/v1/jobs/{view['id']}/result")
    assert status == 200
    assert result["timings"]["search_seconds"] >= 0
    assert result["timings"]["total_seconds"] >= result["timings"]["search_seconds"]
    provenance = result["provenance"]
    assert provenance["engine"] == "columnar"
    assert provenance["base_config"] == "hid"
    assert provenance["n_source_records"] == 6
    # unbudgeted runs are plain full searches; the flat fields mirror the
    # provenance so budget-aware clients need not parse the nested dict
    assert result["tier"] == provenance["tier"] == "full"
    assert result["confidence"] == provenance["confidence"] == "exact"


def test_budgeted_v2_request_reports_the_answering_tier(base_url):
    body = explain_body(
        40, schema_version="affidavit.request/v2", budget=60_000
    )
    status, view = request(base_url, "POST", "/v1/explain", body)
    assert status in (200, 202)
    wait_for_state(base_url, view["id"], {"done"})
    status, result = request(base_url, "GET", f"/v1/jobs/{view['id']}/result")
    assert status == 200
    assert result["tier"] == "full"
    assert result["confidence"] == "exact"
    assert result["provenance"]["api_version"] == "affidavit.request/v2"
    walked = {attempt["tier"]: attempt["status"] for attempt in result["tiers"]}
    assert walked["full"] == "answered"
    function = result["explanation"]["functions"]["val"]
    assert function["meta"] == "division"

    status, text = request(base_url, "GET", "/metrics")
    assert status == 200
    assert "repro_jobs_answered_by_tier_total" in text


@pytest.mark.parametrize("strategy", ["trivial", "keyed_diff"])
def test_baseline_strategy_request_ends_done_with_its_tier(base_url, strategy):
    body = explain_body(41, schema_version="affidavit.request/v2",
                        strategy=[strategy])
    for _ in range(2):  # the repeat is not a store hit: baselines are not stored
        status, view = request(base_url, "POST", "/v1/explain", body)
        assert status == 202
        final = wait_for_state(base_url, view["id"], {"done", "failed"})
        assert final["state"] == "done", final["error"]
        status, result = request(base_url, "GET",
                                 f"/v1/jobs/{view['id']}/result")
        assert status == 200
        assert result["tier"] == strategy
        # Every value of the division pair changed, so the keyed diff keeps
        # no pair: its answer costs the trivial cost and is labelled so.
        assert result["cost"] == result["trivial_cost"]
        assert result["confidence"] == "trivial"


def test_greedy_request_repeat_is_not_replayed_as_exact(base_url):
    body = explain_body(43, schema_version="affidavit.request/v2",
                        strategy=["greedy"])
    for _ in range(2):
        status, view = request(base_url, "POST", "/v1/explain", body)
        assert status == 202
        wait_for_state(base_url, view["id"], {"done"})
        status, result = request(base_url, "GET",
                                 f"/v1/jobs/{view['id']}/result")
        assert result["cache_hit"] is False
        assert (result["tier"], result["confidence"]) == ("greedy", "approximate")


def test_v1_payload_must_not_smuggle_budget_fields(base_url):
    # No schema_version tag means v1 — budget/strategy are a clean 400,
    # not a silently ignored field or a 500.
    status, payload = request(base_url, "POST", "/v1/explain",
                              explain_body(40, budget=50))
    assert status == 400
    assert "schema_version" in payload["error"]


# --------------------------------------------------------------------- #
# request-body hardening: size caps, truncation, malformed framing
# --------------------------------------------------------------------- #
@pytest.fixture
def capped_server():
    """A server with a deliberately tiny body cap (2 KiB)."""
    instance = create_server(workers=1, max_body_bytes=2048)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown_service()
    thread.join(timeout=10.0)


@pytest.fixture
def capped_url(capped_server):
    host, port = capped_server.server_address[:2]
    return f"http://{host}:{port}"


def raw_exchange(server, head: str, body: bytes = b"",
                 half_close: bool = False):
    """One hand-rolled HTTP exchange over a raw socket.

    *head* is the request line plus headers (``\\r\\n``-joined, no trailing
    blank line).  With *half_close* the write side is shut down after the
    (possibly deliberately short) body, which the server sees as EOF.
    Returns ``(status, parsed JSON body or None)``.
    """
    import socket

    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(head.encode("ascii") + b"\r\n\r\n" + body)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if b"\r\n\r\n" in b"".join(chunks):
                header_blob, _, rest = b"".join(chunks).partition(b"\r\n\r\n")
                headers = header_blob.decode("latin-1").split("\r\n")
                length = 0
                for line in headers[1:]:
                    name, _, value = line.partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                while len(rest) < length:
                    more = sock.recv(65536)
                    if not more:
                        break
                    rest += more
                status = int(headers[0].split()[1])
                payload = json.loads(rest.decode("utf-8")) if rest else None
                return status, payload
    raise AssertionError("no HTTP response received")


def test_oversized_body_is_rejected_with_413(capped_url, capped_server):
    huge_csv = "id,val\n" + "".join(f"{i},{i}\n" for i in range(1000))
    status, payload = request(capped_url, "POST", "/v1/explain",
                              {"source_csv": huge_csv, "target_csv": huge_csv})
    assert status == 413
    assert payload["code"] == "body_too_large"
    assert "2048" in payload["error"]


def test_body_just_under_the_cap_is_processed(capped_url):
    status, payload = request(capped_url, "POST", "/v1/explain",
                              explain_body(40))
    assert status in (200, 202)
    assert "id" in payload


def test_invalid_json_body_is_a_structured_400(base_url, server):
    body = b"{ definitely not json"
    head = (
        "POST /v1/explain HTTP/1.1\r\nHost: test\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}"
    )
    status, payload = raw_exchange(server, head, body)
    assert status == 400
    assert payload["code"] == "invalid_json"


def test_empty_body_is_a_structured_400(server):
    head = ("POST /v1/explain HTTP/1.1\r\nHost: test\r\n"
            "Content-Length: 0")
    status, payload = raw_exchange(server, head)
    assert status == 400
    assert payload["code"] == "empty_body"


def test_malformed_content_length_is_a_structured_400(server):
    head = ("POST /v1/explain HTTP/1.1\r\nHost: test\r\n"
            "Content-Length: banana")
    status, payload = raw_exchange(server, head)
    assert status == 400
    assert payload["code"] == "bad_content_length"


def test_truncated_body_is_a_structured_400(server):
    # Promise 500 bytes, deliver 20, half-close: the server must answer
    # with a clean 400, not hang or crash with a JSON traceback.
    body = b'{"source_csv": "A\\n'
    head = (
        "POST /v1/explain HTTP/1.1\r\nHost: test\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: 500"
    )
    status, payload = raw_exchange(server, head, body, half_close=True)
    assert status == 400
    assert payload["code"] == "truncated_body"


def test_valid_json_with_malformed_csv_is_400_not_500(base_url):
    # A header with an empty attribute name crashes CSV schema parsing;
    # that must surface as request validation, never as a 500.
    status, payload = request(base_url, "POST", "/v1/explain", {
        "source_csv": "A,,B\n1,2,3\n",
        "target_csv": "A,,B\n1,2,3\n",
    })
    assert status == 400
    assert payload["code"] == "invalid_request"
    assert "error" in payload


def test_mismatched_snapshot_schemas_are_400_not_500(base_url):
    status, payload = request(base_url, "POST", "/v1/explain", {
        "source_csv": "A,B\n1,2\n",
        "target_csv": "C\n9\n",
    })
    assert status == 400
    assert "error" in payload


# --------------------------------------------------------------------- #
# the error envelope (affidavit.error/v1)
# --------------------------------------------------------------------- #
def assert_envelope(payload, code=None):
    assert payload["schema_version"] == "affidavit.error/v1"
    assert isinstance(payload["code"], str) and payload["code"]
    assert isinstance(payload["message"], str) and payload["message"]
    assert payload["error"] == payload["message"]  # legacy alias
    if code is not None:
        assert payload["code"] == code


def test_every_error_route_answers_the_envelope(base_url):
    status, payload = request(base_url, "GET", "/nope")
    assert status == 404
    assert_envelope(payload, "not_found")

    status, payload = request(base_url, "GET", "/v1/jobs/job-missing")
    assert status == 404
    assert_envelope(payload, "unknown_job")

    status, payload = request(base_url, "POST", "/v1/explain", {})
    assert status == 400
    assert_envelope(payload, "invalid_request")

    status, view = request(base_url, "POST", "/v1/explain", explain_body(900))
    job_id = view["id"]
    status, payload = request(base_url, "GET",
                              f"/v1/jobs/{job_id}/result?format=yaml")
    assert status == 400
    assert_envelope(payload, "unknown_format")

    wait_for_state(base_url, job_id, {"done"})
    status, payload = request(base_url, "DELETE", f"/v1/jobs/{job_id}")
    assert status == 409
    assert_envelope(payload, "job_already_finished")
    assert payload["state"] == "done"


# --------------------------------------------------------------------- #
# the route table: status, error code and metrics label of every route
# --------------------------------------------------------------------- #
ROUTE_CASES = [
    # (method, path, status, error code, route label); {job} is a done job
    ("GET", "/healthz", 200, None, "/healthz"),
    ("GET", "/metrics", 200, None, "/metrics"),
    ("POST", "/v1/explain", 202, None, "/v1/explain"),
    ("GET", "/v1/jobs", 200, None, "/v1/jobs"),
    ("GET", "/v1/jobs/{job}", 200, None, "/v1/jobs/{id}"),
    ("GET", "/v1/jobs/{job}/result", 200, None, "/v1/jobs/{id}/result"),
    ("GET", "/v1/jobs/{job}/events", 200, None, "/v1/jobs/{id}/events"),
    ("DELETE", "/v1/jobs/{job}", 409, "job_already_finished", "/v1/jobs/{id}"),
    ("GET", "/v1/jobs/job-missing", 404, "unknown_job", "/v1/jobs/{id}"),
    ("POST", "/v1/jobs", 404, "not_found", "/v1/jobs"),
    ("GET", "/nope", 404, "not_found", "unmatched"),
]


def http_requests_total(base_url, method, route, status) -> float:
    """One ``repro_http_requests_total`` sample, read from ``/metrics``."""
    _status, body = request(base_url, "GET", "/metrics")
    prefix = (f'repro_http_requests_total{{method="{method}",route="{route}",'
              f'status="{status}"}} ')
    for line in body.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return 0.0


@pytest.mark.parametrize("method, path, status, code, label", ROUTE_CASES,
                         ids=[f"{case[0]} {case[1]}" for case in ROUTE_CASES])
def test_route_status_code_and_metrics_label(base_url, method, path, status,
                                             code, label):
    _status, view = request(base_url, "POST", "/v1/explain",
                            explain_body(902, use_cache=False))
    wait_for_state(base_url, view["id"], {"done"})
    before = http_requests_total(base_url, method, label, status)
    body = explain_body(903, use_cache=False) if method == "POST" else None
    answered, payload = request(base_url, method,
                                path.replace("{job}", view["id"]), body)
    assert answered == status
    if code is None:
        assert not (isinstance(payload, dict) and "code" in payload)
    else:
        assert_envelope(payload, code)
    # The counter is bumped after the response is written: poll for it.
    deadline = time.monotonic() + 10.0
    while http_requests_total(base_url, method, label, status) < before + 1:
        assert time.monotonic() < deadline, f"no {method} {label} {status} sample"
        time.sleep(POLL_INTERVAL)


def test_result_not_ready_is_enveloped_409(base_url):
    body = explain_body(901, throttle_seconds=0.5, use_cache=False)
    status, view = request(base_url, "POST", "/v1/explain", body)
    job_id = view["id"]
    status, payload = request(base_url, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 409
    assert_envelope(payload, "result_not_ready")
    assert payload["state"] in ("queued", "running")
    request(base_url, "DELETE", f"/v1/jobs/{job_id}")
    wait_for_state(base_url, job_id, {"cancelled", "done"})


def test_failed_job_result_is_enveloped_500():
    # No wire payload can fail a job mid-run, so inject the failure through
    # the manager's session: a progress callback that explodes.
    from repro.api import ExplainSession
    from repro.service import JobManager

    def explode(progress) -> None:
        raise RuntimeError("instrumentation exploded")

    manager = JobManager(workers=1, session=ExplainSession().with_progress(explode))
    instance = create_server(manager=manager)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    host, port = instance.server_address[:2]
    base_url = f"http://{host}:{port}"
    try:
        status, view = request(base_url, "POST", "/v1/explain",
                               explain_body(31, use_cache=False))
        assert status == 202
        wait_for_state(base_url, view["id"], {"failed"})
        status, payload = request(base_url, "GET", f"/v1/jobs/{view['id']}/result")
        assert status == 500
        assert_envelope(payload, "job_failed")
        assert payload["state"] == "failed"
    finally:
        instance.shutdown_service()
        thread.join(timeout=10.0)


# --------------------------------------------------------------------- #
# jobs listing: state filter + cursor pagination
# --------------------------------------------------------------------- #
def test_jobs_listing_filters_and_paginates(base_url):
    ids = []
    for divisor in (21, 22, 23, 24, 25):
        status, view = request(base_url, "POST", "/v1/explain",
                               explain_body(divisor))
        assert status in (200, 202)
        ids.append(view["id"])
    for job_id in ids:
        wait_for_state(base_url, job_id, {"done"})

    status, listing = request(base_url, "GET", "/v1/jobs")
    assert status == 200
    assert [v["id"] for v in listing["jobs"]] == ids  # submission order
    assert listing["next_cursor"] is None

    # Pages of two, chased through next_cursor.
    seen = []
    cursor = ""
    for _ in range(10):
        suffix = f"&cursor={cursor}" if cursor else ""
        status, page = request(base_url, "GET", f"/v1/jobs?limit=2{suffix}")
        assert status == 200
        assert len(page["jobs"]) <= 2
        seen.extend(v["id"] for v in page["jobs"])
        if page["next_cursor"] is None:
            break
        cursor = page["next_cursor"]
    assert seen == ids

    status, done = request(base_url, "GET", "/v1/jobs?state=done")
    assert status == 200
    assert [v["id"] for v in done["jobs"]] == ids
    status, cancelled = request(base_url, "GET", "/v1/jobs?state=cancelled")
    assert cancelled["jobs"] == []


def test_jobs_listing_rejects_bad_parameters(base_url):
    status, payload = request(base_url, "GET", "/v1/jobs?state=exploded")
    assert status == 400
    assert_envelope(payload, "invalid_state")
    status, payload = request(base_url, "GET", "/v1/jobs?limit=0")
    assert status == 400
    assert_envelope(payload, "invalid_limit")
    status, payload = request(base_url, "GET", "/v1/jobs?limit=nope")
    assert status == 400
    assert_envelope(payload, "invalid_limit")
    status, payload = request(base_url, "GET", "/v1/jobs?cursor=banana")
    assert status == 400
    assert_envelope(payload, "invalid_cursor")


def test_job_view_carries_store_hit_and_priority(base_url):
    status, view = request(base_url, "POST", "/v1/explain",
                           explain_body(31, priority=3))
    assert status in (200, 202)
    assert view["priority"] == 3
    assert view["store_hit"] is False
    wait_for_state(base_url, view["id"], {"done"})
