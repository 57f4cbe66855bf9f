"""Integration tests of the observability stack across the whole repo.

Covers the cross-layer claims: tracing is bit-identical-neutral on every
engine, traced outcomes round-trip through the versioned dict (including the
blocking-cache stats), ``/metrics``
serves well-formed Prometheus text while jobs are in flight, and the strict
``Timings`` parser rejects garbage payloads.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.request

import pytest

from repro.api import (
    ExplainOutcome,
    ExplainSession,
    RequestValidationError,
)
from repro.api.outcome import Timings
from repro.core import Affidavit, identity_configuration
from repro.obs import NULL_TRACER, Tracer, phase_totals

from tests.test_service_http import explain_body, request, wait_for_state


def _assert_bit_identical(result, reference):
    assert result.cost == reference.cost
    assert result.explanation.functions == reference.explanation.functions
    assert result.explanation.n_inserted == reference.explanation.n_inserted
    assert result.explanation.n_deleted == reference.explanation.n_deleted
    assert result.end_state == reference.end_state
    assert result.expansions == reference.expansions
    assert result.generated_states == reference.generated_states


# --------------------------------------------------------------------- #
# tracing is trajectory-neutral on every engine
# --------------------------------------------------------------------- #
ENGINE_CONFIGS = {
    "rowwise": dict(columnar_cache=False),
    "columnar": dict(),
}


@pytest.mark.parametrize("engine", sorted(ENGINE_CONFIGS))
def test_tracing_is_bit_identical_on_every_engine(engine, generated_iris):
    overrides = ENGINE_CONFIGS[engine]
    config = identity_configuration(max_expansions=60, **overrides)
    instance = generated_iris.instance

    untraced = Affidavit(config).explain(instance)
    tracer = Tracer()
    traced = Affidavit(config, tracer=tracer).explain(instance)

    _assert_bit_identical(traced, untraced)
    (root,) = tracer.roots()
    names = {span.name for span in root.walk()}
    assert root.name == "search"
    assert {"induction", "ranking"} <= names
    assert root.counter_values["expansions"] == traced.expansions


# --------------------------------------------------------------------- #
# session-level tracing and outcome round-trips
# --------------------------------------------------------------------- #
class TestSessionTracing:
    def test_traced_outcome_carries_trace_and_phase_timings(self, generated_iris):
        tracer = Tracer()
        session = ExplainSession(
            config=identity_configuration(max_expansions=60)
        ).with_tracer(tracer)
        outcome = session.explain_instance(generated_iris.instance)

        assert outcome.trace is not None
        assert outcome.trace.name == "explain"
        names = {span.name for span in outcome.trace.walk()}
        assert "search" in names
        assert outcome.timings.phases
        assert dict(outcome.timings.phases) == phase_totals(outcome.trace)
        assert outcome.timings.phase_seconds["search"] > 0.0

    def test_untraced_outcome_has_no_trace(self, generated_iris):
        session = ExplainSession(config=identity_configuration(max_expansions=60))
        outcome = session.explain_instance(generated_iris.instance)
        assert outcome.trace is None
        assert outcome.timings.phases == ()

    def test_with_tracer_none_reverts_to_noop(self, generated_iris):
        session = ExplainSession(
            config=identity_configuration(max_expansions=60)
        ).with_tracer(Tracer()).with_tracer(None)
        outcome = session.explain_instance(generated_iris.instance)
        assert outcome.trace is None

    def test_traced_outcome_round_trips_through_json(self, generated_iris):
        session = ExplainSession(
            config=identity_configuration(max_expansions=60)
        ).with_tracer(Tracer())
        outcome = session.explain_instance(generated_iris.instance)
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert ExplainOutcome.from_dict(payload) == outcome

    def test_blocking_cache_stats_round_trip(self, generated_iris):
        session = ExplainSession(config=identity_configuration(max_expansions=60))
        outcome = session.explain_instance(generated_iris.instance)
        stats = outcome.blocking_cache
        assert stats is not None
        assert {"hits", "misses", "entries", "max_entries"} <= set(stats)
        assert stats["hits"] + stats["misses"] > 0
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert ExplainOutcome.from_dict(payload).blocking_cache == stats
        assert "blocking cache" in outcome.summary()

    def test_invalid_trace_payload_rejected(self, generated_iris):
        session = ExplainSession(config=identity_configuration(max_expansions=60))
        outcome = session.explain_instance(generated_iris.instance)
        payload = outcome.to_dict()
        payload["trace"] = {"name": "", "duration": 1.0}
        with pytest.raises(RequestValidationError):
            ExplainOutcome.from_dict(payload)


class TestTimingsStrictness:
    def _payload(self, **overrides):
        payload = {"load_seconds": 0.1, "search_seconds": 0.9, "total_seconds": 1.0}
        payload.update(overrides)
        return payload

    def test_round_trip_with_phases(self):
        timings = Timings(load_seconds=0.1, search_seconds=0.9, total_seconds=1.0,
                          phases=(("induction", 0.4), ("ranking", 0.2)))
        assert Timings.from_dict(timings.to_dict()) == timings
        assert timings.phase_seconds == {"induction": 0.4, "ranking": 0.2}

    @pytest.mark.parametrize("payload", [
        None,
        "fast",
        {},
        {"load_seconds": 0.1, "search_seconds": 0.9},  # missing total
    ])
    def test_missing_or_nonmapping_payloads_rejected(self, payload):
        with pytest.raises(RequestValidationError):
            Timings.from_dict(payload)

    @pytest.mark.parametrize("bad", [
        "quick", None, True, float("nan"), float("inf"), -0.5,
    ])
    def test_garbage_seconds_rejected(self, bad):
        with pytest.raises(RequestValidationError):
            Timings.from_dict(self._payload(search_seconds=bad))

    @pytest.mark.parametrize("phases", [
        ["not", "a", "mapping"],
        {"induction": "slow"},
        {"induction": float("nan")},
        {"induction": -1.0},
    ])
    def test_garbage_phases_rejected(self, phases):
        with pytest.raises(RequestValidationError):
            Timings.from_dict(self._payload(phases=phases))


# --------------------------------------------------------------------- #
# the service: /metrics under load, blocking cache in the result view
# --------------------------------------------------------------------- #
@pytest.fixture
def server():
    from repro.service import create_server

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


# Label values may themselves contain braces (route templates like
# ``/v1/jobs/{id}``), so the label block matches greedily to the last ``}``.
SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \S+$")


def _scrape(base_url):
    with urllib.request.urlopen(base_url + "/metrics", timeout=30.0) as response:
        assert response.status == 200
        content_type = response.headers.get("Content-Type", "")
        assert content_type.startswith("text/plain; version=0.0.4")
        return response.read().decode("utf-8")


def _assert_well_formed(body):
    assert body.endswith("\n")
    for line in body.splitlines():
        if line.startswith("#"):
            assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line), line
        else:
            assert SAMPLE_RE.match(line), line


def test_metrics_endpoint_during_active_jobs(base_url):
    # Submit a batch of distinct jobs, then scrape concurrently while the
    # four workers chew through them.
    job_ids = []
    for divisor in (211, 223, 227, 229):
        status, view = request(base_url, "POST", "/v1/explain", explain_body(divisor))
        assert status in (200, 202)
        job_ids.append(view["id"])

    bodies = [None] * 4
    errors = []

    def scrape(slot):
        try:
            bodies[slot] = _scrape(base_url)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=scrape, args=(slot,)) for slot in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for body in bodies:
        _assert_well_formed(body)

    for job_id in job_ids:
        wait_for_state(base_url, job_id, {"done"})

    final = _scrape(base_url)
    _assert_well_formed(final)
    lines = final.splitlines()
    submitted = next(line for line in lines
                     if line.startswith("repro_jobs_submitted_total "))
    assert float(submitted.split()[-1]) >= len(job_ids)
    completed = [line for line in lines
                 if line.startswith("repro_jobs_completed_total{")]
    assert any('state="done"' in line for line in completed)
    assert any(line.startswith("repro_jobs_queue_depth ") for line in lines)
    assert any(line.startswith("repro_job_latency_seconds_bucket{") for line in lines)
    assert any(line.startswith('repro_http_requests_total{method="GET",route="/metrics"')
               for line in lines)


def test_result_view_carries_blocking_cache(base_url):
    status, view = request(base_url, "POST", "/v1/explain", explain_body(233))
    assert status in (200, 202)
    wait_for_state(base_url, view["id"], {"done"})
    status, result = request(base_url, "GET", f"/v1/jobs/{view['id']}/result")
    assert status == 200
    stats = result["blocking_cache"]
    assert stats is not None
    assert {"hits", "misses", "entries", "max_entries"} <= set(stats)


def test_null_tracer_is_process_default():
    # The engine default must be the shared no-op tracer (not a fresh one).
    affidavit = Affidavit(identity_configuration(max_expansions=10))
    assert affidavit._tracer is NULL_TRACER
