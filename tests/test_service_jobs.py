"""Job lifecycle, cooperative cancellation and the core search hooks."""

from __future__ import annotations

import threading
from dataclasses import fields

import pytest

from repro.api import (
    ExplainRequest,
    ExplainSession,
    RequestValidationError,
    SearchProgressed,
    SearchStarted,
)
from repro.core import Affidavit, SearchProgress, identity_configuration
from repro.dataio import read_csv_text
from repro.service import JobManager, JobNotFound, JobState, job_view, result_view


def submit(manager, source, target, **kwargs):
    """Submit two in-memory tables as an inline request."""
    return manager.submit_request(ExplainRequest.inline(source, target, **kwargs))


@pytest.fixture
def pair():
    source = read_csv_text(
        "id,name,val\n1,alpha,100\n2,beta,200\n3,gamma,300\n4,delta,400\n"
    )
    target = read_csv_text(
        "id,name,val\n1,ALPHA,1\n2,BETA,2\n3,GAMMA,3\n4,DELTA,4\n"
    )
    return source, target


# --------------------------------------------------------------------- #
# core hooks (the seam the job layer builds on)
# --------------------------------------------------------------------- #
def test_progress_callback_fires_per_expansion(running_example):
    seen = []
    config = identity_configuration(max_expansions=50)
    result = Affidavit(config, progress=seen.append).explain(running_example)
    assert result.cancelled is False
    assert len(seen) == result.expansions
    assert all(isinstance(p, SearchProgress) for p in seen)
    expansions = [p.expansions for p in seen]
    assert expansions == sorted(expansions)
    assert expansions[-1] == result.expansions


def test_should_stop_cancels_immediately(running_example):
    result = Affidavit(
        identity_configuration(), should_stop=lambda: True
    ).explain(running_example)
    assert result.cancelled is True
    assert result.expansions == 0
    # The forced finalisation must still produce a valid, bounded explanation.
    assert result.cost <= result.trivial_cost


def test_should_stop_mid_search_keeps_partial_progress(running_example):
    calls = {"n": 0}

    def stop_after_two() -> bool:
        calls["n"] += 1
        return calls["n"] > 2

    result = Affidavit(
        identity_configuration(), should_stop=stop_after_two
    ).explain(running_example)
    assert result.cancelled is True
    assert result.cost <= result.trivial_cost


# --------------------------------------------------------------------- #
# job frames and results are the library's own
# --------------------------------------------------------------------- #
_ENVELOPE = ("schema_version", "kind", "job_id", "sequence")


def test_job_frames_are_the_library_events(running_source, running_target):
    request = ExplainRequest.inline(running_source, running_target,
                                    use_cache=False)
    session = ExplainSession()
    with JobManager(workers=1, session=session) as manager:
        job = manager.submit_request(request)
        assert job.wait(60.0) and job.state is JobState.DONE
    frames, _, _ = job.events.collect(0)
    started = frames[0]
    assert started["kind"] == "started"
    expected = SearchStarted.of(session.prepare(request)).to_dict()
    del expected["kind"]
    body = {key: value for key, value in started.items() if key not in _ENVELOPE}
    assert list(body.items()) == list(expected.items())
    progressed = [frame for frame in frames if frame["kind"] == "progressed"]
    assert progressed
    keys = list(SearchProgressed(job.progress).to_dict())[1:]
    for frame in progressed:
        assert [key for key in frame if key not in _ENVELOPE] == keys


def test_finished_job_config_is_plain_data(pair):
    source, target = pair
    request = ExplainRequest.inline(source, target, use_cache=False)
    with JobManager(workers=1) as manager:
        job = manager.submit_request(request)
        assert job.wait(60.0) and job.state is JobState.DONE
        resolved = manager.session.prepare(request).config
    config = job.outcome.result.config
    assert config == resolved
    assert not [spec.name for spec in fields(config)
                if callable(getattr(config, spec.name))]


def test_views_keep_the_wire_shape(pair):
    source, target = pair
    with JobManager(workers=1) as manager:
        job = submit(manager, source, target, use_cache=False)
        assert job.wait(60.0) and job.state is JobState.DONE
    assert list(job_view(job)) == [
        "id", "name", "state", "cache_hit", "store_hit", "priority",
        "idempotency_key", "submitted_at", "started_at", "finished_at",
        "error", "progress",
    ]
    assert list(job_view(job)["progress"]) == [
        "expansions", "generated_states", "queue_size", "best_cost",
        "cache_hits", "cache_misses", "cache_hit_rate",
    ]
    view = result_view(job)
    assert list(view) == [
        "job_id", "name", "cache_hit", "cancelled", "cost", "trivial_cost",
        "compression_ratio", "expansions", "generated_states",
        "runtime_seconds", "explanation", "column_cache", "blocking_cache",
        "timings", "provenance", "tier", "confidence", "tiers",
    ]
    assert view["cost"] == job.outcome.cost and view["tiers"] is None


# --------------------------------------------------------------------- #
# job lifecycle
# --------------------------------------------------------------------- #
def test_job_reaches_done_with_result(pair):
    source, target = pair
    with JobManager(workers=2) as manager:
        job = submit(manager, source, target, name="lifecycle")
        assert job.wait(30.0)
        assert job.state is JobState.DONE
        assert job.cache_hit is False
        assert job.error is None
        assert job.started_at is not None
        assert job.finished_at is not None
        assert job.result is not None
        assert job.result.cost <= job.result.trivial_cost
        functions = job.result.explanation.functions
        assert functions["name"].meta_name == "uppercasing"
        assert functions["val"].meta_name == "division"


def test_repeated_submission_hits_cache(pair):
    source, target = pair
    with JobManager(workers=1) as manager:
        first = submit(manager, source, target)
        assert first.wait(30.0)
        second = submit(manager, source, target)
        assert second.state is JobState.DONE
        assert second.cache_hit is True
        assert second.store_hit is True
        # Every hit is rebuilt from the stored payload: same answer, no live
        # search result.
        assert second.result is None
        assert second.outcome.explanation == first.outcome.explanation
        assert second.outcome.cost == first.outcome.cost
        assert manager.store.stats().hits == 1


def test_published_result_carries_the_resolved_config(pair):
    """The result handed back ran with the request's resolved configuration,
    and the store holds JSON only."""
    source, target = pair
    with JobManager(workers=1) as manager:
        job = submit(manager, source, target, config="hs")
        assert job.wait(30.0)
        assert job.result.config == ExplainSession().resolve_config(job.request)
        assert job.result.config.start_strategy == "overlap"
        assert job.outcome.provenance.base_config == "hs"
        stored = manager.store.get(job.key)
        assert stored["cost"] == job.outcome.cost
        assert stored["request"] is None and stored["trace"] is None


def test_terminal_jobs_are_pruned_beyond_retention_bound(pair):
    source, target = pair
    with JobManager(workers=1, max_retained_jobs=3) as manager:
        jobs = []
        for i in range(5):
            job = submit(manager, source, target, name=f"j{i}", use_cache=False)
            assert job.wait(30.0)
            jobs.append(job)
        retained = {j.id for j in manager.jobs()}
        assert len(retained) <= 3
        assert jobs[-1].id in retained          # newest survives
        assert jobs[0].id not in retained       # oldest terminal evicted
        with pytest.raises(JobNotFound):
            manager.get(jobs[0].id)


def test_cache_can_be_bypassed(pair):
    source, target = pair
    with JobManager(workers=1) as manager:
        first = submit(manager, source, target)
        assert first.wait(30.0)
        second = submit(manager, source, target, use_cache=False)
        assert second.wait(30.0)
        assert second.cache_hit is False


def test_schema_mismatch_rejected_at_submit(pair):
    source, _ = pair
    other_schema = read_csv_text("a,b\n1,2\n")
    with JobManager(workers=1) as manager:
        with pytest.raises(RequestValidationError):
            # Schema mismatch is rejected at submission time, not in a worker.
            submit(manager, source, other_schema)


def test_failing_search_marks_job_failed(pair):
    source, target = pair

    def explode(_: SearchProgress) -> None:
        raise RuntimeError("observer exploded")

    session = ExplainSession().with_progress(explode)
    with JobManager(workers=1, session=session) as manager:
        job = submit(manager, source, target, use_cache=False)
        assert job.wait(30.0)
        assert job.state is JobState.FAILED
        assert "observer exploded" in job.error
        assert job.result is None
        assert manager.store.stats().size == 0


def test_unknown_job_raises(pair):
    with JobManager(workers=1) as manager:
        with pytest.raises(JobNotFound):
            manager.get("job-nope")
        with pytest.raises(JobNotFound):
            manager.cancel("job-nope")


def test_counts_and_jobs_listing(pair):
    source, target = pair
    with JobManager(workers=1) as manager:
        job = submit(manager, source, target)
        assert job.wait(30.0)
        assert [j.id for j in manager.jobs()] == [job.id]
        counts = manager.counts()
        assert counts["done"] == 1
        assert sum(counts.values()) == 1


def test_submit_after_shutdown_is_rejected(pair):
    source, target = pair
    manager = JobManager(workers=1)
    manager.shutdown()
    with pytest.raises(RuntimeError):
        submit(manager, source, target)


# --------------------------------------------------------------------- #
# cancellation
# --------------------------------------------------------------------- #
def test_cancel_running_job_mid_search(pair):
    """Deterministic mid-search cancel: the job's own progress callback blocks
    the search until the test has issued the cancellation."""
    source, target = pair
    in_search = threading.Event()
    release = threading.Event()

    def gate(_: SearchProgress) -> None:
        in_search.set()
        release.wait(30.0)

    session = ExplainSession().with_progress(gate)
    with JobManager(workers=1, session=session) as manager:
        job = submit(manager, source, target, use_cache=False)
        assert in_search.wait(30.0), "search never reached the first expansion"
        assert job.state is JobState.RUNNING
        assert manager.cancel(job.id) is True
        release.set()
        assert job.wait(30.0)
        assert job.state is JobState.CANCELLED
        assert job.result is not None and job.result.cancelled is True
        # A cancelled (partial) run must never poison the result store.
        assert manager.store.stats().size == 0


def test_cancel_queued_job_never_runs(pair):
    source, target = pair
    in_search = threading.Event()
    release = threading.Event()

    def gate(_: SearchProgress) -> None:
        in_search.set()
        release.wait(30.0)

    session = ExplainSession().with_progress(gate)
    with JobManager(workers=1, session=session) as manager:
        blocker = submit(manager, source, target, use_cache=False)
        assert in_search.wait(30.0)
        # The single worker is busy; this one stays queued.
        queued = submit(manager, source, target, name="queued", use_cache=False)
        assert queued.state is JobState.QUEUED
        assert manager.cancel(queued.id) is True
        release.set()
        assert queued.wait(30.0)
        assert queued.state is JobState.CANCELLED
        assert queued.started_at is None
        assert blocker.wait(30.0)
        assert blocker.state is JobState.DONE


def test_cancel_finished_job_returns_false(pair):
    source, target = pair
    with JobManager(workers=1) as manager:
        job = submit(manager, source, target)
        assert job.wait(30.0)
        assert manager.cancel(job.id) is False
        assert job.state is JobState.DONE


def test_throttle_slows_search(pair):
    source, target = pair
    with JobManager(workers=1) as manager:
        job = submit(manager, source, target, throttle_seconds=0.01, use_cache=False)
        assert job.wait(30.0)
        assert job.state is JobState.DONE
        assert job.result.runtime_seconds >= 0.01 * job.result.expansions


# --------------------------------------------------------------------- #
# concurrency
# --------------------------------------------------------------------- #
def test_four_concurrent_jobs_complete_correctly():
    divisors = (10, 100, 1000, 2)
    pairs = []
    for d in divisors:
        source = read_csv_text(
            "id,val\n" + "".join(f"{i},{i * d * 7}\n" for i in range(1, 7))
        )
        target = read_csv_text(
            "id,val\n" + "".join(f"{i},{i * 7}\n" for i in range(1, 7))
        )
        pairs.append((source, target))
    with JobManager(workers=4) as manager:
        jobs = [
            submit(manager, source, target, name=f"div{d}")
            for d, (source, target) in zip(divisors, pairs)
        ]
        assert manager.wait_all(60.0)
        for d, job in zip(divisors, jobs):
            assert job.state is JobState.DONE, job.error
            function = job.result.explanation.functions["val"]
            assert function.meta_name == "division"
            assert float(function.parameters[0]) == pytest.approx(d)


# --------------------------------------------------------------------- #
# request-driven submissions (the repro.api path)
# --------------------------------------------------------------------- #
def rooted(data_root):
    """A session confining request paths to *data_root*."""
    return ExplainSession().with_data_root(data_root)


class TestSubmitRequest:
    @pytest.fixture
    def request_files(self, tmp_path, pair):
        from repro.dataio import write_csv

        source, target = pair
        write_csv(source, tmp_path / "s.csv")
        write_csv(target, tmp_path / "t.csv")
        return tmp_path

    def test_path_request_completes_with_outcome(self, request_files):
        from repro.api import ExplainRequest

        request = ExplainRequest(source_path="s.csv", target_path="t.csv",
                                 name="by-path")
        with JobManager(workers=1, session=rooted(request_files)) as manager:
            job = manager.submit_request(request)
            assert job.wait(60.0)
            assert job.state is JobState.DONE, job.error
            assert job.request is request
            outcome = job.outcome
            assert outcome is not None
            assert outcome.idempotency_key == job.key
            assert outcome.request is request
            assert outcome.explanation == job.result.explanation

    def test_key_is_the_content_key(self, request_files, pair):
        from repro.api import ExplainRequest, resolve_config
        from repro.functions import default_registry
        from repro.service import idempotency_key

        source, target = pair
        request = ExplainRequest(source_path="s.csv", target_path="t.csv")
        with JobManager(workers=1, session=rooted(request_files)) as manager:
            job = manager.submit_request(request)
            assert job.key == idempotency_key(
                source, target, resolve_config(request),
                tuple(default_registry().names))
            # Inline tables key the same content the same way.
            repeat = submit(manager, source.copy(), target.copy())
            assert repeat.key == job.key

    def test_repeat_request_is_a_cache_hit(self, request_files):
        from repro.api import ExplainRequest

        def make_request(**kwargs):
            return ExplainRequest(source_path="s.csv", target_path="t.csv", **kwargs)

        with JobManager(workers=1, session=rooted(request_files)) as manager:
            first = manager.submit_request(make_request())
            assert first.wait(60.0)
            # Same canonical content, different execution hints: still a hit.
            second = manager.submit_request(make_request(name="renamed", use_cache=True))
            assert second.state is JobState.DONE
            assert second.cache_hit is True
            assert second.key == first.key
            assert second.outcome is not None
            assert second.outcome.explanation == first.outcome.explanation
            # A different engine is different canonical content: a miss.
            third = manager.submit_request(make_request(engine="rowwise"))
            assert third.key != first.key
            assert third.wait(60.0) and third.cache_hit is False

    def test_request_functions_subset_reaches_the_search(self, request_files):
        from repro.api import ExplainRequest

        request = ExplainRequest(source_path="s.csv", target_path="t.csv",
                                 functions=("identity", "division"))
        with JobManager(workers=1, session=rooted(request_files)) as manager:
            job = manager.submit_request(request)
            assert job.wait(60.0)
            assert job.state is JobState.DONE, job.error
            assert job.outcome.provenance.registry == ("identity", "division")
            assert job.instance.registry.names == ["identity", "division"]

    def test_invalid_requests_are_rejected_before_queueing(self, request_files):
        from repro.api import ExplainRequest, RequestValidationError

        with JobManager(workers=1, session=rooted(request_files)) as manager:
            with pytest.raises(RequestValidationError):
                manager.submit_request(
                    ExplainRequest(source_path="nope.csv", target_path="t.csv"))
            with pytest.raises(RequestValidationError):
                manager.submit_request(
                    ExplainRequest(source_path="s.csv", target_path="t.csv",
                                   functions=("warp",)))
            assert manager.jobs() == []

    def test_key_ignores_snapshot_transport(self, request_files, pair):
        from repro.api import ExplainRequest
        from repro.dataio import to_csv_text

        source, target = pair
        by_path = ExplainRequest(source_path="s.csv", target_path="t.csv")
        by_dotted_path = ExplainRequest(source_path="./s.csv", target_path="./t.csv")
        inline = ExplainRequest(source_csv=to_csv_text(source),
                                target_csv=to_csv_text(target))
        with JobManager(workers=1, session=rooted(request_files)) as manager:
            first = manager.submit_request(by_path)
            assert first.wait(60.0)
            # Same parsed content through a different transport: a cache hit.
            second = manager.submit_request(by_dotted_path)
            third = manager.submit_request(inline)
            assert second.cache_hit is True and second.key == first.key
            assert third.cache_hit is True and third.key == first.key

    def test_outcome_reports_real_load_time(self, request_files):
        from repro.api import ExplainRequest

        request = ExplainRequest(source_path="s.csv", target_path="t.csv")
        with JobManager(workers=1, session=rooted(request_files)) as manager:
            job = manager.submit_request(request)
            assert job.wait(60.0)
            timings = job.outcome.timings
            assert timings.load_seconds > 0.0
            assert timings.total_seconds == pytest.approx(
                timings.load_seconds + timings.search_seconds
            )
            # The cache-hit job reports its own (fresh) load time too.
            repeat = manager.submit_request(request)
            assert repeat.cache_hit is True
            assert repeat.outcome.timings.load_seconds > 0.0


# --------------------------------------------------------------------- #
# budgeted and baseline requests (the strategy chain behind a job)
# --------------------------------------------------------------------- #
def _inline_request(**kwargs):
    from repro.api import ExplainRequest

    return ExplainRequest(
        source_csv="id,val\n1,700\n2,1400\n3,2100\n4,2800\n",
        target_csv="id,val\n1,7\n2,14\n3,21\n4,28\n",
        **kwargs,
    )


@pytest.mark.parametrize("strategy", ["trivial", "keyed_diff", "similarity_linker"])
def test_baseline_strategy_jobs_end_done_with_their_tier(strategy):
    with JobManager(workers=1) as manager:
        for attempt in range(2):
            job = manager.submit_request(_inline_request(strategy=(strategy,)))
            assert job.wait(60.0)
            assert job.state is JobState.DONE, job.error
            assert job.cache_hit is False  # a baseline answer is not stored
            assert job.outcome.provenance.tier == strategy
            # Every value changed, so no baseline keeps a pair: each answers
            # at the trivial cost and is labelled by that content.
            assert job.outcome.cost == job.outcome.trivial_cost
            assert job.outcome.provenance.confidence == "trivial"
            assert job.result is None  # no search ran
        assert manager.store.stats().puts == 0


def test_deadline_cut_budget_answer_is_done_and_trivial():
    from repro.api import ExplainBudget

    request = _inline_request(budget=ExplainBudget(deadline_ms=0.001),
                              strategy=("full",))
    with JobManager(workers=1) as manager:
        job = manager.submit_request(request)
        assert job.wait(60.0)
        assert job.state is JobState.DONE, job.error
        assert job.outcome.provenance.tier == "full"
        # Cut before its first expansion: the answer costs the trivial cost
        # and is labelled so.
        assert job.outcome.cost == job.outcome.trivial_cost
        assert job.outcome.provenance.confidence == "trivial"
        assert job.outcome.cancelled is True
        # A deadline-cut answer is not exact, so it is never stored.
        assert manager.store.stats().size == 0


def test_caller_should_stop_still_cancels_the_job(pair):
    source, target = pair
    session = ExplainSession().with_cancellation(lambda: True)
    with JobManager(workers=1, session=session) as manager:
        job = submit(manager, source, target)
        assert job.wait(30.0)
        assert job.state is JobState.CANCELLED
        assert manager.store.stats().size == 0


def test_greedy_answer_is_not_replayed_as_exact():
    with JobManager(workers=1) as manager:
        first = manager.submit_request(_inline_request(strategy=("greedy",)))
        assert first.wait(60.0) and first.state is JobState.DONE
        repeat = manager.submit_request(_inline_request(strategy=("greedy",)))
        assert repeat.wait(60.0) and repeat.state is JobState.DONE
        assert repeat.cache_hit is False
        assert repeat.outcome.provenance.tier == "greedy"
        assert repeat.outcome.provenance.confidence == "approximate"


def test_exact_budgeted_answer_serves_any_strategy():
    """Budget and strategy are not part of the key: once the exact answer
    is stored, every request over the same content gets it."""
    with JobManager(workers=1) as manager:
        exact = manager.submit_request(_inline_request())
        assert exact.wait(60.0) and exact.state is JobState.DONE
        repeat = manager.submit_request(
            _inline_request(budget=60_000, strategy=("greedy", "full")))
        assert repeat.state is JobState.DONE and repeat.store_hit is True
        assert repeat.outcome.explanation == exact.outcome.explanation
        assert repeat.outcome.provenance.confidence == "exact"
        assert repeat.outcome.provenance.api_version == "affidavit.request/v2"


def test_lone_surrogate_cell_is_keyed_and_explained():
    """A lone surrogate survives CSV parsing; the content key and the
    request hash must digest it instead of failing the submission."""
    from repro.api import ExplainRequest

    request = ExplainRequest(source_csv="A,B\n1\ud800,x\n2,y\n",
                             target_csv="A,B\n1,X\n3,z\n",
                             overrides={"max_expansions": 50})
    with JobManager(workers=1) as manager:
        job = manager.submit_request(request)
        assert job.wait(60.0)
        assert job.state is JobState.DONE, job.error
        repeat = manager.submit_request(request)
        assert repeat.cache_hit is True
        assert repeat.outcome.explanation == job.outcome.explanation
