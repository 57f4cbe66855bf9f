"""Throughput of the explanation-job subsystem.

Not a table of the paper: this benchmark measures the serving layer added on
top of the reproduction — jobs/second for a pool of small instances at worker
counts 1, 2 and 4, plus the latency gap between a cold submission and a
result-store hit (the default in-process memory store, and a sqlite store
shared by two replicas).  The search itself is pure Python (the GIL limits CPU
parallelism), so the worker scaling mostly exercises the manager's queueing
and bookkeeping overhead; the cache-hit speedup is the headline number.

The workload and every search configuration take their seed from the
``--seed`` option (default 13), so repeated runs emit identical workloads
and a reproducible ``benchmarks/BENCH_service_throughput.json``.
"""

from __future__ import annotations

import pytest

from repro.core import identity_configuration
from repro.dataio import read_csv_text
from repro.service import JobManager, SqliteResultStore

from conftest import scaled

WORKER_COUNTS = (1, 2, 4)

N_JOBS = 8


def _pairs(n_jobs: int, rows: int, seed: int):
    pairs = []
    for j in range(n_jobs):
        divisor = 10 ** (1 + (j + seed) % 3)
        source = read_csv_text(
            "id,val\n"
            + "".join(f"{i},{(i + j) * divisor}\n" for i in range(1, rows + 1))
        )
        target = read_csv_text(
            "id,val\n" + "".join(f"{i},{i + j}\n" for i in range(1, rows + 1))
        )
        pairs.append((source, target))
    return pairs


def _rows(quick_mode: bool) -> int:
    return 60 if quick_mode else scaled(120)


def _payload(bench_json, bench_seed: int, quick_mode: bool, rows: int):
    """The shared BENCH_service_throughput.json skeleton (order-independent)."""
    return bench_json.setdefault("service_throughput", {
        "benchmark": "service_throughput",
        "seed": bench_seed,
        "quick": quick_mode,
        "rows": rows,
        "jobs": N_JOBS,
        "workers": [],
    })


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_jobs_per_second_by_worker_count(benchmark, workers, report_sink,
                                         bench_seed, quick_mode, bench_json):
    rows = _rows(quick_mode)
    pairs = _pairs(N_JOBS, rows, bench_seed)
    config = identity_configuration(seed=bench_seed)

    def run_pool():
        with JobManager(workers=workers, default_config=config) as manager:
            jobs = [
                manager.submit(source, target, name=f"job{i}", use_cache=False)
                for i, (source, target) in enumerate(pairs)
            ]
            assert manager.wait_all(300.0)
            assert all(job.state.value == "done" for job in jobs)
        return jobs

    benchmark.pedantic(run_pool, rounds=1, iterations=1)
    elapsed = benchmark.stats.stats.total
    throughput = N_JOBS / elapsed if elapsed else float("inf")
    benchmark.extra_info.update({
        "workers": workers,
        "jobs": N_JOBS,
        "rows": rows,
        "seed": bench_seed,
        "jobs_per_second": round(throughput, 2),
    })
    payload = _payload(bench_json, bench_seed, quick_mode, rows)
    payload["workers"].append({
        "workers": workers,
        "seconds": round(elapsed, 4),
        "jobs_per_second": round(throughput, 2),
    })
    report_sink.append(
        f"service throughput: workers={workers} rows={rows} seed={bench_seed} "
        f"-> {throughput:.2f} jobs/s ({elapsed:.3f}s for {N_JOBS} jobs)"
    )


def test_cache_hit_speedup(benchmark, report_sink, bench_seed, quick_mode,
                           bench_json):
    rows = _rows(quick_mode)
    (source, target), = _pairs(1, rows, bench_seed)
    config = identity_configuration(seed=bench_seed)

    with JobManager(workers=1, default_config=config) as manager:
        cold = manager.submit(source, target)
        assert cold.wait(300.0)
        cold_runtime = cold.result.runtime_seconds

        def resubmit():
            job = manager.submit(source, target)
            assert job.wait(300.0)
            assert job.cache_hit
            return job

        benchmark(resubmit)
    hit_seconds = benchmark.stats.stats.mean
    speedup = cold_runtime / hit_seconds if hit_seconds else float("inf")
    benchmark.extra_info.update({
        "cold_seconds": round(cold_runtime, 4),
        "hit_seconds": round(hit_seconds, 6),
        "seed": bench_seed,
        "speedup": round(speedup, 1),
    })
    payload = _payload(bench_json, bench_seed, quick_mode, rows)
    payload["cache_hit"] = {
        "cold_seconds": round(cold_runtime, 4),
        "hit_seconds": round(hit_seconds, 6),
        "speedup": round(speedup, 1),
    }
    report_sink.append(
        f"memory store: cold {cold_runtime * 1000:.1f}ms vs "
        f"hit {hit_seconds * 1e6:.0f}us ({speedup:.0f}x)"
    )


def test_shared_store_dedup(benchmark, report_sink, bench_seed, quick_mode,
                            bench_json, tmp_path):
    """Two replicas, one sqlite store: replica B answers replica A's work.

    Replica A computes the explanation cold and publishes the serialized
    outcome; replica B — a fresh manager over the same sqlite file —
    submits the identical request and must resolve it from the shared store
    without searching.  Every benchmark iteration exercises a real sqlite
    read + outcome deserialization round-trip.
    """
    rows = _rows(quick_mode)
    (source, target), = _pairs(1, rows, bench_seed)
    config = identity_configuration(seed=bench_seed)
    store = SqliteResultStore(tmp_path / "shared-results.db")

    with JobManager(workers=1, default_config=config, store=store) as replica_a:
        cold = replica_a.submit(source, target)
        assert cold.wait(300.0)
        assert cold.store_hit is False
        cold_runtime = cold.result.runtime_seconds

    with JobManager(workers=1, default_config=config, store=store) as replica_b:

        def resubmit():
            job = replica_b.submit(source.copy(), target.copy())
            assert job.wait(300.0)
            assert job.store_hit
            assert job.result is None  # answered across the wire boundary
            return job

        benchmark(resubmit)
    store.close()
    hit_seconds = benchmark.stats.stats.mean
    speedup = cold_runtime / hit_seconds if hit_seconds else float("inf")
    benchmark.extra_info.update({
        "cold_seconds": round(cold_runtime, 4),
        "hit_seconds": round(hit_seconds, 6),
        "seed": bench_seed,
        "speedup": round(speedup, 1),
    })
    payload = _payload(bench_json, bench_seed, quick_mode, rows)
    payload["store_hit"] = {
        "backend": "sqlite",
        "cold_seconds": round(cold_runtime, 4),
        "hit_seconds": round(hit_seconds, 6),
        "speedup": round(speedup, 1),
    }
    report_sink.append(
        f"shared store: cold {cold_runtime * 1000:.1f}ms vs replica-B hit "
        f"{hit_seconds * 1e6:.0f}us ({speedup:.0f}x)"
    )
