"""The result store: backends, spec parsing, and replica dedup.

The contract: anything a store returns has crossed the JSON serialization
boundary, a second replica pointed at the same sqlite file answers
identical requests without re-searching, and a restarted replica keeps
serving results computed before the restart.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import ExplainRequest
from repro.dataio import read_csv_text
from repro.service import (
    JobManager,
    JobState,
    MemoryResultStore,
    SqliteResultStore,
    create_server,
    open_store,
    result_view,
)


@pytest.fixture
def pair():
    source = read_csv_text(
        "id,name,val\n1,alpha,100\n2,beta,200\n3,gamma,300\n4,delta,400\n"
    )
    target = read_csv_text(
        "id,name,val\n1,ALPHA,1\n2,BETA,2\n3,GAMMA,3\n4,DELTA,4\n"
    )
    return source, target


def submit(manager, pair, name):
    """Submit the snapshot pair as an inline request."""
    return manager.submit_request(ExplainRequest.inline(*pair, name=name))


# --------------------------------------------------------------------- #
# backends
# --------------------------------------------------------------------- #
class TestSqliteBackend:
    def test_round_trip_and_stats(self, tmp_path):
        with SqliteResultStore(tmp_path / "results.db") as store:
            assert store.get("k1") is None
            store.put("k1", {"cost": 3.5, "nested": {"a": [1, 2]}})
            assert store.get("k1") == {"cost": 3.5, "nested": {"a": [1, 2]}}
            store.put("k1", {"cost": 4.0})  # overwrite, not a second row
            assert store.get("k1")["cost"] == 4.0
            stats = store.stats()
            assert stats.backend == "sqlite"
            assert stats.hits == 2
            assert stats.misses == 1
            assert stats.puts == 2
            assert stats.size == 1

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "results.db"
        with SqliteResultStore(path) as store:
            store.put("k", {"v": 1})
        with SqliteResultStore(path) as reopened:
            assert reopened.get("k") == {"v": 1}
            assert reopened.stats().size == 1

    def test_concurrent_writers_share_one_file(self, tmp_path):
        path = tmp_path / "results.db"
        first = SqliteResultStore(path)
        second = SqliteResultStore(path)
        try:
            first.put("from-first", {"n": 1})
            second.put("from-second", {"n": 2})
            assert first.get("from-second") == {"n": 2}
            assert second.get("from-first") == {"n": 1}
        finally:
            first.close()
            second.close()

    def test_ttl_expires_entries(self, tmp_path):
        tick = [0.0]
        store = SqliteResultStore(tmp_path / "results.db", ttl_seconds=10.0,
                                  clock=lambda: tick[0])
        try:
            store.put("k", {"v": 1})
            tick[0] = 9.0
            assert store.get("k") == {"v": 1}
            tick[0] = 11.0
            assert store.get("k") is None
            assert store.stats().size == 0  # expiry deletes the row
        finally:
            store.close()

    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ValueError):
            SqliteResultStore(tmp_path / "x.db", ttl_seconds=0)


class TestMemoryBackend:
    def test_round_trip_crosses_serialization(self):
        store = MemoryResultStore()
        payload = {"v": (1, 2)}  # tuples do not survive JSON
        store.put("k", payload)
        assert store.get("k") == {"v": [1, 2]}
        stats = store.stats()
        assert stats.backend == "memory"
        assert (stats.hits, stats.puts) == (1, 1)


class TestOpenStore:
    def test_default_store_specs(self):
        # None, "none" and "memory" all leave the manager its default
        # in-process store, sized by cache_entries / cache_ttl.
        assert open_store(None) is None
        assert open_store("") is None
        assert open_store("  none ") is None
        assert open_store("memory") is None

    def test_memory_spec_is_sized_by_cache_entries(self):
        server = create_server(store="memory", cache_entries=3)
        try:
            store = server.manager.store
            assert isinstance(store, MemoryResultStore)
            for index in range(4):
                store.put(f"k{index}", {"v": index})
            assert store.stats().size == 3
        finally:
            server.server_close()
            server.manager.shutdown()

    def test_sqlite_specs(self, tmp_path):
        for spec in (f"sqlite:{tmp_path}/a.db",
                     f"sqlite://{tmp_path}/b.db".replace("//", "///", 1),
                     f"{tmp_path}/c.db"):
            store = open_store(spec)
            assert isinstance(store, SqliteResultStore)
            store.close()

    def test_sqlite_spec_without_path_is_rejected(self):
        with pytest.raises(ValueError):
            open_store("sqlite:")


# --------------------------------------------------------------------- #
# manager-level dedup
# --------------------------------------------------------------------- #
def test_second_replica_answers_from_store(tmp_path, pair):
    store = SqliteResultStore(tmp_path / "shared.db")
    with JobManager(workers=2, store=store) as first:
        computed = submit(first, pair, "shared")
        assert computed.wait(30.0)
        assert computed.state is JobState.DONE
        assert computed.store_hit is False
    assert store.stats().puts == 1

    with JobManager(workers=2, store=store) as second:
        job = submit(second, pair, "shared")
        # A store hit resolves synchronously at submission time.
        assert job.state is JobState.DONE
        assert job.store_hit is True
        assert job.cache_hit is True
        assert job.result is None  # the outcome crossed the wire boundary
        assert job.outcome is not None
        assert job.outcome.cost == computed.outcome.cost
        view = result_view(job)
        assert view["cost"] == computed.outcome.cost
        assert view["explanation"] == json.loads(
            json.dumps(view["explanation"]))  # JSON-stable
    store.close()


def test_restarted_replica_recovers_results(tmp_path, pair):
    path = tmp_path / "shared.db"
    with SqliteResultStore(path) as store:
        with JobManager(workers=2, store=store) as manager:
            job = submit(manager, pair, "restart")
            assert job.wait(30.0)
    # Process "restart": a brand-new store handle and manager.
    with SqliteResultStore(path) as store:
        with JobManager(workers=2, store=store) as manager:
            job = submit(manager, pair, "restart")
            assert job.state is JobState.DONE
            assert job.store_hit is True


def test_corrupt_store_entry_degrades_to_recompute(tmp_path, pair):
    store = SqliteResultStore(tmp_path / "shared.db")
    with JobManager(workers=2, store=store) as manager:
        job = submit(manager, pair, "corrupt")
        assert job.wait(30.0)
        key = job.key
    store.put(key, {"schema_version": "affidavit.outcome/v1", "cost": "junk"})
    with JobManager(workers=2, store=store) as manager:
        job = submit(manager, pair, "corrupt")
        assert job.wait(30.0)
        assert job.state is JobState.DONE
        assert job.store_hit is False  # the bad entry was treated as a miss
    store.close()


# --------------------------------------------------------------------- #
# two live replicas over HTTP
# --------------------------------------------------------------------- #
def _http(base_url, method, path, body=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(base_url + path, method=method, data=data,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_two_http_replicas_deduplicate_via_store(tmp_path, pair):
    store = SqliteResultStore(tmp_path / "shared.db")
    replicas = []
    threads = []
    try:
        for _ in range(2):
            server = create_server(workers=2, store=store)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            replicas.append(server)
            threads.append(thread)
        urls = [f"http://{s.server_address[0]}:{s.server_address[1]}"
                for s in replicas]
        body = {
            "source_csv": "id,val\n1,700\n2,1400\n3,2100\n",
            "target_csv": "id,val\n1,7\n2,14\n3,21\n",
            "name": "replicated",
        }
        status, view = _http(urls[0], "POST", "/v1/explain", body)
        assert status in (200, 202)
        job_id = view["id"]
        import time as _time
        deadline = _time.monotonic() + 30.0
        while _time.monotonic() < deadline:
            status, view = _http(urls[0], "GET", f"/v1/jobs/{job_id}")
            if view["state"] == "done":
                break
            _time.sleep(0.02)
        assert view["state"] == "done"

        # Replica B never saw the request: the shared store answers instead
        # of a second search.
        status, view = _http(urls[1], "POST", "/v1/explain", body)
        assert status == 200
        assert view["store_hit"] is True
        assert view["cache_hit"] is True

        status, result = _http(urls[1], "GET",
                               f"/v1/jobs/{view['id']}/result")
        assert status == 200
        assert result["cost"] <= result["trivial_cost"]

        status, health = _http(urls[1], "GET", "/healthz")
        assert health["store"]["backend"] == "sqlite"
        assert health["store"]["hits"] >= 1
    finally:
        for server in replicas:
            server.shutdown_service()
        for thread in threads:
            thread.join(timeout=10.0)
        store.close()
