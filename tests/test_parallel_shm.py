"""Shared-memory shipping lifecycle tests for the parallel engine.

The coordinator ships problem instances to workers through
``multiprocessing.shared_memory`` segments it exclusively owns.  The contract
under test: every segment the pool creates is unlinked — no stray
``/dev/shm`` entries — whatever the exit path: explicit ``close()``, LRU
eviction, a broken pool, or the owning session's ``close()``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import Affidavit, ProblemInstance, ShardPool, identity_configuration
from repro.core import parallel as parallel_module
from repro.dataio import Schema, Table
from repro.api import Session


def _shm_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))


def _tiny_instance(tag: str) -> ProblemInstance:
    schema = Schema(["id", "value"])
    return ProblemInstance(
        source=Table(schema, [("1", f"a{tag}"), ("2", f"b{tag}")]),
        target=Table(schema, [("1", f"a{tag}")]),
        name=f"tiny-{tag}",
    )


def _noop_payload(instance: ProblemInstance) -> tuple:
    """A real (but empty) bounds-shard dispatch: no functions, no blocks."""
    return (instance.attributes[0], [], b"", b"", 0, 0)


@pytest.fixture
def remote_everything(monkeypatch):
    monkeypatch.setattr(parallel_module, "MIN_REMOTE_EXAMPLES", 0)
    monkeypatch.setattr(parallel_module, "MIN_REMOTE_RECORDS", 0)


class TestSegmentLifecycle:
    def test_registration_creates_a_segment_close_unlinks_it(self):
        pool = ShardPool(2)
        instance = _tiny_instance("close")
        pool.map_shards(parallel_module._bounds_shard, instance, 64, [])
        names = pool.segment_names()
        assert names, "instance registration should ship via shared memory"
        assert all(_shm_exists(name) for name in names)
        pool.close()
        assert pool.segment_names() == []
        assert not any(_shm_exists(name) for name in names)

    def test_eviction_unlinks_the_oldest_segment(self):
        pool = ShardPool(2)
        # Keep references alive: the registry keys on id(instance).
        instances = [
            _tiny_instance(f"evict{index}")
            for index in range(parallel_module.INSTANCE_CACHE_LIMIT + 1)
        ]
        try:
            pool.map_shards(parallel_module._bounds_shard, instances[0], 64, [])
            first = pool.segment_names()
            assert len(first) == 1
            for instance in instances[1:]:
                pool.map_shards(parallel_module._bounds_shard, instance, 64, [])
            live = pool.segment_names()
            assert len(live) == parallel_module.INSTANCE_CACHE_LIMIT
            assert first[0] not in live
            assert not _shm_exists(first[0])
            assert all(_shm_exists(name) for name in live)
        finally:
            pool.close()

    def test_worker_crash_releases_segments(self):
        pool = ShardPool(2)
        instance = _tiny_instance("crash")
        payload = _noop_payload(instance)
        # One real round trip first: spawns the workers and proves the
        # worker attached the shipped segment successfully.
        results = pool.map_shards(
            parallel_module._bounds_shard, instance, 64, [payload]
        )
        assert results == [[]]
        names = pool.segment_names()
        assert names
        for process in list(pool._executor._processes.values()):
            process.kill()
        time.sleep(0.1)
        # A fresh payload: repeating the first one would be answered from
        # the coordinator's shard-result cache without touching the dead
        # workers.
        fresh_payload = (instance.attributes[-1], [], b"", b"", 0, 0)
        assert fresh_payload != payload
        with pytest.raises(parallel_module.PoolUnavailable):
            pool.map_shards(
                parallel_module._bounds_shard, instance, 64, [fresh_payload]
            )
        assert not pool.available()
        assert pool.segment_names() == []
        assert not any(_shm_exists(name) for name in names)
        pool.close()

    def test_session_close_unlinks_segments(self, running_source, running_target,
                                            remote_everything):
        session = Session().with_config(
            identity_configuration(parallel_workers=2, max_expansions=10, seed=3)
        )
        try:
            outcome = session.explain_tables(
                running_source.copy(), running_target.copy()
            )
            assert outcome.result.engine == "parallel"
            pool = session._pool_box._pool
            assert pool is not None
            names = pool.segment_names()
            assert names
            assert all(_shm_exists(name) for name in names)
        finally:
            session.close()
        assert not any(_shm_exists(name) for name in names)


class TestShipFallback:
    def test_inline_fallback_when_shared_memory_fails(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no shared memory on this host")

        monkeypatch.setattr(
            parallel_module.shared_memory, "SharedMemory", refuse
        )
        pool = ShardPool(2)
        instance = _tiny_instance("fallback")
        try:
            results = pool.map_shards(
                parallel_module._bounds_shard, instance, 64,
                [_noop_payload(instance)],
            )
            assert results == [[]]
            assert pool.segment_names() == []
        finally:
            pool.close()


class TestShardResultCache:
    def test_repeated_payloads_are_served_without_dispatch(self):
        pool = ShardPool(2)
        instance = _tiny_instance("memo")
        payload = _noop_payload(instance)
        try:
            first = pool.map_shards(
                parallel_module._bounds_shard, instance, 64, [payload]
            )
            submits = []
            original_submit = pool._executor.submit

            def counting_submit(*args, **kwargs):
                submits.append(args)
                return original_submit(*args, **kwargs)

            pool._executor.submit = counting_submit
            recorded = []
            second = pool.map_shards(
                parallel_module._bounds_shard, instance, 64, [payload],
                lambda position, wall, compute: recorded.append(
                    (position, wall, compute)
                ),
            )
            assert second == first
            assert submits == []
            assert recorded == [(0, 0.0, 0.0)]
        finally:
            pool.close()
