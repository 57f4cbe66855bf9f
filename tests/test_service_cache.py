"""The result store's key and its in-process backend: keying, hit/miss
accounting, TTL expiry, LRU eviction."""

from __future__ import annotations

import pytest

from repro.core import identity_configuration, overlap_configuration
from repro.dataio import Schema, Table, read_csv_text
from repro.service import MemoryResultStore, idempotency_key


@pytest.fixture
def pair():
    source = read_csv_text("id,val\n1,100\n2,200\n3,300\n")
    target = read_csv_text("id,val\n1,1\n2,2\n3,3\n")
    return source, target


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# idempotency key
# --------------------------------------------------------------------- #
def test_key_is_deterministic(pair):
    source, target = pair
    config = identity_configuration()
    assert idempotency_key(source, target, config) == idempotency_key(
        source, target, config
    )


def test_key_depends_on_table_content(pair):
    source, target = pair
    config = identity_configuration()
    other_target = read_csv_text("id,val\n1,1\n2,2\n3,4\n")
    assert idempotency_key(source, target, config) != idempotency_key(
        source, other_target, config
    )


def test_key_depends_on_direction(pair):
    source, target = pair
    config = identity_configuration()
    assert idempotency_key(source, target, config) != idempotency_key(
        target, source, config
    )


def test_key_depends_on_comparable_config_fields(pair):
    source, target = pair
    assert idempotency_key(source, target, identity_configuration()) != \
        idempotency_key(source, target, overlap_configuration())
    assert idempotency_key(source, target, identity_configuration(seed=0)) != \
        idempotency_key(source, target, identity_configuration(seed=1))


def test_key_is_unambiguous_for_separator_characters():
    # Without length-prefixing, ("a\x1fb", "c") and ("a", "b\x1fc") would
    # digest to the same bytes and collide.
    config = identity_configuration()
    left = Table(Schema(["x", "y"]), [("a\x1fb", "c")])
    right = Table(Schema(["x", "y"]), [("a", "b\x1fc")])
    target = Table(Schema(["x", "y"]), [("1", "2")])
    assert idempotency_key(left, target, config) != idempotency_key(
        right, target, config
    )


def test_key_depends_on_registry_names(pair):
    source, target = pair
    config = identity_configuration()
    assert idempotency_key(source, target, config) != idempotency_key(
        source, target, config, registry_names=("identity",)
    )


# --------------------------------------------------------------------- #
# the in-process store
# --------------------------------------------------------------------- #
def test_get_miss_then_hit():
    store = MemoryResultStore(max_entries=4)
    assert store.get("k") is None
    store.put("k", {"v": "value"})
    assert store.get("k") == {"v": "value"}
    stats = store.stats()
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.size == 1


def test_lru_eviction_order():
    store = MemoryResultStore(max_entries=2)
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    assert store.get("a") == {"v": 1}   # refresh 'a'; 'b' is now LRU
    store.put("c", {"v": 3})
    assert store.get("b") is None       # evicted
    assert store.get("a") == {"v": 1}
    assert store.get("c") == {"v": 3}
    assert store.stats().size == 2


def test_put_existing_key_updates_without_eviction():
    store = MemoryResultStore(max_entries=2)
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    store.put("a", {"v": 10})
    assert store.get("a") == {"v": 10}
    assert store.get("b") == {"v": 2}
    assert store.stats().size == 2


def test_ttl_expiry():
    clock = FakeClock()
    store = MemoryResultStore(max_entries=4, ttl_seconds=10.0, clock=clock)
    store.put("k", {"v": "value"})
    clock.advance(9.0)
    assert store.get("k") == {"v": "value"}
    clock.advance(2.0)
    assert store.get("k") is None
    stats = store.stats()
    assert stats.misses == 1
    assert stats.size == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        MemoryResultStore(max_entries=0)
    with pytest.raises(ValueError):
        MemoryResultStore(ttl_seconds=0.0)
    with pytest.raises(ValueError):
        MemoryResultStore(ttl_seconds=-1.0)
