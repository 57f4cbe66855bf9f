"""The one result store: exact outcomes under one content key.

An explanation is a deterministic function of the two snapshots, the search
configuration and the function pool, so one key and one stored shape are
enough for every result cache in the system:

* :func:`idempotency_key` digests the *parsed* tables (schema and columns,
  one JSON document each — so the same data hits the same entry whether it
  arrived inline or by path, and however the path was spelled), every
  field of the resolved :class:`~repro.core.AffidavitConfig` (plain data:
  run observers are not part of it) and the names of the function pool.
  Budget, strategy and execution hints never enter it.
* A :class:`ResultStore` holds serialized outcomes
  (``ExplainOutcome.to_dict()`` payloads) under that key.  Only *exact*
  outcomes are stored — the full search, not cut off by a deadline or a
  cancel — and every hit is rebuilt by :meth:`ExplainOutcome.from_dict`, so
  a cached answer is the answer a fresh run would give.

Two backends ship: :class:`MemoryResultStore` (an in-process LRU with
optional TTL — the service's default store) and :class:`SqliteResultStore`
(a WAL-mode sqlite file safe for concurrent readers/writers across threads
*and* processes, so N service replicas pointed at one file deduplicate work
and a restarted replica keeps its results).  Both round-trip payloads
through JSON text.

``open_store`` parses the ``serve --store`` spec::

    open_store(None)                  -> None (the service keeps its default)
    open_store("memory")              -> MemoryResultStore()
    open_store("sqlite:/tmp/res.db")  -> SqliteResultStore("/tmp/res.db")
    open_store("/tmp/res.db")         -> SqliteResultStore("/tmp/res.db")
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from ..core import AffidavitConfig
from ..dataio import Table
from ..obs import get_registry
from .budget import CONFIDENCE_EXACT, TIER_FULL
from .outcome import ExplainOutcome
from .request import SCHEMA_VERSION, PreparedRun

logger = logging.getLogger("repro.api.store")

_REGISTRY = get_registry()
_STORE_HITS = _REGISTRY.counter(
    "repro_store_hits_total",
    "Shared result-store lookups that found a completed outcome",
    ("backend",),
)
_STORE_MISSES = _REGISTRY.counter(
    "repro_store_misses_total",
    "Shared result-store lookups that found nothing",
    ("backend",),
)
_STORE_PUTS = _REGISTRY.counter(
    "repro_store_puts_total",
    "Completed outcomes written to the shared result store",
    ("backend",),
)

#: Bumped whenever the key's encoding changes, so entries written under an
#: older encoding miss instead of colliding.
_KEY_VERSION = "affidavit-key/v2"


def _table_document(table: Table) -> list:
    return [list(table.schema), [list(column) for column in table.columns().values()]]


def idempotency_key(source: Table, target: Table, config: AffidavitConfig,
                    registry_names: Optional[Tuple[str, ...]] = None) -> str:
    """The content key of a (source, target, config, function pool) run.

    One JSON document per table (schema, then columns) makes the encoding
    unambiguous without per-cell length prefixes.  *registry_names* are the
    names of the meta-function pool the run searches (``None`` leaves the
    pool out of the key).
    """
    document = [
        _KEY_VERSION,
        _table_document(source),
        _table_document(target),
        [[spec.name, getattr(config, spec.name)] for spec in fields(config)],
        None if registry_names is None else list(registry_names),
    ]
    text = json.dumps(document, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """Counters exposed on ``/healthz`` and asserted by tests."""

    backend: str
    hits: int
    misses: int
    puts: int
    size: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "size": self.size,
        }


class ResultStore:
    """A thread-safe store of serialized outcomes keyed by
    :func:`idempotency_key`.

    Backends implement the payload level (``get``/``put``/``stats``): ``get``
    returns the stored JSON-compatible dict or ``None``, never raises on a
    miss.  Callers use the outcome level (:meth:`get_outcome` /
    :meth:`put_outcome`), which enforces the exact-only rule and degrades a
    broken backend or an unreadable payload to a miss.
    """

    backend = "none"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def stats(self) -> StoreStats:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release backend resources; further calls may fail."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the outcome level
    # ------------------------------------------------------------------ #
    def get_outcome(self, key: str, run: PreparedRun) -> Optional[ExplainOutcome]:
        """The stored outcome under *key*, rebound to the asking *run*, or
        ``None`` on a miss.

        The explanation, costs, search counters and search time are the
        stored run's.  What describes the asker — the request, the
        materialised instance, its load time, the request's schema version,
        base configuration label and instance name — is *run*'s.
        """
        try:
            payload = self.get(key)
        except Exception:  # noqa: BLE001 - a broken store degrades to a miss
            logger.exception("result store get failed for key %s", key[:12])
            return None
        if payload is None:
            return None
        try:
            outcome = ExplainOutcome.from_dict(payload)
        except Exception:  # noqa: BLE001 - a corrupt entry is a miss
            logger.warning("result store payload for key %s is unreadable",
                           key[:12])
            return None
        request = run.request
        provenance = replace(
            outcome.provenance,
            api_version=SCHEMA_VERSION if request is None else request.schema_version,
            base_config=run.base_config,
            instance_name=run.instance.name,
        )
        timings = replace(
            outcome.timings, load_seconds=run.load_seconds,
            total_seconds=run.load_seconds + outcome.timings.search_seconds,
        )
        return replace(outcome, provenance=provenance, timings=timings,
                       idempotency_key=key, request=request, instance=run.instance)

    def put_outcome(self, key: str, outcome: ExplainOutcome) -> bool:
        """Store *outcome* under *key* if it is exact — a full search that
        ran to the end; ``True`` if stored.

        The request, trace and tier log describe one run, not the answer, so
        they are not stored.  A failing backend is logged, never raised: the
        run itself succeeded.
        """
        provenance = outcome.provenance
        if provenance.tier != TIER_FULL or provenance.confidence != CONFIDENCE_EXACT \
                or outcome.cancelled:
            return False
        payload = replace(outcome, request=None, trace=None, tiers=None,
                          idempotency_key=key).to_dict()
        try:
            self.put(key, payload)
        except Exception:  # noqa: BLE001 - the run itself succeeded
            logger.exception("result store put failed for key %s", key[:12])
            return False
        return True


class MemoryResultStore(ResultStore):
    """An in-process store: an LRU of JSON text with an optional TTL.

    Parameters
    ----------
    max_entries:
        Upper bound on stored outcomes; the least recently used entry is
        evicted when a put would exceed it.  Must be >= 1.
    ttl_seconds:
        Entries older than this are treated as absent (and dropped on
        access).  ``None`` disables expiry.
    clock:
        Monotonic time source, injectable for tests.
    """

    backend = "memory"

    def __init__(self, max_entries: int = 1024,
                 ttl_seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive or None, got {ttl_seconds}")
        self._max_entries = max_entries
        self._ttl = ttl_seconds
        self._clock = clock
        self._entries: "OrderedDict[str, Tuple[str, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._ttl is not None \
                    and self._clock() - entry[1] > self._ttl:
                del self._entries[key]
                entry = None
            if entry is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        if entry is None:
            _STORE_MISSES.inc(backend=self.backend)
            return None
        _STORE_HITS.inc(backend=self.backend)
        return json.loads(entry[0])

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        text = json.dumps(payload)
        with self._lock:
            self._entries[key] = (text, self._clock())
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
            self._puts += 1
        _STORE_PUTS.inc(backend=self.backend)

    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(backend=self.backend, hits=self._hits,
                              misses=self._misses, puts=self._puts,
                              size=len(self._entries))


class SqliteResultStore(ResultStore):
    """A shared on-disk store: one WAL-mode sqlite file, safe for concurrent
    access from many threads and many server processes.

    Parameters
    ----------
    path:
        The database file.  Replicas that should deduplicate work must point
        at the same path (a shared volume in multi-box setups).
    ttl_seconds:
        Entries older than this are treated as absent and deleted on access.
        ``None`` (default) keeps results until overwritten.
    timeout:
        Seconds a writer waits on a locked database before giving up —
        sqlite's cross-process busy timeout.
    clock:
        Wall-clock source, injectable for TTL tests.
    """

    backend = "sqlite"

    def __init__(self, path: Union[str, "object"], *,
                 ttl_seconds: Optional[float] = None,
                 timeout: float = 10.0,
                 clock: Callable[[], float] = time.time):
        # Imported here so that importing repro.api does not load sqlite.
        import sqlite3

        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive or None, got {ttl_seconds}")
        self.path = str(path)
        self._ttl = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._conn = sqlite3.connect(self.path, timeout=timeout,
                                     check_same_thread=False)
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                "  key TEXT PRIMARY KEY,"
                "  payload TEXT NOT NULL,"
                "  stored_at REAL NOT NULL"
                ")"
            )
            self._conn.commit()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, stored_at FROM results WHERE key = ?",
                (key,),
            ).fetchone()
            if row is not None and self._ttl is not None \
                    and self._clock() - row[1] > self._ttl:
                self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
                self._conn.commit()
                row = None
            if row is None:
                self._misses += 1
            else:
                self._hits += 1
        if row is None:
            _STORE_MISSES.inc(backend=self.backend)
            return None
        _STORE_HITS.inc(backend=self.backend)
        return json.loads(row[0])

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        text = json.dumps(payload)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results (key, payload, stored_at) "
                "VALUES (?, ?, ?)",
                (key, text, self._clock()),
            )
            self._conn.commit()
            self._puts += 1
        _STORE_PUTS.inc(backend=self.backend)

    def stats(self) -> StoreStats:
        with self._lock:
            size = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]
            return StoreStats(backend=self.backend, hits=self._hits,
                              misses=self._misses, puts=self._puts, size=size)

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def open_store(spec: Optional[str]) -> Optional[ResultStore]:
    """Build a store from a ``serve --store`` spec string.

    ``None``/empty/``"none"``/``"memory"`` return ``None``: the service
    then keeps its default in-process store, sized by ``--cache-entries`` /
    ``--cache-ttl``.  ``"sqlite:PATH"`` (also ``sqlite:///PATH``) or a bare
    filesystem path open the shared sqlite backend.
    """
    if spec is None:
        return None
    spec = spec.strip()
    if spec.lower() in ("", "none", "memory"):
        return None
    if spec.startswith("sqlite:"):
        path = spec[len("sqlite:"):]
        if path.startswith("///"):  # URI spelling: sqlite:///abs/path.db
            path = path[2:]
        if not path:
            raise ValueError(f"store spec {spec!r} names no database path")
        return SqliteResultStore(path)
    return SqliteResultStore(spec)
