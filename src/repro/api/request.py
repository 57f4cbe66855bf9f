"""The canonical explanation request: one typed object for every front door.

:class:`ExplainRequest` is how work enters the engine — the library facade
(:class:`~repro.api.session.ExplainSession`), the CLI, the HTTP service and
the batch runner all construct one and hand it to a session, whose
:meth:`~repro.api.session.ExplainSession.prepare` step resolves it into a
:class:`PreparedRun` with the resolvers defined here
(:func:`resolve_config` / :func:`resolve_registry`).  The request is a frozen
dataclass with a versioned JSON round-trip (:meth:`ExplainRequest.to_dict` /
:meth:`ExplainRequest.from_dict`).  Nothing keys on the request itself: the
one result key, :func:`repro.api.store.idempotency_key`, digests what the
request resolves to — the parsed tables, the resolved configuration and the
function pool — so transport, budget, strategy and execution hints never
split it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..core import (
    AffidavitConfig,
    ProblemInstance,
    identity_configuration,
    overlap_configuration,
)
from ..dataio import (
    Table,
    TableError,
    SchemaError,
    read_csv_text,
    read_snapshot_pair,
    to_csv_text,
)
from ..functions import FunctionRegistry, default_registry
from .budget import ExplainBudget, validate_strategy
from .errors import RequestValidationError, UnsupportedSchemaVersion

#: The original request wire format.  A request that uses no v2 feature
#: still serializes at this version, byte-identical to pre-v2 builds.
SCHEMA_VERSION = "affidavit.request/v1"

#: The budgeted wire format: v1 plus the ``budget`` and ``strategy`` fields.
SCHEMA_VERSION_V2 = "affidavit.request/v2"

#: Versions :meth:`ExplainRequest.from_dict` accepts; anything else raises
#: :class:`UnsupportedSchemaVersion`.
SUPPORTED_SCHEMA_VERSIONS = (SCHEMA_VERSION, SCHEMA_VERSION_V2)

#: Fields that only exist in the v2 wire format.  A payload tagged v1 must
#: not carry them, and a request that leaves them at their defaults
#: serializes without them (under the v1 tag).
_V2_FIELDS = ("budget", "strategy")

ENGINE_COLUMNAR = "columnar"
ENGINE_ROWWISE = "rowwise"
#: Retired: the sharded multi-process engine.  Still accepted on the wire so
#: stored and scripted requests keep working; it runs the columnar engine.
ENGINE_PARALLEL = "parallel"
ENGINES = (ENGINE_COLUMNAR, ENGINE_ROWWISE, ENGINE_PARALLEL)

#: Retired overrides — of the parallel engine, of the string-keyed columnar
#: path, and the two cache bounds that are now constants of
#: :mod:`repro.core.evaluator`: still accepted, validated as before, then
#: ignored.
LEGACY_OVERRIDE_FIELDS = (
    "parallel_workers", "blocking_codes",
    "column_cache_entries", "blocking_cache_size",
)

#: Configuration fields clients may override per request: every field of
#: the plain-data :class:`AffidavitConfig` (run observers are session
#: arguments, not configuration), plus the retired ones still parsed.
CONFIG_OVERRIDE_FIELDS = (
    tuple(field.name for field in fields(AffidavitConfig)) + LEGACY_OVERRIDE_FIELDS
)

#: Named base configurations selectable by request (the paper's two setups).
BASE_CONFIGS = {
    "hid": identity_configuration,
    "hs": overlap_configuration,
}

#: Bounds of the scheduling ``priority`` hint (higher runs earlier).
PRIORITY_MIN, PRIORITY_MAX = -100, 100


@dataclass(frozen=True)
class ExplainRequest:
    """A versioned, immutable description of one explanation run.

    Snapshots arrive either inline (``source_csv`` / ``target_csv``) or as
    paths (``source_path`` / ``target_path``) — exactly one of the two
    transports must be used, for both tables.  Everything else selects *how*
    the run executes: the named base configuration plus field overrides, an
    optional registry subset (``functions``) and the evaluation engine.

    Examples
    --------
    >>> request = ExplainRequest(
    ...     source_path="old.csv", target_path="new.csv",
    ...     config="hid", overrides={"seed": 7},
    ...     functions=("identity", "division"),
    ... )
    >>> ExplainRequest.from_dict(request.to_dict()) == request
    True
    """

    source_csv: Optional[str] = None
    target_csv: Optional[str] = None
    source_path: Optional[str] = None
    target_path: Optional[str] = None
    delimiter: str = ","
    #: Named base configuration (``"hid"`` or ``"hs"``).
    config: str = "hid"
    #: Per-request :class:`~repro.core.AffidavitConfig` field overrides.
    #: Stored as a key-sorted tuple of pairs so two requests built from
    #: differently-ordered dicts compare (and hash) equal.
    overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Restrict the meta-function pool to these registry names (``None``
    #: keeps the session's full registry).
    functions: Optional[Tuple[str, ...]] = None
    #: Evaluation engine: ``"columnar"`` (memoizing, default) or
    #: ``"rowwise"`` (the bit-identical reference engine).  The retired
    #: ``"parallel"`` is still accepted and runs ``"columnar"``.
    engine: str = ENGINE_COLUMNAR
    #: Latency budget of the strategy chain (v2).  ``None`` — the default —
    #: means an unbudgeted, plain full search, exactly as before v2.
    budget: Optional[ExplainBudget] = None
    #: Tier list the strategy chain walks (v2); names from
    #: :data:`repro.api.budget.TIERS`.  ``None`` means the default chain
    #: when a budget is set, and the plain full search otherwise.
    strategy: Optional[Tuple[str, ...]] = None
    name: str = "instance"
    #: Seconds to sleep after every search expansion (demos, cancellation
    #: tests).  The session adds the sleep to every run of the request,
    #: whichever front door it came through.
    throttle_seconds: float = 0.0
    use_cache: bool = True
    #: Scheduling hint for the service's job queue: higher-priority requests
    #: are dequeued first (ties run in submission order).  Like the other
    #: execution hints it never influences the explanation, so it stays out
    #: of the result key — and, unlike the v2 fields, it is accepted on v1
    #: payloads.
    priority: int = 0

    def __post_init__(self) -> None:
        self._normalize()
        self.validate()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def inline(cls, source: Table, target: Table, **kwargs) -> "ExplainRequest":
        """A request carrying the two tables inline as CSV text."""
        delimiter = kwargs.pop("delimiter", ",")
        return cls(
            source_csv=to_csv_text(source, delimiter=delimiter),
            target_csv=to_csv_text(target, delimiter=delimiter),
            delimiter=delimiter,
            **kwargs,
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExplainRequest":
        """Rebuild a request from :meth:`to_dict` output (or a wire payload).

        A missing ``schema_version`` is treated as v1 so pre-versioning
        clients keep working; v1 and v2 payloads are both accepted (v1 fields
        default to ``None``/full-search); an unknown version is rejected.
        """
        if not isinstance(payload, Mapping):
            raise RequestValidationError("request body must be a JSON object")
        payload = dict(payload)
        version = payload.pop("schema_version", SCHEMA_VERSION)
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise UnsupportedSchemaVersion(
                f"unsupported request schema_version {version!r} "
                f"(this build speaks {', '.join(map(repr, SUPPORTED_SCHEMA_VERSIONS))})"
            )
        if version == SCHEMA_VERSION:
            smuggled = [name for name in _V2_FIELDS if name in payload]
            if smuggled:
                raise RequestValidationError(
                    f"fields {smuggled} require schema_version {SCHEMA_VERSION_V2!r}"
                )
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise RequestValidationError(f"unknown request fields: {sorted(unknown)}")
        return cls(**payload)

    def _normalize(self) -> None:
        """Coerce wire-typed fields into their canonical in-memory shapes
        (sorted override pairs, tuple of function names, float throttle).
        Shapes that cannot be coerced are left alone for :meth:`validate`
        to reject with a proper message."""
        overrides = self.overrides
        if isinstance(overrides, Mapping):
            object.__setattr__(
                self, "overrides",
                tuple(sorted(((str(k), v) for k, v in overrides.items()),
                             key=lambda pair: pair[0])),
            )
        elif isinstance(overrides, (list, tuple)):
            try:
                pairs = [(str(k), v) for k, v in overrides]
            except (TypeError, ValueError):
                pass
            else:
                object.__setattr__(
                    self, "overrides",
                    tuple(sorted(pairs, key=lambda pair: pair[0])),
                )
        functions = self.functions
        if isinstance(functions, (list, tuple)):
            object.__setattr__(self, "functions", tuple(functions))
        budget = self.budget
        if budget is not None and not isinstance(budget, ExplainBudget):
            if isinstance(budget, (Mapping, int, float)) and not isinstance(budget, bool):
                object.__setattr__(self, "budget", ExplainBudget.from_dict(budget))
        strategy = self.strategy
        if isinstance(strategy, (list, tuple)):
            object.__setattr__(self, "strategy", tuple(strategy))
        try:
            object.__setattr__(self, "throttle_seconds", float(self.throttle_seconds))
        except (TypeError, ValueError):
            pass  # validate() rejects non-numbers with a proper message

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`RequestValidationError` unless the request is
        well-formed; also resolves the search configuration so out-of-range
        parameters fail here, at construction, not mid-run."""
        for attr in ("source_csv", "target_csv", "source_path", "target_path"):
            value = getattr(self, attr)
            if value is not None and not isinstance(value, str):
                raise RequestValidationError(f"'{attr}' must be a string")
        for attr in ("name", "config", "engine"):
            if not isinstance(getattr(self, attr), str):
                raise RequestValidationError(f"'{attr}' must be a string")
        if not isinstance(self.use_cache, bool):
            raise RequestValidationError("'use_cache' must be a boolean")
        if (not isinstance(self.priority, int) or isinstance(self.priority, bool)
                or not PRIORITY_MIN <= self.priority <= PRIORITY_MAX):
            raise RequestValidationError(
                f"'priority' must be an integer in "
                f"[{PRIORITY_MIN}, {PRIORITY_MAX}]"
            )
        inline = self.source_csv is not None or self.target_csv is not None
        by_path = self.source_path is not None or self.target_path is not None
        if inline and by_path:
            raise RequestValidationError(
                "snapshots must be inline CSV or paths, not both"
            )
        if inline and (self.source_csv is None or self.target_csv is None):
            raise RequestValidationError(
                "inline submissions need source_csv and target_csv"
            )
        if by_path and (self.source_path is None or self.target_path is None):
            raise RequestValidationError(
                "path submissions need source_path and target_path"
            )
        if not inline and not by_path:
            raise RequestValidationError(
                "no snapshots: provide source_csv/target_csv or source_path/target_path"
            )
        if self.config not in BASE_CONFIGS:
            raise RequestValidationError(
                f"unknown config {self.config!r} (use {sorted(BASE_CONFIGS)})"
            )
        if self.engine not in ENGINES:
            raise RequestValidationError(
                f"unknown engine {self.engine!r} (use {ENGINES})"
            )
        if not isinstance(self.overrides, tuple) or not all(
            isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)
            for pair in self.overrides
        ):
            raise RequestValidationError("'overrides' must be an object")
        if self.functions is not None:
            if not isinstance(self.functions, tuple) or not self.functions or not all(
                isinstance(name, str) and name for name in self.functions
            ):
                raise RequestValidationError(
                    "'functions' must be a non-empty list of registry names"
                )
            if len(set(self.functions)) != len(self.functions):
                raise RequestValidationError("'functions' must not repeat names")
        if self.budget is not None and not isinstance(self.budget, ExplainBudget):
            raise RequestValidationError(
                "'budget' must be a number (deadline_ms), an object or null"
            )
        if self.strategy is not None:
            validate_strategy(self.strategy)
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise RequestValidationError("'delimiter' must be a single character")
        if not isinstance(self.throttle_seconds, float):
            raise RequestValidationError("'throttle_seconds' must be a number")
        if self.throttle_seconds < 0:
            raise RequestValidationError("'throttle_seconds' must be >= 0")
        # Resolving the configuration runs AffidavitConfig.validate() on the
        # base-plus-overrides combination, so α/β/θ/ϱ range errors surface
        # at request construction.
        resolve_config(self)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    @property
    def schema_version(self) -> str:
        """The version this request serializes at: the *lowest* one that can
        represent it.  A request using no v2 feature speaks v1, which keeps
        its payload byte-identical to pre-v2 builds."""
        if self.budget is None and self.strategy is None:
            return SCHEMA_VERSION
        return SCHEMA_VERSION_V2

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering, tagged with the request schema version."""
        payload = {
            "schema_version": self.schema_version,
            "source_csv": self.source_csv,
            "target_csv": self.target_csv,
            "source_path": self.source_path,
            "target_path": self.target_path,
            "delimiter": self.delimiter,
            "config": self.config,
            "overrides": dict(self.overrides),
            "functions": None if self.functions is None else list(self.functions),
            "engine": self.engine,
            "name": self.name,
            "throttle_seconds": self.throttle_seconds,
            "use_cache": self.use_cache,
        }
        if self.priority != 0:
            # Default-priority payloads stay byte-identical to pre-priority
            # builds (and to what their clients round-trip).
            payload["priority"] = self.priority
        if payload["schema_version"] == SCHEMA_VERSION_V2:
            payload["budget"] = None if self.budget is None else self.budget.to_dict()
            payload["strategy"] = None if self.strategy is None else list(self.strategy)
        return payload

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def load_tables(self, data_root: Optional[Path] = None) -> Tuple[Table, Table]:
        """Materialise the two snapshots described by the request.

        When *data_root* is set, paths are resolved inside it and escaping it
        (``..``, absolute paths) is rejected — the confinement the HTTP
        service relies on.
        """
        try:
            if self.source_csv is not None:
                source = read_csv_text(self.source_csv, delimiter=self.delimiter)
                target = read_csv_text(self.target_csv, delimiter=self.delimiter)
                if source.schema != target.schema:
                    raise RequestValidationError(
                        "snapshots have different schemas: "
                        f"{list(source.schema)} vs {list(target.schema)}"
                    )
                return source, target
            source_path = self._resolve(self.source_path, data_root)
            target_path = self._resolve(self.target_path, data_root)
            return read_snapshot_pair(source_path, target_path, delimiter=self.delimiter)
        except (TableError, SchemaError, csv.Error) as error:
            # Any malformed snapshot payload — bad header names, ragged rows,
            # CSV syntax errors — is an invalid *request*, never a crash.
            raise RequestValidationError(str(error)) from error
        except OSError as error:
            raise RequestValidationError(f"cannot read snapshot: {error}") from error

    @staticmethod
    def _resolve(raw: str, data_root: Optional[Path]) -> Path:
        path = Path(raw)
        if data_root is None:
            return path
        resolved = (data_root / path).resolve()
        root = data_root.resolve()
        if root not in resolved.parents and resolved != root:
            raise RequestValidationError(f"path escapes the served data root: {raw!r}")
        return resolved


def named_config(name: str) -> AffidavitConfig:
    """The named base configuration (``"hid"`` or ``"hs"``)."""
    factory = BASE_CONFIGS.get(name)
    if factory is None:
        raise RequestValidationError(
            f"unknown config {name!r} (use {sorted(BASE_CONFIGS)})"
        )
    return factory()


def config_with_overrides(base: AffidavitConfig, overrides: Mapping[str, Any],
                          engine: Optional[str] = None) -> AffidavitConfig:
    """*base* with request-style *overrides* applied, fully validated.

    Only :data:`CONFIG_OVERRIDE_FIELDS` are accepted.  The
    :data:`LEGACY_OVERRIDE_FIELDS` are checked by :func:`_drop_legacy` and
    then ignored, and an integer string is accepted for ``max_expansions``.
    An *engine* selects ``columnar_cache`` unless the overrides set it
    explicitly (which keeps pre-``engine`` clients working); ``None`` leaves
    the base's engine alone.
    """
    overrides = dict(overrides)
    unknown = set(overrides) - set(CONFIG_OVERRIDE_FIELDS)
    if unknown:
        raise RequestValidationError(f"unknown config overrides: {sorted(unknown)}")
    _drop_legacy(overrides, ENGINE_COLUMNAR if engine is None else engine)
    max_expansions = overrides.get("max_expansions")
    if isinstance(max_expansions, str):
        # Integer strings ("7") are accepted; anything else is left to
        # AffidavitConfig.validate(), which takes only true integers.
        try:
            overrides["max_expansions"] = int(max_expansions)
        except ValueError:
            raise RequestValidationError(
                f"invalid config overrides: max_expansions must be an integer, "
                f"got {max_expansions!r}"
            ) from None
    if engine is not None and "columnar_cache" not in overrides:
        overrides["columnar_cache"] = engine != ENGINE_ROWWISE
    try:
        return base.with_overrides(**overrides)
    except (TypeError, ValueError) as error:
        raise RequestValidationError(f"invalid config overrides: {error}") from error


def resolve_config(request: Optional[ExplainRequest]) -> AffidavitConfig:
    """The search configuration a request asks for: its named base with its
    overrides and engine choice applied on top (see
    :func:`config_with_overrides`).  ``engine="parallel"`` runs as the
    columnar engine.
    """
    if request is None:
        return identity_configuration()
    return config_with_overrides(
        named_config(request.config), dict(request.overrides), request.engine
    )


def _drop_legacy(overrides: Dict[str, Any], engine: str) -> None:
    """Validate the :data:`LEGACY_OVERRIDE_FIELDS` exactly as the builds that
    honoured them did, then remove them.

    The cache bounds had to be integers >= 1 (``bool`` rejected).
    ``blocking_codes`` was never validated.  Builds with the parallel engine
    rejected a non-integer or negative ``parallel_workers``, a ``bool`` one
    with ``engine="parallel"``, a count above 1 with any other engine, and a
    count above 1 — or the default, several workers on a multi-core host —
    combined with the row-wise engine."""
    overrides.pop("blocking_codes", None)
    for name in ("column_cache_entries", "blocking_cache_size"):
        if name not in overrides:
            continue
        value = overrides.pop(name)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise RequestValidationError(
                f"invalid config overrides: {name} must be an integer >= 1, "
                f"got {value!r}"
            )
    if "parallel_workers" not in overrides and engine != ENGINE_PARALLEL:
        return
    workers = overrides.pop("parallel_workers", None)
    is_int = isinstance(workers, int) and not isinstance(workers, bool)
    if engine == ENGINE_PARALLEL:
        if workers is None:
            workers = 2
        elif not is_int:
            raise RequestValidationError(
                f"'parallel_workers' must be an integer, got {workers!r}"
            )
    elif is_int and workers > 1:
        raise RequestValidationError(
            "the 'parallel_workers' override needs engine='parallel' "
            f"(requested engine {engine!r})"
        )
    if not isinstance(workers, int) or workers < 0:
        raise RequestValidationError(
            f"invalid config overrides: parallel_workers must be an integer "
            f">= 0, got {workers!r}"
        )
    if workers > 1 and not overrides.get("columnar_cache", True):
        raise RequestValidationError(
            "invalid config overrides: parallel_workers > 1 requires the "
            "columnar engine (columnar_cache=True)"
        )


def subset_registry(base: FunctionRegistry,
                    names: Sequence[str]) -> FunctionRegistry:
    """*base* restricted to the named meta-function families."""
    try:
        return base.subset(names)
    except KeyError as error:
        raise RequestValidationError(
            f"unknown meta functions {sorted(set(names) - set(base.names))} "
            f"(available: {base.names})"
        ) from error


def resolve_registry(request: Optional[ExplainRequest],
                     base: Optional[FunctionRegistry] = None) -> FunctionRegistry:
    """The meta-function pool a request asks for: the *base* registry (the
    session's, or the default pool) restricted to ``request.functions``."""
    registry = base if base is not None else default_registry()
    if request is None or request.functions is None:
        return registry
    return subset_registry(registry, request.functions)


@dataclass(frozen=True)
class PreparedRun:
    """A request resolved by a session, ready to search.

    :meth:`~repro.api.session.ExplainSession.prepare` builds it: the loaded
    problem instance (with its function pool), the configuration the search
    runs with, and how long loading took.  Everything that runs or labels
    the request reads it from here, so one request is loaded, resolved and
    keyed once.
    """

    instance: ProblemInstance
    config: AffidavitConfig
    #: The originating request; ``None`` for runs on a bare instance.
    request: Optional[ExplainRequest] = None
    load_seconds: float = 0.0
    #: The ``provenance.base_config`` label: the request's named base, or
    #: ``None`` when no request named the configuration that runs (a
    #: session's pinned configuration, or no request at all).
    base_config: Optional[str] = None
