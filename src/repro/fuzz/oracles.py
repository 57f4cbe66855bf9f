"""Invariant oracles: what must hold for EVERY input, mutated or not.

Each oracle takes a fuzzing input and raises :class:`OracleFailure` when an
invariant breaks; anything else the engines raise (beyond the documented
validation errors) is converted into a failure too, so crashes are findings,
not fuzzer errors.  The oracles:

``engines_agree``
    The same snapshot pair explained by the production columnar engine and
    the row-wise reference engine produces bit-identical explanations,
    costs and alignments — the differential core of the harness.
``bounds_sound``
    ``BlockingResult.refined_bounds`` (the bounds-only fast path) equals the
    bounds of the materialised refined blocking and ``unaligned_bounds``
    matches a recount over the blocks, under both the columnar engine's
    code components and the row-wise engine's string components.
``codec_roundtrip``
    ``Column.dictionary()`` decodes back to the column;
    :class:`~repro.core.colcache.AttributeCodec` is a bijection that never
    hands a real value the reserved ``NOT_APPLICABLE`` code.
``serialization_roundtrip``
    Requests and outcomes survive ``to_dict``/``from_dict`` through real
    JSON.
``buffer_roundtrip``
    The binary columnar container (``pack_tables``/``unpack_tables`` and
    the on-disk snapshot cache) is a fixed point: codes→buffer→codes
    reproduces every cell, packing is deterministic, a snapshot loaded from
    a cache file equals the in-memory load, and *corrupted* container bytes
    either raise :class:`BufferFormatError` or still decode into
    structurally sound tables — never any other exception.
``budget_respected``
    A budgeted run answers within a deadline-derived wall-clock envelope,
    names a known tier/confidence whose label agrees with the cost (an
    ``approximate`` or ``partial`` answer beats the trivial cost, a
    ``trivial`` one does not), and its explanation is valid.
``payload_parses``
    ``ExplainRequest.from_dict`` on arbitrary decoded JSON either succeeds
    or raises ``RequestValidationError`` — never any other exception.
``service_survives``
    The live HTTP service answers an arbitrary request body with a 2xx/4xx
    and — on errors — a well-formed ``affidavit.error/v1`` envelope, never a
    500.  Accepted submissions are followed through ``/events``: the stream
    must never 5xx, every line must parse as an ``affidavit.event/v1`` frame
    with strictly increasing sequences, and the terminal frame's state must
    match what polling the job reports.  A ``done`` job must then serve its
    result as ``json``, ``sql`` and ``report`` with a 200.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api import (
    ExplainBudget,
    ExplainRequest,
    ExplainSession,
    RequestValidationError,
    parse_frame,
)
from ..api.budget import (
    CONFIDENCE_APPROXIMATE,
    CONFIDENCE_BASELINE,
    CONFIDENCE_LABELS,
    CONFIDENCE_PARTIAL,
    CONFIDENCE_TRIVIAL,
    TIERS,
)
from ..api.outcome import ExplainOutcome
from ..core import Affidavit, ProblemInstance, identity_configuration
from ..dataio import TableError
from ..core.blocking import build_blocking, refine_blocking, refine_blocking_bounds
from ..core.colcache import NOT_APPLICABLE, NOT_APPLICABLE_CODE, AttributeCodec, ColumnCache
from ..core.search_state import SearchState
from ..export import explanation_to_dict
from ..functions import default_registry
from ..functions.identity import IDENTITY
from .corpus import SnapshotPair

#: Expansion cap for fuzzing runs: the oracles compare *end results*, so a
#: bounded search keeps per-input latency in the tens of milliseconds while
#: still walking induction, ranking, refinement and finalisation.
FUZZ_MAX_EXPANSIONS = 200

#: The engine pair ``engines_agree`` compares: the row-wise reference first,
#: then the production columnar engine.
ENGINE_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "rowwise": {"columnar_cache": False},
    "columnar": {"columnar_cache": True},
}

DEFAULT_ENGINES: Tuple[str, ...] = ("rowwise", "columnar")

#: Statuses the HTTP service may answer a fuzzer-crafted body with.
ACCEPTABLE_HTTP_STATUSES = frozenset({200, 202, 400, 404, 409, 413})


@dataclass
class OracleFailure(AssertionError):
    """One broken invariant: which oracle, what happened, enough detail to
    reproduce."""

    oracle: str
    message: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"[{self.oracle}] {self.message}"
        if self.detail:
            text += f"\n{self.detail}"
        return text


class InputOutOfDomain(Exception):
    """The pair violates the engines' input contract (e.g. a raw cell equal
    to the reserved NOT_APPLICABLE sentinel): every oracle skips it — a
    *rejection* at the boundary is correct behaviour, not a finding."""


def _instance(pair: SnapshotPair, functions: Optional[Sequence[str]] = None,
              ) -> ProblemInstance:
    """A fresh frozen instance per engine run (caches must not be shared)."""
    source, target = pair.copies()
    registry = default_registry()
    if functions is not None:
        registry = registry.subset(functions)
    try:
        return ProblemInstance(source=source, target=target, registry=registry,
                               name="fuzz")
    except TableError as error:
        raise InputOutOfDomain(str(error)) from error


def _guard(oracle: str, error: BaseException) -> OracleFailure:
    """An unexpected engine exception, wrapped as a finding."""
    return OracleFailure(
        oracle=oracle,
        message=f"engine raised {type(error).__name__}: {error}",
    )


# ---------------------------------------------------------------------- #
# engine agreement
# ---------------------------------------------------------------------- #
def _fingerprint(result) -> Dict[str, Any]:
    """The bit-identity surface of one run: everything two agreeing engines
    must produce equally, rendered JSON-stable."""
    explanation = result.explanation
    return {
        "cost": result.cost,
        "trivial_cost": result.trivial_cost,
        "explanation": explanation_to_dict(explanation),
        "alignment": sorted(explanation.alignment.items()),
        "deleted": list(explanation.deleted_source_ids),
        "inserted": list(explanation.inserted_target_ids),
        "expansions": result.expansions,
        "generated_states": result.generated_states,
    }


def run_engine(pair: SnapshotPair, engine: str, *, seed: int = 0,
               max_expansions: int = FUZZ_MAX_EXPANSIONS):
    """One bounded search of *pair* under the named engine configuration."""
    overrides = ENGINE_OVERRIDES[engine]
    config = identity_configuration(seed=seed, max_expansions=max_expansions,
                                    **overrides)
    return Affidavit(config).explain(_instance(pair))


def engines_agree(pair: SnapshotPair, *, seed: int = 0,
                  engines: Sequence[str] = DEFAULT_ENGINES,
                  max_expansions: int = FUZZ_MAX_EXPANSIONS) -> None:
    """All engines produce bit-identical results, and the result is valid."""
    fingerprints: List[Tuple[str, Dict[str, Any]]] = []
    for engine in engines:
        try:
            result = run_engine(pair, engine, seed=seed,
                                max_expansions=max_expansions)
        except InputOutOfDomain:
            return
        except Exception as error:  # noqa: BLE001 - crashes are findings
            raise _guard(f"engines_agree:{engine}", error) from error
        fingerprints.append((engine, _fingerprint(result)))
    reference_engine, reference = fingerprints[0]
    for engine, fingerprint in fingerprints[1:]:
        if fingerprint != reference:
            diverging = sorted(
                key for key in reference
                if fingerprint.get(key) != reference.get(key)
            )
            raise OracleFailure(
                oracle="engines_agree",
                message=(f"{engine} diverges from {reference_engine} "
                         f"on {diverging}"),
                detail=json.dumps(
                    {reference_engine: {k: reference[k] for k in diverging},
                     engine: {k: fingerprint[k] for k in diverging}},
                    default=str, sort_keys=True)[:2000],
            )
    # Soundness on top of agreement: the (shared) explanation must satisfy
    # Definition 3.5 against the instance.
    try:
        result = run_engine(pair, reference_engine, seed=seed,
                            max_expansions=max_expansions)
        result.explanation.validate(_instance(pair))
    except InputOutOfDomain:
        return
    except OracleFailure:
        raise
    except Exception as error:  # noqa: BLE001
        raise OracleFailure(
            oracle="engines_agree",
            message=f"winning explanation is invalid: {error}",
        ) from error


# ---------------------------------------------------------------------- #
# blocking-bounds soundness
# ---------------------------------------------------------------------- #
def _recount_bounds(blocking) -> Tuple[int, int]:
    target_bound = source_bound = 0
    for block in blocking.views():
        delta = len(block.target_ids) - len(block.source_ids)
        if delta > 0:
            target_bound += delta
        elif delta < 0:
            source_bound -= delta
    return target_bound, source_bound


def bounds_sound(pair: SnapshotPair, *, seed: int = 0) -> None:
    """Bounds-only refinement equals materialised refinement, for both the
    columnar (code) and the row-wise (string) blocking components, attribute
    by attribute."""
    identity = IDENTITY
    for columnar in (False, True):
        try:
            instance = _instance(pair)
            cache = ColumnCache(instance.source, enabled=columnar)
            state = SearchState.empty(instance.schema)
            blocking = build_blocking(instance, state, cache)
            observed = blocking.unaligned_bounds()
            recount = _recount_bounds(blocking)
            if observed != recount:
                raise OracleFailure(
                    oracle="bounds_sound",
                    message=(f"unaligned_bounds {observed} != recount {recount} "
                             f"(columnar={columnar}, empty state)"),
                )
            for attribute in instance.schema:
                fast = refine_blocking_bounds(instance, blocking, attribute,
                                              identity, cache)
                materialised = refine_blocking(instance, blocking, attribute,
                                               identity, cache)
                slow = materialised.unaligned_bounds()
                if fast != slow:
                    raise OracleFailure(
                        oracle="bounds_sound",
                        message=(f"refined_bounds {fast} != materialised "
                                 f"{slow} on {attribute!r} "
                                 f"(columnar={columnar})"),
                    )
                recount = _recount_bounds(materialised)
                if slow != recount:
                    raise OracleFailure(
                        oracle="bounds_sound",
                        message=(f"unaligned_bounds {slow} != recount "
                                 f"{recount} on {attribute!r} "
                                 f"(columnar={columnar})"),
                    )
                blocking = materialised
        except InputOutOfDomain:
            return
        except OracleFailure:
            raise
        except Exception as error:  # noqa: BLE001
            raise _guard("bounds_sound", error) from error


# ---------------------------------------------------------------------- #
# codec round-trips
# ---------------------------------------------------------------------- #
def codec_roundtrip(pair: SnapshotPair, **_ignored) -> None:
    """Dictionary encodings decode back; codecs are per-attribute bijections."""
    try:
        codecs = {name: AttributeCodec() for name in pair.source.schema}
        for table in (pair.source, pair.target):
            for attribute in table.schema:
                column = table.column_view(attribute)
                codes, codebook = column.dictionary()
                if len(codes) != len(column):
                    raise OracleFailure(
                        oracle="codec_roundtrip",
                        message=(f"dictionary of {attribute!r} has "
                                 f"{len(codes)} codes for {len(column)} cells"),
                    )
                if len(codebook) != column.distinct_count():
                    raise OracleFailure(
                        oracle="codec_roundtrip",
                        message=(f"codebook of {attribute!r} has "
                                 f"{len(codebook)} entries for "
                                 f"{column.distinct_count()} distinct values"),
                    )
                decode = {code: value for value, code in codebook.items()}
                if len(decode) != len(codebook):
                    raise OracleFailure(
                        oracle="codec_roundtrip",
                        message=f"codebook of {attribute!r} is not injective",
                    )
                for index, cell in enumerate(column):
                    if decode[codes[index]] != cell:
                        raise OracleFailure(
                            oracle="codec_roundtrip",
                            message=(f"cell {index} of {attribute!r} decodes to "
                                     f"{decode[codes[index]]!r}, not {cell!r}"),
                        )
                codec = codecs[attribute]
                seen: Dict[int, str] = {}
                for cell in column:
                    code = codec.encode(cell)
                    if codec.encode(cell) != code:
                        raise OracleFailure(
                            oracle="codec_roundtrip",
                            message=f"codec of {attribute!r} is unstable on {cell!r}",
                        )
                    if cell != NOT_APPLICABLE and code == NOT_APPLICABLE_CODE:
                        raise OracleFailure(
                            oracle="codec_roundtrip",
                            message=(f"real value {cell!r} of {attribute!r} got "
                                     "the reserved NOT_APPLICABLE code"),
                        )
                    previous = seen.get(code)
                    if previous is not None and previous != cell:
                        raise OracleFailure(
                            oracle="codec_roundtrip",
                            message=(f"codec of {attribute!r} maps {previous!r} "
                                     f"and {cell!r} to code {code}"),
                        )
                    seen[code] = cell
    except OracleFailure:
        raise
    except Exception as error:  # noqa: BLE001
        raise _guard("codec_roundtrip", error) from error


# ---------------------------------------------------------------------- #
# serialization round-trips
# ---------------------------------------------------------------------- #
def serialization_roundtrip(pair: SnapshotPair, *, seed: int = 0) -> None:
    """Request and outcome survive a real JSON wire trip, bit-identically."""
    try:
        # The session rejects a pair outside the snapshot contract as an
        # invalid request; skip it here, as every oracle does.
        _instance(pair)
        request = ExplainRequest.inline(
            pair.source.copy(), pair.target.copy(),
            overrides={"seed": seed, "max_expansions": FUZZ_MAX_EXPANSIONS},
        )
        wire = json.loads(json.dumps(request.to_dict()))
        rebuilt = ExplainRequest.from_dict(wire)
        if rebuilt != request:
            raise OracleFailure(
                oracle="serialization_roundtrip",
                message="request changed across to_dict/from_dict",
            )
        session = ExplainSession()
        outcome = session.explain(request)
        outcome_wire = json.loads(json.dumps(outcome.to_dict()))
        rebuilt_outcome = ExplainOutcome.from_dict(outcome_wire)
        before = explanation_to_dict(outcome.explanation)
        after = explanation_to_dict(rebuilt_outcome.explanation)
        if before != after:
            raise OracleFailure(
                oracle="serialization_roundtrip",
                message="explanation changed across outcome to_dict/from_dict",
            )
        if rebuilt_outcome.to_dict() != outcome.to_dict():
            raise OracleFailure(
                oracle="serialization_roundtrip",
                message="outcome dict is not a fixed point of from_dict/to_dict",
            )
    except (InputOutOfDomain, TableError):
        return  # the pair violates the snapshot contract; rejection is correct
    except OracleFailure:
        raise
    except RequestValidationError as error:
        # The pair itself may be unexplainable as a request (e.g. a mutator
        # emptied a snapshot) — a *rejection* is fine, a crash is not.
        raise OracleFailure(
            oracle="serialization_roundtrip",
            message=f"inline request rejected: {error}",
        ) from error
    except Exception as error:  # noqa: BLE001
        raise _guard("serialization_roundtrip", error) from error


# ---------------------------------------------------------------------- #
# binary buffer round-trips
# ---------------------------------------------------------------------- #
#: How many independently mutated corruptions of the packed container each
#: ``buffer_roundtrip`` run probes.
BUFFER_CORRUPTION_PROBES = 6


def _table_cells(table) -> List[List[str]]:
    return [list(table.column_view(attribute)) for attribute in table.schema]


def buffer_roundtrip(pair: SnapshotPair, *, seed: int = 0, **_ignored) -> None:
    """The packed buffer container is a lossless, deterministic fixed point,
    the snapshot file load equals the in-memory load, and corrupt bytes are
    always a :class:`BufferFormatError` (or decode to sound tables)."""
    import random as random_module
    import tempfile
    from pathlib import Path

    from ..dataio.buffers import (
        BufferFormatError,
        open_snapshot_pair,
        pack_tables,
        unpack_tables,
        write_snapshot_pair,
    )
    from .mutators import mutate_buffer

    source, target = pair.copies()
    expected = [_table_cells(source), _table_cells(target)]
    try:
        blob = pack_tables([source, target], name="fuzz")
        tables, _extra, name = unpack_tables(blob)
        if name != "fuzz" or len(tables) != 2:
            raise OracleFailure(
                oracle="buffer_roundtrip",
                message=f"unpack returned {len(tables)} tables, name {name!r}",
            )
        decoded = [_table_cells(table) for table in tables]
        if decoded != expected:
            raise OracleFailure(
                oracle="buffer_roundtrip",
                message="codes→buffer→codes is not a fixed point",
            )
        # Re-packing the unpacked tables must be bit-stable:
        # the pack is content-addressed by the snapshot cache.
        if pack_tables(tables, name="fuzz") != blob:
            raise OracleFailure(
                oracle="buffer_roundtrip",
                message="re-packing unpacked tables changed the bytes",
            )
        with tempfile.TemporaryDirectory(prefix="fuzz-afbuf-") as tmp:
            path = Path(tmp) / "pair.afbuf"
            write_snapshot_pair(source, target, path, name="fuzz")
            loaded_source, loaded_target, _name = open_snapshot_pair(path)
            loaded = [_table_cells(loaded_source), _table_cells(loaded_target)]
            if loaded != expected:
                raise OracleFailure(
                    oracle="buffer_roundtrip",
                    message="snapshot loaded from file differs from in-memory load",
                )
    except OracleFailure:
        raise
    except Exception as error:  # noqa: BLE001
        raise _guard("buffer_roundtrip", error) from error

    rng = random_module.Random(seed)
    for _probe in range(BUFFER_CORRUPTION_PROBES):
        corrupted, chain = mutate_buffer(blob, rng)
        try:
            tables, _extra, _name = unpack_tables(corrupted)
            for table in tables:  # read every cell back out
                _table_cells(table)
        except BufferFormatError:
            continue  # detected corruption is the documented outcome
        except OracleFailure:
            raise
        except Exception as error:  # noqa: BLE001
            raise OracleFailure(
                oracle="buffer_roundtrip",
                message=(f"corrupt container raised {type(error).__name__} "
                         f"instead of BufferFormatError: {error}"),
                detail=f"mutation chain: {chain}",
            ) from error
        for table in tables:
            for attribute in table.schema:
                if len(table.column_view(attribute)) != table.n_rows:
                    raise OracleFailure(
                        oracle="buffer_roundtrip",
                        message="corrupt container decoded to a ragged table",
                        detail=f"mutation chain: {chain}",
                    )


# ---------------------------------------------------------------------- #
# budget envelope
# ---------------------------------------------------------------------- #
#: Wall-clock envelope of a budgeted run: generous (fuzz boxes are noisy and
#: the chain's finalisation is allowed to overrun the deadline briefly), but
#: tight enough that a hang or an unbounded fallback walk is a finding.
BUDGET_SLACK_FACTOR = 20.0
BUDGET_SLACK_FLOOR_SECONDS = 2.0


def budget_respected(pair: SnapshotPair, *, seed: int = 0,
                     deadline_ms: float = 50.0) -> None:
    """A budgeted run answers inside the deadline envelope with a valid,
    vocabulary-conforming tier verdict."""
    try:
        instance = _instance(pair)
        session = ExplainSession().with_config(
            "hid", seed=seed, max_expansions=FUZZ_MAX_EXPANSIONS
        ).with_budget(ExplainBudget(deadline_ms=deadline_ms))
        started = time.perf_counter()
        outcome = session.explain_instance(instance)
        elapsed = time.perf_counter() - started
        envelope = max(
            deadline_ms / 1000.0 * BUDGET_SLACK_FACTOR, BUDGET_SLACK_FLOOR_SECONDS
        )
        if elapsed > envelope:
            raise OracleFailure(
                oracle="budget_respected",
                message=(f"budgeted run took {elapsed:.2f}s against a "
                         f"{deadline_ms:.0f}ms deadline (envelope "
                         f"{envelope:.2f}s)"),
            )
        if outcome.provenance.tier not in TIERS:
            raise OracleFailure(
                oracle="budget_respected",
                message=f"unknown answering tier {outcome.provenance.tier!r}",
            )
        if outcome.provenance.confidence not in CONFIDENCE_LABELS:
            raise OracleFailure(
                oracle="budget_respected",
                message=(f"unknown confidence "
                         f"{outcome.provenance.confidence!r}"),
            )
        confidence = outcome.provenance.confidence
        at_trivial = outcome.cost >= outcome.trivial_cost
        if (confidence in (CONFIDENCE_APPROXIMATE, CONFIDENCE_PARTIAL,
                           CONFIDENCE_BASELINE) and at_trivial) \
                or (confidence == CONFIDENCE_TRIVIAL and not at_trivial):
            raise OracleFailure(
                oracle="budget_respected",
                message=(f"labelled {confidence!r} at cost {outcome.cost} "
                         f"against the trivial cost {outcome.trivial_cost}"),
            )
        outcome.explanation.validate(_instance(pair))
    except InputOutOfDomain:
        return
    except OracleFailure:
        raise
    except Exception as error:  # noqa: BLE001
        raise _guard("budget_respected", error) from error


# ---------------------------------------------------------------------- #
# payload handling (library level)
# ---------------------------------------------------------------------- #
def payload_parses(payload_text: str, **_ignored) -> None:
    """The request parser rejects bad payloads with RequestValidationError —
    any other exception type is a crash, i.e. a finding."""
    try:
        decoded = json.loads(payload_text)
    except (ValueError, RecursionError):
        return  # malformed JSON never reaches from_dict; the HTTP layer 400s
    try:
        ExplainRequest.from_dict(decoded)
    except RequestValidationError:
        return
    except RecursionError:
        return  # absurd nesting is the JSON layer's concern, not a crash
    except Exception as error:  # noqa: BLE001
        raise OracleFailure(
            oracle="payload_parses",
            message=(f"from_dict raised {type(error).__name__} instead of "
                     f"RequestValidationError: {error}"),
            detail=payload_text[:500],
        ) from error


# ---------------------------------------------------------------------- #
# payload handling (HTTP level)
# ---------------------------------------------------------------------- #
class ServiceOracle:
    """A lazily started in-process HTTP service the payload inputs hit.

    One instance is shared across a whole fuzzing run; ``close()`` tears the
    server down.  The oracle asserts that *whatever* body is posted, the
    answer is a documented status (never 5xx) and — for error statuses — a
    structured JSON error object.
    """

    def __init__(self):
        self._server = None
        self._thread = None

    def _ensure_server(self):
        if self._server is None:
            import threading

            from ..service.server import create_server

            self._server = create_server(port=0, workers=1, verbose=False)
            self._thread = threading.Thread(
                target=self._server.serve_forever, daemon=True,
                name="fuzz-service-oracle",
            )
            self._thread.start()
        return self._server

    def check(self, payload_text: str, **_ignored) -> None:
        import urllib.error
        import urllib.request

        server = self._ensure_server()
        host, port = server.server_address[:2]
        body = payload_text.encode("utf-8", errors="surrogatepass")
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/explain", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as error:
            status, raw = error.code, error.read()
        except OSError as error:
            raise OracleFailure(
                oracle="service_survives",
                message=f"service connection failed: {error}",
                detail=payload_text[:500],
            ) from error
        if status not in ACCEPTABLE_HTTP_STATUSES:
            raise OracleFailure(
                oracle="service_survives",
                message=f"service answered HTTP {status}",
                detail=f"payload: {payload_text[:500]!r}\nbody: {raw[:500]!r}",
            )
        if status >= 400:
            self._assert_error_envelope(status, raw, payload_text)
            return
        # The submission was accepted (200 cache hit or 202 queued): the
        # events route must stream clean frames to a terminal state.
        try:
            job_id = json.loads(raw.decode("utf-8")).get("id")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise OracleFailure(
                oracle="service_survives",
                message=f"HTTP {status} submission body is not JSON: {error}",
                detail=raw[:500].decode("utf-8", "replace"),
            ) from error
        if isinstance(job_id, str) and job_id:
            self._check_events(host, port, job_id)

    def _assert_error_envelope(self, status: int, raw: bytes,
                               context: str) -> None:
        """Every error body must be a full ``affidavit.error/v1`` envelope."""
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise OracleFailure(
                oracle="service_survives",
                message=f"HTTP {status} body is not JSON: {error}",
                detail=raw[:500].decode("utf-8", "replace"),
            ) from error
        problems = []
        if not isinstance(payload, dict):
            problems.append("body is not an object")
        else:
            if payload.get("schema_version") != "affidavit.error/v1":
                problems.append(
                    f"schema_version is {payload.get('schema_version')!r}")
            for key in ("code", "message", "error"):
                if not isinstance(payload.get(key), str) or not payload[key]:
                    problems.append(f"{key!r} is not a non-empty string")
            if isinstance(payload.get("error"), str) \
                    and payload.get("error") != payload.get("message"):
                problems.append("legacy 'error' alias differs from 'message'")
        if problems:
            raise OracleFailure(
                oracle="service_survives",
                message=(f"HTTP {status} body is not a valid error envelope: "
                         f"{'; '.join(problems)}"),
                detail=f"context: {context[:300]!r}\nbody: {raw[:500]!r}",
            )

    def _get(self, url: str, timeout: float = 30.0):
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()
        except OSError as error:
            raise OracleFailure(
                oracle="service_survives",
                message=f"service connection failed: {error}",
                detail=url,
            ) from error

    def _check_events(self, host: str, port: int, job_id: str) -> None:
        """Stream the job's events and cross-check the terminal frame."""
        base = f"http://{host}:{port}/v1/jobs/{job_id}"
        # A junk cursor must be a clean 400 with the envelope, never a 5xx.
        status, raw = self._get(f"{base}/events?after=junk&wait=0")
        if status != 400:
            raise OracleFailure(
                oracle="service_survives",
                message=f"junk event cursor answered HTTP {status}, not 400",
                detail=raw[:500].decode("utf-8", "replace"),
            )
        self._assert_error_envelope(status, raw, f"{base}/events?after=junk")
        status, raw = self._get(f"{base}/events?wait=20&heartbeat=0.2")
        if status != 200:
            raise OracleFailure(
                oracle="service_survives",
                message=f"events stream answered HTTP {status}",
                detail=raw[:500].decode("utf-8", "replace"),
            )
        terminal = None
        last_sequence = 0
        for line in raw.decode("utf-8").splitlines():
            if not line.strip():
                continue
            try:
                frame = parse_frame(json.loads(line))
            except Exception as error:  # noqa: BLE001 - bad frame = finding
                raise OracleFailure(
                    oracle="service_survives",
                    message=(f"event stream line is not a valid frame: "
                             f"{type(error).__name__}: {error}"),
                    detail=line[:500],
                ) from error
            if frame.sequence is not None:
                if frame.sequence <= last_sequence:
                    raise OracleFailure(
                        oracle="service_survives",
                        message=(f"event sequence went {last_sequence} -> "
                                 f"{frame.sequence}"),
                        detail=line[:500],
                    )
                last_sequence = frame.sequence
            if frame.terminal:
                terminal = frame
        if terminal is None:
            # The wait deadline expired before the job finished; cancel so
            # slow fuzz jobs cannot pile up behind the single worker.
            self._delete(f"{base}")
            return
        status, raw = self._get(base)
        if status != 200:
            raise OracleFailure(
                oracle="service_survives",
                message=(f"job poll after terminal frame answered "
                         f"HTTP {status}"),
                detail=raw[:500].decode("utf-8", "replace"),
            )
        view = json.loads(raw.decode("utf-8"))
        frame_state = terminal.payload.get("state")
        if view.get("state") != frame_state:
            raise OracleFailure(
                oracle="service_survives",
                message=(f"terminal frame says {frame_state!r} but polling "
                         f"says {view.get('state')!r}"),
                detail=json.dumps({"frame": terminal.payload,
                                   "view": view})[:800],
            )
        if frame_state == "done":
            self._check_results(base)

    def _check_results(self, base: str) -> None:
        """A done job serves its result in every format with a 200."""
        for fmt in ("json", "sql", "report"):
            url = f"{base}/result?format={fmt}"
            status, raw = self._get(url)
            if status == 200:
                continue
            if 400 <= status < 500:
                self._assert_error_envelope(status, raw, url)
            raise OracleFailure(
                oracle="service_survives",
                message=f"result of a done job as {fmt} answered HTTP {status}",
                detail=raw[:500].decode("utf-8", "replace"),
            )

    def _delete(self, url: str) -> None:
        import urllib.error
        import urllib.request

        request = urllib.request.Request(url, method="DELETE")
        try:
            with urllib.request.urlopen(request, timeout=30):
                pass
        except (urllib.error.HTTPError, OSError):
            pass  # best-effort cleanup only

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.shutdown_service()
            self._server = None
            self._thread = None


#: Oracle registries, keyed by the names corpus entries and the CLI use.
SNAPSHOT_ORACLES = {
    "engines_agree": engines_agree,
    "bounds_sound": bounds_sound,
    "codec_roundtrip": codec_roundtrip,
    "serialization_roundtrip": serialization_roundtrip,
    "buffer_roundtrip": buffer_roundtrip,
    "budget_respected": budget_respected,
}

PAYLOAD_ORACLES = {
    "payload_parses": payload_parses,
}


__all__ = [
    "ACCEPTABLE_HTTP_STATUSES",
    "DEFAULT_ENGINES",
    "ENGINE_OVERRIDES",
    "FUZZ_MAX_EXPANSIONS",
    "InputOutOfDomain",
    "OracleFailure",
    "PAYLOAD_ORACLES",
    "SNAPSHOT_ORACLES",
    "ServiceOracle",
    "budget_respected",
    "bounds_sound",
    "buffer_roundtrip",
    "codec_roundtrip",
    "engines_agree",
    "payload_parses",
    "run_engine",
    "serialization_roundtrip",
]
