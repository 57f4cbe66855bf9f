"""Typed streaming events of :meth:`~repro.api.ExplainSession.explain_iter`.

The core search reports liveness through its ``progress`` run argument
(:class:`~repro.core.Affidavit`); the session turns that callback stream
into a typed iterator so interactive callers (TUIs, server-sent events,
notebooks) can consume progress without wiring callbacks themselves:

    started  ->  progressed*  ->  completed

Every event carries ``kind`` for payload-style dispatch.  The service's
``started`` and ``progressed`` frames are these same events' ``to_dict()``
under the frame envelope.

The module also defines the **wire framing** of these events for the service's
``GET /v1/jobs/<id>/events`` stream: versioned ``affidavit.event/v1`` frames
(:func:`make_frame`), the heartbeat/truncation frames the stream interleaves,
and the strict :func:`parse_frame` validator that round-trips them.  Frames
are plain JSON objects — one per NDJSON line, or one per SSE ``data:`` block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..core import SearchProgress, engine_name
from .errors import RequestValidationError, UnsupportedSchemaVersion
from .outcome import ExplainOutcome
from .request import PreparedRun


@dataclass(frozen=True)
class SearchEvent:
    """Base class of all streaming events."""

    kind = "event"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind}


@dataclass(frozen=True)
class SearchStarted(SearchEvent):
    """Emitted once, before the first expansion."""

    name: str
    n_source_records: int
    n_target_records: int
    n_attributes: int
    engine: str

    kind = "started"

    @classmethod
    def of(cls, run: PreparedRun) -> "SearchStarted":
        """The start event of *run*."""
        instance = run.instance
        return cls(
            name=instance.name,
            n_source_records=instance.n_source_records,
            n_target_records=instance.n_target_records,
            n_attributes=instance.n_attributes,
            engine=engine_name(run.config),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "n_source_records": self.n_source_records,
            "n_target_records": self.n_target_records,
            "n_attributes": self.n_attributes,
            "engine": self.engine,
        }


@dataclass(frozen=True)
class SearchProgressed(SearchEvent):
    """Emitted once per state expansion, wrapping the core's progress
    snapshot."""

    progress: SearchProgress

    kind = "progressed"

    @property
    def expansions(self) -> int:
        return self.progress.expansions

    @property
    def best_cost(self) -> Optional[float]:
        return self.progress.best_cost

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "expansions": self.progress.expansions,
            "generated_states": self.progress.generated_states,
            "queue_size": self.progress.queue_size,
            "best_cost": self.progress.best_cost,
            "cache_hit_rate": round(self.progress.cache_hit_rate, 4),
        }


@dataclass(frozen=True)
class SearchCompleted(SearchEvent):
    """Emitted once, after the search finished (or was cancelled — check
    ``outcome.cancelled``)."""

    outcome: ExplainOutcome

    kind = "completed"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "outcome": self.outcome.to_dict()}


# --------------------------------------------------------------------------
# Wire framing (``affidavit.event/v1``)
# --------------------------------------------------------------------------

EVENT_SCHEMA_VERSION = "affidavit.event/v1"

#: Every frame kind the stream may emit.  ``started``/``progressed`` mirror
#: the session events above; ``completed``/``failed`` are terminal and carry
#: the job's final state; ``heartbeat`` keeps idle connections alive;
#: ``truncated`` is emitted once when a resume cursor points before the
#: bounded buffer's oldest retained frame.
FRAME_KINDS = ("started", "progressed", "completed", "failed",
               "heartbeat", "truncated")

#: Kinds that end the stream — at most one per job, always the last frame.
TERMINAL_FRAME_KINDS = ("completed", "failed")

#: Kinds that carry no sequence number (they are not part of the job's
#: replayable history, so they cannot be resumed from).
_UNSEQUENCED_KINDS = ("heartbeat", "truncated")

_COMPLETED_STATES = ("done", "cancelled")


def make_frame(kind: str, *, job_id: str, sequence: Optional[int] = None,
               **payload: Any) -> Dict[str, Any]:
    """A versioned event frame ready for JSON serialization."""
    if kind not in FRAME_KINDS:
        raise ValueError(f"unknown frame kind {kind!r}")
    frame: Dict[str, Any] = {
        "schema_version": EVENT_SCHEMA_VERSION,
        "kind": kind,
        "job_id": job_id,
    }
    if sequence is not None:
        frame["sequence"] = sequence
    frame.update(payload)
    return frame


def heartbeat_frame(job_id: str) -> Dict[str, Any]:
    """The keep-alive frame interleaved into idle streams."""
    return make_frame("heartbeat", job_id=job_id)


@dataclass(frozen=True)
class EventFrame:
    """A validated ``affidavit.event/v1`` frame.

    ``payload`` holds the kind-specific fields (everything except the
    envelope); ``outcome`` is the parsed terminal outcome when a
    ``completed`` frame carried one.
    """

    kind: str
    job_id: str
    sequence: Optional[int] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    outcome: Optional[ExplainOutcome] = None

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_FRAME_KINDS


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestValidationError(message)


def _require_count(payload: Mapping[str, Any], name: str) -> int:
    value = payload.get(name)
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value >= 0,
             f"frame field {name!r} must be a non-negative integer, "
             f"got {value!r}")
    return value


def parse_frame(payload: Any) -> EventFrame:
    """Validate one event frame; raises
    :class:`~repro.api.errors.RequestValidationError` on any malformation.

    This is the strict read side of the stream: tests and the fuzz harness
    use it to pin the wire shape, clients use it to fail fast on version
    skew instead of mis-dispatching.
    """
    _require(isinstance(payload, Mapping), "event frame must be a JSON object")
    version = payload.get("schema_version")
    if version != EVENT_SCHEMA_VERSION:
        raise UnsupportedSchemaVersion(
            f"unsupported event schema version {version!r} "
            f"(expected {EVENT_SCHEMA_VERSION!r})")
    kind = payload.get("kind")
    _require(kind in FRAME_KINDS, f"unknown frame kind {kind!r}")
    job_id = payload.get("job_id")
    _require(isinstance(job_id, str) and bool(job_id),
             "frame field 'job_id' must be a non-empty string")
    sequence = payload.get("sequence")
    if kind in _UNSEQUENCED_KINDS:
        _require(sequence is None,
                 f"{kind!r} frames carry no sequence, got {sequence!r}")
    else:
        _require(isinstance(sequence, int) and not isinstance(sequence, bool)
                 and sequence >= 1,
                 f"frame field 'sequence' must be a positive integer, "
                 f"got {sequence!r}")
    body = {key: value for key, value in payload.items()
            if key not in ("schema_version", "kind", "job_id", "sequence")}

    outcome: Optional[ExplainOutcome] = None
    if kind == "started":
        _require(isinstance(body.get("name"), str),
                 "started frame needs a string 'name'")
        _require(isinstance(body.get("engine"), str),
                 "started frame needs a string 'engine'")
        for name in ("n_source_records", "n_target_records", "n_attributes"):
            _require_count(body, name)
    elif kind == "progressed":
        for name in ("expansions", "generated_states", "queue_size"):
            _require_count(body, name)
        best_cost = body.get("best_cost")
        _require(best_cost is None or isinstance(best_cost, (int, float)),
                 f"progressed frame 'best_cost' must be numeric or null, "
                 f"got {best_cost!r}")
    elif kind == "completed":
        state = body.get("state")
        _require(state in _COMPLETED_STATES,
                 f"completed frame 'state' must be one of "
                 f"{_COMPLETED_STATES}, got {state!r}")
        raw_outcome = body.get("outcome")
        _require(raw_outcome is None or isinstance(raw_outcome, Mapping),
                 "completed frame 'outcome' must be an object or null")
        if raw_outcome is not None:
            outcome = ExplainOutcome.from_dict(raw_outcome)
    elif kind == "failed":
        _require(body.get("state") == "failed",
                 "failed frame 'state' must be 'failed'")
        _require(isinstance(body.get("error"), str) and bool(body["error"]),
                 "failed frame needs a non-empty string 'error'")
    elif kind == "truncated":
        dropped = body.get("dropped")
        _require(isinstance(dropped, int) and not isinstance(dropped, bool)
                 and dropped >= 1,
                 f"truncated frame 'dropped' must be a positive integer, "
                 f"got {dropped!r}")
    return EventFrame(kind=kind, job_id=job_id, sequence=sequence,
                      payload=body, outcome=outcome)
