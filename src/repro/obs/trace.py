"""Structured tracing: nested, thread-safe spans with a no-op default.

A :class:`Tracer` hands out context-managed spans.  Entering a span pushes
it on a thread-local stack, so spans opened while another is active become
its children and a whole explanation run folds into one tree.  Closing a
span freezes it into an immutable :class:`Span` — safe to ship across
threads, hash, compare, and round-trip through JSON.

The default collaborator everywhere in the engine is :data:`NULL_TRACER`,
whose ``span()`` returns one shared do-nothing object: no allocation, no
locking, no timestamps.  Hot paths instrument unconditionally and pay
(almost) nothing unless a caller opts in with a real :class:`Tracer`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "ensure_tracer",
    "phase_totals",
]

Counters = Tuple[Tuple[str, float], ...]


def _freeze_counters(counters: Union[Mapping[str, float], Counters, None]) -> Counters:
    if not counters:
        return ()
    items = counters.items() if isinstance(counters, Mapping) else counters
    return tuple(sorted((str(name), float(value)) for name, value in items))


@dataclass(frozen=True)
class Span:
    """One closed phase: name, position on the tracer's clock, counters,
    children.  ``start`` and ``duration`` are seconds relative to the
    tracer's epoch; counters are a sorted tuple so equal spans compare and
    hash equal after a JSON round-trip."""

    name: str
    start: float
    duration: float
    counters: Counters = ()
    children: Tuple["Span", ...] = ()

    @property
    def counter_values(self) -> Dict[str, float]:
        return dict(self.counters)

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.counters:
            payload["counters"] = {name: value for name, value in self.counters}
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        """Rebuild a span tree; malformed payloads raise ``ValueError``."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"span payload must be a mapping, got {type(payload).__name__}")
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("span payload is missing a non-empty 'name'")
        start = _validated_seconds(payload.get("start", 0.0), f"span {name!r} start")
        duration = _validated_seconds(payload.get("duration"), f"span {name!r} duration")
        raw_counters = payload.get("counters", {})
        if not isinstance(raw_counters, Mapping):
            raise ValueError(f"span {name!r} counters must be a mapping")
        counters: List[Tuple[str, float]] = []
        for key, value in raw_counters.items():
            if not isinstance(key, str):
                raise ValueError(f"span {name!r} counter names must be strings")
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                raise ValueError(f"span {name!r} counter {key!r} must be a finite number")
            counters.append((key, float(value)))
        raw_children = payload.get("children", ())
        if not isinstance(raw_children, Sequence) or isinstance(raw_children, (str, bytes)):
            raise ValueError(f"span {name!r} children must be a sequence")
        children = tuple(cls.from_dict(child) for child in raw_children)
        return cls(name=name, start=start, duration=duration,
                   counters=tuple(sorted(counters)), children=children)


def _validated_seconds(value: Any, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number) or number < 0.0:
        raise ValueError(f"{label} must be finite and non-negative, got {value!r}")
    return number


def phase_totals(span: Optional[Span], *, include_root: bool = False) -> Dict[str, float]:
    """Total seconds per span name across a tree (inclusive durations: a
    phase's total covers its children's time too)."""
    totals: Dict[str, float] = {}
    if span is None:
        return totals
    spans = span.walk() if include_root else (
        descendant for child in span.children for descendant in child.walk()
    )
    for node in spans:
        totals[node.name] = totals.get(node.name, 0.0) + node.duration
    return totals


class _ActiveSpan:
    """A span being recorded.  Context manager: ``__enter__`` stamps the
    start and pushes onto the owning tracer's thread-local stack,
    ``__exit__`` pops, freezes a :class:`Span`, and attaches it to the
    parent (or the tracer's roots)."""

    __slots__ = ("_tracer", "name", "_start", "_counters", "_children", "_snapshot")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self.name = name
        self._start = 0.0
        self._counters: Dict[str, float] = {}
        self._children: List[Span] = []
        self._snapshot: Optional[Span] = None

    def add(self, counter: str, value: float = 1.0) -> None:
        self._counters[counter] = self._counters.get(counter, 0.0) + value

    def attach(self, span: Span) -> None:
        """Adopt an already-closed span (e.g. loading timed before the
        span opened)."""
        self._children.append(span)

    def snapshot(self) -> Optional[Span]:
        """The frozen span — ``None`` until the context manager exits."""
        return self._snapshot

    def __enter__(self) -> "_ActiveSpan":
        self._start = self._tracer.now()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = self._tracer.now()
        self._tracer._pop(self)
        span = Span(
            name=self.name,
            start=self._start,
            duration=max(0.0, end - self._start),
            counters=_freeze_counters(self._counters),
            children=tuple(self._children),
        )
        self._snapshot = span
        self._tracer._attach_closed(span)


class Tracer:
    """Collects span trees.  Thread-safe: each thread nests spans on its
    own stack; closed top-level spans land in a shared, locked root list."""

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._roots: List[Span] = []
        self._local = threading.local()

    # -- clock ---------------------------------------------------------- #
    def now(self) -> float:
        """Seconds since this tracer was created."""
        return time.perf_counter() - self._epoch

    # -- recording ------------------------------------------------------ #
    def span(self, name: str) -> _ActiveSpan:
        """A new active span; use as a context manager."""
        return _ActiveSpan(self, name)

    def current(self) -> Optional[_ActiveSpan]:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def add(self, counter: str, value: float = 1.0) -> None:
        """Bump a counter on the innermost open span (no-op outside one)."""
        current = self.current()
        if current is not None:
            current.add(counter, value)

    def event(self, name: str, duration: float,
              counters: Optional[Mapping[str, float]] = None,
              start: Optional[float] = None) -> Span:
        """Record a completed interval of known *duration* (work timed
        elsewhere, e.g. in another process) as a child of the current
        span, or as a root."""
        if start is None:
            start = max(0.0, self.now() - duration)
        span = Span(name=name, start=start, duration=duration,
                    counters=_freeze_counters(counters))
        self.attach(span)
        return span

    def attach(self, span: Span) -> None:
        """Adopt a closed span under the current span (or as a root)."""
        current = self.current()
        if current is not None:
            current.attach(span)
        else:
            with self._lock:
                self._roots.append(span)

    # -- inspection ----------------------------------------------------- #
    def roots(self) -> Tuple[Span, ...]:
        """All closed top-level spans, in completion order."""
        with self._lock:
            return tuple(self._roots)

    # -- stack plumbing (called by _ActiveSpan) ------------------------- #
    def _push(self, span: _ActiveSpan) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: _ActiveSpan) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # tolerate out-of-order exits
            stack.remove(span)

    def _attach_closed(self, span: Span) -> None:
        current = self.current()
        if current is not None:
            current.attach(span)
        else:
            with self._lock:
                self._roots.append(span)


class _NullSpan:
    """The do-nothing active span.  One shared instance; every method is a
    constant-time no-op and ``span()`` never allocates."""

    __slots__ = ()

    def add(self, counter: str, value: float = 1.0) -> None:
        pass

    def attach(self, span: Span) -> None:
        pass

    def snapshot(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead tracer: same surface as :class:`Tracer`, records
    nothing.  The engine's default collaborator."""

    enabled = False

    __slots__ = ()

    def now(self) -> float:
        return 0.0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def add(self, counter: str, value: float = 1.0) -> None:
        pass

    def event(self, name: str, duration: float,
              counters: Optional[Mapping[str, float]] = None,
              start: Optional[float] = None) -> None:
        return None

    def attach(self, span: Span) -> None:
        pass

    def roots(self) -> Tuple[Span, ...]:
        return ()


NULL_TRACER = NullTracer()


def ensure_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> Union[Tracer, NullTracer]:
    """*tracer*, or the shared no-op tracer when ``None``."""
    return NULL_TRACER if tracer is None else tracer
