"""The process that runs the program for the library workloads.

Spawned by ``run.py`` with a plan file.  It imports the program, answers one
untimed warm-up request of each kind, reports ``ready`` (run.py times
set-up from the spawn to that line), then waits for ``run`` or ``exit`` on
stdin.  On ``run`` it drives a closed loop of one client through
``ExplainSession.explain`` for the planned number of seconds and writes one
JSON line per request to the results file, with the process's peak RSS
during that request (the peak is reset before each one).  When the plan
asks for host probes, the fixed calibration probe runs before the first
request and after every request, in this process, and each record carries
the mean of the probes on either side of it: the host's speed at the time
of that request.

With tracing on, every request is traced: the benchmark records its own
spans around the calls into the program's layers (``api.explain`` around the
session call, ``dataio.load_tables`` around snapshot loading) on the same
:class:`repro.obs.Tracer` the session records its search phases into, and
times CPython's garbage collector and the process CPU clock.  Spans stay in
memory until the loop ends and are then written as one Chrome trace.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import calibration_probe, peak_rss_mb, reset_peak_rss

#: Search phases the program records as spans (``repro.core.extension``).
PHASES = ("induction", "ranking", "refine_bounds", "blocking_refine",
          "greedy_map", "finalize")


def _send(message: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _payload(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The request payload, with inline snapshots read from their files."""
    payload = dict(spec["payload"])
    files = spec.get("inline_files")
    if files:
        payload["source_csv"] = Path(files[0]).read_text(encoding="utf-8")
        payload["target_csv"] = Path(files[1]).read_text(encoding="utf-8")
    return payload


class LayerProbe:
    """Per-request layer timings of one traced request."""

    def __init__(self) -> None:
        self.tracer = None
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_started: Optional[float] = None

    def begin(self, tracer) -> None:
        self.tracer = tracer
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_started = None

    def end(self) -> None:
        self.tracer = None

    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if self.tracer is None:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None


def _install_load_probe(request_cls, probe: LayerProbe) -> None:
    """Time every ``ExplainRequest.load_tables`` call as a span."""
    original = request_cls.load_tables

    def load_tables(request, data_root=None):
        tracer = probe.tracer
        if tracer is None:
            return original(request, data_root)
        with tracer.span("dataio.load_tables"):
            return original(request, data_root)

    request_cls.load_tables = load_tables


def _phase_covered(span) -> float:
    """Seconds of *span* covered by its outermost phase spans."""
    return sum(
        child.duration if child.name in PHASES else _phase_covered(child)
        for child in span.children
    )


def core_layers(roots, outcome) -> Dict[str, float]:
    """Per-layer numbers of one traced request from its span forest."""
    layers: Dict[str, float] = {name: 0.0 for name in (
        "dataio.load_s", "core.search_s", "core.search_self_s",
        "core.induction_candidates",
    )}
    for phase in PHASES:
        layers[f"core.{phase}_s"] = 0.0
    covered = 0.0
    for root in roots:
        for span in root.walk():
            if span.name == "dataio.load_tables":
                layers["dataio.load_s"] += span.duration
            elif span.name == "search":
                layers["core.search_s"] += span.duration
                covered += _phase_covered(span)
            elif span.name in PHASES:
                layers[f"core.{span.name}_s"] += span.duration
                if span.name == "induction":
                    layers["core.induction_candidates"] += (
                        span.counter_values.get("candidates", 0.0))
    layers["core.search_self_s"] = max(0.0, layers["core.search_s"] - covered)
    provenance = outcome.provenance
    layers["dataio.rows"] = float(
        provenance.n_source_records + provenance.n_target_records)
    layers["core.expansions"] = float(outcome.expansions)
    layers["core.generated_states"] = float(outcome.generated_states)
    if outcome.cache is not None and outcome.cache.lookups:
        layers["core.colcache_hit_ratio"] = outcome.cache.hit_rate
    return layers


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))

    from repro.api import ExplainRequest, ExplainSession
    from repro.obs import Tracer, write_chrome_trace

    session = ExplainSession().with_data_root(Path(plan["data_root"]))
    for spec in plan["warmup"]:
        session.explain(ExplainRequest.from_dict(_payload(spec)))
    _send({"event": "ready"})
    if sys.stdin.readline().strip() != "run":
        return 0

    trace = bool(plan["trace"])
    probe = LayerProbe()
    if trace:
        _install_load_probe(ExplainRequest, probe)
        gc.callbacks.append(probe.on_gc)
    timed = [(spec["label"], _payload(spec)) for spec in plan["timed"]]
    kept_spans: List[Any] = []
    lines: List[str] = []
    seconds = float(plan["seconds"])
    host_probe = calibration_probe() if plan["host_probe"] else None
    started = time.perf_counter()
    for label, payload in timed:
        if time.perf_counter() - started >= seconds:
            break
        tracer = Tracer() if trace else None
        caller = session.with_tracer(tracer) if trace else session
        record: Dict[str, Any] = {"label": label}
        if trace:
            probe.begin(tracer)
            cpu_started = time.process_time()
        reset_peak_rss()
        call_started = time.perf_counter()
        try:
            if trace:
                with tracer.span("api.explain"):
                    outcome = caller.explain(ExplainRequest.from_dict(payload))
            else:
                outcome = caller.explain(ExplainRequest.from_dict(payload))
        except Exception as error:  # noqa: BLE001 - a failed request is data
            outcome = None
            record["error"] = f"{type(error).__name__}: {error}"
        record["latency_s"] = time.perf_counter() - call_started
        record["peak_rss_mb"] = peak_rss_mb()
        if trace:
            cpu_s = time.process_time() - cpu_started
            probe.end()
            if outcome is not None:
                roots = tracer.roots()
                kept_spans.extend(roots)
                layers = core_layers(roots, outcome)
                layers["runtime.gc_s"] = probe.gc_s
                layers["runtime.gc_collections"] = float(probe.gc_collections)
                layers["runtime.cpu_s"] = cpu_s
                record["layers"] = layers
        if host_probe is not None:
            after = calibration_probe()
            record["host_probe_s"] = (host_probe + after) / 2
            host_probe = after
        if outcome is not None:
            answer = outcome.to_dict()
            answer["request"] = None
            answer["trace"] = None
            record["outcome"] = answer
        lines.append(json.dumps(record))
    wall_s = time.perf_counter() - started
    if trace:
        gc.callbacks.remove(probe.on_gc)
        if plan.get("trace_out"):
            write_chrome_trace(plan["trace_out"], kept_spans)
    Path(plan["results"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _send({
        "event": "done",
        "wall_s": wall_s,
        "exhausted": wall_s < seconds,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
