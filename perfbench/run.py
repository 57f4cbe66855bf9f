"""One end-to-end, layer-attributed benchmark of the explanation program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig5-search --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each exists):

``fig5-search``  closed loop, Figure-5 instances (flight-500k, 769 rows)
                 sent inline through ``ExplainSession.explain``.
``serve-mix``    open loop of small pairs against ``repro.cli serve``.
``budget-50ms``  closed loop, ~100-row instances under a 50 ms budget.
``bulk-rows``    closed loop, ~9 200-row pairs explained from files.  Too
                 slow to be steady in a short run; kept for manual runs.

Inputs come from the program's own generator, seeded from ``--seed``; the
program sees only CSV text, files and requests.  Every answer is checked
against the instance it explains.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics, with ``--trace 1`` the per-layer ones, named
and unitised as in ``BENCHMARK.json``; the lines before it are a
human-readable report.  The exit code is 1 when a request fails, an answer
is wrong or nothing was answered, and 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (
    ROOT, RUN_ROOT, SRC, TRACE_ROOT, calibration_probe, mean, median,
    percentile, program_env, program_present, reset_peak_rss, steal_seconds,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Calibration probes before and after each workload.
CALIBRATIONS = 3
#: Cap on a traced pass, as a multiple of the untraced pass's window.
TRACED_PASS_CAP = 4.0
#: Seconds the calibration probe takes on the reference host.  A
#: host-adjusted timing is the wall time scaled by this over the probe's
#: time around the request: the time the request would take on a host of
#: the reference speed.  A shared virtual machine's speed can swing by 2x
#: within minutes (see NOTES.md), and a CPU-bound wall time follows it.
REFERENCE_PROBE_S = 0.070
#: A request's host speed is the median probe over it and this many
#: requests on either side: one probe is too noisy, and the median of the
#: whole run misses the drift within it.
PROBE_NEIGHBOURS = 2
HERE = Path(__file__).resolve().parent


# --------------------------------------------------------------------- #
# library workloads: a worker process runs the program
# --------------------------------------------------------------------- #
def _request_spec(pair, data_root: Path, budget_ms: Optional[float]) -> Dict[str, Any]:
    from inputs import INLINE
    payload: Dict[str, Any] = {"name": pair.label, "config": "hid"}
    if budget_ms is not None:
        payload["schema_version"] = "affidavit.request/v2"
        payload["budget"] = {"deadline_ms": budget_ms}
    spec: Dict[str, Any] = {"label": pair.label, "payload": payload}
    if pair.transport == INLINE:
        spec["inline_files"] = [str(data_root / f"{pair.label}_source.csv"),
                                str(data_root / f"{pair.label}_target.csv")]
    else:
        payload["source_path"] = f"{pair.label}_source.csv"
        payload["target_path"] = f"{pair.label}_target.csv"
    return spec


def _read_message(process: subprocess.Popen) -> Dict[str, Any]:
    line = process.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited with code {process.wait()} before answering")
    return json.loads(line)


def adjusted_setup(setups: Sequence[Tuple[float, float]]) -> float:
    """``setup_s``: the median set-up, each host-adjusted by the probes
    taken just before and just after it."""
    return median([seconds * REFERENCE_PROBE_S / probe for seconds, probe in setups])


def _worker_pass(plan: Dict[str, Any], plan_path: Path, run: bool) -> Tuple[Tuple[float, float], Dict[str, Any]]:
    """Spawn a worker on *plan*; ``((set-up seconds, probe around it), its
    done message)``.

    Set-up runs from the spawn to the worker's ``ready`` line.  With *run*
    false the worker exits after set-up and the message is empty.
    """
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    probe = calibration_probe()
    spawned = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(plan_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=program_env(), cwd=ROOT,
    )
    try:
        if _read_message(process).get("event") != "ready":
            raise RuntimeError("worker did not report ready")
        setup = (time.perf_counter() - spawned, (probe + calibration_probe()) / 2)
        process.stdin.write("run\n" if run else "exit\n")
        process.stdin.flush()
        done = _read_message(process) if run else {}
        if process.wait(timeout=120) != 0:
            raise RuntimeError(f"worker exited with code {process.returncode}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    return setup, done


def _read_records(path: Path) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def run_library(workload, inputs, run_dir: Path, seconds: float, trace: bool,
                trace_out: Path) -> Dict[str, Any]:
    """Set up ``SETUPS`` times and run the closed loop in the last worker.

    A traced run halves the window of that untraced pass and then sends the
    requests it answered again, traced, to a fresh worker (so no cache in
    the program replays them): the per-layer numbers come from the traced
    pass, and ``trace.overhead`` compares the two passes input by input.
    """
    data_root = run_dir / "data"
    plan_path = run_dir / "plan.json"
    plan = {
        "data_root": str(data_root),
        "warmup": [_request_spec(pair, data_root, workload.budget_ms)
                   for pair in inputs.warmup],
        "timed": [_request_spec(pair, data_root, workload.budget_ms)
                  for pair in inputs.timed],
        "seconds": seconds / 2 if trace else seconds,
        "trace": False,
        "host_probe": workload.host_adjusted,
        "results": str(run_dir / "results.jsonl"),
        "trace_out": None,
    }
    setups = [_worker_pass(plan, plan_path, run=False)[0] for _ in range(SETUPS - 1)]
    setup, done = _worker_pass(plan, plan_path, run=True)
    setups.append(setup)
    records = _read_records(run_dir / "results.jsonl")
    traced: List[Dict[str, Any]] = []
    if trace:
        sent = {record["label"] for record in records}
        _worker_pass(dict(
            plan,
            timed=[spec for spec in plan["timed"] if spec["label"] in sent],
            seconds=plan["seconds"] * TRACED_PASS_CAP,
            trace=True,
            results=str(run_dir / "traced.jsonl"),
            trace_out=str(trace_out),
        ), plan_path, run=True)
        traced = _read_records(run_dir / "traced.jsonl")
    pairs = {pair.label: pair for pair in inputs.timed}
    return {"setups": setups, "done": done, "records": records, "traced": traced,
            "pairs": pairs}


def _check_records(records, pairs) -> Tuple[List[Tuple[Dict[str, Any], Any]], List[str], int]:
    """``(answered (record, outcome) pairs, wrong answers, failed requests)``."""
    from checks import check_outcome

    answered: List[Tuple[Dict[str, Any], Any]] = []
    wrong: List[str] = []
    failed = 0
    for record in records:
        if "outcome" not in record:
            failed += 1
            continue
        outcome, problem = check_outcome(record["outcome"], pairs[record["label"]])
        if problem is not None:
            wrong.append(f"{record['label']}: {problem}")
            continue
        answered.append((record, outcome))
    return answered, wrong, failed


def host_seconds(records: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Each request's latency by label, scaled to the reference host speed
    when the worker probed the host around it, as measured otherwise."""
    seconds: Dict[str, float] = {}
    for index, record in enumerate(records):
        if "host_probe_s" not in record:
            seconds[record["label"]] = record["latency_s"]
            continue
        near = records[max(0, index - PROBE_NEIGHBOURS):index + PROBE_NEIGHBOURS + 1]
        probe = median([other["host_probe_s"] for other in near])
        seconds[record["label"]] = record["latency_s"] * REFERENCE_PROBE_S / probe
    return seconds


def library_metrics(workload, run: Dict[str, Any], trace: bool) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Any]]:
    from checks import recovery

    pairs = run["pairs"]
    records = run["records"]
    answered, wrong, failed = _check_records(records, pairs)
    traced, traced_wrong, traced_failed = _check_records(run["traced"], pairs)
    adjusted = host_seconds(records)
    latencies = [adjusted[record["label"]] for record, _ in answered]
    limit = math.inf if workload.budget_ms is None else workload.budget_ms / 1000.0
    # With one closed-loop client the window is the requests back to back,
    # plus the probes between them: the adjusted rate leaves the probes out.
    busy_s = sum(adjusted.values()) if workload.host_adjusted else run["done"]["wall_s"]
    e2e = {
        "setup_s": adjusted_setup(run["setups"]),
        "latency_s.p50": median(latencies),
        "explains_per_s": len(answered) / busy_s,
        "slo_met": sum(1 for lat in latencies if lat <= limit) / max(1, len(records)),
        "cost_ratio": mean(outcome.compression_ratio for _, outcome in answered),
        "recovery": mean(recovery(outcome, pairs[record["label"]])
                         for record, outcome in answered),
        "peak_rss_mb": median([record["peak_rss_mb"] for record, _ in answered]),
    }
    layers: Dict[str, float] = {}
    if trace:
        layers.update(_traced_layers(traced, host_seconds(run["traced"]), adjusted))
        layers.update(api_layers([outcome for _, outcome in traced]))
    info = {
        "attempted": len(records) + len(run["traced"]),
        "failed": failed + len(wrong) + traced_failed + len(traced_wrong),
        "wrong": wrong + traced_wrong,
        "samples": len(latencies), "exhausted": run["done"]["exhausted"],
        "setups": [seconds for seconds, _ in run["setups"]],
    }
    if workload.host_adjusted:
        info["unadjusted"] = {
            "latency_s.p50": median([record["latency_s"] for record, _ in answered]),
            "explains_per_s": len(answered) / sum(record["latency_s"] for record in records),
            "host_probe_s": median([record["host_probe_s"] for record in records]),
        }
    return e2e, layers, info


def _traced_layers(traced, traced_seconds: Dict[str, float],
                   untraced_seconds: Dict[str, float]) -> Dict[str, float]:
    """Mean per-layer numbers of the traced pass, and ``trace.overhead``:
    the median over inputs of traced ÷ untraced latency on the same input
    (both host-adjusted where the workload is)."""
    names = sorted({name for record, _ in traced for name in record["layers"]})
    layers = {name: mean(record["layers"][name] for record, _ in traced
                         if name in record["layers"]) for name in names}
    ratios = [traced_seconds[record["label"]] / untraced_seconds[record["label"]]
              for record, _ in traced if record["label"] in untraced_seconds]
    layers["trace.overhead"] = median(ratios)
    return layers


def api_layers(outcomes: Sequence[Any]) -> Dict[str, float]:
    """The tier chain's per-layer numbers from the answers' attempt logs."""
    from repro.api import TIERS

    layers: Dict[str, float] = {}
    count = max(1, len(outcomes))
    for tier in TIERS:
        layers[f"api.answered_by.{tier}"] = sum(
            1 for outcome in outcomes if outcome.provenance.tier == tier) / count
        elapsed = [attempt.elapsed_seconds for outcome in outcomes
                   for attempt in (outcome.tiers or ())
                   if attempt.tier == tier and attempt.status != "skipped"]
        layers[f"api.tier_s.{tier}"] = mean(elapsed) if elapsed else 0.0
    layers["api.tier_timeouts"] = float(sum(
        1 for outcome in outcomes for attempt in (outcome.tiers or ())
        if attempt.status == "timeout"))
    layers["api.label_mismatch_ratio"] = sum(
        1 for outcome in outcomes
        if outcome.cost >= outcome.trivial_cost
        and outcome.provenance.confidence != "trivial") / count
    return layers


# --------------------------------------------------------------------- #
# serve-mix: the program is a server process
# --------------------------------------------------------------------- #
SERVICE_COUNTERS = ("repro_store_hits_total", "repro_store_puts_total",
                    "repro_admission_rejected_total")


def run_serving(workload, inputs, run_dir: Path, trace: bool,
                trace_out: Path) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Any]]:
    from checks import check_outcome, recovery
    from repro.api import parse_frame
    from serve_mix import Server, open_loop, request_body, scrape_counters, warm_up

    data_root = run_dir / "data"
    setups: List[Tuple[float, float]] = []
    server = None
    try:
        for attempt in range(SETUPS):
            probe = calibration_probe()
            spawned = time.perf_counter()
            server = Server(run_dir, data_root, tag=str(attempt))
            server.start()
            warm_up(server, inputs.warmup)
            setups.append((time.perf_counter() - spawned,
                           (probe + calibration_probe()) / 2))
            if attempt < SETUPS - 1:
                server.stop()
        before = scrape_counters(server.port, SERVICE_COUNTERS)
        reset_peak_rss(server.process.pid)  # the peak of the timed window only
        bodies = [request_body(pair) for pair in inputs.timed]
        prober = subprocess.Popen(
            [sys.executable, str(HERE / "hostprobe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            sent, started = open_loop(server.port, inputs.schedule, bodies)
        finally:
            try:
                output, _ = prober.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                prober.kill()
                output, _ = prober.communicate()
        probes = [float(line) for line in output.split()]
        if prober.returncode != 0 or not probes:
            raise RuntimeError(f"host probe exited with code {prober.returncode}")
        after = scrape_counters(server.port, SERVICE_COUNTERS)
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    wrong: List[str] = []
    ok: List[Any] = []
    for request in sent:
        if request.error is not None:
            continue
        pair = inputs.timed[request.slot.pair]
        try:
            frame = parse_frame(request.stream.terminal)
        except ValueError as error:
            wrong.append(f"{pair.label}: bad terminal frame: {error}")
            continue
        if frame.kind != "completed" or frame.outcome is None:
            request.error = f"job ended {frame.kind}"
            continue
        outcome, problem = check_outcome(request.stream.terminal["outcome"], pair)
        if problem is not None:
            wrong.append(f"{pair.label}: {problem}")
            continue
        ok.append((request, outcome, pair))
    failed = sum(1 for request in sent if request.error is not None)
    latencies = [request.stream.terminal_at - request.due_at for request, _, _ in ok]
    last_end = max((request.stream.terminal_at for request, _, _ in ok), default=started)
    # At half the sustained rate a request mostly waits for its own search,
    # which scales with the host; the arrival rate and the SLO do not.
    host_scale = REFERENCE_PROBE_S / median(probes)
    e2e = {
        "setup_s": adjusted_setup(setups),
        "latency_s.p50": median(latencies) * host_scale,
        "explains_per_s": len(ok) / max(1e-9, last_end - started),
        "slo_met": sum(1 for lat in latencies if lat <= workload.slo_s) / len(sent),
        "cost_ratio": mean(outcome.compression_ratio for _, outcome, _ in ok),
        "recovery": mean(recovery(outcome, pair) for _, outcome, pair in ok),
        "peak_rss_mb": peak_rss,
    }
    layers: Dict[str, float] = {}
    if trace:
        layers = _service_layers(sent, ok, before, after)
        layers.update(api_layers([outcome for _, outcome, _ in ok]))
        # Nothing runs traced here: the spans are built after the run from
        # timestamps the client takes in untraced runs too.
        layers["trace.overhead"] = 1.0
        layers["loadgen.late_s.max"] = max(request.sent_at - request.due_at
                                           for request in sent)
        _write_service_trace(trace_out, ok)
    info = {
        "attempted": len(sent), "failed": failed + len(wrong), "wrong": wrong,
        "samples": len(latencies), "exhausted": False,
        "setups": [seconds for seconds, _ in setups],
        "sync_hit_ratio": sync_hit_ratio(sent),
        "unadjusted": {
            "latency_s.p50": median(latencies),
            "explains_per_s": e2e["explains_per_s"],
            "host_probe_s": median(probes),
        },
    }
    return e2e, layers, info


def sync_hit_ratio(sent) -> float:
    """Share of POSTs answered 200 with the job already done."""
    return sum(1 for request in sent
               if request.status == 200 and request.view.get("state") == "done") / len(sent)


def _service_layers(sent, ok, before, after) -> Dict[str, float]:
    computed = [request for request, _, _ in ok if request.stream.started_at is not None]
    streams = [request for request in sent if request.stream is not None]
    return {
        "service.submit_s": mean(request.replied_at - request.sent_at for request in sent),
        "service.queue_wait_s": mean(request.stream.started_at - request.replied_at
                                     for request in computed) if computed else 0.0,
        "service.run_s": mean(request.stream.terminal_at - request.stream.started_at
                              for request in computed) if computed else 0.0,
        "service.sync_hit_ratio": sync_hit_ratio(sent),
        "service.stream_resume_ratio": sum(
            1 for request in streams if request.stream.resumed) / max(1, len(streams)),
        "service.store_hits": after["repro_store_hits_total"] - before["repro_store_hits_total"],
        "service.store_puts": after["repro_store_puts_total"] - before["repro_store_puts_total"],
        "service.rejected": (after["repro_admission_rejected_total"]
                             - before["repro_admission_rejected_total"]),
        "service.latency_s.p90": percentile(
            [request.stream.terminal_at - request.due_at for request, _, _ in ok], 0.9),
    }


def _write_service_trace(path: Path, ok) -> None:
    """Client-side spans of every answered request."""
    from repro.obs import Span, write_chrome_trace

    epoch = min((request.due_at for request, _, _ in ok), default=0.0)
    roots = []
    for request, _, pair in ok:
        stream = request.stream
        children = [Span("service.submit", request.sent_at - epoch,
                         request.replied_at - request.sent_at)]
        if stream.started_at is not None:
            children.append(Span("service.queue_wait", request.replied_at - epoch,
                                 stream.started_at - request.replied_at))
            children.append(Span("service.run", stream.started_at - epoch,
                                 stream.terminal_at - stream.started_at))
        roots.append(Span(f"request {pair.label}", request.due_at - epoch,
                          stream.terminal_at - request.due_at,
                          children=tuple(children)))
    write_chrome_trace(path, roots)


# --------------------------------------------------------------------- #
# the command
# --------------------------------------------------------------------- #
def declared_metrics() -> Dict[str, List[Dict[str, Any]]]:
    """The ``end_to_end`` and ``per_layer`` metrics ``BENCHMARK.json``
    declares, with their units; the JSON result reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: spec[kind] for kind in ("end_to_end", "per_layer")}


def write_inputs(inputs, data_root: Path) -> None:
    data_root.mkdir(parents=True)
    for pair in list(inputs.warmup) + list(inputs.timed):
        (data_root / f"{pair.label}_source.csv").write_text(pair.source_csv, encoding="utf-8")
        (data_root / f"{pair.label}_target.csv").write_text(pair.target_csv, encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not program_present():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOADS, ServingWorkload, build_inputs
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    run_dir = RUN_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_out = TRACE_ROOT / f"{args.workload}-seed{args.seed}.trace.json"
    if trace:
        TRACE_ROOT.mkdir(exist_ok=True)
    calib = [calibration_probe() for _ in range(CALIBRATIONS)]
    steal_before = steal_seconds()
    try:
        run_dir.mkdir(parents=True)
        inputs = build_inputs(args.workload, args.seed, args.seconds)
        write_inputs(inputs, run_dir / "data")
        if isinstance(workload, ServingWorkload):
            e2e, layers, info = run_serving(workload, inputs, run_dir, trace, trace_out)
        else:
            run = run_library(workload, inputs, run_dir, args.seconds, trace, trace_out)
            e2e, layers, info = library_metrics(workload, run, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    calib_after = [calibration_probe() for _ in range(CALIBRATIONS)]
    host = {
        "host.calib_s": median(calib + calib_after),
        "host.steal_s": steal_seconds() - steal_before,
    }

    declared = declared_metrics()
    correct = not info["wrong"] and info["failed"] == 0 and info["samples"] > 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  requests attempted={info['attempted']} failed={info['failed']} "
          f"error_rate={info['failed'] / max(1, info['attempted']):.4f} "
          f"wrong={len(info['wrong'])} answered={info['samples']}")
    for problem in info["wrong"][:10]:
        print(f"  WRONG ANSWER {problem}")
    if info["exhausted"]:
        print("  note: inputs ran out before the window ended")
    units = {entry["name"]: entry["unit"]
             for entry in declared["end_to_end"] + declared["per_layer"]}
    for name, value in e2e.items():
        samples = SETUPS if name == "setup_s" else info["samples"]
        print(f"  {name} = {value:.6g} {units[name]} (n={samples})")
    print("  set-ups as measured: "
          + ", ".join(f"{value:.4f}" for value in info["setups"]) + " s")
    if "unadjusted" in info:
        raw = info["unadjusted"]
        print(f"  host-adjusted to a {REFERENCE_PROBE_S:g} s probe; as measured: "
              f"latency_s.p50 = {raw['latency_s.p50']:.6g} s, explains_per_s = "
              f"{raw['explains_per_s']:.6g} 1/s, probe median {raw['host_probe_s']:.4f} s")
    if "sync_hit_ratio" in info:
        print(f"  answered from cache at submission: {info['sync_hit_ratio']:.4f} of sent "
              f"(declared repeat share {workload.repeat_share:.4f})")
    print(f"  host.calib_s before={median(calib):.4f} after={median(calib_after):.4f} "
          f"steal={host['host.steal_s']:.2f}s")

    if trace:
        # A layer the workload does not reach reads 0 (see NOTES.md).
        values = {entry["name"]: 0.0 for entry in declared["per_layer"]}
        values.update(layers)
        values.update(host)
        for name, value in sorted(values.items()):
            reached = name in layers or name in host
            print(f"  {name} = {value:.6g} {units.get(name, '?')}"
                  f"{'' if reached else ' (not reached)'}")
    else:
        values = e2e
    # A metric with no finite value (nothing it averages was answered) is
    # left out; such a run is not correct anyway.
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
               for entry in declared["per_layer" if trace else "end_to_end"]
               if math.isfinite(values[entry["name"]])}
    if not correct:
        print("  NOT CORRECT: a request failed, an answer was wrong, or nothing "
              "was answered")
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
