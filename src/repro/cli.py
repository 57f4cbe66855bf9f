"""Command-line interface of the Affidavit reproduction.

Six subcommands cover the profiling workflow the paper targets (comparing
hundreds of tables with minimal user effort) plus the harness that keeps
the engines honest:

``explain``
    Compare two CSV snapshots and print the learned explanation; optionally
    write it as JSON, as a generalised SQL migration script, or as a
    plain-text report.

``generate``
    Create a synthetic problem instance from one of the surrogate evaluation
    datasets (Section 5.1 protocol) and write the two snapshots as CSV files —
    handy for trying the tool without real data.

``datasets``
    List the available surrogate datasets and their dimensions.

``serve``
    Run the explanation service: an HTTP API with a bounded worker pool and
    one content-keyed result store (see :mod:`repro.service`).

``batch``
    Explain every ``<name>_source.csv`` / ``<name>_target.csv`` pair in a
    directory through the same concurrent job subsystem.

``fuzz``
    Run the coverage-guided metamorphic fuzzer: mutate snapshot pairs and
    wire payloads, check the engine-agreement and invariant oracles, and
    delta-debug any failure to a minimal replayable repro (see
    :mod:`repro.fuzz`).

Run ``python -m repro.cli --help`` for the full usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .api import (
    DEFAULT_STRATEGY,
    ENGINE_COLUMNAR,
    ENGINES,
    TIERS,
    ExplainBudget,
    ExplainRequest,
    ExplainSession,
    RequestValidationError,
)
from .dataio import write_csv
from .datagen import generate_problem_instance
from .datagen.datasets import DATASETS, get_dataset_entry
from .export import explanation_to_json, explanation_to_sql, render_report
from .obs import Tracer, render_span_tree, write_chrome_trace


def format_profile(timings) -> str:
    """Render an :class:`~repro.api.outcome.Timings` breakdown as a table.

    The numbers are the ones already measured by the session (load = snapshot
    reading, search = the core run); nothing is re-measured here.
    """
    total = timings.total_seconds
    rows = (
        ("load", timings.load_seconds),
        ("search", timings.search_seconds),
        ("total", total),
    )
    lines = [f"{'phase':<8s} {'seconds':>9s} {'share':>7s}"]
    for phase, seconds in rows:
        share = seconds / total if total else 0.0
        lines.append(f"{phase:<8s} {seconds:>9.3f} {share:>6.1%}")
    return "\n".join(lines)


def _function_names(raw: Optional[str]) -> Optional[tuple]:
    """Parse a ``--functions name1,name2`` flag into a tuple of names."""
    if raw is None:
        return None
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    if not names:
        raise argparse.ArgumentTypeError("--functions needs at least one name")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-affidavit",
        description="Explain differences between unaligned table snapshots (EDBT 2020).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    explain = subparsers.add_parser(
        "explain", help="explain the differences between two CSV snapshots"
    )
    explain.add_argument("source", type=Path, help="CSV file of the source snapshot")
    explain.add_argument("target", type=Path, help="CSV file of the target snapshot")
    explain.add_argument(
        "--config", choices=("hid", "hs"), default="hid",
        help="search configuration: hid (robust, default) or hs (fast overlap start)",
    )
    explain.add_argument("--delimiter", default=",", help="CSV field delimiter")
    explain.add_argument("--seed", type=int, default=0, help="random seed of the search")
    explain.add_argument("--functions", default=None, metavar="NAME1,NAME2",
                         help="restrict the meta-function pool to these registry "
                              "names (comma-separated; default: the full pool)")
    explain.add_argument("--engine", choices=ENGINES, default=ENGINE_COLUMNAR,
                         help="evaluation engine: columnar (memoizing, default) "
                              "or rowwise (the bit-identical reference); "
                              "parallel is a retired alias of columnar")
    explain.add_argument("--budget-ms", type=float, default=None, metavar="MS",
                         help="wall-clock latency budget in milliseconds; the "
                              "run walks the tier chain (greedy, full search, "
                              "baselines) under this deadline and the report "
                              "names the answering tier")
    explain.add_argument("--strategy", default=None, metavar="TIER1,TIER2",
                         help="comma-separated tier chain to walk (subset of: "
                              f"{', '.join(TIERS)}; default: "
                              f"{','.join(DEFAULT_STRATEGY)}; requires or "
                              "implies a budgeted v2 request)")
    explain.add_argument("--json", type=Path, default=None,
                         help="write the explanation as JSON to this path")
    explain.add_argument("--sql", type=Path, default=None,
                         help="write a generalised SQL migration script to this path")
    explain.add_argument("--table-name", default="snapshot",
                         help="table name used in the SQL script")
    explain.add_argument("--report", type=Path, default=None,
                         help="write the plain-text report to this path")
    explain.add_argument("--quiet", action="store_true", help="suppress the stdout report")
    explain.add_argument("--profile", action="store_true",
                         help="print the per-phase wall-clock breakdown of the run")
    explain.add_argument("--trace", type=Path, default=None, metavar="FILE",
                         help="write a Chrome-trace JSON of the run to this path "
                              "(open in Perfetto / chrome://tracing)")

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic problem instance from a surrogate dataset"
    )
    generate.add_argument("dataset", help="surrogate dataset name (see the 'datasets' command)")
    generate.add_argument("--records", type=int, default=None,
                          help="number of records (default: the dataset's size)")
    generate.add_argument("--eta", type=float, default=0.3, help="noise fraction η")
    generate.add_argument("--tau", type=float, default=0.3, help="transformation rate τ")
    generate.add_argument("--seed", type=int, default=0, help="generation seed")
    generate.add_argument("--output-dir", type=Path, default=Path("."),
                          help="directory for <dataset>_source.csv / <dataset>_target.csv")

    subparsers.add_parser("datasets", help="list the available surrogate datasets")

    serve = subparsers.add_parser(
        "serve", help="run the explanation service (HTTP API + worker pool + result store)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent explain workers")
    serve.add_argument("--cache-entries", type=int, default=128,
                       help="capacity of the in-process result store "
                            "(ignored with a sqlite --store)")
    serve.add_argument("--cache-ttl", type=float, default=None,
                       help="time-to-live in seconds of the in-process result "
                            "store (default: no expiry; ignored with a sqlite "
                            "--store)")
    serve.add_argument("--data-root", type=Path, default=Path("."),
                       help="directory that server-side snapshot paths are confined "
                            "to (default: the working directory)")
    serve.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                       default="info",
                       help="verbosity of the repro.service logger (default: info)")
    serve.add_argument("--max-body-bytes", type=int, default=None, metavar="N",
                       help="request body size cap in bytes; larger bodies are "
                            "refused with HTTP 413 (default: 64 MiB)")
    serve.add_argument("--store", default=None, metavar="SPEC",
                       help="result store: 'memory' (the default in-process "
                            "one), 'sqlite:PATH' or a bare sqlite path; "
                            "replicas pointed at the same path deduplicate work")
    serve.add_argument("--queue-depth", type=int, default=None, metavar="N",
                       help="max jobs admitted (queued + running) before "
                            "submissions get HTTP 429 + Retry-After "
                            "(default: unbounded)")
    serve.add_argument("--quota", type=float, default=None, metavar="RATE",
                       help="per-client request quota in requests/second, "
                            "keyed on the X-Client-Id header; over-quota "
                            "clients get HTTP 429 (default: no quotas)")
    serve.add_argument("--quota-burst", type=float, default=None, metavar="N",
                       help="token-bucket burst size of --quota "
                            "(default: one second's worth, at least 1)")

    batch = subparsers.add_parser(
        "batch", help="explain every *_source.csv / *_target.csv pair in a directory"
    )
    batch.add_argument("directory", type=Path,
                       help="directory holding the snapshot pairs")
    batch.add_argument("--config", choices=("hid", "hs"), default="hid",
                       help="search configuration for every pair")
    batch.add_argument("--seed", type=int, default=0, help="random seed of the search")
    batch.add_argument("--functions", default=None, metavar="NAME1,NAME2",
                       help="restrict the meta-function pool to these registry "
                            "names (comma-separated; default: the full pool)")
    batch.add_argument("--workers", type=int, default=2,
                       help="concurrent explain workers (threads, or one "
                            "process per pair with --engine parallel)")
    batch.add_argument("--engine", choices=ENGINES, default=None,
                       help="evaluation engine; 'parallel' shards the batch "
                            "across worker processes, one pair per process")
    batch.add_argument("--delimiter", default=",", help="CSV field delimiter")
    batch.add_argument("--output-dir", type=Path, default=None,
                       help="write per-pair explanation JSON and a batch summary here")
    batch.add_argument("--quiet", action="store_true",
                       help="suppress the per-pair progress lines")

    fuzz = subparsers.add_parser(
        "fuzz", help="run the coverage-guided metamorphic fuzzer against the engines"
    )
    fuzz.add_argument("--time-budget", type=float, default=30.0, metavar="S",
                      help="wall-clock budget of the run in seconds (default: 30)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="seed of the mutation stream (default: 0)")
    fuzz.add_argument("--max-execs", type=int, default=None, metavar="N",
                      help="stop after exactly N inputs instead of on the clock "
                           "(makes runs fully reproducible)")
    fuzz.add_argument("--corpus", type=Path, default=None, metavar="DIR",
                      help="corpus directory: seeds are loaded from DIR/seeds "
                           "and minimized findings saved to DIR/findings "
                           "(default: the built-in seeds only, nothing saved)")
    fuzz.add_argument("--no-coverage", action="store_true",
                      help="disable coverage guidance (faster execs, no corpus "
                           "growth)")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="record findings without delta-debugging them first")
    fuzz.add_argument("--check-service", action="store_true",
                      help="also POST mutated payloads at an in-process HTTP "
                           "service and fail on any 5xx answer")
    fuzz.add_argument("--max-findings", type=int, default=5, metavar="N",
                      help="stop early after N distinct findings (default: 5)")
    fuzz.add_argument("--quiet", action="store_true",
                      help="only print the final summary")

    return parser


def run_explain(args: argparse.Namespace) -> int:
    # Missing snapshot files keep raising FileNotFoundError (the pre-api CLI
    # contract); only request-level problems take the clean exit-code-2 path.
    for path in (args.source, args.target):
        if not path.exists():
            raise FileNotFoundError(path)
    overrides = {"seed": args.seed}
    strategy = None
    if args.strategy is not None:
        strategy = tuple(
            tier.strip() for tier in args.strategy.split(",") if tier.strip()
        )
    budget = None
    try:
        if args.budget_ms is not None:
            budget = ExplainBudget(deadline_ms=args.budget_ms)
        request = ExplainRequest(
            source_path=str(args.source),
            target_path=str(args.target),
            delimiter=args.delimiter,
            config=args.config,
            overrides=overrides,
            functions=_function_names(args.functions),
            engine=args.engine,
            budget=budget,
            strategy=strategy,
            name=args.source.stem,
        )
        # Tracing never alters the search (all randomness stays in the
        # coordinator); it only records per-phase spans for --trace/--profile.
        tracer = Tracer() if (args.trace is not None or args.profile) else None
        session = ExplainSession()
        if tracer is not None:
            session = session.with_tracer(tracer)
        with session:
            outcome = session.explain(request)
    except RequestValidationError as error:
        print(str(error), file=sys.stderr)
        return 2

    report = render_report(outcome.instance, outcome.explanation, title=request.name)
    if not args.quiet:
        print(report)
        print(f"(search: {outcome.timings.search_seconds:.2f}s, "
              f"{outcome.expansions} expansions)")
        if budget is not None or strategy is not None:
            provenance = outcome.provenance
            print(f"(answered by tier '{provenance.tier}', "
                  f"confidence '{provenance.confidence}')")
    if args.profile:
        if outcome.trace is not None:
            print(render_span_tree(outcome.trace))
        else:
            print(format_profile(outcome.timings))
    if args.trace is not None and tracer is not None:
        write_chrome_trace(args.trace, tracer.roots())
        if not args.quiet:
            print(f"wrote trace to {args.trace}")
    if args.report is not None:
        args.report.write_text(report + "\n", encoding="utf-8")
    if args.json is not None:
        args.json.write_text(explanation_to_json(outcome.explanation) + "\n", encoding="utf-8")
    if args.sql is not None:
        script = explanation_to_sql(outcome.instance, outcome.explanation,
                                    table_name=args.table_name)
        args.sql.write_text(script, encoding="utf-8")
    return 0


def run_generate(args: argparse.Namespace) -> int:
    entry = get_dataset_entry(args.dataset)
    table = entry.build(args.records, seed=args.seed)
    generated = generate_problem_instance(
        table, eta=args.eta, tau=args.tau, seed=args.seed, name=args.dataset
    )
    args.output_dir.mkdir(parents=True, exist_ok=True)
    source_path = args.output_dir / f"{args.dataset}_source.csv"
    target_path = args.output_dir / f"{args.dataset}_target.csv"
    write_csv(generated.instance.source, source_path)
    write_csv(generated.instance.target, target_path)
    print(generated.describe())
    print(f"wrote {source_path} ({generated.instance.n_source_records} records)")
    print(f"wrote {target_path} ({generated.instance.n_target_records} records)")
    return 0


def run_datasets(_: argparse.Namespace) -> int:
    print(f"{'name':<18s} {'records':>10s} {'attributes':>11s}")
    for name, entry in DATASETS.items():
        print(f"{name:<18s} {entry.paper_records:>10d} {entry.paper_attributes:>11d}")
    return 0


def run_serve(args: argparse.Namespace) -> int:
    from .service import serve_forever
    from .service.server import MAX_BODY_BYTES

    return serve_forever(
        args.host, args.port,
        workers=args.workers,
        cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl,
        store=args.store,
        max_queue_depth=args.queue_depth,
        quota_rate=args.quota,
        quota_burst=args.quota_burst,
        data_root=args.data_root,
        log_level=args.log_level,
        max_body_bytes=(args.max_body_bytes if args.max_body_bytes is not None
                        else MAX_BODY_BYTES),
    )


def run_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import FuzzConfig, FuzzRunner

    config = FuzzConfig(
        time_budget_seconds=args.time_budget,
        seed=args.seed,
        max_execs=args.max_execs,
        corpus_root=args.corpus,
        coverage_guided=not args.no_coverage,
        minimize=not args.no_minimize,
        check_service=args.check_service,
        max_findings=args.max_findings,
    )
    log = (lambda message: None) if args.quiet else print
    report = FuzzRunner(config, log=log).run()
    print(report.summary())
    return 0 if report.ok else 1


def run_batch_command(args: argparse.Namespace) -> int:
    from .service import run_batch

    def on_progress(name: str, state: str) -> None:
        if not args.quiet:
            print(f"{name:<24s} {state}")

    try:
        # Pass the base-configuration *name* so every pair's ExplainRequest
        # (and thus its outcome provenance and idempotency key) records the
        # configuration actually used.
        outcomes = run_batch(
            args.directory,
            workers=args.workers,
            config=args.config,
            overrides={"seed": args.seed},
            delimiter=args.delimiter,
            functions=_function_names(args.functions),
            engine=args.engine,
            output_dir=args.output_dir,
            on_progress=on_progress,
        )
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 1
    done = sum(1 for o in outcomes if o.state == "done")
    cached = sum(1 for o in outcomes if o.cache_hit)
    if not args.quiet:
        print(f"{done}/{len(outcomes)} pairs explained "
              f"({cached} cache hits, workers={args.workers})")
    return 0 if done == len(outcomes) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "explain":
        return run_explain(args)
    if args.command == "generate":
        return run_generate(args)
    if args.command == "datasets":
        return run_datasets(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "batch":
        return run_batch_command(args)
    if args.command == "fuzz":
        return run_fuzz(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
