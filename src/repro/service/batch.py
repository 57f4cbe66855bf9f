"""Bulk profiling: fan a directory of snapshot pairs through the job manager.

The CLI's ``generate`` command writes ``<name>_source.csv`` /
``<name>_target.csv`` pairs; this module discovers every such pair in a
directory, submits them all to one :class:`~repro.service.jobs.JobManager`
(same worker pool, same result store as the HTTP service) and collects
the outcomes.  Re-running a batch over an unchanged directory through the
same manager is therefore almost free — every pair hits the store.
"""

from __future__ import annotations

import json
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..api import ENGINE_PARALLEL, ExplainRequest, RequestValidationError
from ..export import explanation_to_dict
from .jobs import Job, JobManager, JobState

SOURCE_SUFFIX = "_source.csv"
TARGET_SUFFIX = "_target.csv"


def discover_pairs(directory: Path) -> List[Tuple[str, Path, Path]]:
    """All ``(name, source_path, target_path)`` pairs under *directory*.

    A pair exists when ``<name>_source.csv`` and ``<name>_target.csv`` are
    both present; lone halves are ignored.  Sorted by name for determinism.
    """
    directory = Path(directory)
    pairs = []
    for source_path in sorted(directory.glob(f"*{SOURCE_SUFFIX}")):
        name = source_path.name[: -len(SOURCE_SUFFIX)]
        target_path = directory / f"{name}{TARGET_SUFFIX}"
        if target_path.exists():
            pairs.append((name, source_path, target_path))
    return pairs


@dataclass(frozen=True)
class BatchOutcome:
    """Per-pair result row of a batch run."""

    name: str
    state: str
    cache_hit: bool
    cost: Optional[float]
    trivial_cost: Optional[float]
    compression_ratio: Optional[float]
    runtime_seconds: Optional[float]
    error: Optional[str]

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "state": self.state,
            "cache_hit": self.cache_hit,
            "cost": self.cost,
            "trivial_cost": self.trivial_cost,
            "compression_ratio": self.compression_ratio,
            "runtime_seconds": self.runtime_seconds,
            "error": self.error,
        }


def _outcome(job: Job) -> BatchOutcome:
    outcome = job.outcome
    return BatchOutcome(
        name=job.name,
        state=job.state.value,
        cache_hit=job.cache_hit,
        cost=None if outcome is None else outcome.cost,
        trivial_cost=None if outcome is None else outcome.trivial_cost,
        compression_ratio=None if outcome is None else outcome.compression_ratio,
        runtime_seconds=None if outcome is None else outcome.timings.search_seconds,
        error=job.error,
    )


def _explain_pair_process(request_payload: Dict) -> Dict:
    """Worker body of the process fan-out: explain one pair, return a plain
    dict (everything crossing the process boundary stays JSON-shaped).

    The child runs the columnar engine; the batch's parallelism is the
    file-level sharding itself.
    """
    from ..api import ExplainSession

    name = request_payload.get("name", "instance")
    try:
        request = ExplainRequest.from_dict(request_payload)
        outcome = ExplainSession().explain(request)
    except Exception:  # noqa: BLE001 - one bad pair must not sink the batch
        return {
            "name": name,
            "state": JobState.FAILED.value,
            "error": traceback.format_exc(limit=20),
        }
    return {
        "name": name,
        "state": JobState.DONE.value,
        "cost": outcome.cost,
        "trivial_cost": outcome.trivial_cost,
        "compression_ratio": outcome.compression_ratio,
        "runtime_seconds": outcome.timings.search_seconds,
        "explanation": explanation_to_dict(outcome.explanation),
    }


#: One pair's request, or ``None`` plus the reason it could not be built.
PairRequest = Tuple[str, Optional[ExplainRequest], Optional[str]]


def _run_batch_processes(requests: Sequence[PairRequest], *,
                         workers: int,
                         output_dir: Optional[Path],
                         timeout: Optional[float],
                         on_progress: Optional[Callable[[str, str], None]],
                         ) -> List[BatchOutcome]:
    """The ``engine="parallel"`` fan-out: one worker process per pair."""
    outcomes: List[BatchOutcome] = []
    explanations: Dict[str, Dict] = {}
    timed_out = False
    executor = ProcessPoolExecutor(
        max_workers=max(1, workers),
        mp_context=multiprocessing.get_context("spawn"),
    )
    try:
        futures = [
            None if request is None
            else executor.submit(_explain_pair_process, request.to_dict())
            for _, request, _ in requests
        ]
        # Collect in submission order, reporting each pair as soon as its
        # future resolves — the same incremental progress the thread path
        # streams while it waits on jobs one by one.
        for (name, _, request_error), future in zip(requests, futures):
            if future is None:
                payload = {"state": JobState.FAILED.value, "error": request_error}
            else:
                try:
                    payload = future.result(timeout)
                except FutureTimeoutError:
                    future.cancel()
                    timed_out = True
                    payload = {"state": JobState.FAILED.value,
                               "error": f"timed out after {timeout:g}s"}
                except Exception:  # noqa: BLE001 - broken pool, pickling, ...
                    payload = {"state": JobState.FAILED.value,
                               "error": traceback.format_exc(limit=20)}
            if payload.get("explanation") is not None:
                explanations[name] = payload["explanation"]
            outcomes.append(BatchOutcome(
                name=name,
                state=payload["state"],
                cache_hit=False,  # the child processes share no store
                cost=payload.get("cost"),
                trivial_cost=payload.get("trivial_cost"),
                compression_ratio=payload.get("compression_ratio"),
                runtime_seconds=payload.get("runtime_seconds"),
                error=payload.get("error"),
            ))
            if on_progress is not None:
                on_progress(name, payload["state"])
    finally:
        # After a timeout, don't block the caller on the stragglers — the
        # interpreter joins them at exit.
        executor.shutdown(wait=not timed_out, cancel_futures=True)

    _write_outputs(output_dir, outcomes, explanations)
    return outcomes


def _write_outputs(output_dir: Optional[Path], outcomes: Sequence[BatchOutcome],
                   explanations: Mapping[str, Dict]) -> None:
    """Write the per-pair ``<name>.explanation.json`` files and the batch
    summary — shared by the thread and the process fan-outs."""
    if output_dir is None:
        return
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    for outcome in outcomes:
        explanation = explanations.get(outcome.name)
        if explanation is None:
            continue
        path = output_dir / f"{outcome.name}.explanation.json"
        path.write_text(
            json.dumps({**outcome.to_dict(), "explanation": explanation},
                       indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    summary_path = output_dir / "batch_summary.json"
    summary_path.write_text(
        json.dumps([outcome.to_dict() for outcome in outcomes], indent=2) + "\n",
        encoding="utf-8",
    )


def run_batch(directory: Path, *,
              workers: int = 2,
              config: str = "hid",
              overrides: Optional[Mapping[str, object]] = None,
              manager: Optional[JobManager] = None,
              delimiter: str = ",",
              functions: Optional[Sequence[str]] = None,
              engine: Optional[str] = None,
              output_dir: Optional[Path] = None,
              timeout: Optional[float] = None,
              on_progress: Optional[Callable[[str, str], None]] = None
              ) -> List[BatchOutcome]:
    """Explain every snapshot pair in *directory* and return the outcomes.

    Parameters
    ----------
    config:
        The base-configuration name (``"hid"`` / ``"hs"``) that goes into
        every pair's :class:`~repro.api.ExplainRequest`.
    overrides:
        Per-request configuration overrides (e.g. ``{"seed": 7}``).
    manager:
        Reuse an existing manager (e.g. the HTTP service's, sharing its
        result store and its session); otherwise a private pool of
        *workers* threads is created and torn down around the batch.
    functions:
        Restrict the meta-function pool to these registry names for every
        pair (``None`` keeps the full default pool).
    engine:
        ``"parallel"`` shards the directory fan-out *across files*: each
        pair is explained in its own worker process (a bounded
        ``ProcessPoolExecutor`` of *workers* processes) instead of a worker
        thread.  Inside each worker the search runs the columnar engine,
        so explanations stay bit-identical to the thread fan-out.  Any other value (or ``None``) keeps the
        thread-pool fan-out and is recorded on each pair's request.
    output_dir:
        When given, a ``<name>.explanation.json`` file is written per
        successful pair plus a ``batch_summary.json`` of all outcomes.
    on_progress:
        Called with ``(name, state)`` as each job finishes — lets the CLI
        stream a line per pair.
    """
    directory = Path(directory)
    pairs = discover_pairs(directory)
    if not pairs:
        raise FileNotFoundError(
            f"no '*{SOURCE_SUFFIX}' / '*{TARGET_SUFFIX}' pairs in {directory}"
        )

    # One unreadable pair must not sink the batch: record it as failed and
    # keep going.
    requests: List[PairRequest] = []
    for name, source_path, target_path in pairs:
        try:
            request = ExplainRequest(
                source_path=str(source_path),
                target_path=str(target_path),
                delimiter=delimiter,
                config=config,
                overrides={} if overrides is None else dict(overrides),
                functions=None if functions is None else tuple(functions),
                name=name,
                **({} if engine is None else {"engine": engine}),
            )
        except (RequestValidationError, ValueError) as error:
            requests.append((name, None, str(error)))
        else:
            requests.append((name, request, None))

    if engine == ENGINE_PARALLEL and manager is None:
        return _run_batch_processes(
            requests, workers=workers, output_dir=output_dir,
            timeout=timeout, on_progress=on_progress,
        )

    own_manager = manager is None
    if own_manager:
        manager = JobManager(workers=workers)
    try:
        entries: List[Tuple[str, Optional[Job], Optional[str]]] = []
        for name, request, error in requests:
            job = None
            if request is not None:
                try:
                    job = manager.submit_request(request)
                except (RequestValidationError, OSError, ValueError) as failure:
                    error = str(failure)
            entries.append((name, job, error))
        outcomes: List[BatchOutcome] = []
        for name, job, error in entries:
            if job is None:
                outcomes.append(BatchOutcome(
                    name=name, state=JobState.FAILED.value, cache_hit=False,
                    cost=None, trivial_cost=None, compression_ratio=None,
                    runtime_seconds=None, error=error,
                ))
                if on_progress is not None:
                    on_progress(name, JobState.FAILED.value)
                continue
            finished = job.wait(timeout)
            if not finished:
                manager.cancel(job.id)
                job.wait(5.0)
            outcomes.append(_outcome(job))
            if on_progress is not None:
                on_progress(job.name, job.state.value)
    finally:
        if own_manager:
            manager.shutdown(wait=True, cancel_pending=True)

    _write_outputs(output_dir, outcomes, {
        job.name: explanation_to_dict(job.outcome.explanation)
        for _, job, _ in entries
        if job is not None and job.state is JobState.DONE
    })
    return outcomes
