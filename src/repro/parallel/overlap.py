"""Pooled export and sampling pretest: two jobs on the run's worker pool.

``DiscoveryConfig(overlap=True)`` is the only way a run pools its export
and sampling pretest.  :func:`run_overlapped` runs them as two
:meth:`~repro.parallel.pool.WorkerPool.run_job` calls on one pool, in the
paper's phase order (Sec. 3): first every attribute's sorted value file is
written, then the sampling pretest reads those files.

* the export is one job of ``spool-export`` tasks
  (:func:`repro.parallel.export.pooled_export_into`, the same code
  :func:`~repro.parallel.export.pooled_export` runs).  The run's spool
  registry is filled, and its final ``index.json`` saved, on the calling
  thread once that job is done;
* the sampling pretest is one job of ``sample-pretest`` tasks, planned
  from the spool index
  (:meth:`~repro.parallel.planner.ShardPlanner.plan_pretest_chunks`).

The pretest hands back its survivors.  The runner validates them
afterwards through the same validator an in-process run builds: brute
force on the same pool, the heap merge in the calling process.

Exactness is inherited, not re-proven: every task's result is a pure
function of the spool contents and the task itself, and each pretest
verdict depends only on its candidate's two value files and the sampling
seed, never on chunk composition.  The randomized stress-agreement suite
(``tests/parallel/test_overlap_stress.py``) asserts byte-identical
``to_dict()`` output against the in-process pipeline across seeds, worker
counts, formats and fault injections.

The runner owns the spool: it opens it (cache hit, cache staging, an
explicit ``spool_dir`` or a temporary directory), moves a cache miss into
the cache afterwards and removes a temporary or unpublished staging
directory.  This module only runs the two jobs over the spool it is
handed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.candidates import Candidate
from repro.db.database import Database
from repro.errors import DiscoveryError
from repro.obs.trace import Tracer
from repro.parallel.export import pooled_export_into
from repro.parallel.planner import ShardPlanner
from repro.parallel.pool import WorkerPool, merge_pool_stat_dicts
from repro.parallel.tasks import KIND_SAMPLE_PRETEST, TaskSpec
from repro.storage.exporter import ExportStats
from repro.storage.sorted_sets import SpoolDirectory

__all__ = ["OverlapRun", "run_overlapped"]

_PHASE_EXPORT = "export"
_PHASE_PRETEST = "pretest"


@dataclass
class OverlapRun:
    """Everything one overlapped export and pretest produced for the runner.

    ``survivors`` are the candidates the sampling pretest kept, in the
    caller's order; the runner validates them.  ``pool_stats`` sums the
    two jobs' deltas; ``export_seconds`` is the export phase's window, the
    runner's export-phase attribution.  ``overlap_doc`` is the scheduling
    summary surfaced as ``DiscoveryResult.overlap``.
    """

    export_stats: ExportStats
    survivors: list[Candidate]
    sampling_refuted: list[Candidate]
    pool_stats: dict | None
    export_seconds: float
    overlap_doc: dict = field(default_factory=dict)


def _peak_concurrency(spans: list[dict]) -> int:
    """Maximum number of simultaneously running tasks among ``spans``."""
    events: list[tuple[float, int]] = []
    for s in spans:
        events.append((s["start"], 1))
        events.append((s["start"] + s["duration"], -1))
    events.sort()  # a close sorts before an open at the same instant
    current = peak = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


def run_overlapped(
    db: Database,
    cfg,
    candidates: list[Candidate],
    spool: SpoolDirectory,
    pool: WorkerPool,
    tracer: Tracer | None = None,
    *,
    cache_hit: bool,
    started: float,
) -> OverlapRun:
    """Export, then sampling-pretest, as two jobs on ``pool``.

    ``spool`` is the run's opened spool.  On a ``cache_hit`` it already
    holds every attribute the candidates touch, so no export job runs and
    nothing writes to it; otherwise it is empty (or holds adopted donor
    files) and the export job fills it.  ``started`` is the
    ``time.monotonic()`` instant the runner began opening the spool: the
    export window reaches back to it, as a phase-by-phase run's export
    stopwatch covers its cache lookup.

    Raises :class:`~repro.errors.DiscoveryError` on scheduling faults (a
    candidate no pretest chunk covered, a crash-looping task) rather than
    returning partial results.
    """
    if pool is None:
        raise DiscoveryError("overlapped discovery requires a worker pool")
    ordered = list(dict.fromkeys(candidates))
    workers = cfg.validation_workers
    export_stats, export_pool, export_spans = ExportStats(), None, []
    if not cache_hit:
        needed = {c.dependent for c in ordered}
        needed |= {c.referenced for c in ordered}
        export_stats, export_pool, export_spans = pooled_export_into(
            db, spool, sorted(needed), workers, pool, cfg.max_items_in_memory
        )
    exported = time.monotonic()

    survivors: list[Candidate] = ordered
    refuted: list[Candidate] = []
    pretest_pool, pretest_spans = None, []
    if cfg.sampling_size:
        specs = [
            TaskSpec(
                kind=KIND_SAMPLE_PRETEST,
                candidates=chunk.candidates,
                payload=(cfg.sampling_size, cfg.sampling_seed),
            )
            for chunk in ShardPlanner(spool).plan_pretest_chunks(
                ordered, workers
            )
        ]
        verdicts: dict[Candidate, bool] = {}
        if specs:
            job = pool.run_job(str(spool.root), specs)
            for outcome in job.outcomes:
                verdicts.update(outcome.decisions)
            pretest_pool, pretest_spans = job.stats.as_dict(), job.task_spans
        survivors = []
        for candidate in ordered:
            if candidate not in verdicts:
                # A planner hole must fail the run, not silently validate
                # unpretested candidates.
                raise DiscoveryError(
                    f"no pretest task covered candidate {candidate}"
                )
            (survivors if verdicts[candidate] else refuted).append(candidate)
    ended = time.monotonic()

    spans_by_phase = {
        _PHASE_EXPORT: export_spans,
        _PHASE_PRETEST: pretest_spans,
    }
    overlap_doc = {
        "nodes": len(export_spans) + len(pretest_spans),
        # The pool holds no validation tasks of this run to cancel, and the
        # pretest job starts only after the export job, so both keys read
        # zero; they stay so existing readers of the document keep working.
        "cancelled": 0,
        "tasks_by_phase": {
            phase: len(spans) for phase, spans in spans_by_phase.items()
        },
        "max_concurrency": {
            phase: _peak_concurrency(spans)
            for phase, spans in spans_by_phase.items()
            if spans
        },
        "cross_phase_overlap_seconds": 0.0,
    }

    if tracer is not None:
        # Phase windows, back to back like phase stopwatches: export from
        # the spool opening to the end of the export job, then pretest to
        # the end of the pretest job.
        windows = {_PHASE_EXPORT: (started, exported)}
        if cfg.sampling_size:
            windows[_PHASE_PRETEST] = (exported, ended)
        parent = tracer.current_span_id()
        for phase, (start, end) in windows.items():
            spans = spans_by_phase[phase]
            phase_id = tracer.add_span(
                parent, phase, start, end - start,
                overlapped=True, tasks=len(spans),
            )
            tracer.add_task_spans(phase_id, spans)

    return OverlapRun(
        export_stats=export_stats,
        survivors=survivors,
        sampling_refuted=refuted,
        pool_stats=merge_pool_stat_dicts([export_pool, pretest_pool]),
        export_seconds=exported - started,
        overlap_doc=overlap_doc,
    )
