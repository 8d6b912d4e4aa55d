"""Streaming phase overlap: export and sampling pretest as one task graph.

Run phase by phase, export and the sampling pretest join fully: every
export finishes before the first pretest starts, so their wall clock is
``export + pretest`` even though a pretest chunk only needs its own two
attributes' spool files, not the whole export.  This module plans both
phases as **one task graph** for
:meth:`~repro.parallel.pool.WorkerPool.run_graph`; it is the only way a
run pools its export and pretest:

* one node per export group (``spool-export``, planned by
  :func:`repro.parallel.export.plan_export`), released immediately;
* one node per pretest chunk (``sample-pretest``), depending on exactly
  the export nodes that produce its candidates' dependent and referenced
  spool files — the chunk dispatches the moment those files land, while
  unrelated exports are still running.

The graph hands back the pretest's survivors.  The runner validates them
afterwards on the same pool, through the same validator an in-process run
builds, so a merge is planned from the post-pretest candidate set and a
one-group plan merges in the calling process.

Exactness is inherited, not re-proven: every task's result is a pure
function of the spool contents and the task itself, and each pretest
verdict depends only on its candidate's two value files and the sampling
seed, never on chunk composition.  The randomized stress-agreement suite
(``tests/parallel/test_overlap_stress.py``) asserts byte-identical
``to_dict()`` output against the in-process pipeline across seeds, worker
counts, formats and fault injections.

The runner owns the spool: it opens it (cache hit, cache staging, an
explicit ``spool_dir`` or a temporary directory), moves a cache miss into
the cache after the drain and removes a temporary directory.  This module
only plans and drains the graph over the spool it is handed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.candidates import Candidate
from repro.db.database import Database
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError
from repro.obs.trace import Tracer
from repro.parallel.export import plan_export
from repro.parallel.planner import ShardPlanner
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import GraphNode, KIND_SAMPLE_PRETEST, TaskSpec
from repro.storage.exporter import ExportStats
from repro.storage.sorted_sets import SpoolDirectory

__all__ = ["OverlapRun", "run_overlapped"]

_PHASE_EXPORT = "export"
_PHASE_PRETEST = "pretest"


@dataclass
class OverlapRun:
    """Everything one overlapped graph drain produced for the runner.

    ``survivors`` are the candidates the sampling pretest kept, in the
    caller's order; the runner validates them.  ``pool_stats`` is the
    graph's single-job delta; ``export_seconds`` is the export *window*,
    the runner's export-phase attribution.  ``overlap_doc`` is the
    scheduling summary surfaced as ``DiscoveryResult.overlap``.
    """

    export_stats: ExportStats
    survivors: list[Candidate]
    sampling_refuted: list[Candidate]
    pool_stats: dict | None
    export_seconds: float
    overlap_doc: dict = field(default_factory=dict)


def _window(spans: list[dict]) -> tuple[float, float]:
    """(start, duration) of the interval covering ``spans``; zeros if none."""
    if not spans:
        return 0.0, 0.0
    start = min(s["start"] for s in spans)
    end = max(s["start"] + s["duration"] for s in spans)
    return start, end - start


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


def _cross_phase_seconds(spans_by_phase: dict[str, list[dict]]) -> float:
    """Seconds during which tasks of at least two phases ran simultaneously.

    The headline scheduling observation: a phase-by-phase pipeline scores
    0.0 here by construction, so any positive value is overlap the phase
    barriers would forbid.  Sweep-line over the task spans' intervals.
    """
    events: list[tuple[float, str, int]] = []
    for phase, spans in spans_by_phase.items():
        for s in spans:
            events.append((s["start"], phase, 1))
            events.append((s["start"] + s["duration"], phase, -1))
    events.sort(key=lambda e: e[0])
    active = {phase: 0 for phase in spans_by_phase}
    total = 0.0
    prev: float | None = None
    for instant, phase, delta in events:
        if prev is not None and instant > prev:
            if sum(1 for count in active.values() if count > 0) >= 2:
                total += instant - prev
        active[phase] += delta
        prev = instant
    return total


def run_overlapped(
    db: Database,
    cfg,
    candidates: list[Candidate],
    column_stats: dict,
    spool: SpoolDirectory,
    pool: WorkerPool,
    tracer: Tracer | None = None,
    *,
    cache_hit: bool,
    started: float,
) -> OverlapRun:
    """Drain export → sampling pretest as one dependency graph.

    ``spool`` is the run's opened spool.  On a ``cache_hit`` it already
    holds every attribute the candidates touch, so the graph starts at the
    pretest layer with zero export nodes and never writes to it; otherwise
    it is empty and the export layer fills it.  ``started`` is the
    ``time.monotonic()`` instant the runner began opening the spool: the
    first phase window reaches back to it, as a phase-by-phase run's
    export stopwatch covers its cache lookup.

    The pretest plan is built *before* any spool file exists, from the
    column profile's distinct counts — exactly the spooled value counts
    for every non-LOB attribute, so the plan matches the in-process
    planner's (and even if it did not, chunk composition can never change
    a verdict, only balance).  Spool-directory state is updated from the
    dispatcher thread between a node's completion and its dependents'
    release (``on_complete`` registers value files and re-saves the index
    atomically), so a pretest task always re-opens a spool index that
    already names its files.  Raises
    :class:`~repro.errors.DiscoveryError` on scheduling faults (a
    candidate no pretest chunk covered, a crash-looping task) rather than
    returning partial results.
    """
    if pool is None:
        raise DiscoveryError("overlapped discovery requires a worker pool")
    ordered = list(dict.fromkeys(candidates))
    workers = cfg.validation_workers
    export = None
    if not cache_hit:
        needed = {c.dependent for c in ordered}
        needed |= {c.referenced for c in ordered}
        export = plan_export(
            db, spool, sorted(needed), workers, cfg.max_items_in_memory
        )

    # -- graph planning ----------------------------------------------------
    nodes: list[GraphNode] = []
    attr_node: dict[AttributeRef, int] = {}
    if export is not None:
        for node_id, spec in enumerate(export.specs):
            nodes.append(GraphNode(spec=spec))
            group = export.groups[node_id]
            for unit in group:
                attr_node[AttributeRef(unit.table, unit.column)] = node_id
    export_count = len(nodes)

    if cfg.sampling_size:
        # Column-profile distinct counts stand in for the not-yet-written
        # spool counts; identical for every exportable attribute, and they
        # also cover empty attributes the export will drop (the spool-index
        # fallback would have nothing to say about those).
        counts = {
            ref: stats.distinct_count for ref, stats in column_stats.items()
        }
        planner = ShardPlanner(spool, counts=counts)
        for chunk in planner.plan_pretest_chunks(ordered, workers):
            deps = set()
            for candidate in chunk.candidates:
                for attr in (candidate.dependent, candidate.referenced):
                    export_node = attr_node.get(attr)
                    if export_node is not None:
                        deps.add(export_node)
            nodes.append(
                GraphNode(
                    spec=TaskSpec(
                        kind=KIND_SAMPLE_PRETEST,
                        candidates=chunk.candidates,
                        payload=(cfg.sampling_size, cfg.sampling_seed),
                    ),
                    deps=tuple(sorted(deps)),
                )
            )
    pretest_count = len(nodes) - export_count

    # -- completion callback (dispatcher thread, pool lock held) -----------
    verdicts: dict[Candidate, bool] = {}

    def on_complete(node_id: int, outcome) -> None:
        if node_id < export_count:
            export.land(outcome)
            # Dependents re-open the spool by path, so the index must name
            # this node's files before any of them is released.  save_index
            # writes atomically (tmp + rename) and sorts attributes, making
            # the final document independent of completion order; the mtime
            # bump invalidates workers' warm handles so they re-parse.
            spool.save_index()
        else:
            verdicts.update(outcome.decisions)

    graph = pool.run_graph(str(spool.root), nodes, on_complete=on_complete)

    export_stats = ExportStats()
    if export is not None:
        export_stats = export.finish(
            [graph.outcomes[node_id] for node_id in range(export_count)]
        )

    # -- survivors ---------------------------------------------------------
    survivors: list[Candidate] = ordered
    refuted: list[Candidate] = []
    if cfg.sampling_size:
        survivors = []
        for candidate in ordered:
            if candidate not in verdicts:
                # A planner hole must fail the run, not silently validate
                # unpretested candidates.
                raise DiscoveryError(
                    f"no pretest task covered candidate {candidate}"
                )
            (survivors if verdicts[candidate] else refuted).append(candidate)

    # -- scheduling summary ------------------------------------------------
    spans_by_phase: dict[str, list[dict]] = {
        _PHASE_EXPORT: [],
        _PHASE_PRETEST: [],
    }
    for node_id, span in graph.task_spans.items():
        phase = _PHASE_EXPORT if node_id < export_count else _PHASE_PRETEST
        spans_by_phase[phase].append(span)
    overlap_doc = {
        "nodes": len(nodes),
        "edges": sum(len(set(node.deps)) for node in nodes),
        # The graph holds no validation nodes, so it never cancels one;
        # the key stays so existing readers of the document keep working.
        "cancelled": 0,
        "tasks_by_phase": {
            _PHASE_EXPORT: export_count,
            _PHASE_PRETEST: pretest_count,
        },
        "max_concurrency": {
            phase: _peak_concurrency(spans)
            for phase, spans in spans_by_phase.items()
            if spans
        },
        "cross_phase_overlap_seconds": round(
            _cross_phase_seconds(spans_by_phase), 6
        ),
    }

    # -- per-phase windows and trace adoption ------------------------------
    # Phase windows: [min task start, max task end] per phase, with the
    # first non-empty phase pulled back to the section's start and the last
    # pushed out to its end, after every fold above.  A phase-by-phase run
    # buries spool setup, drain latency and result folding inside its phase
    # stopwatches; attributing them to the edge phases here keeps trace
    # coverage and timing buckets comparable.
    windows: dict[str, list[float]] = {}
    for phase in (_PHASE_EXPORT, _PHASE_PRETEST):
        spans = spans_by_phase[phase]
        if spans:
            start, duration = _window(spans)
            windows[phase] = [start, start + duration]
    overlap_end = time.monotonic()
    if windows:
        phases = list(windows)
        windows[phases[0]][0] = min(windows[phases[0]][0], started)
        windows[phases[-1]][1] = max(windows[phases[-1]][1], overlap_end)
        for prev, cur in zip(phases, phases[1:]):
            # Bill inter-phase dispatch latency to the waiting phase, the
            # way back-to-back phase stopwatches do.
            windows[cur][0] = min(windows[cur][0], windows[prev][1])
    else:
        # Nothing ran (no candidates, or a cache hit with sampling off):
        # still bill the section's setup work to an export window, as the
        # in-process pipeline's always-present export stopwatch would.
        windows[_PHASE_EXPORT] = [started, overlap_end]
    export_seconds = 0.0
    if _PHASE_EXPORT in windows:
        start, end = windows[_PHASE_EXPORT]
        export_seconds = end - start
    if tracer is not None:
        parent = tracer.current_span_id()
        for phase, (start, end) in windows.items():
            spans = sorted(
                spans_by_phase[phase],
                key=lambda s: s.get("attrs", {}).get("task_id", 0),
            )
            phase_id = tracer.add_span(
                parent, phase, start, end - start,
                overlapped=True, tasks=len(spans),
            )
            tracer.add_task_spans(phase_id, spans)

    return OverlapRun(
        export_stats=export_stats,
        survivors=survivors,
        sampling_refuted=refuted,
        pool_stats=graph.stats.as_dict() if nodes else None,
        export_seconds=export_seconds,
        overlap_doc=overlap_doc,
    )
