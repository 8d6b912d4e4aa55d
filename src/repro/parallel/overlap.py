"""Streaming phase overlap: the pipeline as one dependency-scheduled graph.

The barriered pipeline runs export, sampling pretest and validation as
three pool *jobs* with a full join between each pair — the fleet drains
completely before the next phase's first task can start, so end-to-end
wall clock is ``sum(phases)`` even though a pretest chunk only needs its
own two attributes' spool files, not the whole export.  This module plans
the same three phases as **one task graph** for
:meth:`~repro.parallel.pool.WorkerPool.run_graph`:

* one node per export group (``spool-export``), released immediately;
* one node per pretest chunk (``sample-pretest``), depending on exactly
  the export nodes that produce its candidates' dependent and referenced
  spool files — the chunk dispatches the moment those files land, while
  unrelated exports are still running;
* one node per validation chunk / merge group, depending on the pretest
  chunks that cover its candidates (and transitively on their exports).
  At release time a gate rewrites the spec to drop candidates the pretest
  refuted — a fully-refuted node is cancelled before dispatch.

Exactness is inherited, not re-proven, from two established facts: every
task's result is a pure function of the spool contents and the task
itself, and the summed validator counters are independent of chunk/group
composition (brute-force tests candidates one at a time; merge groups are
unions of whole candidate-graph components, and dropping a component's
refuted edges only splits it into the same survivor components the
barriered planner would have packed).  The randomized stress-agreement
suite (``tests/parallel/test_overlap_stress.py``) asserts byte-identical
``to_dict()`` output against the barriered pipeline across seeds, worker
counts, formats and fault injections.

Two modes fall out of the engine matrix:

* **full** — fixed ``brute-force`` / ``merge-single-pass``: validation
  rides the graph, no join anywhere.
* **staged** — adaptive routing: the cost model needs the surviving
  candidate set (and real spool) before it can price engines, so the graph
  carries export + pretest only and the runner validates the survivors
  afterwards on the same warm pool.  Export and pretest still overlap.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.candidates import Candidate
from repro.core.stats import ValidationResult
from repro.db.database import Database
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError
from repro.obs.trace import Tracer, maybe_span
from repro.parallel.planner import ShardPlanner, pack_cost_groups
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import (
    GraphNode,
    KIND_BRUTE_FORCE,
    KIND_MERGE_PARTITION,
    KIND_SAMPLE_PRETEST,
    KIND_SPOOL_EXPORT,
    TaskSpec,
    merge_shard_outcomes,
)
from repro.storage.exporter import ExportStats, plan_export_units
from repro.storage.sorted_sets import SpoolDirectory
from repro.storage.spool_cache import (
    SpoolCache,
    attribute_fingerprints,
    catalog_fingerprint,
)

__all__ = ["OverlapRun", "run_overlapped"]

_PHASE_EXPORT = "export"
_PHASE_PRETEST = "pretest"
_PHASE_VALIDATE = "validate"
#: Strategies whose validation can ride the graph directly (fixed engine):
#: the per-task plan is known before the pretest verdicts.
_FULL_OVERLAP_STRATEGIES = frozenset({"brute-force", "merge-single-pass"})


@dataclass
class OverlapRun:
    """Everything one overlapped graph drain produced for the runner.

    ``validation`` is ``None`` in staged mode — the runner routes and
    validates the ``survivors`` itself (adaptive routing needs the
    post-pretest candidate set).  ``pool_stats`` is the whole
    graph's single-job delta; ``export_seconds`` / ``graph_seconds`` give
    the runner its phase-timing attribution (the export *window*, and the
    wall clock of the whole overlapped section — spool setup, planning,
    graph drain and final folds).  ``overlap_doc`` is the scheduling summary
    surfaced as ``DiscoveryResult.overlap``.
    """

    spool: SpoolDirectory
    spool_path: str
    cleanup_dir: tempfile.TemporaryDirectory | None
    export_stats: ExportStats
    spool_cache_hit: bool
    survivors: list[Candidate]
    sampling_refuted: list[Candidate]
    validation: ValidationResult | None
    pool_stats: dict | None
    export_seconds: float
    graph_seconds: float
    overlap_doc: dict = field(default_factory=dict)


def _full_overlap(cfg) -> bool:
    """Can validation ride the graph, or must the runner stage it?"""
    return cfg.strategy in _FULL_OVERLAP_STRATEGIES and not cfg.is_adaptive


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

    The headline scheduling observation: a barriered pipeline scores 0.0
    here by construction, so any positive value is overlap the barriers
    used to forbid.  Sweep-line over the task spans' intervals.
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
    pool: WorkerPool,
    tracer: Tracer | None = None,
) -> OverlapRun:
    """Drain export → pretest (→ validation) as one dependency graph.

    The cost plans for pretest and validation are built *before* any spool
    file exists, from the column profile's distinct counts — exactly the
    spooled value counts for every non-LOB attribute, so the plans match
    the barriered planner's (and even if they did not, plan composition
    can never change summed results, only balance).  Spool-directory state
    is published from the dispatcher thread between a node's completion
    and its dependents' release (``on_complete`` registers value files and
    re-saves the index atomically), so a dependent task always re-opens a
    spool index that already names its files.

    Mirrors ``runner._cached_export`` / ``runner._export`` for the spool
    root: ``reuse_spool`` probes the content-addressed cache (a hit makes
    the graph start at the pretest layer with zero export nodes) and
    publishes a miss after the drain; otherwise the explicit ``spool_dir``
    or a temporary directory is used.  Raises
    :class:`~repro.errors.DiscoveryError` on scheduling faults (a
    candidate no pretest chunk covered, a crash-looping task) rather than
    returning partial results.
    """
    if pool is None:
        raise DiscoveryError("overlapped discovery requires a worker pool")
    # Imported here: runner imports this module lazily inside discover_inds,
    # so a module-level import back into runner would be cycle-prone.
    from repro.core.runner import DEFAULT_CACHE_DIR

    # Everything below — spool setup, value planning, the graph drain and
    # the final folds — is billed to the phase windows (the barriered
    # pipeline times the same work inside its phase stopwatches).
    overlap_start = time.monotonic()

    needed = sorted(
        {c.dependent for c in candidates} | {c.referenced for c in candidates}
    )
    ordered = list(dict.fromkeys(candidates))
    workers = cfg.validation_workers

    # -- spool root: cache entry / cache staging / explicit dir / tempdir --
    cache: SpoolCache | None = None
    fingerprint: str | None = None
    cleanup_dir: tempfile.TemporaryDirectory | None = None
    cache_hit = False
    spool: SpoolDirectory | None = None
    root: str | None = None
    if cfg.reuse_spool:
        fingerprint = catalog_fingerprint(db.name, column_stats)
        cache = SpoolCache(
            cfg.cache_dir or DEFAULT_CACHE_DIR, max_bytes=cfg.cache_max_bytes
        )
        with maybe_span(tracer, "cache-lookup") as lookup_span:
            cached = cache.lookup(
                fingerprint,
                needed=needed,
                spool_format=cfg.spool_format,
                block_size=cfg.spool_block_size,
                compression=cfg.spool_compression,
                mmap_reads=cfg.resolved_mmap_reads,
            )
            if lookup_span is not None:
                lookup_span.attrs["hit"] = cached is not None
        if cached is not None:
            spool = cached
            cache_hit = True
        else:
            root = str(cache.prepare(fingerprint))
    elif cfg.spool_dir is not None:
        root = cfg.spool_dir
        Path(root).mkdir(parents=True, exist_ok=True)
    else:
        cleanup_dir = tempfile.TemporaryDirectory(prefix="repro-spool-")
        root = cleanup_dir.name
    units: list = []
    if not cache_hit:
        spool = SpoolDirectory.create(
            root,
            format=cfg.spool_format,
            block_size=cfg.spool_block_size,
            compression=cfg.spool_compression,
            mmap_reads=cfg.resolved_mmap_reads,
        )
        # Workers open spools through index.json; publish a bare one before
        # the first task can possibly run (same protocol as pooled_export).
        spool.save_index()
        units = plan_export_units(db, needed, spool)

    # -- graph planning ----------------------------------------------------
    # Column-profile distinct counts stand in for the not-yet-written spool
    # counts; identical for every exportable attribute, and they also cover
    # empty attributes the export will drop (the spool-index fallback would
    # have nothing to say about those).
    counts = {ref: stats.distinct_count for ref, stats in column_stats.items()}
    planner = ShardPlanner(spool, counts=counts)

    nodes: list[GraphNode] = []
    export_groups: list[tuple] = []
    attr_node: dict[AttributeRef, int] = {}
    if units:
        for group in pack_cost_groups(
            [(len(unit.values) + 1, unit) for unit in units], workers
        ):
            node_id = len(nodes)
            export_groups.append(tuple(group))
            nodes.append(
                GraphNode(
                    spec=TaskSpec(
                        kind=KIND_SPOOL_EXPORT,
                        candidates=(),
                        payload=(
                            tuple(group),
                            cfg.spool_format,
                            cfg.spool_block_size,
                            cfg.max_items_in_memory,
                            cfg.spool_compression,
                        ),
                    )
                )
            )
            for unit in group:
                attr_node[AttributeRef(unit.table, unit.column)] = node_id
    export_count = len(nodes)

    candidate_pretest: dict[Candidate, int] = {}
    if cfg.sampling_size:
        for chunk in planner.plan_pretest_chunks(ordered, workers):
            deps = set()
            for candidate in chunk.candidates:
                for attr in (candidate.dependent, candidate.referenced):
                    export_node = attr_node.get(attr)
                    if export_node is not None:
                        deps.add(export_node)
            node_id = len(nodes)
            for candidate in chunk.candidates:
                candidate_pretest[candidate] = node_id
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
    validation_base = len(nodes)

    full = _full_overlap(cfg)
    merge_group_count = 0
    if full:
        if cfg.strategy == "brute-force":
            plans = [
                (chunk.candidates, KIND_BRUTE_FORCE, (cfg.skip_scans,))
                for chunk in planner.plan_chunks(ordered, workers)
            ]
        else:
            merge_groups = planner.plan_merge_groups(ordered, workers)
            merge_group_count = len(merge_groups)
            plans = [
                (group.candidates, KIND_MERGE_PARTITION, (cfg.skip_scans,))
                for group in merge_groups
            ]
        for group_candidates, kind, payload in plans:
            deps = set()
            for candidate in group_candidates:
                pretest_node = candidate_pretest.get(candidate)
                if pretest_node is not None:
                    # Export coverage is transitive through the pretest node.
                    deps.add(pretest_node)
                    continue
                for attr in (candidate.dependent, candidate.referenced):
                    export_node = attr_node.get(attr)
                    if export_node is not None:
                        deps.add(export_node)
            nodes.append(
                GraphNode(
                    spec=TaskSpec(
                        kind=kind,
                        candidates=tuple(group_candidates),
                        payload=payload,
                    ),
                    deps=tuple(sorted(deps)),
                )
            )
    validation_count = len(nodes) - validation_base

    # -- callbacks (both run on the dispatcher thread, pool lock held) -----
    verdicts: dict[Candidate, bool] = {}

    def on_complete(node_id: int, outcome) -> None:
        if node_id < export_count:
            written = {svf.ref: svf for svf in outcome.payload}
            for unit in export_groups[node_id]:
                ref = AttributeRef(unit.table, unit.column)
                svf = written[ref]
                if svf.is_empty:
                    spool.release(ref)
                    Path(svf.path).unlink(missing_ok=True)
                else:
                    spool.register(svf)
            # Dependents re-open the spool by path, so the index must name
            # this node's files before any of them is released.  save_index
            # writes atomically (tmp + rename) and sorts attributes, making
            # the final document independent of completion order; the mtime
            # bump invalidates workers' warm handles so they re-parse.
            spool.save_index()
        elif node_id < validation_base:
            verdicts.update(outcome.decisions)

    def gate(node_id: int, spec: TaskSpec) -> TaskSpec | None:
        if node_id < validation_base or not pretest_count:
            return spec
        kept = []
        for candidate in spec.candidates:
            if candidate not in verdicts:
                # Same loudness as the barriered pooled pretest: a planner
                # hole must fail the run, not silently validate unpretested
                # candidates.
                raise DiscoveryError(
                    f"no pretest task covered candidate {candidate}"
                )
            if verdicts[candidate]:
                kept.append(candidate)
        if not kept:
            return None  # every candidate refuted: cancel before dispatch
        return TaskSpec(
            kind=spec.kind, candidates=tuple(kept), payload=spec.payload
        )

    graph = pool.run_graph(
        str(spool.root), nodes, gate=gate, on_complete=on_complete
    )

    # -- export finalisation: stats fold in unit order, like pooled_export -
    export_stats = ExportStats()
    if units:
        written_all = {}
        for node_id in range(export_count):
            for svf in graph.outcomes[node_id].payload:
                written_all[svf.ref] = svf
        for unit in units:
            svf = written_all[AttributeRef(unit.table, unit.column)]
            export_stats.values_scanned += len(unit.values)
            if svf.is_empty:
                export_stats.skipped_empty += 1
                continue
            export_stats.attributes_exported += 1
            export_stats.values_written += svf.count
            export_stats.per_attribute_counts[unit.qualified] = svf.count
        # A worker that died mid-write leaves its unit's temporary file
        # behind; the requeued task wrote the real one, so strays are junk.
        for stray in Path(spool.root).glob("*.tmp-*"):
            stray.unlink(missing_ok=True)
        spool.save_index()
    if cache is not None and not cache_hit:
        # Tasks all completed against the staging path; publishing renames
        # it atomically into the cache and reopens the spool there.  The
        # stamps make the entry a donor for later partial reuse, exactly
        # like an in-process miss's.
        spool = cache.publish(
            fingerprint,
            spool,
            database=db.name,
            fingerprints=attribute_fingerprints(column_stats),
        )

    # -- survivors ---------------------------------------------------------
    survivors: list[Candidate] = ordered
    refuted: list[Candidate] = []
    if cfg.sampling_size:
        survivors = []
        for candidate in ordered:
            if candidate not in verdicts:
                raise DiscoveryError(
                    f"no pretest task covered candidate {candidate}"
                )
            (survivors if verdicts[candidate] else refuted).append(candidate)

    # -- per-phase windows, trace adoption, scheduling summary -------------
    spans_by_phase: dict[str, list[dict]] = {
        _PHASE_EXPORT: [],
        _PHASE_PRETEST: [],
        _PHASE_VALIDATE: [],
    }
    for node_id, span in graph.task_spans.items():
        if node_id < export_count:
            phase = _PHASE_EXPORT
        elif node_id < validation_base:
            phase = _PHASE_PRETEST
        else:
            phase = _PHASE_VALIDATE
        spans_by_phase[phase].append(span)
    # Phase windows: [min task start, max task end] per phase, with the
    # first non-empty phase pulled back to the graph's start and the last
    # pushed out to its end.  The barriered pipeline buries pool spawn and
    # drain latency inside its phase stopwatches; attributing them to the
    # edge phases here keeps trace coverage and timing buckets comparable.
    windows: dict[str, list[float]] = {}
    for phase in (_PHASE_EXPORT, _PHASE_PRETEST, _PHASE_VALIDATE):
        spans = spans_by_phase[phase]
        if spans:
            start, duration = _window(spans)
            windows[phase] = [start, start + duration]
    overlap_end = time.monotonic()
    graph_seconds = overlap_end - overlap_start
    if windows:
        phases = list(windows)
        windows[phases[0]][0] = min(windows[phases[0]][0], overlap_start)
        windows[phases[-1]][1] = max(windows[phases[-1]][1], overlap_end)
        for prev, cur in zip(phases, phases[1:]):
            # Bill inter-phase dispatch latency to the waiting phase, the
            # way the barriered pipeline's back-to-back stopwatches do.
            windows[cur][0] = min(windows[cur][0], windows[prev][1])
    else:
        # Nothing ran (no candidates, or a cache hit with sampling off):
        # still bill the section's setup work to an export window, as the
        # barriered pipeline's always-present export stopwatch would.
        windows[_PHASE_EXPORT] = [overlap_start, overlap_end]
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

    overlap_doc = {
        "mode": "full" if full else "staged",
        "nodes": len(nodes),
        "edges": sum(len(set(node.deps)) for node in nodes),
        "cancelled": len(graph.cancelled),
        "tasks_by_phase": {
            _PHASE_EXPORT: export_count,
            _PHASE_PRETEST: pretest_count,
            _PHASE_VALIDATE: validation_count,
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

    # -- full-mode validation assembly -------------------------------------
    validation: ValidationResult | None = None
    if full:
        outcomes = [
            graph.outcomes[node_id]
            for node_id in range(validation_base, len(nodes))
            if node_id in graph.outcomes
        ]
        validation = merge_shard_outcomes(survivors, outcomes, cfg.strategy)
        if _PHASE_VALIDATE in windows:
            start, end = windows[_PHASE_VALIDATE]
            validation.stats.elapsed_seconds = end - start
        extra = validation.stats.extra
        extra["validation_workers"] = float(workers)
        if cfg.strategy == "brute-force":
            extra["shards"] = float(validation_count)
        else:
            extra["merge_groups"] = float(merge_group_count)
            extra["partitions"] = float(validation_count)
        # The pool is always borrowed here (session's or the run's own);
        # the runner downgrades this to 0.0 for a run-owned fleet, exactly
        # as it does for the barriered engines.
        extra["pool_warm"] = 1.0
        if outcomes:
            key = (
                "slowest_shard_seconds"
                if cfg.strategy == "brute-force"
                else "slowest_partition_seconds"
            )
            extra[key] = max(o.stats.elapsed_seconds for o in outcomes)

    return OverlapRun(
        spool=spool,
        spool_path=str(spool.root),
        cleanup_dir=cleanup_dir,
        export_stats=export_stats,
        spool_cache_hit=cache_hit,
        survivors=survivors,
        sampling_refuted=refuted,
        validation=validation,
        pool_stats=graph.stats.as_dict() if nodes else None,
        export_seconds=export_seconds,
        graph_seconds=graph_seconds,
        overlap_doc=overlap_doc,
    )
