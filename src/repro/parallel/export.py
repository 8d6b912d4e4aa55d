"""Pool-backed spool export: the export phase as ``spool-export`` tasks.

The export phase is the most I/O-bound stage of an external discovery run
and embarrassingly parallel per attribute (render → sort → write, nothing
shared).  ``export_workers`` fans it out over *threads*; this module
dispatches it over the same warm :class:`~repro.parallel.pool.WorkerPool` that runs
validation, so a :class:`~repro.core.runner.DiscoverySession` keeps one
fleet busy through the whole pipeline instead of idling it until the
validate phase.

Protocol:

1. the parent creates the spool directory and saves a **bare index**
   (format + block size, no attributes) so worker processes can open the
   root like any other spool;
2. :func:`repro.storage.exporter.plan_export_units` packages each
   attribute — raw values, dtype, and a parent-reserved file name — into a
   picklable :class:`~repro.storage.exporter.ExportUnit`; units are packed
   into cost-budgeted groups by estimated row count
   (:func:`~repro.parallel.planner.pack_cost_groups`) and dispatched as
   ``spool-export`` tasks;
3. each task writes its units' value files with an atomic
   rename-on-complete (:func:`~repro.storage.sorted_sets.write_value_file`)
   and ships the per-attribute metadata back in its outcome payload;
4. the parent registers the metadata, folds
   :class:`~repro.storage.exporter.ExportStats` in unit order — the same
   order the sequential export folds them — and saves the final index.

A worker death mid-task therefore never corrupts the spool: unfinished
value files exist only under temporary names, the requeued task rewrites
them deterministically, and the index mentions an attribute only after its
file is complete.  The spool content, the index document and the export
statistics are byte-identical to :func:`~repro.storage.exporter.export_database`
at every worker count.

This module runs export as its *own* job with a join at the end.  Under
``overlap=True`` the same ``spool-export`` tasks instead become the root
nodes of a dependency graph (:func:`repro.parallel.overlap.run_overlapped`
→ :meth:`~repro.parallel.pool.WorkerPool.run_graph`): pretest and
validation tasks release per-node as their spool files land, with no
barrier between the phases.  The unit planning, group packing, stats
folding and index finalisation there mirror this module step for step, so
both paths stay byte-identical to the sequential exporter.
"""

from __future__ import annotations

from pathlib import Path

from repro.db.database import Database
from repro.db.schema import AttributeRef
from repro.parallel.planner import pack_cost_groups
from repro.parallel.pool import WorkerPool, run_specs
from repro.parallel.tasks import KIND_SPOOL_EXPORT, TaskSpec
from repro.storage.blockio import DEFAULT_BLOCK_SIZE
from repro.storage.codec import COMPRESSION_NONE
from repro.storage.exporter import ExportStats, plan_export_units
from repro.storage.external_sort import DEFAULT_RUN_SIZE
from repro.storage.sorted_sets import FORMAT_BINARY, SpoolDirectory

__all__ = ["pooled_export", "pooled_export_into"]


def pooled_export(
    db: Database,
    spool_root: str,
    workers: int,
    pool: WorkerPool | None = None,
    attributes: list[AttributeRef] | None = None,
    max_items_in_memory: int = DEFAULT_RUN_SIZE,
    include_empty: bool = False,
    spool_format: str = FORMAT_BINARY,
    block_size: int = DEFAULT_BLOCK_SIZE,
    compression: str = COMPRESSION_NONE,
    mmap_reads: bool = False,
) -> tuple[SpoolDirectory, ExportStats, dict | None, list[dict]]:
    """Export ``db`` into ``spool_root`` via ``spool-export`` pool tasks.

    Drop-in replacement for :func:`repro.storage.exporter.export_database`
    with the same spool contents, index document and statistics — plus the
    job's pool-stats delta as a third return value (``None`` when there was
    nothing to export) and the job's worker-stamped per-task spans as a
    fourth (empty when nothing ran; see
    :attr:`~repro.parallel.pool.JobResult.task_spans`).  ``pool`` borrows a
    persistent fleet; without one a right-sized throwaway pool is built and
    drained, exactly like the validation engines
    (:func:`~repro.parallel.pool.run_specs`).
    """
    spool = SpoolDirectory.create(
        spool_root,
        format=spool_format,
        block_size=block_size,
        compression=compression,
        mmap_reads=mmap_reads,
    )
    return pooled_export_into(
        db,
        spool,
        workers,
        pool=pool,
        attributes=attributes,
        max_items_in_memory=max_items_in_memory,
        include_empty=include_empty,
    )


def pooled_export_into(
    db: Database,
    spool: SpoolDirectory,
    workers: int,
    pool: WorkerPool | None = None,
    attributes: list[AttributeRef] | None = None,
    max_items_in_memory: int = DEFAULT_RUN_SIZE,
    include_empty: bool = False,
) -> tuple[SpoolDirectory, ExportStats, dict | None, list[dict]]:
    """Dispatch export tasks into an *existing* spool directory.

    The pooled counterpart of :func:`repro.storage.exporter.export_into`
    (and the body of :func:`pooled_export`, which delegates here after
    creating the directory): a delta run adopts unchanged attributes'
    files first, then ships only the changed attributes through the pool.
    Attributes already registered in ``spool`` are skipped by unit
    planning; the bare index saved before dispatch includes them, which is
    harmless — workers only *read* the index to open the root, and the
    final index rewrite is atomic either way.
    """
    spool_format = spool.format
    block_size = spool.block_size
    compression = spool.compression
    # Workers open spools through index.json; publish a bare one before the
    # first task can possibly run.  The final index replaces it atomically.
    spool.save_index()
    units = plan_export_units(db, attributes, spool)
    stats = ExportStats()
    if not units:
        return spool, stats, None, []
    groups = pack_cost_groups(
        [(len(unit.values) + 1, unit) for unit in units], workers
    )
    specs = [
        TaskSpec(
            kind=KIND_SPOOL_EXPORT,
            candidates=(),
            payload=(
                tuple(group),
                spool_format,
                block_size,
                max_items_in_memory,
                compression,
            ),
        )
        for group in groups
    ]
    job, _ = run_specs(pool, workers, str(spool.root), specs)
    written = {}
    for outcome in job.outcomes:
        for svf in outcome.payload:
            written[svf.ref] = svf
    for unit in units:
        ref = AttributeRef(unit.table, unit.column)
        svf = written[ref]
        stats.values_scanned += len(unit.values)
        if svf.is_empty and not include_empty:
            spool.release(ref)
            Path(svf.path).unlink(missing_ok=True)
            stats.skipped_empty += 1
            continue
        spool.register(svf)
        stats.attributes_exported += 1
        stats.values_written += svf.count
        stats.per_attribute_counts[unit.qualified] = svf.count
    # A worker that died mid-write leaves its unit's temporary file behind;
    # the requeued task wrote the real one, so strays are pure junk (and
    # must not ride a cache publish into an entry).
    for stray in Path(spool.root).glob("*.tmp-*"):
        stray.unlink(missing_ok=True)
    spool.save_index()
    return spool, stats, job.stats.as_dict(), job.task_spans
