"""Pool-backed spool export: the export phase as ``spool-export`` tasks.

The export phase is the most I/O-bound stage of an external discovery run
and embarrassingly parallel per attribute (render → sort → write, nothing
shared).  This module dispatches it over a
:class:`~repro.parallel.pool.WorkerPool`.

Protocol (:func:`pooled_export_into`):

1. the parent saves a **bare index** (block size, no attributes)
   so worker processes can open the root like any other spool;
2. :func:`repro.storage.exporter.plan_export_units` packages each
   attribute — raw values, dtype, and a parent-reserved file name — into a
   picklable :class:`~repro.storage.exporter.ExportUnit`; units are packed
   into cost-budgeted groups by estimated row count
   (:func:`~repro.parallel.planner.pack_cost_groups`) and become
   ``spool-export`` tasks, run as one pool job;
3. each task writes its units' value files with an atomic
   rename-on-complete (:func:`~repro.storage.sorted_sets.write_value_file`)
   and ships the per-attribute metadata back in its outcome payload;
4. once the job is done, the parent registers the metadata and folds
   :class:`~repro.storage.exporter.ExportStats` in unit order — the same
   order the sequential export folds them — and saves the final index.

A worker death mid-task therefore never corrupts the spool: unfinished
value files exist only under temporary names, the requeued task rewrites
them deterministically, and the index mentions an attribute only after its
file is complete.  The spool content, the index document and the export
statistics are byte-identical to :func:`~repro.storage.exporter.export_database`
at every worker count.

:func:`pooled_export` creates the spool directory first; an overlapped run
(:func:`repro.parallel.overlap.run_overlapped`) exports into the spool the
runner opened.
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
from repro.storage.sorted_sets import (
    FORMAT_BINARY,
    SpoolDirectory,
    check_format,
    check_mmap_reads,
)

__all__ = ["pooled_export", "pooled_export_into"]


def pooled_export_into(
    db: Database,
    spool: SpoolDirectory,
    attributes: list[AttributeRef] | None,
    workers: int,
    pool: WorkerPool | None = None,
    max_items_in_memory: int = DEFAULT_RUN_SIZE,
    include_empty: bool = False,
) -> tuple[ExportStats, dict | None, list[dict]]:
    """Export the attributes ``spool`` still lacks as one pool job.

    Attributes already registered in ``spool`` (adopted from a donor cache
    entry) are skipped by unit planning.  The bare index saved first
    includes them, which is harmless — workers only *read* the index to
    open the root, and the final index rewrite is atomic either way.  The
    registry is filled, and the final index saved, on the calling thread
    once the job is done.

    Returns the export statistics, the job's pool-stats delta (``None``
    when there was nothing to export) and its worker-stamped per-task
    spans (see :attr:`~repro.parallel.pool.JobResult.task_spans`).
    ``pool=None`` builds a right-sized throwaway pool
    (:func:`~repro.parallel.pool.run_specs`).
    """
    # Workers open spools through index.json; publish a bare one before the
    # first task can possibly run.  The final index replaces it atomically.
    spool.save_index()
    units = plan_export_units(db, attributes, spool)
    specs = [
        TaskSpec(
            kind=KIND_SPOOL_EXPORT,
            candidates=(),
            payload=(
                tuple(group),
                spool.block_size,
                max_items_in_memory,
                spool.compression,
            ),
        )
        for group in pack_cost_groups(
            [(len(unit.values) + 1, unit) for unit in units], workers
        )
    ]
    if not specs:
        return ExportStats(), None, []
    job, _ = run_specs(pool, workers, str(spool.root), specs)
    written = {
        svf.ref: svf for outcome in job.outcomes for svf in outcome.payload
    }
    stats = ExportStats()
    for unit in units:
        svf = written[AttributeRef(unit.table, unit.column)]
        stats.values_scanned += len(unit.values)
        if svf.is_empty and not include_empty:
            spool.release(svf.ref)
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
    return stats, job.stats.as_dict(), job.task_spans


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
    fourth (empty when nothing ran).  ``pool`` borrows a persistent fleet;
    without one a right-sized throwaway pool is built and drained, exactly
    like the validation engines (:func:`~repro.parallel.pool.run_specs`).
    """
    check_format(spool_format)
    check_mmap_reads(mmap_reads)
    spool = SpoolDirectory.create(
        spool_root, block_size=block_size, compression=compression
    )
    stats, pool_stats, task_spans = pooled_export_into(
        db,
        spool,
        attributes,
        workers,
        pool,
        max_items_in_memory,
        include_empty,
    )
    return spool, stats, pool_stats, task_spans
