"""Pooled brute-force validation, export and pretest over one worker pool.

Brute-force validation tests each candidate on its own, so it splits into
chunks that any worker can run; the export and the sampling pretest of an
``overlap`` run ride the same pool.  The heap merge of ``merge-single-pass``
is one sequential pass and always runs in the calling process.

===================  =====================================================
``tasks``            The typed task model: :class:`TaskSpec` /
                     :class:`PoolTask`, the task-kind registry
                     (:func:`register_task_kind`), and the three built-in
                     kinds — brute-force chunks, spool export units, and
                     sampling-pretest chunks.
``export``           :func:`pooled_export` — the export phase as one job
                     of ``spool-export`` tasks: workers render, sort and
                     atomically write per-attribute value files; the
                     parent assembles the index.  Byte-identical output
                     to the sequential exporter.  An overlapped run
                     exports through the same
                     :func:`~repro.parallel.export.pooled_export_into`.
``planner``          :class:`ShardPlanner` — cost-balanced partitions of
                     the candidate set, sized by spool value counts: small
                     work-stealing chunks of brute-force tests or of the
                     sampling pretest.
``pool``             :class:`WorkerPool` — persistent worker processes,
                     each fed one task at a time over its own pipe by
                     the parent; survives across
                     ``validate()`` and ``discover_inds`` calls, runs any
                     registered task kind, serves concurrent jobs from
                     multiple caller threads, requeues the tasks of dead
                     workers, keeps spool handles warm across kinds.
``overlap``          :func:`run_overlapped` — export and then the sampling
                     pretest as two jobs on one pool; it returns the
                     survivors, which brute force then validates on the
                     same pool.  The only pooled export and pretest of a run;
                     byte-identical results to the in-process pipeline.
``engine``           :class:`ProcessPoolValidationEngine` — brute-force
                     chunks dispatched through a pool (per-call or
                     persistent); decisions and summed I/O identical to
                     the sequential validator.
``merge``            :class:`PartitionedMergeValidator` — a read-only
                     shim: the in-process heap merge under its old pooled
                     name, kept for the benchmark's layer passes.
===================  =====================================================

Workers always re-open the spool by path (``index.json`` describes every
file), never inherit handles: a task carries its spool's root as a string,
and a worker opens it through its warm-handle cache
(``repro.parallel.pool._open_warm``).
"""

from repro.parallel.engine import ProcessPoolValidationEngine
from repro.parallel.export import pooled_export
from repro.parallel.merge import PartitionedMergeValidator
from repro.parallel.planner import (
    Chunk,
    ShardPlanner,
    pack_cost_groups,
)
from repro.parallel.overlap import OverlapRun, run_overlapped
from repro.parallel.pool import (
    JobResult,
    PoolStats,
    WorkerPool,
    merge_pool_stat_dicts,
)
from repro.parallel.tasks import (
    KIND_BRUTE_FORCE,
    KIND_SAMPLE_PRETEST,
    KIND_SPOOL_EXPORT,
    PoolTask,
    ShardOutcome,
    TaskSpec,
    merge_shard_outcomes,
    register_task_kind,
    resolve_task_kind,
    task_kinds,
)

__all__ = [
    "Chunk",
    "JobResult",
    "KIND_BRUTE_FORCE",
    "OverlapRun",
    "PartitionedMergeValidator",
    "PoolStats",
    "PoolTask",
    "ProcessPoolValidationEngine",
    "ShardOutcome",
    "ShardPlanner",
    "TaskSpec",
    "WorkerPool",
    "merge_shard_outcomes",
    "register_task_kind",
    "resolve_task_kind",
    "run_overlapped",
    "task_kinds",
]
