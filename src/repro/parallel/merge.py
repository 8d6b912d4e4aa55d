"""Pool-backed partitioned merge: the heap merge split along exact seams.

The heap-merge validator (:mod:`repro.core.merge_single_pass`) is one global
pass over every attribute cursor.  The merge reads an attribute until every
candidate *touching* it is decided, so an attribute's consumption depends
only on its connected component in the candidate graph.
:meth:`~repro.parallel.planner.ShardPlanner.plan_merge_groups` packs whole
components into cost-budgeted groups, each group runs one complete heap
merge in a pool worker, and the summed result — decisions, satisfied set,
``items_read``, ``comparisons`` — is **byte-identical** to the sequential
pass.

A graph that is one component is one group, and shipping it to a worker
would buy the sequential pass plus dispatch; so a one-group plan runs the
sequential validator in the calling process instead.  That holds for
concurrent ``repro-ind serve`` requests too.  Their merges share one GIL,
but a pooled merge also spends the GIL in the caller, pickling candidates
out and decisions back: on a 2-core box, two concurrent merges of an
11,391-candidate OpenMMS spool finished sooner both in process than with
one of them on the pool.

Groups dispatch through the shared
:class:`~repro.parallel.pool.WorkerPool` as ``merge-partition`` tasks —
there is no private executor here — so merge partitions ride the same warm
fleet, warm spool handles, work stealing and crash requeues as brute-force
chunks, and ``repro-ind serve`` multiplexes them alike.
"""

from __future__ import annotations

from repro._util import Stopwatch
from repro.core.candidates import Candidate, decode_pairs, encode_candidates
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.core.stats import PairValidation, ValidationResult
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError, SpoolError
from repro.parallel.planner import MergeGroup, PairGroup, ShardPlanner
from repro.parallel.pool import WorkerPool, run_specs
from repro.parallel.tasks import (
    KIND_MERGE_PARTITION,
    TaskSpec,
    merge_shard_outcomes,
)
from repro.storage.sorted_sets import SpoolDirectory

__all__ = ["PartitionedMergeValidator"]


class PartitionedMergeValidator:
    """Merge-single-pass dispatched through the shared worker pool.

    The plan splits candidates into whole candidate-graph components
    (:meth:`ShardPlanner.plan_merge_groups`), which keeps decisions, the
    satisfied set, ``items_read`` and ``comparisons`` byte-identical to the
    sequential merge validator at every worker count — asserted per seed in
    the agreement suite.

    ``workers=1`` short-circuits to the sequential validator, and so does a
    one-group plan: the result then has ``pool=None`` and no worker is
    involved.  A plan of several groups reuses a borrowed ``pool``'s warm
    fleet (and never shuts it down); without one it builds a per-call
    :class:`~repro.parallel.pool.WorkerPool` and drains it afterwards.
    Either way ``stats.extra["merge_groups"]`` records the plan's size.
    """

    name = "merge-single-pass"

    def __init__(
        self,
        spool: SpoolDirectory,
        workers: int,
        pool: WorkerPool | None = None,
        planner: ShardPlanner | None = None,
        skip_scan: bool = False,
    ) -> None:
        """Wire the validator to ``spool``; spawn nothing yet.

        ``workers`` sizes the per-call pool and the group plan; when a
        persistent ``pool`` is supplied its fleet size wins at execution
        time and ``workers`` only shapes the planning.  ``skip_scan``
        forwards the merge-side frontier skip to every partition's
        validator (decisions stay exact; ``items_read`` may legitimately
        drop — see
        :class:`~repro.core.merge_single_pass.MergeSinglePassValidator`).
        """
        if workers < 1:
            raise DiscoveryError(f"workers must be >= 1, got {workers!r}")
        self._spool = spool
        self._workers = workers
        self._pool = pool
        self._planner = planner or ShardPlanner(spool)
        self._skip_scan = bool(skip_scan)

    def plan(self, candidates: list[Candidate]) -> list[MergeGroup]:
        """The component-grouped merge plan this validator would dispatch."""
        return self._planner.plan_merge_groups(candidates, self._workers)

    def validate(self, candidates: list[Candidate]) -> ValidationResult:
        """Validate ``candidates``; decisions identical to the sequential pass."""
        return self.validate_pairs(*encode_candidates(candidates)).result()

    def validate_pairs(
        self, refs: list[AttributeRef], pairs: list[int]
    ) -> PairValidation:
        """Validate packed ``pairs`` over the sorted numbering ``refs``.

        Plans over the pairs, and a one-group plan merges them in process
        without building a :class:`Candidate`; a pooled plan ships each
        group's candidates to a worker.
        """
        if self._workers == 1 or not pairs:
            return self._sequential(refs, pairs)
        spool_root = str(self._spool.root)
        if not (self._spool.root / "index.json").exists():
            raise SpoolError(
                f"spool {spool_root} has no saved index; workers cannot "
                "re-open it"
            )
        with Stopwatch() as clock:
            groups = self._planner.plan_pair_groups(refs, pairs, self._workers)
            if len(groups) == 1:
                result = self._sequential(refs, pairs)
            else:
                result = self._pooled(refs, pairs, groups, spool_root)
        result.stats.elapsed_seconds = clock.elapsed
        result.stats.extra["validation_workers"] = float(self._workers)
        result.stats.extra["merge_groups"] = float(len(groups))
        return result

    def _sequential(
        self, refs: list[AttributeRef], pairs: list[int]
    ) -> PairValidation:
        """The sequential merge over ``pairs``, duplicates included."""
        return MergeSinglePassValidator(
            self._spool, skip_scan=self._skip_scan
        ).validate_pairs(refs, pairs)

    def _pooled(
        self,
        refs: list[AttributeRef],
        pairs: list[int],
        groups: list[PairGroup],
        spool_root: str,
    ) -> PairValidation:
        """One ``merge-partition`` task per group, summed into one result."""
        specs = [
            TaskSpec(
                kind=KIND_MERGE_PARTITION,
                candidates=tuple(decode_pairs(refs, group.pairs)),
                payload=(self._skip_scan,),
            )
            for group in groups
        ]
        job, ephemeral = run_specs(
            self._pool, self._workers, spool_root, specs
        )
        result = merge_shard_outcomes(
            decode_pairs(refs, pairs), job.outcomes, self.name
        )
        result.pool = job.stats.as_dict()
        result.task_spans = job.task_spans
        result.stats.extra["partitions"] = float(len(specs))
        result.stats.extra["pool_warm"] = 0.0 if ephemeral else 1.0
        if job.outcomes:
            result.stats.extra["slowest_partition_seconds"] = max(
                o.stats.elapsed_seconds for o in job.outcomes
            )
        return PairValidation.of_result(refs, result)
