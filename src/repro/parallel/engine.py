"""Process-pool brute-force validation over a shared read-only spool.

The paper's brute-force validator (Sec. 3.1) tests one candidate at a time
and shares nothing between tests — the textbook embarrassingly parallel
workload.  This engine cuts the pretested candidate set into small
cost-bounded chunks (:meth:`repro.parallel.planner.ShardPlanner.plan_chunks`),
pushes them through the work-stealing queue of a
:class:`repro.parallel.pool.WorkerPool` — workers pull chunks as they finish,
so a mispredicted early stop frees a worker immediately instead of stranding
it behind a static plan — and folds the per-chunk decisions and counters back
into one :class:`ValidationResult` that is indistinguishable from the
sequential run: identical decisions, identical satisfied set, identical
summed ``items_read`` and ``comparisons`` (each candidate's test is a
deterministic function of its two value files, so where it runs cannot
matter).

The pool may be **per-call** (the default: built for this ``validate`` and
drained afterwards, matching the PR 2 executor semantics) or **persistent**
(pass ``pool=`` — typically via
:class:`repro.core.runner.DiscoverySession` — and the same warm worker fleet
serves every call, amortising process startup and keeping spool handles
open across discovery runs).

Workers receive the spool *path*, never file handles: every worker re-opens
``index.json`` and its value files itself, so there is no shared file offset
to corrupt and the design works identically under ``fork`` and ``spawn``
start methods.  The spool must therefore have a saved index — everything
:func:`repro.storage.exporter.export_database` produces qualifies.
"""

from __future__ import annotations

from repro._util import Stopwatch
from repro.core.brute_force import BruteForceValidator
from repro.core.candidates import Candidate
from repro.core.stats import ValidationResult
from repro.errors import DiscoveryError, SpoolError
from repro.parallel.planner import ShardPlanner
from repro.parallel.pool import WorkerPool, run_specs
from repro.parallel.tasks import (
    KIND_BRUTE_FORCE,
    ShardOutcome,
    TaskSpec,
    merge_shard_outcomes,
)
from repro.storage.sorted_sets import SpoolDirectory

__all__ = [
    "ProcessPoolValidationEngine",
    "ShardOutcome",
    "merge_shard_outcomes",
]


class ProcessPoolValidationEngine:
    """Brute-force validation sharded across worker processes.

    Drop-in replacement for :class:`BruteForceValidator` — same ``validate``
    signature, same decisions, same summed I/O accounting; ``workers=1``
    short-circuits to the sequential validator so there is exactly one code
    path to trust at the bottom.

    Config flags that reach this engine: ``validation_workers`` selects it
    (>1) and sizes the fleet, ``skip_scans`` is forwarded to every worker's
    sequential validator.  With ``pool`` set the engine *borrows* the pool —
    it never shuts it down — so one
    :class:`~repro.parallel.pool.WorkerPool` can serve many engines and many
    ``discover_inds`` calls.
    """

    name = "brute-force"

    def __init__(
        self,
        spool: SpoolDirectory,
        workers: int,
        skip_scan: bool = False,
        pool: WorkerPool | None = None,
    ) -> None:
        """Wire the engine to ``spool``; spawn nothing yet.

        ``workers`` sizes the per-call pool and the chunk plan; when a
        persistent ``pool`` is supplied its fleet size wins at execution
        time and ``workers`` only shapes the chunking.
        """
        if workers < 1:
            raise DiscoveryError(f"workers must be >= 1, got {workers!r}")
        self._spool = spool
        self._workers = workers
        self._skip_scan = skip_scan
        self._pool = pool

    def validate(self, candidates: list[Candidate]) -> ValidationResult:
        """Validate ``candidates``; decisions identical to the sequential run."""
        if self._workers == 1 or len(candidates) <= 1:
            return BruteForceValidator(
                self._spool, skip_scan=self._skip_scan
            ).validate(candidates)
        spool_root = str(self._spool.root)
        if not (self._spool.root / "index.json").exists():
            raise SpoolError(
                f"spool {spool_root} has no saved index; workers cannot "
                "re-open it"
            )
        with Stopwatch() as clock:
            # Dedupe before planning, as the sequential collector would:
            # two copies in different chunks would make the merge (rightly)
            # refuse the double decision.
            chunks = ShardPlanner(self._spool).plan_chunks(
                list(dict.fromkeys(candidates)), self._workers
            )
            specs = [
                TaskSpec(
                    kind=KIND_BRUTE_FORCE,
                    candidates=chunk.candidates,
                    payload=(self._skip_scan,),
                )
                for chunk in chunks
            ]
            job, ephemeral = run_specs(
                self._pool, self._workers, spool_root, specs
            )
        result = merge_shard_outcomes(candidates, job.outcomes, self.name)
        result.pool = job.stats.as_dict()
        result.task_spans = job.task_spans
        result.stats.elapsed_seconds = clock.elapsed
        result.stats.extra["validation_workers"] = float(self._workers)
        result.stats.extra["shards"] = float(len(chunks))
        result.stats.extra["pool_warm"] = 0.0 if ephemeral else 1.0
        if job.outcomes:
            result.stats.extra["slowest_shard_seconds"] = max(
                o.stats.elapsed_seconds for o in job.outcomes
            )
        return result
