"""The pool's task model: typed task kinds and their worker-side executors.

The :class:`~repro.parallel.pool.WorkerPool` is a *substrate* that runs
any registered kind of work:

* a :class:`TaskSpec` names **what** to run (a task ``kind``, the candidates
  it covers, and a kind-specific ``payload``) without saying **where**;
* a registry maps each kind to the function a worker process calls to
  execute it (:func:`register_task_kind` / :func:`resolve_task_kind`);
* three kinds ship built in: :data:`KIND_BRUTE_FORCE` (a cost-bounded chunk
  of candidates through the sequential
  :class:`~repro.core.brute_force.BruteForceValidator`),
  :data:`KIND_SPOOL_EXPORT` (a group of export units: render → sort →
  atomic value-file write, metadata shipped back for the parent to
  assemble the index), and :data:`KIND_SAMPLE_PRETEST` (the Sec. 4.1
  sampling pretest over a candidate chunk — a seeded reservoir sample per
  dependent attribute, tested by set containment, that prunes candidates
  before full validation).

Executors run **in the worker process** against the worker's warm
:class:`~repro.storage.sorted_sets.SpoolDirectory` handle and return a
:class:`ShardOutcome`; they must be pure functions of the spool contents and
the task (no ambient state), which is what makes requeue-after-crash safe
for every kind at once.  Custom kinds registered at import time of a module
both parent and workers import work under every multiprocessing start
method; kinds registered dynamically (e.g. inside a test) require the
``fork`` start method, where workers inherit the parent's registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.candidates import Candidate
from repro.core.stats import DecisionCollector, ValidationResult, ValidatorStats
from repro.errors import DiscoveryError

if TYPE_CHECKING:  # circular-import guard: pool builds on this module
    from repro.storage.sorted_sets import SpoolDirectory

#: Registry key of the built-in brute-force chunk executor.  Payload:
#: ``(skip_scan,)`` — forwarded to the sequential validator.
KIND_BRUTE_FORCE = "brute-force"

#: Registry key of the built-in spool-export executor.  Payload:
#: ``(units, block_size, max_items_in_memory, compression)``, where
#: ``units`` is a tuple of :class:`repro.storage.exporter.ExportUnit`.  Carries no candidates; the
#: written files' metadata comes back in the outcome's ``payload``.
KIND_SPOOL_EXPORT = "spool-export"

#: Registry key of the built-in sampling-pretest executor.  Payload:
#: ``(sample_size, seed)``; ``decisions`` maps each candidate to ``True``
#: (survives into full validation) or ``False`` (refuted by its sample).
KIND_SAMPLE_PRETEST = "sample-pretest"


@dataclass
class ShardOutcome:
    """What one executed task ships back: decisions plus measured counters.

    ``payload`` carries kind-specific result data beyond decisions —
    ``spool-export`` tasks ship the written files' metadata there; the
    validation kinds leave it ``None``.  ``span`` is the worker-stamped
    timing record (:func:`repro.obs.trace.stamp`) the worker loop attaches
    after execution; it is observability data only — never folded into
    decisions or counters, so tracing cannot perturb results.
    """

    shard_index: int
    decisions: dict[Candidate, bool]
    vacuous: set[Candidate]
    stats: ValidatorStats
    payload: object = None
    span: dict | None = None


@dataclass(frozen=True)
class TaskSpec:
    """One unit of pool work: a kind, its candidates, a kind-specific payload.

    Specs are what callers hand to :meth:`~repro.parallel.pool.WorkerPool.run_job`;
    the pool stamps job/task ids onto them to form the queued
    :class:`PoolTask`.  ``payload`` must be picklable and is interpreted
    only by the kind's executor.
    """

    kind: str
    candidates: tuple[Candidate, ...]
    payload: tuple = ()


@dataclass(frozen=True)
class PoolTask:
    """A queued :class:`TaskSpec`: job- and task-stamped, ready for a worker."""

    job_id: int
    task_id: int
    kind: str
    spool_root: str
    candidates: tuple[Candidate, ...]
    payload: tuple = ()


#: A worker-side executor: runs one task against the (possibly warm) spool
#: handle and returns its outcome.  Must be deterministic in (spool, task).
TaskExecutor = Callable[["SpoolDirectory", PoolTask], ShardOutcome]

_REGISTRY: dict[str, TaskExecutor] = {}


def register_task_kind(
    kind: str, executor: TaskExecutor, replace: bool = False
) -> None:
    """Map ``kind`` to a worker-side ``executor``.

    Refuses to overwrite an existing kind unless ``replace=True`` — two
    modules silently fighting over one kind name would make task behaviour
    depend on import order.  Registration must happen in code the worker
    processes also import (module scope) to work under ``spawn``; under
    ``fork`` the workers inherit whatever the parent registered.
    """
    if not kind or not isinstance(kind, str):
        raise DiscoveryError(f"task kind must be a non-empty string, got {kind!r}")
    if not replace and kind in _REGISTRY:
        raise DiscoveryError(
            f"task kind {kind!r} is already registered; pass replace=True "
            "to override it deliberately"
        )
    _REGISTRY[kind] = executor


def resolve_task_kind(kind: str) -> TaskExecutor:
    """Return the executor registered for ``kind``; loud about unknowns."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise DiscoveryError(
            f"unknown task kind {kind!r}; registered kinds: "
            f"{sorted(_REGISTRY)}"
        ) from None


def task_kinds() -> tuple[str, ...]:
    """The currently registered kinds, sorted (built-ins always present)."""
    return tuple(sorted(_REGISTRY))


def merge_shard_outcomes(
    candidates: list[Candidate],
    outcomes: list[ShardOutcome],
    validator_name: str,
) -> ValidationResult:
    """Fold per-task results into one, in the original candidate order.

    Additive counters (items, comparisons, file opens, skip-scan counters)
    sum; ``peak_open_files`` sums too, because the tasks hold their cursors
    *concurrently* — the sum is the fleet-wide worst case the operator has to
    provision file descriptors for.  Raises if the outcomes do not jointly
    cover the candidate list exactly once — that would be a planner bug, and
    silently mis-merged decisions are the worst possible failure mode.
    """
    decided: dict[Candidate, bool] = {}
    vacuous: set[Candidate] = set()
    merged = ValidatorStats(validator=validator_name)
    for outcome in sorted(outcomes, key=lambda o: o.shard_index):
        for candidate, satisfied in outcome.decisions.items():
            if candidate in decided:
                raise DiscoveryError(
                    f"candidate {candidate} was validated by two shards"
                )
            decided[candidate] = satisfied
        vacuous |= outcome.vacuous
        merged.comparisons += outcome.stats.comparisons
        merged.items_read += outcome.stats.items_read
        merged.files_opened += outcome.stats.files_opened
        merged.peak_open_files += outcome.stats.peak_open_files
        merged.blocks_skipped += outcome.stats.blocks_skipped
        merged.values_skipped += outcome.stats.values_skipped
        merged.bytes_read += outcome.stats.bytes_read
        merged.bytes_stored += outcome.stats.bytes_stored
    collector = DecisionCollector(candidates, validator_name)
    collector.stats = merged
    merged.candidates_total = len(collector.candidates)
    for candidate in collector.candidates:
        if candidate not in decided:
            raise DiscoveryError(
                f"no shard validated candidate {candidate}"
            )
        collector.record(
            candidate, decided[candidate], vacuous=candidate in vacuous
        )
    return collector.result()


# --------------------------------------------------------- built-in executors
def _run_brute_force_chunk(spool: "SpoolDirectory", task: PoolTask) -> ShardOutcome:
    """Built-in executor: one brute-force chunk via the sequential validator."""
    from repro.core.brute_force import BruteForceValidator

    (skip_scan,) = task.payload or (False,)
    result = BruteForceValidator(spool, skip_scan=skip_scan).validate(
        list(task.candidates)
    )
    return ShardOutcome(
        shard_index=task.task_id,
        decisions=result.decisions,
        vacuous=result.vacuous,
        stats=result.stats,
    )


def _run_spool_export(spool: "SpoolDirectory", task: PoolTask) -> ShardOutcome:
    """Built-in executor: render, sort and write one group of export units.

    Ignores the warm ``spool`` handle — the directory it runs against is
    still being built (the parent saved a bare index so workers can open
    the root) — and writes each unit's value file with an atomic
    rename-on-complete, so a worker death mid-unit can never leave a torn
    file at a final path: the requeued task simply rewrites it.  The
    outcome's ``payload`` is the tuple of written
    :class:`~repro.storage.sorted_sets.SortedValueFile` metadata, in unit
    order, for the parent to register and fold into the final index.
    """
    from repro.storage.exporter import run_export_unit

    units, block_size, max_items, compression = task.payload
    written = tuple(
        run_export_unit(
            task.spool_root,
            unit,
            block_size=block_size,
            max_items_in_memory=max_items,
            compression=compression,
        )
        for unit in units
    )
    return ShardOutcome(
        shard_index=task.task_id,
        decisions={},
        vacuous=set(),
        stats=ValidatorStats(validator=KIND_SPOOL_EXPORT),
        payload=written,
    )


def _run_sample_pretest(spool: "SpoolDirectory", task: PoolTask) -> ShardOutcome:
    """Built-in executor: the sampling pretest over one candidate chunk.

    Each candidate's verdict is a pure function of the spool and the seed:
    the reservoir sample of the dependent attribute is drawn by a
    dedicated ``random.Random(f"{seed}-{attribute}")``, so the same
    candidate pretested in any worker — or in the caller's process, as the
    sequential pipeline does — sees the identical sample and returns the
    identical verdict.  ``decisions[c] is True`` means the candidate
    survives into full validation; ``False`` means its sample refuted it.
    The chunk shares one sampler so candidates with a common dependent
    attribute reuse the sample (the planner groups them deliberately), and
    each referenced attribute is decoded once per chunk.
    """
    from repro.core.pruning import SamplingPretest

    sample_size, seed = task.payload
    sampler = SamplingPretest(spool, sample_size=sample_size, seed=seed)
    decisions = {
        candidate: sampler.pretest(candidate) for candidate in task.candidates
    }
    return ShardOutcome(
        shard_index=task.task_id,
        decisions=decisions,
        vacuous=set(),
        stats=ValidatorStats(validator=KIND_SAMPLE_PRETEST),
    )


register_task_kind(KIND_BRUTE_FORCE, _run_brute_force_chunk)
register_task_kind(KIND_SPOOL_EXPORT, _run_spool_export)
register_task_kind(KIND_SAMPLE_PRETEST, _run_sample_pretest)
