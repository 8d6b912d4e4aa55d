"""Strategy runners shared by the benchmark files.

Besides the paper-table runners this module hosts the two adaptive-engine
helpers: :func:`run_calibration` (the ``repro-ind calibrate`` micro-bench
that measures this machine's per-item and pool-overhead constants) and
:func:`run_adaptive_comparison` (one workload timed under every fixed
engine plus the adaptive router, the shape ``BENCH_adaptive.json``
records).
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass

from repro.core.candidates import Candidate, PretestConfig
from repro.core.results import DiscoveryResult
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.db.database import Database
from repro.obs import phase_summary


@dataclass
class StrategyOutcome:
    """One strategy's row in a paper-style results table."""

    dataset: str
    strategy: str
    result: DiscoveryResult

    @property
    def candidates(self) -> int:
        """Candidates surviving the pretests (the validated set's size)."""
        return self.result.candidates_after_pretests

    @property
    def satisfied(self) -> int:
        """Number of satisfied INDs the run found."""
        return self.result.satisfied_count

    @property
    def validate_seconds(self) -> float:
        """Wall-clock seconds of the validation phase alone."""
        return self.result.timings.validate_seconds

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds of the whole run (profile through validate)."""
        return self.result.timings.total_seconds

    @property
    def items_read(self) -> int:
        """Spool values the validator consumed (external strategies)."""
        return self.result.validator_stats.items_read

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Per-phase wall clock, finer than :class:`PhaseTimings`.

        Traced runs (the harness default) decompose into the span tree's
        top-level phases — setup, cache lookup, export, pretest, routing,
        validate; untraced runs fall back to the coarse four-phase timings
        so the key is always present in ``BENCH_*.json`` legs.
        """
        if self.result.trace is not None:
            return {
                name: round(seconds, 6)
                for name, seconds in sorted(
                    phase_summary(self.result.trace).items()
                )
            }
        timings = self.result.timings
        return {
            "profile": round(timings.profile_seconds, 6),
            "candidates": round(timings.candidate_seconds, 6),
            "export": round(timings.export_seconds, 6),
            "validate": round(timings.validate_seconds, 6),
        }

    @property
    def sql_rows_scanned(self) -> int:
        """Base-table rows the SQL substrate scanned (SQL strategies)."""
        return self.result.validator_stats.sql_rows_scanned

    def row(self) -> list[object]:
        """This outcome as one row of the paper-style results table."""
        return [
            self.dataset,
            self.strategy,
            self.candidates,
            self.satisfied,
            round(self.total_seconds, 3),
            self.items_read or self.sql_rows_scanned,
        ]


RESULT_HEADERS = [
    "dataset", "strategy", "candidates", "satisfied", "seconds", "tuples/items",
]


def phase_totals(outcomes: list[StrategyOutcome]) -> dict[str, float]:
    """Per-phase seconds summed across one benchmark leg's runs.

    The trace-backed decomposition of a leg's total wall clock — what the
    ``"phases"`` key of every ``BENCH_*.json`` leg records.
    """
    totals: dict[str, float] = {}
    for outcome in outcomes:
        for name, seconds in outcome.phase_seconds.items():
            totals[name] = totals.get(name, 0.0) + seconds
    return {name: round(seconds, 6) for name, seconds in sorted(totals.items())}


def run_strategy(
    dataset_name: str,
    db: Database,
    strategy: str,
    max_value_pretest: bool = False,
    **config_kwargs,
) -> StrategyOutcome:
    """Run one discovery strategy with the paper's default pretests.

    The Sec. 2/3 experiments use only the cardinality pretest; the Sec. 4.1
    experiment turns the max-value pretest on — hence the explicit flag with
    a paper-faithful default instead of the library default.

    Tracing is on unless the caller opts out: traces cost microseconds,
    change no other output byte, and give every benchmark leg its
    per-phase decomposition (:attr:`StrategyOutcome.phase_seconds`).
    """
    config_kwargs.setdefault("trace", True)
    config = DiscoveryConfig(
        strategy=strategy,
        pretests=PretestConfig(cardinality=True, max_value=max_value_pretest),
        **config_kwargs,
    )
    result = discover_inds(db, config)
    return StrategyOutcome(dataset=dataset_name, strategy=strategy, result=result)


def run_parallel_curve(
    dataset_name: str,
    db: Database,
    strategy: str = "brute-force",
    workers: tuple[int, ...] = (1, 2, 4),
    **config_kwargs,
) -> dict[int, StrategyOutcome]:
    """One discovery run per worker count — the parallel speedup curve.

    Keyed by worker count; ``workers`` must include 1 if the caller wants to
    compute speedups against the sequential run with :func:`speedup_curve`.
    """
    return {
        n: run_strategy(
            dataset_name, db, strategy, validation_workers=n, **config_kwargs
        )
        for n in workers
    }


def speedup_curve(outcomes: dict[int, StrategyOutcome]) -> dict[int, float]:
    """Validation-phase speedup of every run relative to the 1-worker run."""
    if 1 not in outcomes:
        raise ValueError("speedup needs the 1-worker baseline in the curve")
    base = outcomes[1].validate_seconds
    return {
        n: (base / outcome.validate_seconds if outcome.validate_seconds else 1.0)
        for n, outcome in sorted(outcomes.items())
    }


def run_pool_repeat_curve(
    dataset_name: str,
    db: Database,
    strategy: str = "brute-force",
    workers: int = 4,
    runs: int = 5,
    **config_kwargs,
) -> tuple[dict[str, list[StrategyOutcome]], dict[str, object]]:
    """Repeated discovery runs: sequential vs cold per-call pool vs warm pool.

    The repeated-run shape is what a discovery *service* sees, and it is
    where the persistent pool earns its keep: the ``cold`` leg builds and
    drains a fresh :class:`~repro.parallel.pool.WorkerPool` inside every
    ``validate()`` (the PR 2 behaviour), while the ``warm`` leg reuses one
    :class:`~repro.core.runner.DiscoverySession` pool across all ``runs``,
    paying process startup once.  ``sequential`` (1 worker, no processes) is
    the floor both are measured against.

    Returns ``(curves, pool_stats)``: curves keyed ``"sequential"`` /
    ``"cold"`` / ``"warm"`` with one :class:`StrategyOutcome` per run, and
    the warm session's pool counters (``spool_handle_reuses`` etc.).
    Config kwargs are forwarded to every leg, so e.g. ``reuse_spool=True``
    measures the service configuration end to end.
    """
    config_kwargs.setdefault("trace", True)

    def config(n: int) -> DiscoveryConfig:
        return DiscoveryConfig(
            strategy=strategy,
            pretests=PretestConfig(cardinality=True, max_value=False),
            validation_workers=n,
            **config_kwargs,
        )

    curves: dict[str, list[StrategyOutcome]] = {
        "sequential": [], "cold": [], "warm": [],
    }
    for _ in range(runs):
        curves["sequential"].append(
            StrategyOutcome(dataset_name, strategy, discover_inds(db, config(1)))
        )
    # Interleave the cold and warm legs so machine-load noise hits both
    # alike; the session (and with it the warm fleet) spans the whole loop.
    with DiscoverySession(config(workers)) as session:
        for _ in range(runs):
            curves["cold"].append(
                StrategyOutcome(
                    dataset_name, strategy, discover_inds(db, config(workers))
                )
            )
            curves["warm"].append(
                StrategyOutcome(dataset_name, strategy, session.discover(db))
            )
        stats = session.pool_stats
    return curves, (stats.as_dict() if stats is not None else {})


def run_calibration(rows: int = 20000, workers: int = 2) -> "CalibrationProfile":
    """Measure this machine's adaptive-model constants on a synthetic spool.

    Builds a throwaway binary spool of four attributes — a seeded chain of
    foreign keys, the first holding ``rows`` values — then times the same
    accounting units the cost model multiplies:

    * ``seq_item_seconds`` — one in-process brute-force validation over
      all ordered attribute pairs, divided by the planner's summed
      ``candidate_cost`` (the model's brute-force work unit);
    * ``merge_item_seconds`` — one in-process heap merge over the same
      candidates, divided by summed attribute counts + candidate count;
    * ``task_overhead_seconds`` — a *warm* pooled run minus the predicted
      compute makespan, divided by the tasks dispatched;
    * ``pool_startup_seconds`` — cold pooled run minus warm pooled run,
      divided by the worker count.

    Overheads are floored at small positive values so a noisy fast box
    never produces a zero (which would make the model blind to the pool
    tax this whole exercise exists to price).  The caller persists the
    returned profile via
    :meth:`~repro.parallel.planner.CalibrationProfile.save`.
    """
    from repro.core.brute_force import BruteForceValidator
    from repro.core.merge_single_pass import MergeSinglePassValidator
    from repro.db.schema import AttributeRef
    from repro.parallel.engine import ProcessPoolValidationEngine
    from repro.parallel.planner import CalibrationProfile, ShardPlanner
    from repro.parallel.pool import WorkerPool
    from repro.storage.sorted_sets import SpoolDirectory

    if rows < 100:
        raise ValueError(f"rows must be >= 100, got {rows}")
    with tempfile.TemporaryDirectory(prefix="repro-calibrate-") as tmp:
        spool = SpoolDirectory.create(f"{tmp}/spool", format="binary")
        names = ("a", "b", "c", "d")
        # A chain of foreign keys over one common range: each attribute
        # keeps a seeded three quarters of the one before.  Every downward
        # pair holds, so the merge walks every file whole and brute force
        # walks both files of half the pairs — the steady-state cost the
        # model predicts, not early exits.  The set of attributes holding a
        # value changes from value to value, as for OpenMMS foreign keys; a
        # long run held by every attribute would let the merge skip it and
        # price merge far below any real input.
        rng = random.Random(0)
        kept = list(range(rows))
        for name in names:
            ref = AttributeRef("calib", name)
            spool.add_values(ref, [f"v{i:09d}" for i in kept])
            kept = sorted(rng.sample(kept, len(kept) * 3 // 4))
        spool.save_index()
        refs = [AttributeRef("calib", name) for name in names]
        candidates = [
            Candidate(d, r) for d in refs for r in refs if d != r
        ]
        planner = ShardPlanner(spool)
        bf_work = sum(planner.candidate_cost(c) for c in candidates)
        merge_work = sum(spool.get(ref).count for ref in refs) + len(candidates)

        started = time.perf_counter()
        BruteForceValidator(spool).validate(candidates)
        seq_item = (time.perf_counter() - started) / bf_work

        started = time.perf_counter()
        MergeSinglePassValidator(spool).validate(candidates)
        merge_item = (time.perf_counter() - started) / merge_work

        with WorkerPool(workers) as pool:
            engine = ProcessPoolValidationEngine(
                spool, workers=workers, pool=pool
            )
            started = time.perf_counter()
            engine.validate(candidates)  # cold: pays worker startup
            cold_seconds = time.perf_counter() - started
            tasks_cold = pool.stats.tasks_completed
            started = time.perf_counter()
            engine.validate(candidates)  # warm: pure dispatch + compute
            warm_seconds = time.perf_counter() - started
            tasks_warm = pool.stats.tasks_completed - tasks_cold
        compute = bf_work * seq_item / max(1, workers)
        task_overhead = max(
            2e-4, (warm_seconds - compute) / max(1, tasks_warm)
        )
        pool_startup = max(
            5e-3, (cold_seconds - warm_seconds) / max(1, workers)
        )
    return CalibrationProfile(
        seq_item_seconds=seq_item,
        merge_item_seconds=merge_item,
        pool_startup_seconds=pool_startup,
        task_overhead_seconds=task_overhead,
        source="calibrated",
    )


def run_adaptive_comparison(
    dataset_name: str,
    db: Database,
    workers: int = 4,
    runs: int = 3,
    **config_kwargs,
) -> dict[str, list[StrategyOutcome]]:
    """Time one workload under every fixed engine and the adaptive router.

    Four interleaved legs, one :class:`StrategyOutcome` per run each:
    ``sequential`` (best fixed sequential baseline: brute-force, 1 worker),
    ``sequential-merge`` (merge, 1 worker), ``pooled`` (brute-force with
    ``workers`` per-call cold pool — the "always pooled" configuration the
    adaptive engine must beat on small workloads), and ``adaptive``
    (``strategy="adaptive"`` with the same worker budget, free to route).
    Legs are interleaved round-robin so machine-load noise hits all alike;
    ``BENCH_adaptive.json`` summarises the medians.
    """
    config_kwargs.setdefault("trace", True)

    def config(strategy: str, n: int) -> DiscoveryConfig:
        return DiscoveryConfig(
            strategy=strategy,
            pretests=PretestConfig(cardinality=True, max_value=False),
            validation_workers=n,
            **config_kwargs,
        )

    legs = {
        "sequential": config("brute-force", 1),
        "sequential-merge": config("merge-single-pass", 1),
        "pooled": config("brute-force", workers),
        "adaptive": config("adaptive", workers),
    }
    curves: dict[str, list[StrategyOutcome]] = {name: [] for name in legs}
    for _ in range(runs):
        for name, cfg in legs.items():
            curves[name].append(
                StrategyOutcome(
                    dataset_name, cfg.strategy, discover_inds(db, cfg)
                )
            )
    return curves
