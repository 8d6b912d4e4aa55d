"""Strategy runners shared by the benchmark files."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.candidates import PretestConfig
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
        top-level phases — setup, cache lookup, export, pretest,
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
