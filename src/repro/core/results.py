"""The result object returned by :func:`repro.core.runner.discover_inds`."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.core.candidates import PretestReport
from repro.core.ind import INDSet
from repro.core.stats import ValidatorStats

if TYPE_CHECKING:
    from repro.db.schema import AttributeRef
    from repro.storage.sorted_sets import SpoolDirectory


@dataclass
class PhaseTimings:
    """Wall-clock seconds per pipeline phase."""

    profile_seconds: float = 0.0
    candidate_seconds: float = 0.0
    export_seconds: float = 0.0
    validate_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Sum of all phases — the paper's end-to-end runtime."""
        return (
            self.profile_seconds
            + self.candidate_seconds
            + self.export_seconds
            + self.validate_seconds
        )


@dataclass
class DiscoveryResult:
    """Everything one IND discovery run produced.

    ``satisfied`` is the payload; the remaining fields carry the numbers the
    paper reports in its tables (candidate counts, pretest reductions,
    runtimes, I/O counters).
    """

    database: str
    strategy: str
    attribute_count: int
    dependent_count: int
    referenced_count: int
    raw_candidates: int
    pretest_report: PretestReport
    satisfied: INDSet
    validator_stats: ValidatorStats
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    sampling_refuted: int = 0
    transitivity_inferred_satisfied: int = 0
    transitivity_inferred_refuted: int = 0
    spool_path: str | None = None
    export_values_scanned: int = 0
    export_values_written: int = 0
    spool_cache_hit: bool = False  # export skipped: cached spool reused
    validation_workers: int = 1
    #: Worker-pool counters (tasks run, requeues, warm spool-handle hits,
    #: tasks by kind) summed over every pipeline phase that ran on a pool —
    #: spool export, sampling pretest, validation — so ``tasks_by_kind``
    #: covers the whole run; ``None`` when no phase used a pool.
    pool_stats: dict | None = None
    #: Serialised span tree of this run (:meth:`repro.obs.trace.Tracer.to_dict`)
    #: when ``DiscoveryConfig.trace`` was on; ``None`` otherwise.  Purely
    #: additive: every other field is byte-identical with tracing on or off.
    trace: dict | None = None
    #: Scheduling summary of an overlapped run (``DiscoveryConfig.overlap``):
    #: graph shape (nodes, edges, and ``cancelled``, always 0), tasks per
    #: phase (export, pretest), observed per-phase peak concurrency and the
    #: seconds during which tasks of both phases ran simultaneously.
    #: ``None`` when the run used phase barriers.  Concurrency numbers are scheduling observations,
    #: not results — agreement views drop this key like ``timings``.
    overlap: dict | None = None
    #: Delta-planner accounting of an incremental run
    #: (``DiscoveryConfig.incremental``): ``mode`` (``"delta"`` or
    #: ``"full"`` with a ``reason`` for falling back), and under delta the
    #: work avoided — ``attributes_changed``, ``candidates_revalidated``,
    #: ``decisions_reused``.  ``None`` on non-incremental runs.  Like
    #: ``overlap``, this is work accounting, not an answer: equivalence
    #: views drop it when comparing against a full re-run.
    delta: dict | None = None
    #: Prior-run carriers for the *next* incremental run — deliberately not
    #: serialised (they are inputs to delta planning, not results): the
    #: per-attribute fingerprint map this run was profiled with, the exact
    #: candidate pairs the sampling pretest refuted, and the signature of
    #: the config knobs a prior must share to be reusable.  Stamped on
    #: every ``incremental=True`` run — including a full-mode first run, so
    #: it can seed the chain.  The refuted pairs are packed attribute-id
    #: pairs (see :class:`~repro.core.candidates.AttributeIds`) over the
    #: sorted ``prior_fingerprints`` keys.
    prior_fingerprints: dict | None = None
    prior_sampling_refuted: frozenset | None = None
    prior_config_signature: tuple | None = None
    #: What the next incremental round may reuse without reading it again.
    #: Like the carriers above these are not serialised, and they are left
    #: out of equality and repr too.  ``prior_spool`` is the spool-cache entry this run held (its
    #: registry is the next round's donor while the entry's ``index.json``
    #: is unchanged); ``None`` unless the run was incremental with
    #: ``reuse_spool``.  ``prior_samples`` maps each attribute the sampling
    #: pretest drew, or took from its prior, to its sorted reservoir, which
    #: is valid while the attribute's fingerprint is unchanged; ``None`` on
    #: non-incremental runs.
    prior_spool: SpoolDirectory | None = field(
        default=None, compare=False, repr=False
    )
    prior_samples: dict[AttributeRef, list[str]] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def satisfied_count(self) -> int:
        """Number of satisfied INDs this run found."""
        return len(self.satisfied)

    @property
    def candidates_after_pretests(self) -> int:
        """Candidates that survived the metadata pretests into validation."""
        return self.pretest_report.remaining

    def to_dict(self) -> dict:
        """JSON-serialisable summary (INDs as qualified-name pairs).

        The ``trace`` key appears only when the run was traced — an
        untraced result dict is byte-identical to one produced before the
        observability layer existed, and a traced dict minus ``trace`` is
        byte-identical to the untraced one (asserted by the agreement
        matrix).
        """
        doc = {
            "database": self.database,
            "strategy": self.strategy,
            "attribute_count": self.attribute_count,
            "dependent_count": self.dependent_count,
            "referenced_count": self.referenced_count,
            "raw_candidates": self.raw_candidates,
            "pretests": asdict(self.pretest_report),
            "satisfied_count": self.satisfied_count,
            "satisfied": [
                [ind.dependent.qualified, ind.referenced.qualified]
                for ind in self.satisfied
            ],
            "validator": {
                "name": self.validator_stats.validator,
                "candidates_tested": self.validator_stats.candidates_tested,
                "comparisons": self.validator_stats.comparisons,
                "items_read": self.validator_stats.items_read,
                "files_opened": self.validator_stats.files_opened,
                "peak_open_files": self.validator_stats.peak_open_files,
                "blocks_skipped": self.validator_stats.blocks_skipped,
                "values_skipped": self.validator_stats.values_skipped,
                "bytes_read": self.validator_stats.bytes_read,
                "bytes_stored": self.validator_stats.bytes_stored,
                "sql_rows_scanned": self.validator_stats.sql_rows_scanned,
                "sql_statements": self.validator_stats.sql_statements,
                "elapsed_seconds": self.validator_stats.elapsed_seconds,
                "extra": dict(self.validator_stats.extra),
            },
            "timings": {
                "profile_seconds": self.timings.profile_seconds,
                "candidate_seconds": self.timings.candidate_seconds,
                "export_seconds": self.timings.export_seconds,
                "validate_seconds": self.timings.validate_seconds,
                "total_seconds": self.timings.total_seconds,
            },
            "sampling_refuted": self.sampling_refuted,
            "transitivity_inferred_satisfied": self.transitivity_inferred_satisfied,
            "transitivity_inferred_refuted": self.transitivity_inferred_refuted,
            "export_values_scanned": self.export_values_scanned,
            "export_values_written": self.export_values_written,
            "spool_cache_hit": self.spool_cache_hit,
            "validation_workers": self.validation_workers,
            "pool": self.pool_stats,
            "overlap": self.overlap,
        }
        if self.delta is not None:
            doc["delta"] = self.delta
        if self.trace is not None:
            doc["trace"] = self.trace
        return doc
