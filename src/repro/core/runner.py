"""End-to-end IND discovery: profile → candidates → pretests → validate.

:func:`discover_inds` is the main public entry point of the library.  It
wires together the catalog profiling, candidate generation, the metadata
pretests of Sec. 4.1, the optional sampling pretest and transitivity pruning,
the spool export, and one of the seven validators.

    >>> from repro.core import DiscoveryConfig, discover_inds
    >>> result = discover_inds(db, DiscoveryConfig(strategy="brute-force"))
    >>> for ind in result.satisfied:
    ...     print(ind)

For repeated runs — a service answering discovery requests, a benchmark
loop, a pipeline re-profiling the same sources — wrap the calls in a
:class:`DiscoverySession`: it keeps one persistent
:class:`~repro.parallel.pool.WorkerPool` alive across runs (warm worker
processes, warm spool handles) and pairs naturally with
``reuse_spool=True`` so an unchanged database skips its export entirely.

    >>> with DiscoverySession(DiscoveryConfig(
    ...     strategy="brute-force", validation_workers=4, reuse_spool=True
    ... )) as session:
    ...     first = session.discover(db)
    ...     second = session.discover(db)  # warm pool + cached spool
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro._util import Stopwatch
from repro.core.blockwise import BlockwiseValidator
from repro.core.brute_force import BruteForceValidator
from repro.core.candidates import (
    AttributeIds,
    PretestConfig,
    all_pairs,
    attribute_numbering,
    pretest_pairs,
    unique_ref_pairs,
)
from repro.core.ind import INDSet
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.core.pruning import SamplingPretest, TransitivityPruner
from repro.core.reference import ReferenceValidator
from repro.core.results import DiscoveryResult, PhaseTimings
from repro.core.single_pass import SinglePassValidator
from repro.core.sql_approaches import (
    SqlJoinValidator,
    SqlMinusValidator,
    SqlNotInValidator,
)
from repro.core.stats import DecisionCollector, PairValidation, ValidationResult
from repro.db.database import Database
from repro.db.stats import PROFILE_MEMO, RenderedLists, collect_column_stats
from repro.errors import DiscoveryError
from repro.obs.metrics import get_registry
from repro.obs.trace import Tracer, maybe_span
from repro.storage.blockio import DEFAULT_BLOCK_SIZE
from repro.storage.codec import COMPRESSION_NONE, SPOOL_COMPRESSIONS
from repro.storage.cursors import IOStats
from repro.storage.exporter import ExportStats, export_into
from repro.storage.external_sort import DEFAULT_RUN_SIZE
from repro.storage.sorted_sets import FORMAT_BINARY, SpoolDirectory
from repro.storage.spool_cache import (
    SpoolCache,
    attribute_fingerprints,
    catalog_fingerprint,
)

if TYPE_CHECKING:  # imported lazily at runtime; see _build_validator
    from repro.parallel.pool import PoolStats, WorkerPool

EXTERNAL_STRATEGIES = frozenset(
    {"brute-force", "single-pass", "merge-single-pass", "blockwise"}
)
SQL_STRATEGIES = frozenset({"sql-join", "sql-minus", "sql-notin"})
SEQUENTIAL_STRATEGIES = frozenset({"brute-force", *SQL_STRATEGIES})
#: Strategies that take ``validation_workers > 1`` and ``overlap``.  Brute
#: force validates on the worker pool (repro.parallel); the heap merge
#: always runs in process, so for it the worker count sizes only the pool
#: of an ``overlap`` run.
PARALLEL_STRATEGIES = frozenset({"brute-force", "merge-single-pass"})
ALL_STRATEGIES = frozenset({*EXTERNAL_STRATEGIES, *SQL_STRATEGIES, "reference"})

#: Default root of the cross-run spool cache (``DiscoveryConfig.cache_dir``).
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro-ind" / "spools"


@dataclass
class DiscoveryConfig:
    """Tuning knobs for one discovery run; defaults are the sensible ones.

    The fields group by pipeline phase:

    * **Candidates** — ``candidate_mode`` ("unique-ref" follows the paper,
      "all-pairs" lifts the unique-referenced restriction), ``pretests``
      (metadata pretests of Sec. 4.1), ``sampling_size``/``sampling_seed``
      (the Sec. 6 sampling pretest; external strategies only),
      ``use_transitivity`` (online pruning; sequential strategies only).
    * **Spooling** — ``spool_dir`` (explicit location; temporary when
      ``None``), ``keep_spool``, ``spool_block_size`` (values per block),
      ``spool_compression`` ("zlib" writes v3 compressed frames),
      ``max_items_in_memory`` (external-sort run size).  Every spool is
      binary (``docs/spool_format.md``); the read-only :attr:`spool_format`
      says so for callers that still read it, the read-only
      :attr:`export_workers` is always 1, and every cursor reads through a
      buffered file handle, so the read-only :attr:`resolved_mmap_reads`
      is always ``False``.
    * **Overlap** — ``overlap`` is the only way a run pools its export
      and sampling pretest: it runs the export and then the pretest as
      two jobs on one worker pool — the session pool when one is lent,
      else one per-call pool.  The survivors are then validated by the
      validator an in-process run builds: brute force on the same pool,
      the merge in process.  Results are identical to the in-process
      pipeline; ``DiscoveryResult.overlap`` reports the tasks each phase
      ran.
    * **Validation** — ``strategy`` (one of :data:`ALL_STRATEGIES`),
      ``validation_workers`` (the worker-process ceiling for the
      strategies in :data:`PARALLEL_STRATEGIES`; 1 = sequential — brute
      force pools its validation and still tests a single candidate in
      process; the merge always runs in process, and the count sizes only
      an ``overlap`` run's pool), ``skip_scans``
      (per-block skip-scans on v2/v3 spools: brute-force seeks past
      blocks below its probe, and the merge engines seek purely
      referenced cursors past blocks below the dependent frontier —
      decisions stay exact, ``items_read`` may legitimately drop),
      ``max_open_files`` (blockwise strategy), ``sql_null_safe`` (SQL
      strategies).
    * **Caching** — ``reuse_spool`` (content-addressed spool cache keyed by
      the catalog fingerprint; the run also profiles through the
      process-wide :data:`~repro.db.stats.PROFILE_MEMO`, so only tables
      that are new or grew since an earlier reuse-enabled call are
      profiled again), ``cache_dir`` (cache root; defaults to
      :data:`DEFAULT_CACHE_DIR`), ``cache_max_bytes`` (LRU size budget for
      that cache; ``None`` = unbounded).
    * **Observability** — ``trace`` records a span tree for the run (one
      span per pipeline phase, one per pool task, stamped worker-side) and
      surfaces it as ``DiscoveryResult.trace``; every other result field
      is byte-identical with tracing on or off.  See
      ``docs/observability.md``.
    * **Incremental** — ``incremental`` turns on delta planning against a
      ``prior`` result (``discover_inds(..., prior=...)``; a
      :class:`DiscoverySession` threads the prior automatically): only
      candidates touching changed attributes are re-validated, every other
      decision is re-derived from the prior, and the run reports its
      savings as ``DiscoveryResult.delta``.  The answer is byte-identical
      to a full re-run — see ``docs/incremental.md`` for the exactness
      argument.  Like ``reuse_spool``, it profiles through the profile
      memo, and with the spool cache a miss tries the prior's entry first
      as the donor of unchanged value files and retires it once its own
      entry is published.  Requires an external
      strategy; incompatible with ``use_transitivity`` (inference order
      spans reused decisions) and ``overlap`` (which exports and pretests
      the whole candidate set).

    Invalid combinations are rejected by :meth:`validated`, which every
    entry point calls first.
    """

    strategy: str = "merge-single-pass"
    candidate_mode: str = "unique-ref"  # or "all-pairs"
    pretests: PretestConfig = field(
        default_factory=lambda: PretestConfig(cardinality=True, max_value=True)
    )
    use_transitivity: bool = False  # sequential strategies only
    sampling_size: int = 0  # 0 disables the sampling pretest
    sampling_seed: int = 0
    spool_dir: str | None = None  # temporary directory when None
    keep_spool: bool = False
    spool_block_size: int = DEFAULT_BLOCK_SIZE  # values per block
    spool_compression: str = COMPRESSION_NONE  # "zlib" writes v3 frames
    overlap: bool = False  # export and pretest as pool jobs
    validation_workers: int = 1  # worker processes (brute-force / merge-s-p)
    skip_scans: bool = False  # per-block skip-scans (brute-force + merge)
    reuse_spool: bool = False  # content-addressed spool cache across runs
    cache_dir: str | None = None  # spool cache root (default: user cache dir)
    cache_max_bytes: int | None = None  # LRU size budget for the spool cache
    max_items_in_memory: int = DEFAULT_RUN_SIZE
    max_open_files: int = 64  # blockwise strategy only
    sql_null_safe: bool = True
    trace: bool = False  # record a span tree on DiscoveryResult.trace
    incremental: bool = False  # delta-plan against a prior DiscoveryResult

    @property
    def spool_format(self) -> str:
        """Always ``"binary"``: the only spool format (read-only)."""
        return FORMAT_BINARY

    @property
    def export_workers(self) -> int:
        """Always 1: export runs on one thread (read-only)."""
        return 1

    @property
    def resolved_mmap_reads(self) -> bool:
        """Always ``False``: cursors read buffered (read-only)."""
        return False

    def validated(self) -> "DiscoveryConfig":
        """Return ``self`` after rejecting inconsistent flag combinations."""
        if self.strategy not in ALL_STRATEGIES:
            raise DiscoveryError(
                f"unknown strategy {self.strategy!r}; "
                f"choose from {sorted(ALL_STRATEGIES)}"
            )
        if self.candidate_mode not in ("unique-ref", "all-pairs"):
            raise DiscoveryError(
                f"unknown candidate mode {self.candidate_mode!r}"
            )
        if self.use_transitivity and self.strategy not in SEQUENTIAL_STRATEGIES:
            raise DiscoveryError(
                "transitivity pruning requires a sequential strategy "
                f"({sorted(SEQUENTIAL_STRATEGIES)}), not {self.strategy!r}"
            )
        if self.sampling_size and self.strategy not in EXTERNAL_STRATEGIES:
            raise DiscoveryError(
                "the sampling pretest reads spool files and therefore "
                f"requires an external strategy, not {self.strategy!r}"
            )
        if self.sampling_size < 0:
            raise DiscoveryError("sampling_size must be >= 0")
        if self.spool_block_size < 1:
            raise DiscoveryError("spool_block_size must be >= 1")
        if self.spool_compression not in SPOOL_COMPRESSIONS:
            raise DiscoveryError(
                f"unknown spool compression {self.spool_compression!r}; "
                f"choose from {sorted(SPOOL_COMPRESSIONS)}"
            )
        if self.validation_workers < 1:
            raise DiscoveryError("validation_workers must be >= 1")
        if self.validation_workers > 1 and self.strategy not in PARALLEL_STRATEGIES:
            raise DiscoveryError(
                "parallel validation is implemented for "
                f"{sorted(PARALLEL_STRATEGIES)}, not {self.strategy!r}"
            )
        if self.validation_workers > 1 and self.use_transitivity:
            raise DiscoveryError(
                "transitivity pruning is order-dependent and cannot run "
                "across validation workers"
            )
        if self.overlap and self.strategy not in PARALLEL_STRATEGIES:
            raise DiscoveryError(
                "overlapped discovery schedules pool tasks and therefore "
                f"requires one of {sorted(PARALLEL_STRATEGIES)}, "
                f"not {self.strategy!r}"
            )
        if self.overlap and self.use_transitivity:
            raise DiscoveryError(
                "transitivity pruning is order-dependent and runs in this "
                "process only; overlapped discovery runs its export and "
                "pretest on a worker pool, so the two cannot combine"
            )
        if self.skip_scans and self.strategy not in (
            "brute-force",
            "merge-single-pass",
        ):
            raise DiscoveryError(
                "skip-scans only apply to the brute-force and "
                f"merge-single-pass strategies, not {self.strategy!r}"
            )
        if self.reuse_spool and self.strategy not in EXTERNAL_STRATEGIES:
            raise DiscoveryError(
                "reuse_spool caches spool directories and therefore "
                f"requires an external strategy, not {self.strategy!r}"
            )
        if self.cache_max_bytes is not None and self.cache_max_bytes < 0:
            raise DiscoveryError("cache_max_bytes must be >= 0")
        if self.reuse_spool and self.spool_dir is not None:
            raise DiscoveryError(
                "reuse_spool stores the spool under cache_dir; it cannot "
                "honour an explicit spool_dir — set one or the other"
            )
        if self.incremental and self.strategy not in EXTERNAL_STRATEGIES:
            raise DiscoveryError(
                "incremental discovery re-exports changed columns into "
                "spool files and therefore requires an external strategy, "
                f"not {self.strategy!r}"
            )
        if self.incremental and self.use_transitivity:
            raise DiscoveryError(
                "transitivity pruning infers decisions in validation order, "
                "which a delta run does not replay; the two cannot combine"
            )
        if self.incremental and self.overlap:
            raise DiscoveryError(
                "overlapped discovery exports and pretests the whole "
                "candidate set on a worker pool and takes no delta plan; "
                "run incremental without overlap"
            )
        if self.candidate_mode == "all-pairs" and self.strategy == "sql-join":
            raise DiscoveryError(
                "the join approach requires unique referenced attributes and "
                "therefore cannot run in all-pairs candidate mode"
            )
        return self


def discover_inds(
    db: Database,
    config: DiscoveryConfig | None = None,
    pool: "WorkerPool | None" = None,
    prior: DiscoveryResult | None = None,
) -> DiscoveryResult:
    """Discover all satisfied unary INDs of ``db`` under ``config``.

    Input: a loaded :class:`~repro.db.database.Database` plus an optional
    :class:`DiscoveryConfig` (defaults used when ``None``); output: a
    :class:`~repro.core.results.DiscoveryResult` with the satisfied IND set
    and every counter the paper reports.  Which phases run is governed by
    the config — see :class:`DiscoveryConfig` for the per-flag breakdown.

    ``pool`` lends a persistent :class:`~repro.parallel.pool.WorkerPool` to
    pooled brute-force validation (``validation_workers > 1``, dispatched
    as candidate chunks) and to an ``overlap`` run (its ``spool-export``
    and ``sample-pretest`` jobs, with a brute-force validation after them
    on the same fleet); the pool is borrowed, never shut down here.  The
    merge never uses it.  Without it, an ``overlap`` run builds **one**
    per-call pool for its export, pretest and validation (drained before
    returning), and pooled brute force builds its per-call pool inside the
    engine.
    :class:`DiscoverySession` manages the pool so callers rarely pass it
    directly.  ``DiscoveryResult.pool_stats`` sums the export, pretest and
    validation pool deltas, so ``tasks_by_kind`` covers the whole
    pipeline.

    The run owns its spool directory (see :class:`_RunSpool`): a
    temporary one is removed when the run ends, failed or not, unless a
    successful run was asked to ``keep_spool``, and a cache staging
    directory is removed when the run fails before publishing it.

    ``prior`` feeds the delta planner of an ``incremental`` run: a result
    of a previous ``incremental`` run over the same database (any mode —
    even a first full-mode run carries the fingerprint map the next run
    diffs against).  Ignored unless ``config.incremental`` is set; an
    unusable prior (different database, different decision-affecting
    config, missing carriers) falls back to a full run and says why in
    ``DiscoveryResult.delta``.
    """
    cfg = (config or DiscoveryConfig()).validated()
    timings = PhaseTimings()
    tracer = Tracer() if cfg.trace else None
    # The root span covers the pipeline phases only; it is sealed (in the
    # finally below) before pool shutdown and spool cleanup run, so trace
    # coverage measures the work, not the teardown.
    trace_stack = ExitStack()
    trace_stack.enter_context(
        maybe_span(tracer, "discover", database=db.name, strategy=cfg.strategy)
    )

    with maybe_span(tracer, "profile") as profile_span, Stopwatch() as clock:
        tables = sum(1 for _ in db.non_empty_tables())
        rendered = None
        if cfg.reuse_spool or cfg.incremental:
            # Runs that keep state across calls also keep profiles: only
            # tables that are new or grew since an earlier call re-profile.
            column_stats, profiled = PROFILE_MEMO.collect(db)
        else:
            # A cold run takes no fingerprint, so it skips the fields only
            # a fingerprint reads.  When it exports in process, it keeps
            # the sorted lists the profile builds, and export writes them.
            if cfg.strategy in EXTERNAL_STRATEGIES and not cfg.overlap:
                rendered = RenderedLists(cfg.max_items_in_memory)
            column_stats = collect_column_stats(
                db, fingerprint=False, rendered=rendered
            )
            profiled = tables
        if profile_span is not None:
            profile_span.attrs["tables_profiled"] = profiled
            profile_span.attrs["tables_reused"] = tables - profiled
    timings.profile_seconds = clock.elapsed

    # From here to the merge, a candidate is a pair of attribute ids packed
    # into one int (see AttributeIds); Candidate objects are built only for
    # the phases that take them.
    with maybe_span(tracer, "candidates") as cand_span, Stopwatch() as clock:
        ids = AttributeIds(column_stats)
        if cfg.candidate_mode == "unique-ref":
            raw = unique_ref_pairs(ids)
        else:
            raw = all_pairs(ids)
        pairs, pretest_report = pretest_pairs(ids, raw, cfg.pretests)
        if cand_span is not None:
            cand_span.attrs["raw"] = len(raw)
            cand_span.attrs["surviving"] = len(pairs)
    timings.candidate_seconds = clock.elapsed

    # Delta planning runs between candidates and export: the fresh profile
    # *is* the change detector (the per-attribute fingerprints are pure
    # functions of the stats just collected), candidate generation and the
    # metadata pretests are re-run in full (pure metadata work — identical
    # raw/pretest counters either way), and only the validation-shaped work
    # downstream — export, sampling, validation — is restricted to the
    # affected candidates.
    fingerprints = None
    delta_plan = None
    surviving = pairs
    if cfg.incremental:
        with maybe_span(tracer, "delta-plan") as delta_span:
            fingerprints = attribute_fingerprints(column_stats)
            delta_plan = _plan_delta(db, cfg, prior, ids, pairs, fingerprints)
            if delta_span is not None:
                delta_span.attrs.update(delta_plan.doc)
        pairs = delta_plan.affected

    spool: SpoolDirectory | None = None
    export_scanned = 0
    export_written = 0
    sampling_refuted = 0
    refuted_pairs: list[int] = []
    samples: dict = {}
    inferred_sat = 0
    inferred_unsat = 0
    overlap_pool_stats: dict | None = None
    owned_pool = None
    # The setup span times the work between the candidate and export
    # phases — attribute planning plus (on pooled runs) the lazy import of
    # the parallel machinery, which dominates a cold first call and would
    # otherwise show up as an untimed hole in the trace.
    with maybe_span(tracer, "setup"):
        # Runs with the spool cache spool the *full* candidate set (on an
        # incremental run unchanged attributes adopt their donor files and
        # only changed ones re-export), so published entries stay as
        # complete as a full run's — a later exact hit must find every
        # attribute it needs.
        needed = ids.attributes(surviving if cfg.reuse_spool else pairs)
        if rendered is not None:
            rendered.retain(needed)
        if pool is None and cfg.overlap:
            # One per-call fleet for export, pretest and validation.
            from repro.parallel.pool import WorkerPool

            owned_pool = pool = WorkerPool(cfg.validation_workers)
        if cfg.overlap:
            # Imported inside the setup span, like the rest of the parallel
            # machinery: a cold first import must not open a hole in the
            # trace between setup and the pooled export.
            from repro.parallel.overlap import run_overlapped
    run_spool = _RunSpool(
        db,
        cfg,
        column_stats,
        fingerprints=fingerprints,
        prior=prior if cfg.incremental else None,
    )
    keep_spool = False  # a temporary spool outlives only a successful run
    overlap_run = None
    try:
        if cfg.overlap:
            # run_overlapped runs export and pretest as pool jobs over the
            # spool opened here and hands back the survivors, which are
            # validated below exactly as an in-process run validates them.
            started = time.monotonic()
            spool = run_spool.open(needed, tracer)
            overlap_run = run_overlapped(
                db,
                cfg,
                ids.candidates(pairs),
                spool,
                pool,
                tracer,
                cache_hit=run_spool.hit,
                started=started,
            )
            spool = run_spool.publish(tracer)
            overlap_pool_stats = overlap_run.pool_stats
            export_scanned = overlap_run.export_stats.values_scanned
            export_written = overlap_run.export_stats.values_written
            pairs = ids.pairs_of(overlap_run.survivors)
            sampling_refuted = len(overlap_run.sampling_refuted)
            # Export gets its phase window; the rest of the section's wall
            # clock lands on the pretest bucket.
            timings.export_seconds = overlap_run.export_seconds
            pretest_seconds = max(
                0.0, time.monotonic() - started - overlap_run.export_seconds
            )
        elif cfg.strategy in EXTERNAL_STRATEGIES:
            with maybe_span(tracer, "export") as export_span, (
                Stopwatch()
            ) as clock:
                spool = run_spool.open(needed, tracer)
                export_stats = ExportStats()
                if not run_spool.hit:
                    export_stats = export_into(
                        db,
                        spool,
                        attributes=needed,
                        max_items_in_memory=cfg.max_items_in_memory,
                        rendered=rendered,
                    )
                    if not cfg.reuse_spool:
                        spool.save_index()  # a cache miss saves in publish
                spool = run_spool.publish(tracer)
                if export_span is not None:
                    export_span.attrs["cache_hit"] = run_spool.hit
            timings.export_seconds = clock.elapsed
            export_scanned = export_stats.values_scanned
            export_written = export_stats.values_written

        if not cfg.overlap:
            with maybe_span(tracer, "pretest"), Stopwatch() as clock:
                if cfg.sampling_size and spool is not None:
                    # A delta round starts from its prior's reservoirs of
                    # unchanged attributes; a full round draws every one.
                    pairs, refuted_pairs, samples = _sampling_pretest(
                        spool,
                        cfg,
                        ids,
                        pairs,
                        None if delta_plan is None else delta_plan.kept_samples,
                    )
                    sampling_refuted = len(refuted_pairs)
            pretest_seconds = clock.elapsed
        if cfg.incremental and not pairs:
            # The delta plan (or pretests) left nothing to validate:
            # synthesise the empty validation result instead of spinning an
            # engine up for zero candidates.  Only the work-accounting
            # fields differ from a full run's engine-built empties, and
            # equivalence views drop those by design.
            with maybe_span(tracer, "validate"), Stopwatch() as clock:
                validation = DecisionCollector(
                    [], f"{cfg.strategy}+delta"
                ).result()
        elif cfg.use_transitivity:
            with maybe_span(tracer, "validate"), Stopwatch() as clock:
                validation, inferred_sat, inferred_unsat = _validate_sequential(
                    db, cfg, spool, ids.candidates(pairs), column_stats
                )
        else:
            with maybe_span(tracer, "validate") as validate_span, (
                Stopwatch()
            ) as clock:
                validator = _build_validator(
                    db, cfg, spool, column_stats, pool
                )
                validation = _validate(validator, ids, pairs)
                if validate_span is not None:
                    validate_span.attrs["validator"] = (
                        validation.stats.validator
                    )
                    task_spans = getattr(validation, "task_spans", None)
                    if task_spans:
                        tracer.add_task_spans(validate_span.span_id, task_spans)
        timings.validate_seconds = pretest_seconds + clock.elapsed
        keep_spool = cfg.keep_spool
    finally:
        trace_stack.close()  # seal the root span before teardown work
        if owned_pool is not None:
            owned_pool.shutdown()
        run_spool.close(keep=keep_spool)

    if owned_pool is not None and "pool_warm" in validation.stats.extra:
        # The run owned its fleet: honest reporting says the validation
        # phase did not run on a *warm* (cross-call) pool.
        validation.stats.extra["pool_warm"] = 0.0
    # Only pooled brute force returns a result that carries pool stats.
    pool_stats = _merged_pool_stats(
        overlap_pool_stats, getattr(validation, "pool", None)
    )

    # A delta run's answer is the union of what it validated and what it
    # re-derived; sampling_refuted likewise folds the reused refutations
    # back in so the counter matches a full run's, decision for decision.
    satisfied = validation.satisfied
    if delta_plan is not None and delta_plan.mode == "delta":
        satisfied = delta_plan.reused_satisfied.union(satisfied)
        sampling_refuted += len(delta_plan.reused_refuted_pairs)
    prior_refuted = None
    if cfg.incremental:
        prior_refuted = frozenset(refuted_pairs)
        if delta_plan is not None and delta_plan.mode == "delta":
            prior_refuted |= delta_plan.reused_refuted_pairs

    registry = get_registry()
    registry.inc("discoveries_total")
    registry.inc("inds_validated_total", len(validation.decisions))
    registry.inc("inds_satisfied_total", len(satisfied))
    registry.observe("validate_seconds", timings.validate_seconds)
    if cfg.strategy in EXTERNAL_STRATEGIES:
        registry.observe("export_seconds", timings.export_seconds)
    if delta_plan is not None and delta_plan.mode == "delta":
        registry.inc("delta_runs_total")
        registry.inc(
            "delta_candidates_total",
            delta_plan.doc["candidates_revalidated"],
        )
        registry.inc(
            "delta_decisions_reused_total",
            delta_plan.doc["decisions_reused"],
        )

    return DiscoveryResult(
        database=db.name,
        strategy=cfg.strategy,
        attribute_count=len(column_stats),
        dependent_count=len(ids.dependents),
        referenced_count=len(ids.referenced),
        raw_candidates=len(raw),
        pretest_report=pretest_report,
        satisfied=satisfied,
        validator_stats=validation.stats,
        timings=timings,
        sampling_refuted=sampling_refuted,
        transitivity_inferred_satisfied=inferred_sat,
        transitivity_inferred_refuted=inferred_unsat,
        spool_path=(
            str(spool.root)
            if spool is not None and (cfg.keep_spool or cfg.reuse_spool)
            else None
        ),
        export_values_scanned=export_scanned,
        export_values_written=export_written,
        spool_cache_hit=run_spool.hit,
        validation_workers=cfg.validation_workers,
        pool_stats=pool_stats,
        trace=tracer.to_dict() if tracer is not None else None,
        overlap=overlap_run.overlap_doc if overlap_run is not None else None,
        delta=delta_plan.doc if delta_plan is not None else None,
        prior_fingerprints=fingerprints,
        prior_sampling_refuted=prior_refuted,
        prior_config_signature=(
            _config_signature(cfg) if cfg.incremental else None
        ),
        prior_spool=spool if cfg.incremental and cfg.reuse_spool else None,
        prior_samples=samples if cfg.incremental else None,
    )


# ------------------------------------------------------------------ internals
def _config_signature(cfg: DiscoveryConfig) -> tuple:
    """The config knobs a prior must share for its decisions to be reusable.

    Every per-candidate decision is a pure function of the two attributes'
    value sets *and* these knobs: candidate mode and pretests shape which
    candidates exist, sampling size/seed decide which get refuted before
    validation.  Strategy and worker count are deliberately absent — all
    validators agree (the agreement suites prove it), so a brute-force
    prior is reusable by a merge run and vice versa.
    """
    return (
        "delta-v1",
        cfg.candidate_mode,
        cfg.pretests.cardinality,
        cfg.pretests.max_value,
        cfg.pretests.min_value,
        cfg.pretests.datatype,
        cfg.sampling_size,
        cfg.sampling_seed,
    )


@dataclass
class _DeltaPlan:
    """What the delta planner decided: who re-validates, who re-derives.

    Pairs pack attribute ids of the run's
    :class:`~repro.core.candidates.AttributeIds`.  ``kept_samples`` holds
    the prior's sampling reservoirs of attributes whose fingerprint did
    not change; a full-mode plan keeps none.
    """

    doc: dict
    affected: list[int] = field(default_factory=list)
    reused_satisfied: INDSet = field(default_factory=INDSet)
    reused_refuted_pairs: frozenset[int] = frozenset()
    kept_samples: dict = field(default_factory=dict)

    @property
    def mode(self) -> str:
        return self.doc["mode"]


def _plan_delta(
    db: Database,
    cfg: DiscoveryConfig,
    prior: DiscoveryResult | None,
    ids: AttributeIds,
    pairs: list[int],
    fingerprints: dict,
) -> _DeltaPlan:
    """Split the candidate pairs into re-validate and re-derive-from-prior sets.

    Soundness rests on two facts.  First, candidate membership and every
    per-candidate decision (pretest verdict, sampling verdict, validation
    verdict) are pure functions of the two attributes' profiled stats and
    value sets plus the knobs in :func:`_config_signature` — so a candidate
    whose both attributes carry unchanged content fingerprints was a
    candidate in the prior run *and* would receive the identical decision
    from a fresh run.  Second, the prior's carriers are complete: its
    ``satisfied`` set and refuted-pair carrier cover every candidate it
    had, whether that run validated them itself or re-derived them from
    *its* prior — so chains of delta runs never thin the record out.

    An unusable prior degrades to a full run (``mode: "full"`` with a
    ``reason``), never to a wrong answer.  Changed-attribute detection
    compares content fingerprints per :class:`~repro.db.schema.AttributeRef`
    key: an attribute that appeared, disappeared, or changed content is
    "changed"; a renamed column shows up as one disappearance plus one
    appearance, both changed, exactly as correctness requires (its pairs
    must re-validate under the new identity).  The prior's decisions are
    read through ``AttributeRef`` too, so a prior numbered over a
    different attribute set is remapped, never read by stale ids.
    """
    reason = None
    if prior is None:
        reason = "no-prior"
    elif prior.database != db.name:
        reason = "database-mismatch"
    elif (
        prior.prior_fingerprints is None
        or prior.prior_sampling_refuted is None
        or prior.prior_config_signature is None
    ):
        reason = "prior-incomplete"
    elif prior.prior_config_signature != _config_signature(cfg):
        reason = "config-mismatch"
    if reason is not None:
        return _DeltaPlan(
            doc={"mode": "full", "reason": reason}, affected=list(pairs)
        )
    before = prior.prior_fingerprints
    changed = {
        ref
        for ref, digest in fingerprints.items()
        if before.get(ref) != digest
    }
    dropped = before.keys() - fingerprints.keys()
    index, n = ids.index, ids.count
    dirty = [False] * n
    for ref in changed:
        dirty[index[ref]] = True
    affected = []
    unaffected = []
    for pair in pairs:
        if dirty[pair // n] or dirty[pair % n]:
            affected.append(pair)
        else:
            unaffected.append(pair)
    # The prior's satisfied INDs over unaffected pairs stay in the answer;
    # every other one is stale.
    keep = set(unaffected)
    satisfied = set()
    stale = INDSet()
    for ind in prior.satisfied:
        dep = index.get(ind.dependent)
        ref = index.get(ind.referenced)
        pair = None if dep is None or ref is None else dep * n + ref
        if pair in keep:
            satisfied.add(pair)
        else:
            stale.add(ind)
    # Equal key counts and nothing dropped: the same attribute set, so the
    # prior's refuted pairs are already numbered like this run's.
    refuted = _prior_refuted(prior, ids, bool(dropped) or len(before) != n)
    # A reused pair that is neither satisfied nor refuted was validated
    # unsatisfied in the prior; staying absent from both *is* its decision.
    kept_refuted = frozenset(
        pair for pair in unaffected if pair not in satisfied and pair in refuted
    )
    # A reservoir is a pure function of the seed and size (both in the
    # config signature) and the attribute's values, which an unchanged
    # fingerprint vouches for.
    kept_samples = {
        ref: sample
        for ref, sample in (prior.prior_samples or {}).items()
        if ref in fingerprints and ref not in changed
    }
    return _DeltaPlan(
        doc={
            "mode": "delta",
            "attributes_changed": len(changed) + len(dropped),
            "candidates_revalidated": len(affected),
            "decisions_reused": len(unaffected),
        },
        affected=affected,
        reused_satisfied=prior.satisfied.difference(stale),
        reused_refuted_pairs=kept_refuted,
        kept_samples=kept_samples,
    )


def _prior_refuted(
    prior: DiscoveryResult, ids: AttributeIds, renumbered: bool
) -> frozenset[int]:
    """The prior's sampling-refuted pairs, in ``ids``' numbering.

    The carrier packs the prior's own numbering: its sorted
    ``prior_fingerprints`` keys, the attributes that run profiled.  When
    ``renumbered`` says this run's attribute set differs, each pair is
    decoded through that numbering and re-encoded through this one; a pair
    that lost an attribute is dropped.
    """
    refuted = prior.prior_sampling_refuted
    if not renumbered or not refuted:
        return refuted
    old = attribute_numbering(prior.prior_fingerprints)
    m = len(old)
    index, n = ids.index, ids.count
    kept = set()
    for pair in refuted:
        dep = index.get(old[pair // m])
        ref = index.get(old[pair % m])
        if dep is not None and ref is not None:
            kept.add(dep * n + ref)
    return frozenset(kept)


class _RunSpool:
    """A run's spool directory, from opening to publish and cleanup.

    Only the runner opens a run's spool, in one of four places: a
    spool-cache entry (a hit), a private cache staging directory (a miss),
    the explicit ``spool_dir``, or a temporary directory.  Whoever fills it
    — the in-process exporter or the pooled export of an ``overlap`` run —
    hands it back to :meth:`publish`, which moves a cache miss into the
    cache, and the runner's ``finally`` calls :meth:`close`, which removes
    a temporary directory, or a staging directory that was never
    published, whether or not the run got that far.

    ``fingerprints`` (the per-attribute content map an incremental run
    diffed) arms partial reuse on a miss: a donor entry of the same
    database and spool configuration lends the unchanged attributes' value
    files (hardlinked into staging), so only the changed columns
    re-export.  ``prior`` is an incremental run's prior result.  The
    entry its round used (the root of its ``prior_spool``, else its
    ``spool_path``) is the donor tried first, before any scan of the
    cache; a held registry donates from memory while its entry's index is
    unchanged.  When the prior is of the same database, :meth:`publish`
    retires that entry once the new one is live
    (:meth:`~repro.storage.spool_cache.SpoolCache.retire`), so an
    incremental chain keeps one live entry.

    A cache run holds its entry slot
    (:meth:`~repro.storage.spool_cache.SpoolCache.hold`) from before the
    lookup until :meth:`close`, hit or miss: a hit reads that entry, and a
    miss reads the entry it publishes there, so no other run in this
    process retires it under them.
    """

    def __init__(
        self,
        db: Database,
        cfg: DiscoveryConfig,
        column_stats,
        fingerprints=None,
        prior: DiscoveryResult | None = None,
    ) -> None:
        self._db = db
        self._cfg = cfg
        self._column_stats = column_stats
        self._fingerprints = fingerprints
        self._prior_spool: SpoolDirectory | str | None = None
        self._prior_entry: Path | None = None
        if prior is not None:
            if prior.prior_spool is not None:
                self._prior_spool = prior.prior_spool
                self._prior_entry = Path(prior.prior_spool.root)
            elif prior.spool_path is not None:
                self._prior_spool = prior.spool_path
                self._prior_entry = Path(prior.spool_path)
        #: The entry a publish retires: the prior's, of the same database.
        self._retiree = (
            self._prior_entry
            if prior is not None and prior.database == db.name
            else None
        )
        self._spool: SpoolDirectory | None = None
        self.hit = False
        self._cache: SpoolCache | None = None
        self._fingerprint: str | None = None
        self._temp_root: str | Path | None = None
        self._hold: str | None = None

    def open(self, needed, tracer=None) -> SpoolDirectory:
        """Open the spool that holds, or will hold, ``needed``.

        On a cache hit the spool is complete and the run performs *zero*
        database reads and zero spool writes.  With a ``tracer`` the cache
        probe is a ``cache-lookup`` span and a donor search a
        ``donor-lookup`` span, children of the current span.  A miss is
        staged in a private directory that carries no ``catalog_hash``, so
        a run that fails before :meth:`publish` can never expose a
        half-written entry: :meth:`close` removes the staging directory,
        and one a crashed process left behind is what ``repro-ind cache
        list`` reports as an orphan.
        """
        cfg = self._cfg
        if not cfg.reuse_spool:
            root = cfg.spool_dir
            if root is None:
                root = tempfile.mkdtemp(prefix="repro-spool-")
                self._temp_root = root
            self._spool = self._create(root)
            return self._spool
        self._fingerprint = catalog_fingerprint(
            self._db.name, self._column_stats
        )
        cache = SpoolCache(
            cfg.cache_dir or DEFAULT_CACHE_DIR, max_bytes=cfg.cache_max_bytes
        )
        self._hold = SpoolCache.hold(
            cache.entry_path(
                self._fingerprint, cfg.spool_block_size, cfg.spool_compression
            )
        )
        with maybe_span(tracer, "cache-lookup") as lookup_span:
            cached = cache.lookup(
                self._fingerprint,
                needed=needed,
                block_size=cfg.spool_block_size,
                compression=cfg.spool_compression,
            )
            if lookup_span is not None:
                lookup_span.attrs["hit"] = cached is not None
        if cached is not None:
            self.hit = True
            self._spool = cached
            return cached
        self._cache = cache
        self._temp_root = cache.prepare(self._fingerprint)
        self._spool = self._create(self._temp_root)
        if self._fingerprints is not None:
            self._adopt_donor(cache, needed, tracer)
        return self._spool

    def _create(self, root) -> SpoolDirectory:
        cfg = self._cfg
        return SpoolDirectory.create(
            root,
            block_size=cfg.spool_block_size,
            compression=cfg.spool_compression,
        )

    def _adopt_donor(self, cache: SpoolCache, needed, tracer) -> None:
        """Hardlink a donor entry's unchanged value files into staging."""
        cfg = self._cfg
        with maybe_span(tracer, "donor-lookup") as donor_span:
            donor = cache.find_partial(
                self._fingerprint,
                self._db.name,
                self._fingerprints,
                needed,
                block_size=cfg.spool_block_size,
                compression=cfg.spool_compression,
                prior=self._prior_spool,
            )
            adopted = []
            if donor is not None:
                adopted = SpoolCache.adopt(self._spool, *donor)
            if donor_span is not None:
                source = None
                if donor is not None:
                    # The scan skips the prior entry, so a donor with its
                    # name can only have come from trying it first.
                    from_prior = self._prior_entry is not None and (
                        donor[0].root.name == self._prior_entry.name
                    )
                    source = "prior" if from_prior else "scan"
                donor_span.attrs["donor"] = source
                donor_span.attrs["entries_opened"] = cache.donor_entries_opened
                donor_span.attrs["files_reused"] = len(adopted)

    def publish(self, tracer=None) -> SpoolDirectory:
        """Move a filled cache-miss spool into the cache; return the spool.

        The published entry is stamped with the per-attribute fingerprint
        map, so every entry can donate to a later partial rebuild; then the
        entry the prior round used is retired (see the class docstring).
        With a ``tracer`` the move is a ``cache-publish`` span whose
        ``retired`` says whether that entry went.  Hits, explicit
        directories and temporary directories pass through.
        """
        if self._cache is not None:
            with maybe_span(tracer, "cache-publish") as publish_span:
                stamps = self._fingerprints
                if stamps is None:
                    stamps = attribute_fingerprints(self._column_stats)
                self._spool = self._cache.publish(
                    self._fingerprint,
                    self._spool,
                    database=self._db.name,
                    fingerprints=stamps,
                )
                retired = self._retiree is not None and self._cache.retire(
                    self._retiree, self._spool.root
                )
                if publish_span is not None:
                    publish_span.attrs["retired"] = retired
            self._cache = None
            self._temp_root = None  # the cache entry owns the files now
        return self._spool

    def close(self, keep: bool = False) -> None:
        """Release the entry slot's hold, and remove a temporary or
        unpublished staging directory, unless ``keep``."""
        if self._hold is not None:
            SpoolCache.release(self._hold)
            self._hold = None
        if self._temp_root is not None and not keep:
            shutil.rmtree(self._temp_root, ignore_errors=True)


def _merged_pool_stats(*parts: dict | None) -> dict | None:
    """Sum the per-phase pool deltas into the run's ``pool_stats``."""
    if all(part is None for part in parts):
        return None
    from repro.parallel.pool import merge_pool_stat_dicts

    return merge_pool_stat_dicts(list(parts))


def _build_validator(db, cfg, spool, column_stats, pool=None):
    """Instantiate the validator ``cfg.strategy`` selects (internal)."""
    if cfg.strategy == "brute-force":
        if cfg.validation_workers > 1:
            # Imported lazily: repro.parallel builds on repro.core and must
            # not be a hard dependency of importing the core package.
            from repro.parallel.engine import ProcessPoolValidationEngine

            return ProcessPoolValidationEngine(
                spool,
                workers=cfg.validation_workers,
                skip_scan=cfg.skip_scans,
                pool=pool,
            )
        return BruteForceValidator(spool, skip_scan=cfg.skip_scans)
    if cfg.strategy == "single-pass":
        return SinglePassValidator(spool)
    if cfg.strategy == "merge-single-pass":
        return MergeSinglePassValidator(spool, skip_scan=cfg.skip_scans)
    if cfg.strategy == "blockwise":
        return BlockwiseValidator(spool, max_open_files=cfg.max_open_files)
    if cfg.strategy == "sql-join":
        return SqlJoinValidator(db, column_stats)
    if cfg.strategy == "sql-minus":
        return SqlMinusValidator(db, column_stats)
    if cfg.strategy == "sql-notin":
        return SqlNotInValidator(db, column_stats, null_safe=cfg.sql_null_safe)
    if cfg.strategy == "reference":
        return ReferenceValidator(db)
    raise DiscoveryError(f"unhandled strategy {cfg.strategy!r}")


def _sampling_pretest(spool, cfg, ids, pairs, samples=None):
    """Drop pairs the sampling pretest refutes; they are refuted INDs.

    ``samples`` seeds the sampler with reservoirs it need not draw again.
    Returns the survivors, the refuted pairs and every reservoir the
    sampler then holds.
    """
    sampler = SamplingPretest(
        spool,
        sample_size=cfg.sampling_size,
        seed=cfg.sampling_seed,
        samples=samples,
    )
    survivors: list[int] = []
    refuted: list[int] = []
    for pair, candidate in zip(pairs, ids.candidates(pairs)):
        if sampler.pretest(candidate):
            survivors.append(pair)
        else:
            refuted.append(pair)
    return survivors, refuted, sampler.samples


def _validate(
    validator, ids: AttributeIds, pairs: list[int]
) -> ValidationResult | PairValidation:
    """Validate the survivors: pairs as they are for the merge validator,
    :class:`~repro.core.candidates.Candidate` objects for the rest.

    Either result answers what the runner reads: ``satisfied``, ``stats``
    and the number of ``decisions``.  A pooled brute-force result also
    carries ``pool`` and ``task_spans``.
    """
    validate_pairs = getattr(validator, "validate_pairs", None)
    if validate_pairs is not None:
        return validate_pairs(ids.refs, pairs)
    return validator.validate(ids.candidates(pairs))


def _validate_sequential(db, cfg, spool, candidates, column_stats):
    """Sequential validation with online transitivity pruning (Sec. 6)."""
    pruner = TransitivityPruner()
    validator = _build_validator(db, cfg, spool, column_stats)
    collector = DecisionCollector(candidates, f"{cfg.strategy}+transitivity")
    io = IOStats()
    with Stopwatch() as clock:
        for candidate in collector.candidates:
            inferred = pruner.infer(candidate)
            if inferred is None:
                if cfg.strategy == "brute-force":
                    outcome = validator.validate_one(
                        candidate, io=io, stats=collector.stats
                    )
                else:
                    outcome = validator.validate_one(candidate)
                collector.record(candidate, outcome)
            else:
                outcome = inferred
                collector.record(candidate, outcome, vacuous=True)
            pruner.record(candidate, outcome)
    collector.stats.elapsed_seconds = clock.elapsed
    collector.stats.absorb_io(io)
    if cfg.strategy in SQL_STRATEGIES:
        engine = validator._engine  # noqa: SLF001 - deliberate introspection
        collector.stats.sql_rows_scanned = engine.total_stats.rows_scanned
        collector.stats.sql_statements = engine.total_stats.statements
    result: ValidationResult = collector.result()
    return result, pruner.inferred_satisfied, pruner.inferred_refuted


class DiscoverySession:
    """Reusable discovery context: one warm worker pool across many runs.

    A plain :func:`discover_inds` call that pools brute force pays pool
    startup on every invocation.  A session creates the
    :class:`~repro.parallel.pool.WorkerPool` once — lazily, on the first
    pooled run — and lends it to every subsequent :meth:`discover`, so
    repeated runs validate on warm worker processes holding warm spool
    handles.  ``repro-ind serve`` is a thin loop over this class;
    benchmarks use it for the warm legs of the repeated-run curves.

    The session owns the pool: :meth:`close` (or leaving the ``with``
    block) drains it, and closing twice is a no-op.  :meth:`discover` is
    thread-safe: concurrent calls multiplex their validation jobs over the
    one shared pool (``repro-ind serve --max-inflight`` relies on exactly
    this), each request getting its own deterministic result.

    Config flags that matter here: ``validation_workers`` sizes the pool;
    the pool engages for pooled brute-force validation (more than one
    worker) and for ``overlap`` runs, so an overlapped session runs its
    export and pretest, and a brute-force validation after them, on one
    warm fleet.  Other configurations, every plain merge among them, run
    exactly as in :func:`discover_inds` with no pool ever created.
    ``reuse_spool``/``cache_dir`` pair well with a session because a cache
    hit keeps the spool *path* stable across runs, which is what lets
    workers reuse their handles.
    """

    def __init__(
        self,
        config: DiscoveryConfig | None = None,
        idle_reap_seconds: float | None = None,
    ) -> None:
        """Create an idle session around ``config`` (the per-run default).

        ``idle_reap_seconds`` arms idle-worker reaping: after each run,
        a pool that has had no job for at least that many seconds is
        drained (:meth:`~repro.parallel.pool.WorkerPool.reap_idle`).  A
        session whose runs stop reaching the pool — merges and
        single-candidate brute force run in process — would otherwise
        keep a fleet that an earlier pooled job spawned pinned doing
        nothing.  The pool itself stays open; the next pooled request
        respawns workers at the usual cold price.
        ``None`` (the default) never reaps.
        """
        self.config = (config or DiscoveryConfig()).validated()
        if idle_reap_seconds is not None and idle_reap_seconds < 0:
            raise DiscoveryError("idle_reap_seconds must be >= 0")
        self.idle_reap_seconds = idle_reap_seconds
        self._pool: "WorkerPool | None" = None
        self._pool_lock = threading.Lock()
        self._closed = False
        #: Last result per database name — the automatic ``prior`` for the
        #: next ``incremental`` run over that database (``repro-ind watch``
        #: and serve lean on this).  Guarded by its own lock: priors are
        #: touched on every discover, the pool only on creation.
        self._priors: dict[str, DiscoveryResult] = {}
        self._prior_lock = threading.Lock()

    def __enter__(self) -> "DiscoverySession":
        """Context-manager entry: the session itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: drain the pool."""
        self.close()

    @property
    def pool_stats(self) -> "PoolStats | None":
        """Lifetime counters of the session pool, or ``None`` before it spawns."""
        return self._pool.stats if self._pool is not None else None

    def discover(
        self,
        db: Database,
        config: DiscoveryConfig | None = None,
        prior: DiscoveryResult | None = None,
    ) -> DiscoveryResult:
        """Run one discovery over ``db``, reusing the session's warm pool.

        ``config`` overrides the session default for this run only; the
        pool is created by the first run that can use it (pooled brute
        force or an ``overlap`` run), sized by that run's
        ``validation_workers``, and never resized afterwards — resizing a
        live fleet would defeat the warm handles the session exists to
        preserve.  Safe to call from several threads at once; concurrent
        runs share the pool.

        On ``incremental`` runs the session remembers each database's last
        result and threads it as the next run's ``prior`` automatically;
        pass ``prior`` explicitly to override (or to seed a fresh
        session from a result produced elsewhere).
        """
        if self._closed:
            raise DiscoveryError("discovery session is closed")
        cfg = (config or self.config).validated()
        if cfg.incremental and prior is None:
            with self._prior_lock:
                prior = self._priors.get(db.name)
        try:
            result = discover_inds(
                db, cfg, pool=self._pool_for(cfg), prior=prior
            )
            if cfg.incremental:
                with self._prior_lock:
                    self._priors[db.name] = result
            return result
        finally:
            # A run that used the pool just stamped its activity, so this
            # only fires after a stretch of runs that left the fleet idle
            # (e.g. merges, which run in process).
            if self.idle_reap_seconds is not None and self._pool is not None:
                self._pool.reap_idle(self.idle_reap_seconds)

    def _pool_for(self, cfg: DiscoveryConfig) -> "WorkerPool | None":
        """Lazily create the shared pool when this run can use one.

        A run can use the pool when it pools brute-force validation (more
        than one worker) *or* when it pools export and pretest
        (``overlap`` — even at one worker, so the task path is exercised
        at every worker count).
        Creation is lock-protected so concurrent first requests cannot
        race two fleets into existence (one would leak its processes).
        """
        wants_pool = cfg.overlap or (
            cfg.strategy == "brute-force" and cfg.validation_workers > 1
        )
        if not wants_pool:
            return None
        with self._pool_lock:
            if self._pool is None:
                from repro.parallel.pool import WorkerPool

                self._pool = WorkerPool(cfg.validation_workers)
            return self._pool

    def close(self) -> None:
        """Drain the worker pool; idempotent, like the pool's own shutdown."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
