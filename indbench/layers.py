"""The per-layer pass: the pipeline's layers driven one at a time.

A pass calls each layer's public functions in pipeline order — profile,
candidates, export or cache, pretest, scan, validate — under the
benchmark's own ``perf_counter`` timers, and reads only the counters those
calls already return.  Nothing inside the program is instrumented.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from repro.core.candidates import apply_pretests, generate_unique_ref_candidates
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.core.pruning import SamplingPretest
from repro.db.stats import collect_column_stats
from repro.parallel.planner import ShardPlanner
from repro.parallel.tasks import KIND_SAMPLE_PRETEST, TaskSpec
from repro.storage.cursors import DEFAULT_BATCH_SIZE, IOStats


#: Ratio metrics and the summed counts they divide, so a pass over several
#: requests reports the ratio of its totals, not a ratio of one request.
RATIOS = {
    "candidates.pruned_ratio": ("candidates.pruned", "candidates.raw"),
    "pretest.refuted_ratio": ("pretest.refuted", "pretest.tested"),
    "storage.bytes_per_value": ("storage.bytes_stored", "storage.values_written"),
    "validate.satisfied_ratio": ("validate.satisfied", "validate.candidates"),
    "spool_cache.hit_ratio": ("spool_cache.hits", "spool_cache.lookups"),
    "pool.handle_reuse_ratio": ("pool.handle_reuses", "pool.tasks"),
    "delta.revalidated_ratio": ("delta.revalidated", "delta.candidates"),
    "parallel.merge_speedup": ("validate.s", "parallel.validate_s"),
}


class Recorder:
    """Metrics of one pass, keyed by their ``BENCHMARK.json`` names.

    Seconds and counts add up over the requests of a pass; ratios are
    derived from the totals by :func:`finish`.  ``pipeline_s`` sums the
    timers of the layers the timed call also runs, in the way it runs
    them, so ``discover_s - pipeline_s`` is the runner's own share (glue).
    Reference measurements the call does not make (a full scan, the
    sequential merge beside the pooled one) time with ``pipeline=False``.
    """

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.pipeline_s = 0.0

    @contextmanager
    def timed(self, name: str, pipeline: bool = True):
        """Add the wall time of the ``with`` body to metric ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.add(name, elapsed)
            if pipeline:
                self.pipeline_s += elapsed

    def add(self, name: str, value: float) -> None:
        """Add a count to metric ``name``."""
        self.values[name] = self.values.get(name, 0.0) + value

    def set(self, name: str, value: float) -> None:
        """Record a gauge: the last value wins."""
        self.values[name] = value


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 for an empty base."""
    return part / whole if whole else 0.0


def pair(candidate) -> tuple:
    """A candidate or IND as a ``(dependent, referenced)`` key."""
    return (candidate.dependent, candidate.referenced)


def profile(rec: Recorder, db, cfg):
    """Profile and generate candidates; returns ``(stats, raw, surviving)``."""
    with rec.timed("db.profile_s"):
        stats = collect_column_stats(db)
    rec.add("db.values_profiled", sum(st.row_count for st in stats.values()))
    with rec.timed("candidates.s"):
        raw = generate_unique_ref_candidates(stats)
        surviving, _ = apply_pretests(raw, stats, cfg.pretests)
    rec.add("candidates.raw", len(raw))
    rec.add("candidates.surviving", len(surviving))
    rec.add("candidates.pruned", len(raw) - len(surviving))
    return stats, raw, surviving


def needed_attributes(candidates) -> list:
    """The attributes validation touches — the ones the runner spools."""
    return sorted(
        {c.dependent for c in candidates} | {c.referenced for c in candidates}
    )


def record_export(rec: Recorder, spool, export_stats) -> None:
    """Counts of what an export wrote; bytes are its spool files on disk.

    Files adopted from a cache donor are not counted: the export did not
    write them.
    """
    written = export_stats.per_attribute_counts
    stored = sum(
        os.path.getsize(spool.get(ref).path)
        for ref in spool.attributes()
        if ref.qualified in written
    )
    rec.add("storage.values_written", export_stats.values_written)
    rec.add("storage.bytes_stored", stored)


def scan(rec: Recorder, spool, candidates) -> None:
    """Read every attribute of ``candidates`` to its end, as validation does.

    Validation fetches and decodes the same files, so ``validate.s`` minus
    this is its compare/heap share (an upper bound on fetch: the merge may
    stop reading a file early).
    """
    io = IOStats()
    with rec.timed("storage.scan_s", pipeline=False):
        for ref in needed_attributes(candidates):
            cursor = spool.open_cursor(ref, io)
            try:
                while cursor.read_batch(DEFAULT_BATCH_SIZE):
                    pass
            finally:
                cursor.close()
    rec.add("storage.bytes_read", io.bytes_read)


def sampling_pretest(rec: Recorder, spool, cfg, candidates, decisions, pool=None):
    """Run the sampling pretest; refuted candidates are decided False.

    With a ``pool`` the pretest runs as ``sample-pretest`` tasks on it,
    chunked as the pooled runner chunks them; otherwise in this process.
    """
    if not cfg.sampling_size:
        return candidates
    verdicts: dict = {}
    with rec.timed("pretest.s"):
        if pool is None:
            sampler = SamplingPretest(
                spool, sample_size=cfg.sampling_size, seed=cfg.sampling_seed
            )
            verdicts = {c: sampler.pretest(c) for c in candidates}
        else:
            specs = [
                TaskSpec(
                    kind=KIND_SAMPLE_PRETEST,
                    candidates=chunk.candidates,
                    payload=(cfg.sampling_size, cfg.sampling_seed),
                )
                for chunk in ShardPlanner(spool).plan_pretest_chunks(
                    candidates, cfg.validation_workers
                )
            ]
            job = pool.run_job(str(spool.root), specs)
            for outcome in job.outcomes:
                verdicts.update(outcome.decisions)
    if pool is not None:
        record_pool(rec, [job.stats.as_dict()])
    survivors = [c for c in candidates if verdicts[c]]
    for c in candidates:
        if not verdicts[c]:
            decisions[pair(c)] = False
    rec.add("pretest.tested", len(candidates))
    rec.add("pretest.refuted", len(candidates) - len(survivors))
    return survivors


def validate(rec: Recorder, spool, candidates, pipeline: bool = True):
    """Sequential merge-single-pass validation with its I/O counters."""
    with rec.timed("validate.s", pipeline=pipeline):
        result = MergeSinglePassValidator(spool).validate(candidates)
    stats = result.stats
    rec.add("validate.items_read", stats.items_read)
    rec.add("validate.comparisons", stats.comparisons)
    rec.add("validate.blocks_skipped", stats.blocks_skipped)
    rec.add("validate.satisfied", len(result.satisfied))
    rec.add("validate.candidates", len(candidates))
    return result


def record_pool(rec: Recorder, stat_dicts) -> None:
    """Fold per-job :class:`PoolStats` dicts into the ``pool.*`` counts."""
    for part in stat_dicts:
        if part:
            rec.add("pool.tasks", part["tasks_completed"])
            rec.add("pool.requeues", part["tasks_requeued"])
            rec.add("pool.handle_reuses", part["spool_handle_reuses"])


def decide(decisions: dict, result) -> None:
    """Copy a validation result's verdicts into ``decisions``."""
    for candidate, satisfied in result.decisions.items():
        decisions[pair(candidate)] = satisfied


def finish(rec: Recorder) -> None:
    """Derive the ratios and ``validate.compare_s`` from the pass's totals."""
    values = rec.values
    for name, (part, whole) in RATIOS.items():
        if whole in values:
            values[name] = ratio(values.get(part, 0.0), values[whole])
    if "validate.s" in values:
        values["validate.compare_s"] = values["validate.s"] - values.get(
            "storage.scan_s", 0.0
        )
