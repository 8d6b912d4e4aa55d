"""Cross-validator agreement harness over randomized seeded databases.

The central invariant of the whole library, tested end to end: **every
strategy computes exactly the set-containment relation** over rendered
values.  For each seeded random database, all seven non-oracle strategies
(four external, three SQL) must return the satisfied/violated candidate sets
of the in-memory reference oracle — and the external ones must do so on
every storage leg (v2 and v3 compressed block files, one leg per entry of
``SPOOL_COMPRESSIONS``), with tiny block sizes so batches straddle block
boundaries constantly.

``tests/test_properties.py`` covers the same ground with hypothesis-shrunken
micro-inputs; this suite complements it with larger, multi-table databases
with messy values (newlines, backslashes, NULs, cross-type collisions) and
with the full ``discover_inds`` pipeline, in process and pooled.
"""

from __future__ import annotations

import json

import pytest

from repro.core.blockwise import BlockwiseValidator
from repro.core.brute_force import BruteForceValidator
from repro.core.candidates import apply_pretests, generate_unique_ref_candidates
from repro.core.candidates import PretestConfig
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.core.reference import ReferenceValidator
from repro.core.runner import DiscoveryConfig, discover_inds
from repro.core.single_pass import SinglePassValidator
from repro.parallel import ProcessPoolValidationEngine
from repro.core.sql_approaches import (
    SqlJoinValidator,
    SqlMinusValidator,
    SqlNotInValidator,
)
from repro.db import Database
from repro.db.stats import collect_column_stats
from repro.storage.codec import SPOOL_COMPRESSIONS
from repro.storage.exporter import export_database

from seeded_dbs import build_random_db

SEEDS = tuple(range(10))

#: The merge's I/O counters, which must not depend on ``validation_workers``.
MERGE_COUNTERS = ("items_read", "comparisons", "files_opened", "blocks_skipped")


def _candidates(db: Database):
    stats = collect_column_stats(db)
    raw = generate_unique_ref_candidates(stats)
    candidates, _ = apply_pretests(
        raw, stats, PretestConfig(cardinality=True, max_value=False)
    )
    return stats, candidates


def _decision_key(decisions) -> dict[str, bool]:
    return {str(c): ok for c, ok in decisions.items()}


class TestExternalStrategiesAgree:
    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_external_validators_match_oracle(
        self, seed, compression, tmp_path
    ):
        db = build_random_db(seed)
        _, candidates = _candidates(db)
        if not candidates:
            pytest.skip(f"seed {seed} generated no candidates")
        expected = ReferenceValidator(db).validate(candidates).decisions
        spool, _ = export_database(
            db,
            str(tmp_path / "spool"),
            block_size=3,  # tiny blocks: every batch straddles boundaries
            compression=compression,
        )
        live = [
            c for c in candidates
            if c.dependent in spool and c.referenced in spool
        ]
        assert live == candidates  # pretests never pass an empty attribute
        validators = [
            BruteForceValidator(spool),
            SinglePassValidator(spool),
            MergeSinglePassValidator(spool),
            BlockwiseValidator(spool, max_open_files=4),
            BlockwiseValidator(spool, max_open_files=4, engine="observer"),
        ]
        for validator in validators:
            got = validator.validate(candidates).decisions
            assert _decision_key(got) == _decision_key(expected), (
                f"{type(validator).__name__} disagrees with the oracle "
                f"on seed {seed} ({compression} spools)"
            )

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_items_read_identical_across_variants(self, seed, tmp_path):
        """The Fig. 5 metric counts logical consumption, not physical blocks.

        Compression only changes how bytes reach the decoder, so every
        storage leg must report the same ``items_read`` per validator.
        """
        db = build_random_db(seed)
        _, candidates = _candidates(db)
        if not candidates:
            pytest.skip(f"seed {seed} generated no candidates")
        per_variant = {}
        for compression in SPOOL_COMPRESSIONS:
            spool, _ = export_database(
                db,
                str(tmp_path / compression),
                block_size=2,
                compression=compression,
            )
            per_variant[compression] = {
                name: validator.validate(candidates).stats.items_read
                for name, validator in (
                    ("brute", BruteForceValidator(spool)),
                    ("observer", SinglePassValidator(spool)),
                    ("merge", MergeSinglePassValidator(spool)),
                )
            }
        baseline = per_variant["none"]
        for compression, reads in per_variant.items():
            assert reads == baseline, f"items_read drifted on {compression}"


class TestParallelAgreement:
    """More workers never change an answer or a counter.

    Every seeded database runs pooled brute force at 1, 2 and 4 workers
    against one shared exported spool.  Satisfied and refuted sets must be
    identical to the sequential validator at every worker count — and so
    must the summed ``items_read`` and ``comparisons``, because each
    candidate's test is independent of where it runs.  The merge takes
    ``validation_workers`` too but always merges in process, so a run at
    two workers must be the one-worker run and spawn nothing.
    """

    WORKER_COUNTS = (1, 2, 4)

    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_workers_never_change_decisions(self, seed, compression, tmp_path):
        db = build_random_db(seed)
        _, candidates = _candidates(db)
        if not candidates:
            pytest.skip(f"seed {seed} generated no candidates")
        spool, _ = export_database(
            db,
            str(tmp_path / "spool"),
            block_size=3,
            compression=compression,
        )
        expected = BruteForceValidator(spool).validate(candidates)
        for workers in self.WORKER_COUNTS:
            engine = ProcessPoolValidationEngine(spool, workers=workers)
            got = engine.validate(candidates)
            assert _decision_key(got.decisions) == _decision_key(
                expected.decisions
            ), f"brute force diverges at {workers} workers (seed {seed})"
            assert got.satisfied == expected.satisfied
            assert got.stats.satisfied_count == expected.stats.satisfied_count
            assert got.stats.refuted_count == expected.stats.refuted_count
            assert got.stats.items_read == expected.stats.items_read, (
                f"brute force reads diverge at {workers} workers "
                f"(seed {seed})"
            )
            assert got.stats.comparisons == expected.stats.comparisons
            assert got.stats.files_opened == expected.stats.files_opened

    @pytest.mark.parametrize("skip_scans", (False, True))
    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_at_two_workers_is_the_one_worker_run(
        self, seed, compression, skip_scans, monkeypatch
    ):
        """Lent pool or not, traced or not: no worker, the same counters."""
        from repro.parallel import WorkerPool

        def no_spawn(pool):
            raise AssertionError("a merge run spawned a pool worker")

        monkeypatch.setattr(WorkerPool, "_spawn_worker", no_spawn)
        db = build_random_db(seed)

        def config(workers, trace=False):
            return DiscoveryConfig(
                strategy="merge-single-pass",
                validation_workers=workers,
                spool_compression=compression,
                skip_scans=skip_scans,
                spool_block_size=3,
                trace=trace,
            )

        expected = discover_inds(db, config(1))
        with WorkerPool(2) as fleet:
            for pool in (None, fleet):
                for trace in (False, True):
                    got = discover_inds(db, config(2, trace), pool=pool)
                    assert got.pool_stats is None
                    assert got.satisfied == expected.satisfied
                    for counter in MERGE_COUNTERS:
                        assert getattr(got.validator_stats, counter) == getattr(
                            expected.validator_stats, counter
                        ), (counter, pool is not None, trace)
            assert not fleet.started

    @pytest.mark.parametrize("workers", (2, 4))
    def test_warm_pool_replays_sequential_across_jobs(self, workers, tmp_path):
        """One persistent pool serving many spools/jobs never drifts.

        The work-stealing dispatch makes chunk-to-worker placement
        nondeterministic, and warm spool handles mean later jobs run on
        state cached from earlier ones — exactly the two things that could
        make a long-lived service diverge from one-shot runs.  Decisions
        and summed counters must still match the sequential validator for
        every seed, with all seeds flowing through the *same* pool.
        """
        from repro.parallel import WorkerPool

        with WorkerPool(workers) as pool:
            jobs = 0
            for seed in (1, 3, 5):
                db = build_random_db(seed)
                _, candidates = _candidates(db)
                if not candidates:
                    continue
                spool, _ = export_database(
                    db, str(tmp_path / f"spool{seed}"), block_size=3
                )
                sequential = BruteForceValidator(spool).validate(candidates)
                engine = ProcessPoolValidationEngine(
                    spool, workers=workers, pool=pool
                )
                for _ in range(2):  # second pass runs on warm handles
                    got = engine.validate(candidates)
                    assert _decision_key(got.decisions) == _decision_key(
                        sequential.decisions
                    ), f"warm pool diverges (seed {seed}, {workers} workers)"
                    assert got.satisfied == sequential.satisfied
                    assert got.stats.items_read == sequential.stats.items_read
                    assert got.stats.comparisons == sequential.stats.comparisons
                    jobs += 1
            assert pool.stats.jobs == jobs
            assert pool.stats.workers_spawned == workers
            assert pool.stats.spool_handle_reuses > 0

    @pytest.mark.parametrize("seed", (1, 5))
    def test_discover_inds_parallel_equals_sequential(self, seed):
        db = build_random_db(seed)
        for strategy in ("brute-force", "merge-single-pass"):
            baseline = discover_inds(db, DiscoveryConfig(strategy=strategy))
            for workers in (2, 4):
                result = discover_inds(
                    db,
                    DiscoveryConfig(
                        strategy=strategy,
                        validation_workers=workers,
                        spool_block_size=4,
                    ),
                )
                assert {str(i) for i in result.satisfied} == {
                    str(i) for i in baseline.satisfied
                }, f"{strategy} at {workers} workers (seed {seed})"
                assert result.validation_workers == workers


def _pipeline_view(result_dict: dict) -> dict:
    """``DiscoveryResult.to_dict()`` minus timings and pool/placement noise.

    What must be byte-identical between the sequential and the pooled
    pipeline: decisions, satisfied sets, pretest and sampling reductions,
    export counters, ``items_read``/``comparisons``/``files_opened``.
    What legitimately differs: wall-clock timings, per-job pool counters,
    the overlap graph's scheduling summary, the worker count echoed from
    the config, the engine's ``extra`` diagnostics, and
    ``peak_open_files`` (documented to *sum* across concurrently held
    shard cursors rather than track one process's max).
    """
    view = json.loads(json.dumps(result_dict))  # deep copy, JSON-safe proof
    view.pop("timings")
    view.pop("pool")
    view.pop("overlap")
    view.pop("validation_workers")
    view.pop("trace", None)  # additive observability, never part of the answer
    view["validator"].pop("elapsed_seconds")
    view["validator"].pop("extra")
    view["validator"].pop("peak_open_files")
    return view


class TestEndToEndPipelineAgreement:
    """The whole ``discover_inds`` result replays across storage variants.

    Pooled runs of the same pipeline — the ``overlap=True`` graph — are
    pinned against the in-process run in
    ``tests/parallel/test_overlap_stress.py::TestOverlapMatrix``.
    """

    SAMPLING = 2  # small on purpose: samples must refute some candidates

    def _config(self, strategy, compression):
        return DiscoveryConfig(
            strategy=strategy,
            spool_compression=compression,
            spool_block_size=3,
            sampling_size=self.SAMPLING,
            pretests=PretestConfig(cardinality=True, max_value=False),
        )

    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    def test_to_dict_identical_across_binary_variants(self, compression):
        """Compression never changes a single answer byte.

        The full result document — decisions, counters, ``items_read``,
        export statistics — of every storage leg must equal the plain v2
        run.  Only ``bytes_stored`` may differ (it
        reports on-disk bytes, which compression legitimately shrinks).
        """
        db = build_random_db(5)
        reference = _pipeline_view(
            discover_inds(
                db, self._config("merge-single-pass", SPOOL_COMPRESSIONS[0])
            ).to_dict()
        )
        reference["validator"].pop("bytes_stored")
        got = _pipeline_view(
            discover_inds(
                db, self._config("merge-single-pass", compression)
            ).to_dict()
        )
        stored = got["validator"].pop("bytes_stored")
        assert stored > 0
        assert got == reference, f"{compression} changed the answer"


def _assert_well_formed_trace(trace: dict) -> None:
    """Structural invariants of a serialised span tree.

    One ``discover`` root, every other span parented to a live span id (no
    orphans), and every worker-stamped ``task:*`` span hanging off the
    phase that dispatched it.
    """
    spans = trace["spans"]
    assert spans, "traced run produced no spans"
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    assert [root["name"] for root in roots] == ["discover"], roots
    for span in spans:
        assert span["start"] >= 0.0 and span["duration"] >= 0.0, span
        if span["parent"] is not None:
            assert span["parent"] in by_id, f"orphan span: {span}"
        if span["name"].startswith("task:"):
            parent = by_id[span["parent"]]
            assert parent["name"] in ("export", "pretest", "validate"), (
                f"task span parented to {parent['name']!r}"
            )
            assert span["attrs"]["kind"] in span["name"]
            assert "task_id" in span["attrs"] and "requeues" in span["attrs"]


class TestTracedPipelineExactness:
    """Tracing is observationally free — and the span tree is coherent.

    The overlap graph (export and pretest on the pool, then pooled
    validation) with ``trace=True``:
    decisions, ``items_read``, the pruned candidate set and every export
    counter must be byte-identical to the untraced sequential baseline at
    workers {1, 2, 4}, the result dict must differ
    *only* by the ``trace`` key, and the recorded tree must be well-formed
    with per-task spans attributed to worker pids.
    """

    WORKER_COUNTS = (1, 2, 4)

    def _config(self, **overrides):
        return DiscoveryConfig(
            strategy="brute-force",
            spool_block_size=3,
            sampling_size=2,
            pretests=PretestConfig(cardinality=True, max_value=False),
            **overrides,
        )

    def test_traced_matrix_byte_exact_and_well_formed(self):
        db = build_random_db(5)
        baseline = discover_inds(db, self._config())
        baseline_doc = baseline.to_dict()
        assert "trace" not in baseline_doc  # untraced dict is pre-obs shape
        expected = _pipeline_view(baseline_doc)
        assert baseline.sampling_refuted > 0
        for workers in self.WORKER_COUNTS:
            traced = discover_inds(
                db,
                self._config(
                    validation_workers=workers,
                    overlap=True,
                    trace=True,
                ),
            )
            doc = traced.to_dict()
            trace = doc.pop("trace")
            assert set(doc) == set(baseline_doc), (
                "tracing must add only the 'trace' key"
            )
            assert _pipeline_view(doc) == expected, (
                f"tracing changed the answer at {workers} workers"
            )
            _assert_well_formed_trace(trace)
            # Pool task spans were stamped worker-side: their pids are the
            # fleet's, never this process's.
            root_pid = next(
                span["pid"] for span in trace["spans"]
                if span["parent"] is None
            )
            task_pids = {
                span["pid"] for span in trace["spans"]
                if span["name"].startswith("task:")
            }
            assert task_pids, "pooled run recorded no task spans"
            assert root_pid not in task_pids


class TestSqlStrategiesAgree:
    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_sql_validators_match_oracle(self, seed):
        db = build_random_db(seed)
        stats, candidates = _candidates(db)
        if not candidates:
            pytest.skip(f"seed {seed} generated no candidates")
        expected = ReferenceValidator(db).validate(candidates).decisions
        for validator in (
            SqlJoinValidator(db, stats),
            SqlMinusValidator(db, stats),
            SqlNotInValidator(db, stats),
        ):
            got = validator.validate(candidates).decisions
            assert _decision_key(got) == _decision_key(expected), (
                f"{type(validator).__name__} disagrees on seed {seed}"
            )


class TestPipelineAgreement:
    """End-to-end agreement through ``discover_inds`` for every strategy."""

    STRATEGIES = (
        "brute-force",
        "single-pass",
        "merge-single-pass",
        "blockwise",
        "sql-join",
        "sql-minus",
        "sql-notin",
        "reference",
    )

    @pytest.mark.parametrize("seed", (1, 4))
    def test_all_strategies_same_satisfied_set(self, seed):
        db = build_random_db(seed)
        results = {}
        for strategy in self.STRATEGIES:
            config = DiscoveryConfig(
                strategy=strategy,
                spool_block_size=4,
            )
            result = discover_inds(db, config)
            results[strategy] = {str(ind) for ind in result.satisfied}
        reference = results["reference"]
        for strategy, satisfied in results.items():
            assert satisfied == reference, (
                f"{strategy} found {satisfied ^ reference} differently "
                f"(seed {seed})"
            )
