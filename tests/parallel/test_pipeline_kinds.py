"""The two pipeline task kinds: spool export and the sampling pretest.

Exactness of the pooled *pipeline* (``overlap=True``) is pinned end to
end in ``tests/parallel/test_overlap_stress.py::TestOverlapMatrix``; this
file covers what only the kinds themselves can get wrong: fault
tolerance (a worker dying mid ``spool-export`` / mid ``sample-pretest``
must requeue and converge, never corrupt a file or a verdict), cache
hygiene (a failed pooled export must leave no cache entry and no staging
directory behind), isolation (a crash
storm in one job must not disturb a concurrent job on the same fleet —
the serve shape), and the stats round trip (``tasks_by_kind`` spanning
all phases through ``DiscoveryResult.to_dict()``).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.brute_force import BruteForceValidator
from repro.core.candidates import Candidate, PretestConfig
from repro.core.pruning import SamplingPretest
from repro.core.runner import DiscoveryConfig, discover_inds
from repro.db import Column, Database, DataType, TableSchema
from repro.db.stats import collect_column_stats
from repro.errors import DiscoveryError
from repro.parallel.engine import ProcessPoolValidationEngine
from repro.parallel.export import pooled_export
from repro.parallel.planner import ShardPlanner
from repro.parallel.pool import WorkerPool, run_specs
from repro.parallel.tasks import KIND_SAMPLE_PRETEST, TaskSpec
from repro.db.schema import AttributeRef
from repro.storage.exporter import export_database
from repro.storage.spool_cache import SpoolCache, catalog_fingerprint


from seeded_dbs import build_db


def _candidates(db: Database) -> list[Candidate]:
    from repro.core.candidates import (
        apply_pretests,
        generate_unique_ref_candidates,
    )

    stats = collect_column_stats(db)
    raw = generate_unique_ref_candidates(stats)
    candidates, _ = apply_pretests(
        raw, stats, PretestConfig(cardinality=True, max_value=False)
    )
    return candidates


def _index_doc(root) -> dict:
    with open(f"{root}/index.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestExportFaults:
    def test_worker_death_mid_export_requeues_and_converges(
        self, tmp_path, monkeypatch
    ):
        """A worker killed mid spool-export must not lose or corrupt files.

        The fault hook kills exactly one worker the first time it picks up
        a task whose export units mention the marked attribute; the pool
        must requeue the task, replace the worker, and the assembled spool
        — index document, per-file bytes, export statistics — must be
        identical to the sequential exporter's.
        """
        db = build_db()
        sequential, seq_stats = export_database(
            db, str(tmp_path / "seq"), block_size=4
        )
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        with WorkerPool(2) as pool:
            spool, stats, pool_stats, task_spans = pooled_export(
                db,
                str(tmp_path / "pooled"),
                workers=2,
                pool=pool,
                block_size=4,
            )
            assert pool.stats.tasks_requeued >= 1
            assert pool.stats.workers_replaced >= 1
        # Exactly one span per task survives the requeue (done-dedup), and
        # the requeued task's span records its retry count.
        assert len(task_spans) == pool_stats["tasks_dispatched"]
        assert max(s["attrs"]["requeues"] for s in task_spans) >= 1
        assert (tmp_path / "pool-fault-fired").exists()
        assert stats == seq_stats
        assert pool_stats["tasks_by_kind"].keys() == {"spool-export"}
        seq_doc, pooled_doc = _index_doc(sequential.root), _index_doc(spool.root)
        assert pooled_doc == seq_doc
        for entry in pooled_doc["attributes"]:
            seq_bytes = (sequential.root / entry["file"]).read_bytes()
            assert (spool.root / entry["file"]).read_bytes() == seq_bytes
        # No temporary leftovers from the killed writer survive assembly.
        assert not list(spool.root.glob("*.tmp-*"))

    def test_failed_export_exposes_no_cache_entry_and_no_orphan(
        self, tmp_path, monkeypatch
    ):
        """A crash-looping export fails loudly and never publishes.

        Every worker that picks up the marked task dies (no once-marker),
        so the job fails at the requeue cap.  The cache must contain no
        entry — lookups miss — and the failed run removes its staging
        directory, so no orphan is left either.  (A staging directory a
        crashed process leaves behind is an orphan: see
        ``tests/storage/test_spool_cache.py::TestOrphans``.)
        """
        db = build_db()
        cache_dir = tmp_path / "cache"
        config = DiscoveryConfig(
            strategy="brute-force",
            validation_workers=2,
            overlap=True,
            reuse_spool=True,
            cache_dir=str(cache_dir),
            pretests=PretestConfig(cardinality=True, max_value=False),
        )
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        with pytest.raises(DiscoveryError, match="killed its worker"):
            discover_inds(db, config)
        cache = SpoolCache(cache_dir)
        assert cache.list_entries() == []
        fingerprint = catalog_fingerprint(db.name, collect_column_stats(db))
        assert cache.lookup(fingerprint) is None
        assert cache.list_orphans() == []
        assert list(cache_dir.iterdir()) == []
        # The recovered operator path: the same config succeeds and caches
        # once the fault is gone.
        monkeypatch.delenv("REPRO_POOL_FAULT_ATTR")
        result = discover_inds(db, config)
        assert not result.spool_cache_hit
        assert len(cache.list_entries()) == 1

    def test_concurrent_job_unaffected_by_export_crash(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-export must not disturb a concurrent job on the fleet.

        The serve shape: two requests multiplex one pool.  Thread A runs a
        pooled export whose task kills a worker once; thread B
        concurrently validates candidates on an already exported spool.
        B's decisions and counters must equal the sequential validator's
        exactly, crash or no crash.
        """
        db = build_db()
        candidates = _candidates(db)
        assert candidates
        spool, _ = export_database(
            db, str(tmp_path / "spool"), block_size=4
        )
        sequential = BruteForceValidator(spool).validate(candidates)
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        results: dict[str, object] = {}
        errors: list[Exception] = []
        with WorkerPool(2) as pool:
            def run_export() -> None:
                try:
                    results["export"] = pooled_export(
                        db,
                        str(tmp_path / "pooled"),
                        workers=2,
                        pool=pool,
                        block_size=4,
                    )
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            def run_validate() -> None:
                try:
                    engine = ProcessPoolValidationEngine(
                        spool, workers=2, pool=pool
                    )
                    results["validate"] = engine.validate(candidates)
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=run_export),
                threading.Thread(target=run_validate),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert pool.stats.workers_replaced >= 1
        got = results["validate"]
        assert got.decisions == sequential.decisions
        assert got.stats.items_read == sequential.stats.items_read
        assert got.stats.comparisons == sequential.stats.comparisons
        _, export_stats, _, _ = results["export"]
        assert export_stats.values_written > 0


class TestPretestFaults:
    def test_worker_death_mid_pretest_requeues_and_converges(
        self, tmp_path, monkeypatch
    ):
        """A worker killed mid sample-pretest must not change the pruning."""
        db = build_db()
        candidates = _candidates(db)
        assert candidates
        spool, _ = export_database(
            db, str(tmp_path / "spool"), block_size=4
        )
        sampler = SamplingPretest(spool, sample_size=2, seed=7)
        expected = {c: sampler.pretest(c) for c in candidates}
        assert not all(expected.values()), "fixture must refute something"
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        chunks = ShardPlanner(spool).plan_pretest_chunks(candidates, workers=2)
        specs = [
            TaskSpec(
                kind=KIND_SAMPLE_PRETEST,
                candidates=chunk.candidates,
                payload=(2, 7),
            )
            for chunk in chunks
        ]
        with WorkerPool(2) as pool:
            job, _ = run_specs(pool, 2, str(spool.root), specs)
            assert pool.stats.tasks_requeued >= 1
            assert pool.stats.workers_replaced >= 1
        decided: dict[Candidate, bool] = {}
        for outcome in job.outcomes:
            decided.update(outcome.decisions)
        assert {str(c): v for c, v in decided.items()} == {
            str(c): v for c, v in expected.items()
        }
        assert job.stats.tasks_by_kind.keys() == {"sample-pretest"}


class TestPretestPlanning:
    def test_chunks_cover_exactly_once_and_group_by_dependent(self, tmp_path):
        db = build_db()
        candidates = _candidates(db)
        spool, _ = export_database(db, str(tmp_path / "spool"))
        chunks = ShardPlanner(spool).plan_pretest_chunks(candidates, workers=2)
        seen = [c for chunk in chunks for c in chunk.candidates]
        assert sorted(map(str, seen)) == sorted(map(str, candidates))
        assert len(seen) == len(candidates)
        # Each dependent attribute's candidates share one chunk, so the
        # chunk's sampler draws that reservoir exactly once.
        home: dict[AttributeRef, int] = {}
        for chunk in chunks:
            for candidate in chunk.candidates:
                home.setdefault(candidate.dependent, chunk.index)
                assert home[candidate.dependent] == chunk.index
        # Deterministic plan, original order within a chunk.
        assert chunks == ShardPlanner(spool).plan_pretest_chunks(
            candidates, workers=2
        )
        positions = {str(c): i for i, c in enumerate(candidates)}
        for chunk in chunks:
            order = [positions[str(c)] for c in chunk.candidates]
            assert order == sorted(order)


class TestStatsRoundTrip:
    def test_tasks_by_kind_spans_phases_and_survives_to_dict(self):
        """Pipeline pool counters round-trip through the JSON summary."""
        db = build_db()
        sequential = discover_inds(
            db,
            DiscoveryConfig(
                strategy="brute-force",
                sampling_size=2,
                pretests=PretestConfig(cardinality=True, max_value=False),
            ),
        )
        pooled = discover_inds(
            db,
            DiscoveryConfig(
                strategy="brute-force",
                sampling_size=2,
                validation_workers=2,
                overlap=True,
                pretests=PretestConfig(cardinality=True, max_value=False),
            ),
        )
        kinds = pooled.pool_stats["tasks_by_kind"]
        assert {"spool-export", "sample-pretest", "brute-force"} <= set(kinds)
        assert all(count > 0 for count in kinds.values())
        # The dict survives to_dict() and a JSON round trip unchanged.
        document = json.loads(json.dumps(pooled.to_dict()))
        assert document["pool"]["tasks_by_kind"] == kinds
        assert (
            document["pool"]["tasks_completed"]
            == pooled.pool_stats["tasks_completed"]
            == sum(kinds.values())
        )
        # Per-phase sums match the sequential pipeline exactly: export
        # counters for the export phase, items_read for validation (the
        # pretest deliberately reads outside the validator accounting in
        # both pipelines).
        assert pooled.export_values_scanned == sequential.export_values_scanned
        assert pooled.export_values_written == sequential.export_values_written
        assert pooled.sampling_refuted == sequential.sampling_refuted
        assert (
            pooled.validator_stats.items_read
            == sequential.validator_stats.items_read
        )
        assert sequential.pool_stats is None
        assert json.loads(json.dumps(sequential.to_dict()))["pool"] is None


class TestPooledExportAgreement:
    """`pooled_export` is a drop-in for `export_database`, byte for byte."""

    @pytest.mark.parametrize("compression", ("none", "zlib"))
    def test_matches_sequential_export(self, compression, tmp_path):
        db = build_db(seed=3)
        sequential, seq_stats = export_database(
            db, str(tmp_path / "seq"), block_size=3, compression=compression
        )
        # pool=None: the ephemeral right-sized fleet, like the engines.
        pooled, stats, pool_stats, _ = pooled_export(
            db,
            str(tmp_path / "pooled"),
            workers=3,
            block_size=3,
            compression=compression,
        )
        assert stats == seq_stats
        assert pool_stats["tasks_completed"] == pool_stats["tasks_dispatched"]
        assert _index_doc(pooled.root) == _index_doc(sequential.root)
        for ref in sequential.attributes():
            assert pooled.get(ref).values() == sequential.get(ref).values()

    def test_empty_attributes_are_dropped_like_the_sequential_export(
        self, tmp_path
    ):
        db = build_db()
        empty = db.create_table(
            TableSchema("empty_t", [Column("only_nulls", DataType.VARCHAR)])
        )
        empty.insert({"only_nulls": None})
        attrs = db.attributes()
        assert any(ref.table == "empty_t" for ref in attrs)
        sequential, seq_stats = export_database(
            db, str(tmp_path / "seq"), attributes=attrs
        )
        pooled, stats, _, _ = pooled_export(
            db, str(tmp_path / "pooled"), workers=2, attributes=attrs
        )
        assert stats.skipped_empty == seq_stats.skipped_empty == 1
        assert stats == seq_stats
        assert _index_doc(pooled.root) == _index_doc(sequential.root)
        # The empty attribute's file is gone, not just unindexed.
        assert not list(pooled.root.glob("empty_t__*"))

    def test_nothing_to_export_returns_no_pool_stats(self, tmp_path):
        db = Database("bare")
        pooled, stats, pool_stats, task_spans = pooled_export(
            db, str(tmp_path / "pooled"), workers=2
        )
        assert len(pooled) == 0
        assert stats.values_scanned == 0
        assert pool_stats is None
        assert task_spans == []
