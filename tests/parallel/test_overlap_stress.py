"""Randomized stress-agreement harness for the overlapped (pooled) pipeline.

The contract: ``DiscoveryConfig(overlap=True)`` runs export and then the
sampling pretest as two jobs on a single worker pool, then validates the
survivors on that pool through the same validator as an in-process run —
and everything except wall clock must be byte-identical to the in-process
pipeline.  Two layers of defence:

* a fixed small matrix (workers {1, 2, 4} × the two storage legs × both
  fixed engines) against the plain *sequential* pipeline — the paper's
  reference semantics;
* a seeded random sweep: each seed derives a database **and** a config
  vector (workers, storage leg, strategy, sampling size, ``reuse_spool``),
  runs the same vector in process and overlapped, and diffs the full
  ``to_dict()`` view.  The seed is printed
  on failure so any counterexample replays with
  ``pytest -k <seed> tests/parallel/test_overlap_stress.py``.

Plus the fault matrix: a worker killed during the export job, the
pretest job or the pooled merge after them must requeue and converge
byte-exactly with no orphan trace spans; a crash-looping task must fail
loudly (never wedge the run) and leave the pool usable.
"""

from __future__ import annotations

import dataclasses
import json
import random
import tempfile
import threading
from pathlib import Path

import pytest

from seeded_dbs import build_component_db, build_db, build_random_db
from test_validator_agreement import _assert_well_formed_trace

from repro.core.candidates import PretestConfig
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.errors import DiscoveryError
from repro.obs.trace import coverage
from repro.parallel.pool import WorkerPool
from repro.storage.codec import SPOOL_COMPRESSIONS
from repro.storage.sorted_sets import SpoolDirectory
from repro.storage.spool_cache import SpoolCache

#: Fixed seed list: CI replays exactly these, failures print the seed.
STRESS_SEEDS = tuple(range(10))

WORKER_COUNTS = (1, 2, 4)


def _stress_view(result_dict: dict) -> dict:
    """``to_dict()`` minus scheduling noise — what must match byte-for-byte.

    Popped (and nothing else): wall-clock ``timings``, per-job ``pool``
    counters, the additive ``trace`` and ``overlap`` documents, the
    worker count echoed from the config, and the engine's ``extra``/
    ``elapsed_seconds``/``peak_open_files`` diagnostics.  Decisions,
    satisfied sets, pretest and sampling reductions, export counters and
    summed I/O all stay in.
    """
    view = json.loads(json.dumps(result_dict))
    view.pop("timings")
    view.pop("pool")
    view.pop("trace", None)
    view.pop("overlap")
    view.pop("validation_workers")
    view["validator"].pop("elapsed_seconds")
    view["validator"].pop("extra")
    view["validator"].pop("peak_open_files")
    return view


def _config_vector(seed: int) -> dict:
    """Derive a full config vector (plus db seed) from one stress seed."""
    rng = random.Random(seed ^ 0xA5A5)
    # The third slot once drew the cost-model router's strategy, since
    # deleted.  It stays, resolved to merge-single-pass below, so every
    # seed keeps the draws it always had.
    strategy = rng.choice(("brute-force", "merge-single-pass", None))
    workers = rng.choice(WORKER_COUNTS)
    if strategy == "merge-single-pass" and workers > 1:
        # This draw once chose a byte-range merge split, an option since
        # deleted.  It stays so every seed keeps the vector it always had.
        rng.random()
    strategy = strategy or "merge-single-pass"
    # This draw once chose between a v1 text format, since deleted, and
    # binary; a text draw now runs plain uncompressed binary.  The draws
    # stay so every seed keeps the vector it always had.
    compression = "none"
    if rng.choice(("text", "binary")) == "binary":
        compression = rng.choice(("none", "zlib"))
        # This draw once chose the cursors' byte source, an option since
        # deleted.  It stays so every seed keeps the vector it always had.
        rng.choice((True, False, True))
    return {
        "db_seed": rng.randrange(1000),
        "strategy": strategy,
        "workers": workers,
        "compression": compression,
        "sampling": rng.choice((0, 2, 3)),
        "reuse_spool": rng.random() < 0.3,
    }


def _discovery_config(vector: dict, *, overlap: bool, cache_dir) -> DiscoveryConfig:
    """The twins differ ONLY in ``overlap``, at the same worker count.

    The in-process twin runs its phases one after another in this process
    (pooling only validation, when the vector's strategy and worker count
    do), the overlapped twin runs export and pretest as jobs on a pool.
    ``cache_dir`` is always a fresh per-side directory: the two runs must
    not share spool-cache entries through the user-level default cache.
    """
    return DiscoveryConfig(
        strategy=vector["strategy"],
        spool_compression=vector["compression"],
        spool_block_size=3,
        sampling_size=vector["sampling"],
        pretests=PretestConfig(cardinality=True, max_value=False),
        validation_workers=vector["workers"],
        reuse_spool=vector["reuse_spool"],
        cache_dir=str(cache_dir),
        overlap=overlap,
    )


class TestOverlapMatrix:
    """Fixed matrix vs the *sequential* pipeline: the paper's semantics."""

    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    @pytest.mark.parametrize("strategy", ("brute-force", "merge-single-pass"))
    @pytest.mark.parametrize("seed", (5, 9))
    def test_overlap_equals_sequential_across_worker_counts(
        self, seed, strategy, compression
    ):
        db = build_random_db(seed)
        sequential = discover_inds(
            db,
            DiscoveryConfig(
                strategy=strategy,
                spool_compression=compression,
                spool_block_size=3,
                sampling_size=2,
                pretests=PretestConfig(cardinality=True, max_value=False),
            ),
        )
        assert sequential.sampling_refuted > 0, (
            "seed must exercise the pretest for the matrix to mean anything"
        )
        assert sequential.overlap is None
        expected = _stress_view(sequential.to_dict())
        for workers in WORKER_COUNTS:
            overlapped = discover_inds(
                db,
                DiscoveryConfig(
                    strategy=strategy,
                    spool_compression=compression,
                    spool_block_size=3,
                    sampling_size=2,
                    pretests=PretestConfig(
                        cardinality=True, max_value=False
                    ),
                    validation_workers=workers,
                    overlap=True,
                ),
            )
            assert _stress_view(overlapped.to_dict()) == expected, (
                f"overlapped pipeline diverges from sequential at "
                f"{workers} workers (seed {seed}, {strategy}, {compression} "
                f"spools)"
            )
            doc = overlapped.overlap
            assert doc is not None
            assert set(doc["tasks_by_phase"]) == {"export", "pretest"}
            assert doc["nodes"] == sum(doc["tasks_by_phase"].values())
            assert all(count >= 1 for count in doc["tasks_by_phase"].values())
            # The validator after the pooled pretest tests exactly its
            # survivors — refuted candidates are never validated.
            refuted = overlapped.sampling_refuted
            tested = overlapped.validator_stats.candidates_tested
            assert tested == sequential.validator_stats.candidates_tested
            assert refuted == sequential.sampling_refuted


    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    def test_multi_group_merge_is_planned_from_the_survivors(
        self, compression
    ):
        """The overlapped merge plans the groups the in-process one plans.

        Under the default pretests ``build_component_db``'s candidate graph
        is one component until the sampling pretest refutes every
        cross-cluster pair.  An overlapped run validates its pretest's
        survivors through the same pooled validator as its in-process
        twin, so it plans the same groups and sends one ``merge-partition``
        task per group.
        """
        db = build_component_db()

        def config(**overrides):
            return DiscoveryConfig(
                strategy="merge-single-pass",
                spool_compression=compression,
                spool_block_size=3,
                sampling_size=2,
                **overrides,
            )

        sequential = discover_inds(db, config())
        assert sequential.sampling_refuted > 0
        expected = _stress_view(sequential.to_dict())
        for workers in (2, 4):
            in_process = discover_inds(db, config(validation_workers=workers))
            overlapped = discover_inds(
                db, config(validation_workers=workers, overlap=True)
            )
            assert _stress_view(overlapped.to_dict()) == expected, (
                f"overlapped merge diverges at {workers} workers "
                f"({compression})"
            )
            groups = overlapped.validator_stats.extra["merge_groups"]
            assert groups == in_process.validator_stats.extra["merge_groups"]
            assert groups > 1
            assert (
                overlapped.pool_stats["tasks_by_kind"]["merge-partition"]
                == groups
            )

    @pytest.mark.parametrize("workers", (2, 4))
    def test_warm_session_drains_every_phase_on_one_fleet(self, workers):
        """A session's overlapped runs share one fleet and never drift."""
        db = build_random_db(5)
        config = DiscoveryConfig(
            strategy="brute-force",
            spool_block_size=3,
            sampling_size=2,
            pretests=PretestConfig(cardinality=True, max_value=False),
        )
        expected = _stress_view(discover_inds(db, config).to_dict())
        overlapped = dataclasses.replace(
            config, validation_workers=workers, overlap=True
        )
        with DiscoverySession(overlapped) as session:
            for _ in range(2):
                got = session.discover(db)
                assert _stress_view(got.to_dict()) == expected
            stats = session.pool_stats.as_dict()
        assert stats["workers_spawned"] == workers  # one fleet, both runs
        assert {"spool-export", "sample-pretest", "brute-force"} <= set(
            stats["tasks_by_kind"]
        )


class TestOverlapStressAgreement:
    """Seeded random config vectors: in-process vs overlapped, byte-exact."""

    @pytest.mark.parametrize("seed", STRESS_SEEDS)
    def test_random_vector_agrees(self, seed, tmp_path):
        vector = _config_vector(seed)
        db = build_random_db(vector["db_seed"])
        rounds = 2 if vector["reuse_spool"] else 1  # cold miss, then warm hit
        for round_index in range(rounds):
            in_process = discover_inds(
                db,
                _discovery_config(
                    vector, overlap=False, cache_dir=tmp_path / "cache-a"
                ),
            )
            overlapped = discover_inds(
                db,
                _discovery_config(
                    vector, overlap=True, cache_dir=tmp_path / "cache-b"
                ),
            )
            context = (
                f"stress seed {seed} round {round_index} diverged — replay "
                f"with this vector: {vector!r}"
            )
            assert (
                _stress_view(overlapped.to_dict())
                == _stress_view(in_process.to_dict())
            ), context
            expect_hit = vector["reuse_spool"] and round_index == 1
            assert in_process.spool_cache_hit is expect_hit, context
            assert overlapped.spool_cache_hit is expect_hit, context
            assert in_process.overlap is None, context
            doc = overlapped.overlap
            assert doc is not None, context
            assert set(doc["tasks_by_phase"]) == {"export", "pretest"}, (
                context
            )
            if expect_hit:
                assert doc["tasks_by_phase"]["export"] == 0, context

    def test_traced_overlap_is_well_formed_and_covered(self):
        """Task spans of both pooled jobs adopt cleanly under their phases."""
        db = build_random_db(0)
        result = discover_inds(
            db,
            DiscoveryConfig(
                strategy="merge-single-pass",
                sampling_size=2,
                pretests=PretestConfig(cardinality=True, max_value=False),
                validation_workers=4,
                overlap=True,
                trace=True,
            ),
        )
        _assert_well_formed_trace(result.trace)
        covered = coverage(result.trace)
        assert covered >= 0.9, f"overlapped trace covers only {covered:.1%}"
        # Tracing is observationally free here too.
        untraced = discover_inds(
            db,
            DiscoveryConfig(
                strategy="merge-single-pass",
                sampling_size=2,
                pretests=PretestConfig(cardinality=True, max_value=False),
                validation_workers=4,
                overlap=True,
            ),
        )
        assert _stress_view(result.to_dict()) == _stress_view(
            untraced.to_dict()
        )


def _fault_config(**overrides) -> DiscoveryConfig:
    defaults = dict(
        strategy="brute-force",
        spool_block_size=4,
        pretests=PretestConfig(cardinality=True, max_value=False),
        validation_workers=2,
        overlap=True,
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


class TestOverlapSchedule:
    """Export and pretest are two pool jobs; the caller fills the spool."""

    @staticmethod
    def _cache_miss(tmp_path, workers):
        return discover_inds(
            build_random_db(5),
            _fault_config(
                validation_workers=workers,
                sampling_size=2,
                reuse_spool=True,
                cache_dir=str(tmp_path / f"cache-{workers}"),
            ),
        )

    def test_a_cache_miss_saves_the_index_three_times(
        self, tmp_path, monkeypatch
    ):
        """Bare, final and publish: never once per export task."""
        saves = []
        real = SpoolDirectory.save_index

        def spy(spool):
            saves.append(spool.root)
            return real(spool)

        monkeypatch.setattr(SpoolDirectory, "save_index", spy)
        export_tasks = set()
        for workers in WORKER_COUNTS:
            saves.clear()
            result = self._cache_miss(tmp_path, workers)
            assert not result.spool_cache_hit
            export_tasks.add(result.overlap["tasks_by_phase"]["export"])
            assert len(saves) == 3, (workers, saves)
        assert len(export_tasks) > 1  # the task count varied, saves did not

    def test_the_spool_is_filled_on_the_calling_thread(
        self, tmp_path, monkeypatch
    ):
        threads = []
        real = SpoolDirectory.register

        def spy(spool, svf):
            threads.append(threading.current_thread())
            return real(spool, svf)

        monkeypatch.setattr(SpoolDirectory, "register", spy)
        result = self._cache_miss(tmp_path, 2)
        assert result.overlap["tasks_by_phase"]["export"] > 1
        assert threads and set(threads) == {threading.current_thread()}

    def test_the_phases_never_run_at_once(self, tmp_path):
        doc = self._cache_miss(tmp_path, 2).overlap
        assert doc["cross_phase_overlap_seconds"] == 0.0
        assert doc["cancelled"] == 0
        assert "edges" not in doc
        assert doc["tasks_by_phase"]["pretest"] >= 1


class TestOverlapSpool:
    """The runner opens, publishes and cleans an overlapped run's spool."""

    def test_explicit_spool_dir_holds_the_in_process_spool(self, tmp_path):
        """Same index document as the in-process export writes there."""
        db = build_db()
        docs = []
        for overlap in (False, True):
            root = tmp_path / f"overlap-{overlap}"
            discover_inds(
                db,
                _fault_config(
                    overlap=overlap,
                    sampling_size=2,
                    spool_dir=str(root),
                    keep_spool=True,
                ),
            )
            docs.append(json.loads((root / "index.json").read_text()))
        assert docs[0]["attributes"] and docs[1] == docs[0]

    def test_cache_miss_publishes_the_in_process_entry(self, tmp_path):
        """Stamped with the catalog hash and the donor fingerprint map.

        The move into the cache is traced: under ``export`` in process,
        and straight under ``discover`` after an overlapped run's phase
        windows, which close when the pretest job ends.
        """
        db = build_db()
        docs = []
        for overlap, parent in ((False, "export"), (True, "discover")):
            cache = tmp_path / f"cache-{overlap}"
            result = discover_inds(
                db,
                _fault_config(
                    overlap=overlap,
                    sampling_size=2,
                    reuse_spool=True,
                    cache_dir=str(cache),
                    trace=True,
                ),
            )
            assert not result.spool_cache_hit
            assert SpoolCache(cache).list_orphans() == []
            index = Path(result.spool_path) / "index.json"
            docs.append(json.loads(index.read_text()))
            spans = {span["id"]: span for span in result.trace["spans"]}
            (publish,) = [
                span for span in spans.values()
                if span["name"] == "cache-publish"
            ]
            assert spans[publish["parent"]]["name"] == parent
        assert {"attribute_fingerprints", "catalog_hash"} <= set(docs[0])
        assert docs[1] == docs[0]

    def test_cache_hit_never_writes_the_entry(self, tmp_path):
        db = build_db()
        config = _fault_config(
            sampling_size=2, reuse_spool=True, cache_dir=str(tmp_path)
        )
        entry = Path(discover_inds(db, config).spool_path)
        before = {
            path.name: path.stat().st_mtime_ns for path in entry.iterdir()
        }
        hit = discover_inds(db, config)
        assert hit.spool_cache_hit and hit.spool_path == str(entry)
        assert hit.overlap["tasks_by_phase"]["export"] == 0
        assert {
            path.name: path.stat().st_mtime_ns for path in entry.iterdir()
        } == before


class TestOverlapFaults:
    """Worker death in either pooled job or after: converge or fail loudly."""

    def test_worker_death_mid_export_with_held_dependents(
        self, tmp_path, monkeypatch
    ):
        """Kill during the export job, before the pretest job starts.

        ``t0.c0`` sits in an export unit and in pretest chunks, so the
        one-shot fault fires on the first task that touches it: an export
        task.  The requeued
        task must complete on the replacement worker and the run must match
        the sequential pipeline byte-for-byte, with no orphan trace spans.
        """
        db = build_db()
        expected = _stress_view(
            discover_inds(
                db, _fault_config(overlap=False, sampling_size=2)
            ).to_dict()
        )
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        with WorkerPool(2) as pool:
            result = discover_inds(
                db, _fault_config(sampling_size=2, trace=True), pool=pool
            )
            assert pool.stats.tasks_requeued >= 1
            assert pool.stats.workers_replaced >= 1
        assert _stress_view(result.to_dict()) == expected
        _assert_well_formed_trace(result.trace)
        # Done-dedup: exactly one span per export and pretest task survives
        # the requeue, plus one per validation task dispatched after them.
        task_spans = [
            s for s in result.trace["spans"] if s["name"].startswith("task:")
        ]
        validation_tasks = result.pool_stats["tasks_by_kind"]["brute-force"]
        assert validation_tasks >= 1
        assert len(task_spans) == result.overlap["nodes"] + validation_tasks

    def test_worker_death_mid_pretest_with_validation_held(
        self, tmp_path, monkeypatch
    ):
        """Warm spool cache first, so the run starts with the pretest job."""
        db = build_db()
        cache = tmp_path / "cache"
        warm = _fault_config(
            sampling_size=2, reuse_spool=True, cache_dir=str(cache)
        )
        discover_inds(db, warm)  # cold run populates the cache
        expected = _stress_view(discover_inds(db, warm).to_dict())  # warm twin
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        with WorkerPool(2) as pool:
            result = discover_inds(db, warm, pool=pool)
            assert pool.stats.tasks_requeued >= 1
        assert result.spool_cache_hit is True
        assert result.overlap["tasks_by_phase"]["export"] == 0
        assert _stress_view(result.to_dict()) == expected

    def test_worker_death_mid_validation(self, tmp_path, monkeypatch):
        """Kill a worker in the pooled merge of an overlapped run.

        Sampling off + cache hit runs no export or pretest task, and the
        min- and max-value pretests split ``build_component_db``'s
        candidate graph, so the merge that validates the survivors plans
        several groups and reaches the pool: its ``merge-partition`` tasks
        are the only ones that can touch ``k0_t2.id``.
        """
        db = build_component_db()
        cache = tmp_path / "cache"
        warm = _fault_config(
            strategy="merge-single-pass",
            pretests=PretestConfig(
                cardinality=True, max_value=True, min_value=True
            ),
            reuse_spool=True,
            cache_dir=str(cache),
        )
        discover_inds(db, warm)  # cold run populates the cache
        expected = _stress_view(discover_inds(db, warm).to_dict())  # warm twin
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "k0_t2.id")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        with WorkerPool(2) as pool:
            result = discover_inds(db, warm, pool=pool)
            assert pool.stats.tasks_requeued >= 1
        assert (tmp_path / "pool-fault-fired").exists()
        assert result.spool_cache_hit is True
        assert result.overlap["nodes"] == 0
        groups = result.validator_stats.extra["merge_groups"]
        assert groups > 1
        assert result.pool_stats["tasks_by_kind"] == {"merge-partition": groups}
        assert _stress_view(result.to_dict()) == expected

    def test_crash_looping_graph_task_fails_loudly_not_wedged(
        self, monkeypatch
    ):
        """No ONCE marker: every worker that picks the task dies.

        The requeue cap must fail the *job* with the established error —
        promptly, leaving neither the run nor the pool
        wedged: a clean run on the same fleet right after must succeed.
        """
        db = build_db()
        clean = _stress_view(
            discover_inds(db, _fault_config(sampling_size=2)).to_dict()
        )
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        with WorkerPool(2) as pool:
            with pytest.raises(DiscoveryError, match="killed its worker"):
                discover_inds(
                    db, _fault_config(sampling_size=2), pool=pool
                )
            monkeypatch.delenv("REPRO_POOL_FAULT_ATTR")
            result = discover_inds(
                db, _fault_config(sampling_size=2), pool=pool
            )
        assert _stress_view(result.to_dict()) == clean

    def test_failed_run_removes_its_temporary_spool(
        self, tmp_path, monkeypatch
    ):
        """The temporary spool is gone before the error reaches the caller.

        ``excinfo`` keeps the failed frames alive through its traceback, so
        a spool directory held only by a frame-local object would survive
        here until the exception is garbage-collected.
        """
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        with pytest.raises(DiscoveryError, match="killed its") as excinfo:
            discover_inds(build_db(), _fault_config(sampling_size=2))
        assert excinfo.value is not None
        assert list(tmp_path.glob("repro-spool-*")) == []

    @pytest.mark.parametrize("overlap", (False, True))
    def test_failed_run_discards_a_kept_temporary_spool(
        self, overlap, tmp_path, monkeypatch
    ):
        """``keep_spool`` keeps only a successful run's spool.

        With ``overlap=False`` the export runs in process and the crash
        loop hits the pooled validation after it, so the run fails with a
        complete spool on disk; with ``overlap=True`` it fails in the export
        job.
        """
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        config = _fault_config(
            overlap=overlap, sampling_size=2, keep_spool=True
        )
        with pytest.raises(DiscoveryError, match="killed its") as excinfo:
            discover_inds(build_db(), config)
        assert excinfo.value is not None
        assert list(tmp_path.glob("repro-spool-*")) == []
