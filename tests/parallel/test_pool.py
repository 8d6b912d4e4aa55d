"""Lifecycle tests of the persistent worker pool.

Cross-validator agreement of the pool-backed engine lives in
``tests/test_validator_agreement.py``; this file covers what only the pool
can get wrong: surviving across jobs, dying workers, double shutdown, warm
spool-handle reuse, idle reaping, and the work-stealing chunk plan it
dispatches.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

import pytest

from repro.core.brute_force import BruteForceValidator
from repro.core.candidates import Candidate
from repro.core.pruning import SamplingPretest
from repro.core.candidates import PretestConfig
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError
from repro.parallel.engine import ProcessPoolValidationEngine
from repro.parallel.planner import ShardPlanner
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import KIND_BRUTE_FORCE, KIND_SAMPLE_PRETEST, TaskSpec
from repro.storage.sorted_sets import SpoolDirectory

from seeded_dbs import build_db, spool_with


def _cand(dep: str, ref: str) -> Candidate:
    return Candidate(AttributeRef("t", dep), AttributeRef("t", ref))


def _brute_specs(chunks, skip_scan: bool = False) -> list[TaskSpec]:
    """One brute-force spec per chunk; a bare candidate becomes its own chunk."""
    return [
        TaskSpec(
            kind=KIND_BRUTE_FORCE,
            candidates=chunk if isinstance(chunk, tuple) else (chunk,),
            payload=(skip_scan,),
        )
        for chunk in chunks
    ]


def _within_watchdog(fn, seconds: float = 20.0):
    """Run ``fn`` on a thread; fail if it has not returned after ``seconds``.

    A wedged pool blocks its caller forever, so the test thread never waits
    on the job directly.
    """
    box: dict[str, object] = {}

    def target() -> None:
        try:
            box["result"] = fn()
        except Exception as exc:  # re-raised on the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"pool job still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["result"]


@pytest.fixture()
def spool(tmp_path) -> SpoolDirectory:
    spool = SpoolDirectory.create(tmp_path / "spool", block_size=4)
    for name, count in (
        ("a", 3), ("b", 9), ("c", 5), ("d", 7), ("e", 11), ("f", 2),
    ):
        ref = AttributeRef("t", name)
        spool.add_values(ref, [f"{name}{i:03d}" for i in range(count)])
    spool.save_index()
    return spool


@pytest.fixture()
def candidates() -> list[Candidate]:
    names = ["a", "b", "c", "d", "e", "f"]
    return [_cand(d, r) for d in names for r in names if d != r]


class TestPoolLifecycle:
    def test_pool_survives_across_jobs_and_reuses_handles(
        self, spool, candidates
    ):
        sequential = BruteForceValidator(spool).validate(candidates)
        with WorkerPool(2) as pool:
            engine = ProcessPoolValidationEngine(spool, workers=2, pool=pool)
            first = engine.validate(candidates)
            second = engine.validate(candidates)
            assert first.decisions == sequential.decisions
            assert second.decisions == sequential.decisions
            assert first.stats.items_read == sequential.stats.items_read
            assert second.stats.comparisons == sequential.stats.comparisons
            assert pool.stats.jobs == 2
            # The fleet was spawned once, not per job...
            assert pool.stats.workers_spawned == 2
            assert pool.stats.workers_replaced == 0
            # ...and the second job found every spool handle warm.
            assert pool.stats.spool_handle_reuses > 0
            assert second.stats.extra["pool_warm"] == 1.0

    def test_double_shutdown_is_noop_and_closed_pool_refuses_jobs(
        self, spool, candidates
    ):
        pool = WorkerPool(2)
        engine = ProcessPoolValidationEngine(spool, workers=2, pool=pool)
        engine.validate(candidates)
        pool.shutdown()
        pool.shutdown()  # documented no-op
        assert pool.closed
        with pytest.raises(DiscoveryError, match="shut down"):
            engine.validate(candidates)

    def test_shutdown_before_first_job_is_safe(self):
        pool = WorkerPool(3)
        pool.shutdown()
        pool.shutdown()
        assert pool.stats.workers_spawned == 0

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(DiscoveryError):
            WorkerPool(0)

    def test_worker_death_mid_chunk_requeues_and_agrees(
        self, spool, candidates, tmp_path, monkeypatch
    ):
        """A worker killed mid-shard must not lose or corrupt decisions.

        The fault hook makes exactly one worker ``os._exit`` the first time
        it picks up a chunk touching the marked attribute; the parent must
        requeue that chunk, replace the worker, and still produce the
        sequential run's exact decisions and counters.
        """
        sequential = BruteForceValidator(spool).validate(candidates)
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t.e")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        with WorkerPool(2) as pool:
            got = ProcessPoolValidationEngine(
                spool, workers=2, pool=pool
            ).validate(candidates)
            assert got.decisions == sequential.decisions
            assert got.satisfied == sequential.satisfied
            assert got.stats.items_read == sequential.stats.items_read
            assert got.stats.comparisons == sequential.stats.comparisons
            assert pool.stats.tasks_requeued >= 1
            assert pool.stats.workers_replaced >= 1
        assert (tmp_path / "pool-fault-fired").exists()

    def test_repeated_worker_deaths_fail_the_job_instead_of_hanging(
        self, spool, candidates, monkeypatch
    ):
        """A chunk that reliably kills its worker must fail loudly.

        No once-marker here: every worker that picks up a chunk touching
        the marked attribute dies, which models a deterministic crasher
        (OOM kill, native segfault).  The requeue cap must turn that into
        a DiscoveryError after a few respawns — never an infinite
        respawn-and-requeue loop.
        """
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t.e")
        with WorkerPool(2) as pool:
            with pytest.raises(DiscoveryError, match="killed its worker"):
                ProcessPoolValidationEngine(
                    spool, workers=2, pool=pool
                ).validate(candidates)
            assert pool.stats.tasks_requeued >= 1

    def test_validator_error_inside_worker_propagates(self, spool):
        """A failing chunk (not a dying worker) raises, not hangs."""
        missing = [_cand("a", "nosuch"), _cand("b", "a"), _cand("c", "a")]
        with WorkerPool(2) as pool:
            with pytest.raises(DiscoveryError, match="failed executing"):
                pool.run_job(str(spool.root), _brute_specs(missing))
            # The pool survives a failed job and serves the next one.
            job = pool.run_job(str(spool.root), _brute_specs([_cand("a", "b")]))
            assert len(job.outcomes) == 1
            assert job.stats.tasks_completed == 1

    def test_empty_job_returns_no_outcomes(self, spool):
        with WorkerPool(2) as pool:
            job = pool.run_job(str(spool.root), [])
            assert job.outcomes == []
            assert job.stats.jobs == 0

    def test_unknown_task_kind_fails_in_the_caller(self, spool, candidates):
        """A bad kind raises before anything is queued or spawned."""
        with WorkerPool(2) as pool:
            with pytest.raises(DiscoveryError, match="unknown task kind"):
                pool.run_job(
                    str(spool.root),
                    [TaskSpec(kind="nosuch", candidates=(candidates[0],))],
                )
            assert pool.stats.jobs == 0
            assert pool.stats.workers_spawned == 0

    def test_per_job_stats_are_deltas_not_lifetime_totals(
        self, spool, candidates
    ):
        """Each run_job reports its own counters next to the pool's totals."""
        with WorkerPool(2) as pool:
            engine = ProcessPoolValidationEngine(spool, workers=2, pool=pool)
            first = engine.validate(candidates)
            second = engine.validate(candidates)
            assert first.pool is not None and second.pool is not None
            assert first.pool["jobs"] == second.pool["jobs"] == 1
            assert (
                first.pool["tasks_completed"]
                == first.pool["tasks_dispatched"]
                > 0
            )
            assert first.pool["tasks_by_kind"] == {
                "brute-force": first.pool["tasks_completed"]
            }
            # The second job runs entirely on warm handles; the first job
            # may warm some of its own chunks but never all of them.
            assert second.pool["spool_handle_reuses"] == second.pool[
                "tasks_completed"
            ]
            assert (
                pool.stats.tasks_completed
                == first.pool["tasks_completed"] + second.pool["tasks_completed"]
            )

    def test_concurrent_jobs_multiplex_one_fleet(self, spool, candidates):
        """Several threads share one pool; every job gets exact results."""
        import threading

        sequential = BruteForceValidator(spool).validate(candidates)
        results: dict[int, object] = {}
        errors: list[Exception] = []
        with WorkerPool(2) as pool:
            def run(slot: int) -> None:
                try:
                    engine = ProcessPoolValidationEngine(
                        spool, workers=2, pool=pool
                    )
                    results[slot] = engine.validate(candidates)
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert pool.stats.jobs == 4
            assert pool.stats.workers_spawned == 2
        for got in results.values():
            assert got.decisions == sequential.decisions
            assert got.stats.items_read == sequential.stats.items_read
            assert got.stats.comparisons == sequential.stats.comparisons

    def test_one_job_may_mix_task_kinds(self, spool, candidates):
        """Brute-force chunks and pretest chunks ride one job together."""
        brute = candidates[:4]
        pretest = candidates[4:8]
        specs = _brute_specs([tuple(brute)]) + [
            TaskSpec(
                kind=KIND_SAMPLE_PRETEST,
                candidates=tuple(pretest),
                payload=(2, 11),
            )
        ]
        sequential = BruteForceValidator(spool).validate(brute)
        sampler = SamplingPretest(spool, sample_size=2, seed=11)
        with WorkerPool(2) as pool:
            job = pool.run_job(str(spool.root), specs)
        assert job.stats.tasks_by_kind == {
            "brute-force": 1, "sample-pretest": 1,
        }
        validated, pretested = sorted(job.outcomes, key=lambda o: o.shard_index)
        assert {str(c): ok for c, ok in validated.decisions.items()} == {
            str(c): ok for c, ok in sequential.decisions.items()
        }
        assert {str(c): ok for c, ok in pretested.decisions.items()} == {
            str(c): sampler.pretest(c) for c in pretest
        }

    def test_warm_handle_invalidated_when_spool_rewritten_in_place(
        self, tmp_path
    ):
        """A re-export to the same path must not be served a stale index."""
        from collections import OrderedDict

        from repro.parallel.pool import _open_warm

        root = tmp_path / "s"

        def write(values):
            spool = SpoolDirectory.create(root, block_size=4)
            spool.add_values(AttributeRef("t", "a"), values)
            spool.save_index()

        write(["a", "b"])
        handles: OrderedDict = OrderedDict()
        _, warm = _open_warm(handles, str(root))
        assert not warm
        _, warm = _open_warm(handles, str(root))
        assert warm  # unchanged index => warm hit
        write(["a", "b", "c"])  # same path, new content, new index mtime
        spool, warm = _open_warm(handles, str(root))
        assert not warm, "stale handle must be dropped after a rewrite"
        assert spool.get(AttributeRef("t", "a")).count == 3


class TestWorkerDeathNeverWedges:
    """A dead worker costs its one task, on any round of a warm pool.

    Each job runs under a watchdog: no per-process lock may outlive a
    worker that dies holding it, and no lost task may wait out a timer.
    """

    @pytest.mark.parametrize(
        "start_method, rounds", [("fork", 50), ("spawn", 3)]
    )
    def test_one_worker_death_per_round(
        self, spool, candidates, tmp_path, monkeypatch, start_method, rounds
    ):
        sequential = BruteForceValidator(spool).validate(candidates)
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t.e")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        marker = tmp_path / "pool-fault-fired"
        with WorkerPool(2, start_method=start_method) as pool:
            engine = ProcessPoolValidationEngine(spool, workers=2, pool=pool)
            for _ in range(rounds):
                marker.unlink(missing_ok=True)  # re-arm the one-shot fault
                got = _within_watchdog(lambda: engine.validate(candidates))
                assert marker.exists()
                assert got.decisions == sequential.decisions
                assert got.stats.items_read == sequential.stats.items_read
            # Exactly the task each dead worker held was run again.
            assert pool.stats.tasks_requeued == rounds
            assert pool.stats.workers_replaced == rounds

    def test_sigkilled_idle_worker(self, spool, candidates):
        sequential = BruteForceValidator(spool).validate(candidates)
        others = {proc.pid for proc in multiprocessing.active_children()}
        with WorkerPool(2) as pool:
            engine = ProcessPoolValidationEngine(spool, workers=2, pool=pool)
            engine.validate(candidates)  # warm: both workers idle
            for _ in range(5):
                ours = [
                    proc
                    for proc in multiprocessing.active_children()
                    if proc.pid not in others
                ]
                os.kill(ours[0].pid, signal.SIGKILL)
                got = _within_watchdog(lambda: engine.validate(candidates))
                assert got.decisions == sequential.decisions
            assert pool.stats.workers_replaced == 5


class TestChunkPlanning:
    def test_chunks_cover_exactly_once_and_heaviest_first(
        self, spool, candidates
    ):
        planner = ShardPlanner(spool)
        chunks = planner.plan_chunks(candidates, workers=2)
        seen = [c for chunk in chunks for c in chunk.candidates]
        assert sorted(map(str, seen)) == sorted(map(str, candidates))
        assert len(seen) == len(candidates)
        # The heaviest candidate is queued first so it cannot become the
        # tail of the job (chunk costs are not strictly monotone — the
        # candidate cap can close a chunk early — but the front of the
        # queue always carries the most expensive work).
        heaviest = max(candidates, key=planner.candidate_cost)
        assert heaviest in chunks[0].candidates

    def test_chunk_size_caps_candidates_per_chunk(self, spool, candidates):
        chunks = ShardPlanner(spool).plan_chunks(
            candidates, workers=2, chunk_size=3
        )
        assert all(len(chunk.candidates) <= 3 for chunk in chunks)

    def test_deterministic_for_same_inputs(self, spool, candidates):
        planner = ShardPlanner(spool)
        first = planner.plan_chunks(candidates, workers=3)
        second = planner.plan_chunks(candidates, workers=3)
        assert first == second

    def test_single_chunk_preserves_sequential_order(self, spool, candidates):
        chunks = ShardPlanner(spool).plan_chunks(
            candidates, workers=1, chunk_size=len(candidates)
        )
        # Cost budgeting may still split; force one chunk to check ordering.
        if len(chunks) == 1:
            assert list(chunks[0].candidates) == candidates
        for chunk in chunks:
            positions = [candidates.index(c) for c in chunk.candidates]
            assert positions == sorted(positions)

    def test_rejects_bad_parameters(self, spool, candidates):
        planner = ShardPlanner(spool)
        with pytest.raises(DiscoveryError):
            planner.plan_chunks(candidates, workers=0)
        with pytest.raises(DiscoveryError):
            planner.plan_chunks(candidates, workers=2, chunk_size=0)
        assert planner.plan_chunks([], workers=2) == []


class TestPerCallPoolStats:
    """A run's ``pool_stats`` count the workers its own job spawned.

    A two-worker brute-force run with no lent pool builds a 2-worker pool
    for its chunks and drains it before returning.
    """

    CONFIG = DiscoveryConfig(
        strategy="brute-force",
        validation_workers=2,
        pretests=PretestConfig(cardinality=True, max_value=False),
    )

    def test_per_call_pool_reports_the_workers_it_spawned(self):
        result = discover_inds(build_db(), self.CONFIG)
        stats = result.pool_stats
        assert stats["tasks_by_kind"]["brute-force"] >= 2
        assert stats["workers_spawned"] == 2
        assert stats["workers_replaced"] == 0

    def test_a_worker_death_counts_its_replacement(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        result = discover_inds(build_db(), self.CONFIG)
        assert (tmp_path / "pool-fault-fired").exists()
        stats = result.pool_stats
        assert stats["tasks_requeued"] == 1
        assert stats["workers_replaced"] >= 1
        assert stats["workers_spawned"] == 2 + stats["workers_replaced"]

    def test_a_warm_pool_reports_no_spawn_after_its_first_job(
        self, spool, candidates
    ):
        with WorkerPool(2) as fleet:
            engine = ProcessPoolValidationEngine(spool, workers=2, pool=fleet)
            first = engine.validate(candidates)
            second = engine.validate(candidates)
        assert first.pool["workers_spawned"] == 2
        assert second.pool["workers_spawned"] == 0


class TestIdleReaping:
    def test_reap_idle_drains_workers_and_next_job_respawns(self, tmp_path):
        spool = spool_with(tmp_path, {"a": 5, "b": 9, "c": 3})
        candidates = [_cand("a", "b"), _cand("c", "b"), _cand("c", "a")]
        sequential = BruteForceValidator(spool).validate(candidates)

        with WorkerPool(2) as pool:
            engine = ProcessPoolValidationEngine(spool, workers=2, pool=pool)
            first = engine.validate(candidates)
            assert pool.alive_workers == 2
            assert pool.reap_idle(0.0) == 2
            assert pool.alive_workers == 0
            assert pool.started  # reaped, not shut down
            assert pool.stats.workers_reaped == 2
            # The next job must transparently respawn a full fleet and
            # still produce sequential-identical answers.
            second = engine.validate(candidates)
            assert pool.alive_workers == 2
            assert first.decisions == sequential.decisions
            assert second.decisions == sequential.decisions
            assert second.stats.items_read == sequential.stats.items_read
            assert pool.stats.workers_spawned == 4  # 2 original + 2 respawned
            assert pool.stats.workers_replaced == 0  # reaping is not death

    def test_reap_idle_respects_the_idle_threshold(self, tmp_path):
        spool = spool_with(tmp_path, {"a": 5, "b": 9, "c": 3})

        with WorkerPool(2) as pool:
            ProcessPoolValidationEngine(
                spool, workers=2, pool=pool
            ).validate([_cand("a", "b"), _cand("c", "b"), _cand("c", "a")])
            assert pool.alive_workers == 2
            # The job just finished: a one-hour threshold must not fire.
            assert pool.reap_idle(3600.0) == 0
            assert pool.alive_workers == 2

    def test_reap_on_unstarted_pool_is_noop(self):
        pool = WorkerPool(2)
        try:
            assert pool.reap_idle(0.0) == 0
            assert not pool.started
        finally:
            pool.shutdown()

    def test_session_reaps_after_in_process_merges(self, fk_db):
        # A session whose merges run in process must not pin a warm fleet.
        # A two-worker merge runs in process and never creates the pool;
        # a two-worker brute-force run then warms it, and the reap hook
        # right after that discover (threshold 0) drains it again.
        config = DiscoveryConfig(
            strategy="merge-single-pass", validation_workers=2
        )
        with DiscoverySession(config, idle_reap_seconds=0.0) as session:
            merged = session.discover(fk_db)
            assert merged.pool_stats is None
            assert session._pool is None
            pinned = DiscoveryConfig(strategy="brute-force", validation_workers=2)
            pooled = session.discover(fk_db, pinned)
            assert pooled.pool_stats["workers_spawned"] == 2
            assert pooled.satisfied == merged.satisfied
            assert session._pool is not None
            # The reap hook ran right after the pooled discover with a
            # zero threshold, so the fleet is already drained.
            assert session._pool.alive_workers == 0
            assert session._pool.stats.workers_reaped == 2

    def test_session_rejects_negative_idle_reap(self):
        with pytest.raises(DiscoveryError):
            DiscoverySession(DiscoveryConfig(), idle_reap_seconds=-1.0)
