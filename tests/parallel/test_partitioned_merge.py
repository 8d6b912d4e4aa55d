"""The pooled merge: one ``merge-partition`` task per component group.

Every seeded database of the agreement suite forms a single candidate-graph
component, so there the plan is one group, which merges in the calling
process.  This file uses spools of several independent components built
from a seed (``build_component_spool``), so the component plan really
splits, and pins the exactness argument directly: the sequential merges of
the plan's groups sum to the whole pass, and the pooled validator
dispatches exactly one task per group with the same answers and counters.
It also covers the one-component case the seeded databases take, which
never reaches a worker, and the validator's guards.
"""

from __future__ import annotations

import sys
import threading

import pytest

from seeded_dbs import build_component_db, build_component_spool, build_random_db
from test_validator_agreement import _candidates

from repro.core.candidates import Candidate
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.core.runner import DiscoveryConfig, discover_inds
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError, SpoolError
from repro.parallel import pool as pool_module
from repro.parallel.merge import PartitionedMergeValidator
from repro.parallel.planner import ShardPlanner
from repro.parallel.pool import WorkerPool
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory

SEEDS = tuple(range(10))

#: Summable counters that must equal the sequential pass exactly.
COUNTERS = (
    "candidates_total",
    "satisfied_count",
    "refuted_count",
    "items_read",
    "comparisons",
    "files_opened",
    "blocks_skipped",
)


def _counters(stats) -> dict:
    return {name: getattr(stats, name) for name in COUNTERS}


def _seeded_spool(root, seed: int):
    """A seeded database's spool and candidates: one component, one group."""
    db = build_random_db(seed)
    _, candidates = _candidates(db)
    spool, _ = export_database(db, str(root), block_size=3)
    return spool, candidates


def _skewed_spool(root):
    """Two components, each a sparse dependent over a dense referenced side.

    The referenced attributes are purely referenced and their values run
    far past the gap between the dependent's two values: the case the
    merge-side frontier skip seeks past whole blocks in.  The gap spans
    more than one default read batch, which a frontier seek needs.
    """
    spool = SpoolDirectory.create(root, block_size=16)
    dense = [f"{i:05d}" for i in range(9000)]
    candidates = []
    for k in range(2):
        dep, ref = AttributeRef(f"t{k}", "dep"), AttributeRef(f"t{k}", "ref")
        spool.add_values(ref, dense)
        spool.add_values(dep, [dense[k], dense[-1 - k]])
        candidates.append(Candidate(dep, ref))
    spool.save_index()
    return spool, candidates


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as fleet:
        yield fleet


class TestComponentPlan:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_group_merges_sum_to_the_sequential_pass(self, seed, tmp_path):
        spool, candidates = build_component_spool(tmp_path / "s", seed)
        whole = MergeSinglePassValidator(spool).validate(candidates)
        groups = PartitionedMergeValidator(spool, workers=2).plan(candidates)
        assert len(groups) > 1, "the plan must split for this to prove much"
        decisions: dict = {}
        totals = dict.fromkeys(COUNTERS, 0)
        for group in groups:
            part = MergeSinglePassValidator(spool).validate(
                list(group.candidates)
            )
            decisions.update(part.decisions)
            for name, value in _counters(part.stats).items():
                totals[name] += value
        assert decisions == whole.decisions
        assert totals == _counters(whole.stats)
        assert 0 < whole.stats.satisfied_count < whole.stats.candidates_total

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pooled_merge_runs_one_task_per_group(self, seed, tmp_path, pool):
        spool, candidates = build_component_spool(tmp_path / "s", seed)
        whole = MergeSinglePassValidator(spool).validate(candidates)
        validator = PartitionedMergeValidator(spool, workers=2, pool=pool)
        groups = validator.plan(candidates)
        got = validator.validate(candidates)
        assert got.pool["tasks_by_kind"] == {"merge-partition": len(groups)}
        assert got.stats.extra["merge_groups"] == len(groups)
        assert got.stats.extra["partitions"] == len(groups)
        assert got.decisions == whole.decisions
        assert got.satisfied == whole.satisfied
        assert _counters(got.stats) == _counters(whole.stats)

    def test_plan_is_the_planner_component_plan(self, tmp_path):
        spool, candidates = build_component_spool(tmp_path / "s", 0)
        planner = ShardPlanner(spool)
        validator = PartitionedMergeValidator(spool, workers=2, planner=planner)
        assert validator.plan(candidates) == planner.plan_merge_groups(
            candidates, 2
        )
        assert sum(g.components for g in validator.plan(candidates)) == 5


class TestOneComponent:
    """A one-group plan merges in process and never touches a pool.

    The seeded databases, like every benchmark input, form one component.
    """

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_one_component_runs_in_process(self, seed, tmp_path):
        spool, candidates = _seeded_spool(tmp_path / "spool", seed)
        sequential = MergeSinglePassValidator(spool).validate(candidates)
        with WorkerPool(2) as fleet:
            validator = PartitionedMergeValidator(spool, workers=2, pool=fleet)
            assert len(validator.plan(candidates)) == 1
            got = validator.validate(candidates)
            assert fleet.stats.jobs == 0
            assert fleet.stats.workers_spawned == 0
        assert got.pool is None
        assert got.stats.extra["merge_groups"] == 1
        assert got.decisions == sequential.decisions
        assert got.satisfied == sequential.satisfied
        assert _counters(got.stats) == _counters(sequential.stats)

    def test_concurrent_one_group_merges_all_run_in_process(self, tmp_path):
        # Six threads share one validator and spool on a short switch
        # interval, as ``serve --max-inflight`` request threads would: every
        # merge runs in process and every answer and counter stays exact.
        spool, candidates = _seeded_spool(tmp_path / "spool", 0)
        expected = MergeSinglePassValidator(spool).validate(candidates)
        results = []
        with WorkerPool(2) as fleet:
            validator = PartitionedMergeValidator(spool, workers=2, pool=fleet)

            def serve():
                for _ in range(3):
                    results.append(validator.validate(candidates))

            threads = [threading.Thread(target=serve) for _ in range(6)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert fleet.stats.jobs == 0
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 18
        for got in results:
            assert got.pool is None
            assert got.decisions == expected.decisions
            assert _counters(got.stats) == _counters(expected.stats)

    def test_no_pool_is_built_without_a_borrowed_one(
        self, tmp_path, monkeypatch
    ):
        spool, candidates = _seeded_spool(tmp_path / "spool", 2)
        doubled = candidates + candidates[::2]
        sequential = MergeSinglePassValidator(spool).validate(doubled)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-component merge built a WorkerPool")

        monkeypatch.setattr(pool_module, "WorkerPool", no_pool)
        got = PartitionedMergeValidator(spool, workers=2).validate(doubled)
        assert got.pool is None
        assert got.decisions == sequential.decisions
        assert _counters(got.stats) == _counters(sequential.stats)


class TestGuards:
    def test_requires_saved_index(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "s")
        ref_a, ref_b = AttributeRef("t", "a"), AttributeRef("t", "b")
        spool.add_values(ref_a, ["1"])
        spool.add_values(ref_b, ["1", "2"])
        # No save_index(): workers could never re-open this directory.
        validator = PartitionedMergeValidator(spool, workers=2)
        with pytest.raises(SpoolError, match="no saved index"):
            validator.validate([Candidate(ref_a, ref_b)])

    def test_rejects_nonpositive_workers(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "s")
        with pytest.raises(DiscoveryError, match="workers must be >= 1"):
            PartitionedMergeValidator(spool, workers=0)

    def test_one_worker_runs_in_process(self, tmp_path):
        spool, candidates = build_component_spool(tmp_path / "s", 1)
        got = PartitionedMergeValidator(spool, workers=1).validate(candidates)
        sequential = MergeSinglePassValidator(spool).validate(candidates)
        assert got.pool is None
        assert "merge_groups" not in got.stats.extra
        assert got.decisions == sequential.decisions
        assert _counters(got.stats) == _counters(sequential.stats)

    def test_no_candidates_run_in_process(self, tmp_path):
        spool, _ = build_component_spool(tmp_path / "s", 2)
        got = PartitionedMergeValidator(spool, workers=2).validate([])
        assert got.pool is None
        assert got.decisions == {}
        assert got.stats.candidates_total == 0

    def test_duplicate_candidates_handled_like_sequential(
        self, tmp_path, pool
    ):
        spool, candidates = build_component_spool(tmp_path / "s", 3)
        doubled = candidates + candidates[::2]
        sequential = MergeSinglePassValidator(spool).validate(doubled)
        got = PartitionedMergeValidator(spool, workers=2, pool=pool).validate(
            doubled
        )
        assert got.decisions == sequential.decisions
        assert _counters(got.stats) == _counters(sequential.stats)

    def test_borrowed_pool_keeps_running(self, tmp_path):
        spool, candidates = build_component_spool(tmp_path / "s", 4)
        with WorkerPool(2) as fleet:
            validator = PartitionedMergeValidator(spool, workers=2, pool=fleet)
            first = validator.validate(candidates)
            assert fleet.alive_workers == 2
            second = validator.validate(candidates)
            assert fleet.stats.jobs == 2
            assert fleet.stats.workers_spawned == 2
        assert first.stats.extra["pool_warm"] == 1.0
        assert second.decisions == first.decisions

    @pytest.mark.parametrize("skip_scan", [False, True])
    def test_skip_scan_reaches_every_group(self, skip_scan, tmp_path, pool):
        spool, candidates = _skewed_spool(tmp_path / "s")
        sequential = MergeSinglePassValidator(
            spool, skip_scan=skip_scan
        ).validate(candidates)
        validator = PartitionedMergeValidator(
            spool, workers=2, pool=pool, skip_scan=skip_scan
        )
        assert len(validator.plan(candidates)) == 2
        got = validator.validate(candidates)
        assert got.decisions == sequential.decisions
        assert _counters(got.stats) == _counters(sequential.stats)
        assert (sequential.stats.blocks_skipped > 0) is skip_scan


class TestPerCallPoolStats:
    """A run's ``pool_stats`` count the workers its own job spawned.

    After the sampling pretest ``build_component_db()`` is several
    components, so a ``validation_workers=2`` merge plans several groups
    and, with no lent pool, builds a 2-worker pool for them.
    """

    CONFIG = DiscoveryConfig(validation_workers=2, sampling_size=2)

    def test_per_call_pool_reports_the_workers_it_spawned(self):
        result = discover_inds(build_component_db(), self.CONFIG)
        stats = result.pool_stats
        assert stats["tasks_by_kind"]["merge-partition"] >= 2
        assert stats["workers_spawned"] == 2
        assert stats["workers_replaced"] == 0

    def test_a_worker_death_counts_its_replacement(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "k0_t0.id")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        result = discover_inds(build_component_db(), self.CONFIG)
        stats = result.pool_stats
        assert stats["tasks_requeued"] == 1
        assert stats["workers_replaced"] >= 1
        assert stats["workers_spawned"] == 2 + stats["workers_replaced"]

    def test_a_warm_pool_reports_no_spawn_after_its_first_job(self, tmp_path):
        spool, candidates = build_component_spool(tmp_path / "s", 4)
        with WorkerPool(2) as fleet:
            validator = PartitionedMergeValidator(spool, workers=2, pool=fleet)
            first = validator.validate(candidates)
            second = validator.validate(candidates)
        assert first.pool["workers_spawned"] == 2
        assert second.pool["workers_spawned"] == 0
