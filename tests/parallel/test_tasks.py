"""Unit tests of the typed task model and its worker-side registry.

The end-to-end behaviour of the two built-in kinds is covered by the
agreement suite and the pool lifecycle tests; this file pins the registry
contract (loud unknowns, no silent overwrites, pluggable custom kinds) and
the ``merge-partition`` payload.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.core.candidates import Candidate
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.core.stats import ValidatorStats
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import (
    KIND_BRUTE_FORCE,
    KIND_MERGE_PARTITION,
    KIND_SAMPLE_PRETEST,
    KIND_SPOOL_EXPORT,
    PoolTask,
    ShardOutcome,
    TaskSpec,
    register_task_kind,
    resolve_task_kind,
    task_kinds,
)
from repro.storage.sorted_sets import SpoolDirectory


def _cand(dep: str, ref: str) -> Candidate:
    return Candidate(AttributeRef("t", dep), AttributeRef("t", ref))


@pytest.fixture()
def spool(tmp_path) -> SpoolDirectory:
    spool = SpoolDirectory.create(tmp_path / "spool", block_size=4)
    for name, values in (
        ("a", ["apple", "pear", "zebra"]),
        ("b", ["apple", "banana", "pear", "quince", "zebra"]),
        ("c", ["banana", "quince"]),
    ):
        spool.add_values(AttributeRef("t", name), values)
    spool.save_index()
    return spool


class TestRegistry:
    def test_builtin_kinds_are_registered(self):
        kinds = task_kinds()
        assert KIND_BRUTE_FORCE in kinds
        assert KIND_MERGE_PARTITION in kinds
        assert KIND_SPOOL_EXPORT in kinds
        assert KIND_SAMPLE_PRETEST in kinds

    def test_unknown_kind_is_loud_and_lists_alternatives(self):
        with pytest.raises(DiscoveryError, match="unknown task kind"):
            resolve_task_kind("nosuch")
        with pytest.raises(DiscoveryError, match=KIND_BRUTE_FORCE):
            resolve_task_kind("nosuch")

    def test_duplicate_registration_refused_without_replace(self):
        def executor(spool, task):
            raise AssertionError("never called")

        with pytest.raises(DiscoveryError, match="already registered"):
            register_task_kind(KIND_BRUTE_FORCE, executor)
        # The built-in stayed in place.
        assert resolve_task_kind(KIND_BRUTE_FORCE) is not executor

    def test_rejects_empty_kind(self):
        with pytest.raises(DiscoveryError, match="non-empty"):
            register_task_kind("", lambda spool, task: None)

    def test_custom_kind_runs_in_workers_under_fork(self, spool):
        """A dynamically registered kind executes on the fleet.

        Workers see runtime registrations only under the ``fork`` start
        method (they inherit the parent's registry); import-time
        registration is the portable path, as the module docstring says.
        """

        def count_values(spool_dir, task):
            counts = {
                str(c): spool_dir.get(c.referenced).count
                for c in task.candidates
            }
            return ShardOutcome(
                shard_index=task.task_id,
                decisions={c: True for c in task.candidates},
                vacuous=set(),
                stats=ValidatorStats(
                    validator="count-values",
                    items_read=sum(counts.values()),
                ),
            )

        register_task_kind("test-count-values", count_values, replace=True)
        try:
            with WorkerPool(2, start_method="fork") as pool:
                job = pool.run_job(
                    str(spool.root),
                    [
                        TaskSpec(
                            kind="test-count-values",
                            candidates=(_cand("a", "b"), _cand("c", "b")),
                        )
                    ],
                )
            assert job.outcomes[0].stats.items_read == 10  # 5 + 5
            assert job.stats.tasks_by_kind == {"test-count-values": 1}
        finally:
            # Leave no test kind behind for other tests' registry checks.
            import repro.parallel.tasks as tasks_module

            tasks_module._REGISTRY.pop("test-count-values", None)

    def test_raising_kind_runs_once_per_task(self, spool, tmp_path):
        """An executor that raises is reported as the job's error, not re-run.

        Each call appends its task id to a file, so the count crosses the
        process boundary.  Both tasks go out at once, one per worker.
        """
        calls = tmp_path / "calls.log"

        def full_disk(spool_dir, task):
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(f"{task.task_id}\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        register_task_kind("test-full-disk", full_disk, replace=True)
        try:
            with WorkerPool(2, start_method="fork") as pool:
                with pytest.raises(DiscoveryError, match="test-full-disk"):
                    pool.run_job(
                        str(spool.root),
                        [
                            TaskSpec(
                                kind="test-full-disk",
                                candidates=(_cand(dep, "b"),),
                            )
                            for dep in ("a", "c")
                        ],
                    )
        finally:
            import repro.parallel.tasks as tasks_module

            tasks_module._REGISTRY.pop("test-full-disk", None)
        assert sorted(calls.read_text().split()) == ["0", "1"]


class TestMergePartitionPayload:
    @pytest.mark.parametrize("skip_scan", [False, True])
    def test_task_is_the_sequential_merge_on_its_group(self, spool, skip_scan):
        candidates = (_cand("a", "b"), _cand("c", "b"), _cand("b", "a"))
        task = PoolTask(
            job_id=0,
            task_id=3,
            kind=KIND_MERGE_PARTITION,
            spool_root=str(spool.root),
            candidates=candidates,
            payload=(skip_scan,),
        )
        outcome = resolve_task_kind(KIND_MERGE_PARTITION)(spool, task)
        sequential = MergeSinglePassValidator(
            spool, skip_scan=skip_scan
        ).validate(list(candidates))
        assert outcome.shard_index == 3
        assert outcome.decisions == sequential.decisions
        assert outcome.vacuous == sequential.vacuous
        for counter in ("items_read", "comparisons", "blocks_skipped"):
            assert getattr(outcome.stats, counter) == getattr(
                sequential.stats, counter
            ), counter

    def test_empty_payload_runs_without_skip_scan(self, spool):
        candidates = (_cand("a", "b"), _cand("c", "b"))
        task = PoolTask(
            job_id=0,
            task_id=0,
            kind=KIND_MERGE_PARTITION,
            spool_root=str(spool.root),
            candidates=candidates,
        )
        assert task.payload == ()
        outcome = resolve_task_kind(KIND_MERGE_PARTITION)(spool, task)
        sequential = MergeSinglePassValidator(spool).validate(list(candidates))
        assert outcome.decisions == sequential.decisions
        assert outcome.stats.items_read == sequential.stats.items_read
        assert outcome.stats.blocks_skipped == 0


class TestSpoolExportUnit:
    """The worker-side export unit: atomic write, deterministic metadata."""

    def test_run_export_unit_writes_sorted_distinct_atomically(self, tmp_path):
        from repro.storage.exporter import ExportUnit, run_export_unit

        root = tmp_path / "spool"
        root.mkdir()
        unit = ExportUnit(
            table="t",
            column="c",
            qualified="t.c",
            dtype="VARCHAR",
            file_name="t__c.valsb",
            values=("pear", "apple", "pear", "zebra"),
        )
        svf = run_export_unit(str(root), unit, block_size=2)
        assert svf.count == 3  # distinct
        assert (svf.min_value, svf.max_value) == ("apple", "zebra")
        assert svf.path == str(root / "t__c.valsb")
        assert (root / "t__c.valsb").exists()
        assert not list(root.glob("*.tmp-*")), "temporary name must be gone"
        assert svf.values() == ["apple", "pear", "zebra"]
        # Deterministic: a duplicate execution (requeue race) reproduces
        # byte-identical content and metadata.
        again = run_export_unit(str(root), unit, block_size=2)
        assert again == svf

    def test_sample_pretest_payload_is_deterministic_across_fleets(self, spool):
        """Same seed, different pools: identical verdicts every time."""
        candidates = (_cand("a", "b"), _cand("b", "c"), _cand("c", "b"))
        verdicts = []
        for _ in range(2):
            with WorkerPool(2) as pool:
                job = pool.run_job(
                    str(spool.root),
                    [
                        TaskSpec(
                            kind=KIND_SAMPLE_PRETEST,
                            candidates=candidates,
                            payload=(2, 11),
                        )
                    ],
                )
            verdicts.append(
                {str(c): ok for c, ok in job.outcomes[0].decisions.items()}
            )
        assert verdicts[0] == verdicts[1]
        assert set(verdicts[0]) == {str(c) for c in candidates}
