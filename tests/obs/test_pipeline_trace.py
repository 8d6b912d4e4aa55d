"""Runner-level tracing: coverage on a paper dataset, faults, metrics.

The byte-exactness matrix for traced runs lives in
``tests/test_validator_agreement.py::TestTracedPipelineExactness``; this
file covers the remaining acceptance surface: the span tree accounts for
(almost) all of the wall clock on the paper's BioSQL workload, it stays
well-formed when a worker dies and its task is requeued, the validate
span says where a pooled merge ran, and the runner feeds the
process-global metrics registry.
"""

from __future__ import annotations

import time

import pytest
from seeded_dbs import build_component_db, build_db
from test_incremental_stress import _delta_view
from test_validator_agreement import _pipeline_view

from repro.core import runner
from repro.core.candidates import PretestConfig
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.datagen import generate_biosql
from repro.db import Column, Database, DataType, TableSchema
from repro.obs import coverage, get_registry, phase_summary
from repro.parallel.pool import WorkerPool
from repro.storage.sorted_sets import SpoolDirectory


def _assert_no_orphans(trace: dict) -> None:
    by_id = {span["id"]: span for span in trace["spans"]}
    for span in trace["spans"]:
        if span["parent"] is not None:
            assert span["parent"] in by_id, f"orphan span: {span}"


def _fault_db() -> Database:
    """Two small tables; ``t0.c0`` is the fault hook's marked attribute."""
    db = Database("tracefault")
    t0 = db.create_table(
        TableSchema(
            "t0",
            [
                Column("id", DataType.INTEGER, unique=True),
                Column("c0", DataType.INTEGER),
            ],
        )
    )
    t1 = db.create_table(
        TableSchema(
            "t1",
            [
                Column("id", DataType.INTEGER, unique=True),
                Column("c0", DataType.INTEGER),
            ],
        )
    )
    for row in range(20):
        t0.insert({"id": row, "c0": row % 12})
    for row in range(12):
        t1.insert({"id": row + 3, "c0": row % 12})
    return db


class TestCoverage:
    def test_biosql_trace_covers_wall_clock(self):
        """Acceptance gate: top-level spans cover >= 95% of the run."""
        db = generate_biosql("tiny", seed=7).db
        result = discover_inds(
            db,
            DiscoveryConfig(
                strategy="brute-force",
                pretests=PretestConfig(cardinality=True, max_value=False),
                validation_workers=2,
                sampling_size=4,
                overlap=True,
                trace=True,
            ),
        )
        trace = result.trace
        assert trace is not None
        covered = coverage(trace)
        assert covered >= 0.95, (
            f"span tree covers only {covered:.1%} of wall clock: "
            f"{phase_summary(trace)}"
        )
        # Per-task spans attributed to worker pids, not the parent's.
        root_pid = next(
            s["pid"] for s in trace["spans"] if s["parent"] is None
        )
        task_pids = {
            s["pid"] for s in trace["spans"] if s["name"].startswith("task:")
        }
        assert task_pids and root_pid not in task_pids

    def test_sequential_run_is_also_covered(self):
        db = generate_biosql("tiny", seed=7).db
        result = discover_inds(
            db,
            DiscoveryConfig(strategy="merge-single-pass", trace=True),
        )
        assert coverage(result.trace) >= 0.95
        # No pool involved: every span was stamped by this process.
        assert {s["pid"] for s in result.trace["spans"]} == {
            result.trace["spans"][0]["pid"]
        }

    def test_building_the_validator_is_covered(self, monkeypatch):
        """The validator is built under ``validate``, not between phases.

        A process's first pooled validator imports the pool engine while it
        is built; a slow build here stands in for that import.
        """
        build = runner._build_validator

        def slow_build(*args, **kwargs):
            time.sleep(0.25)
            return build(*args, **kwargs)

        monkeypatch.setattr(runner, "_build_validator", slow_build)
        db = generate_biosql("tiny", seed=7).db
        result = discover_inds(
            db, DiscoveryConfig(strategy="brute-force", trace=True)
        )
        assert coverage(result.trace) >= 0.95, phase_summary(result.trace)

    def test_untraced_run_carries_no_trace(self):
        db = generate_biosql("tiny", seed=7).db
        result = discover_inds(db, DiscoveryConfig(strategy="brute-force"))
        assert result.trace is None
        assert "trace" not in result.to_dict()


class TestWarmCallSpans:
    def _edited_round(self, tmp_path, trace):
        """A session's first round, a one-table insert, and its delta round."""
        db = build_db(0)
        config = DiscoveryConfig(
            incremental=True,
            reuse_spool=True,
            cache_dir=str(tmp_path / f"cache-{trace}"),
            trace=trace,
        )
        with DiscoverySession(config) as session:
            session.discover(db)
            db.table("t1").insert({"id": 500, "c0": 7})
            return session.discover(db)

    def test_one_table_edit_profiles_one_table_and_opens_no_entry(
        self, tmp_path
    ):
        traced = self._edited_round(tmp_path, trace=True)
        attrs = {span["name"]: span["attrs"] for span in traced.trace["spans"]}
        assert attrs["profile"] == {"tables_profiled": 1, "tables_reused": 1}
        # Every unchanged attribute the new entry holds came from the prior,
        # whose registry the session still held: no entry was opened.
        kept = [
            ref
            for ref in SpoolDirectory.open(traced.spool_path).attributes()
            if ref.table == "t0"
        ]
        assert kept
        assert attrs["donor-lookup"] == {
            "donor": "prior",
            "entries_opened": 0,
            "files_reused": len(kept),
        }
        plain = self._edited_round(tmp_path, trace=False)
        assert plain.trace is None
        assert _delta_view(traced.to_dict()) == _delta_view(plain.to_dict())


class TestMergePlacement:
    """The validate span says where a pooled merge's plan ran.

    An overlapped run validates its pretest's survivors through the same
    validator as an in-process run, so both legs place the merge alike:
    its pooled jobs add export (and pretest) tasks, never a merge.
    """

    @staticmethod
    def _run(db, pool, trace, overlap, sampling_size=0):
        return discover_inds(
            db,
            DiscoveryConfig(
                strategy="merge-single-pass",
                validation_workers=2,
                sampling_size=sampling_size,
                overlap=overlap,
                trace=trace,
            ),
            pool=pool,
        )

    @staticmethod
    def _validate_span(result):
        spans = result.trace["spans"]
        (validate,) = [s for s in spans if s["name"] == "validate"]
        tasks = [
            s
            for s in spans
            if s["name"] == "task:merge-partition"
            and s["parent"] == validate["id"]
        ]
        return validate["attrs"], tasks

    @pytest.mark.parametrize("overlap", (False, True))
    def test_one_group_plan_runs_in_process(self, overlap):
        # Tiny BioSQL is one candidate-graph component: a one-group plan.
        db = generate_biosql("tiny", seed=7).db
        with WorkerPool(2) as fleet:
            traced = self._run(db, fleet, trace=True, overlap=overlap)
            plain = self._run(db, fleet, trace=False, overlap=overlap)
            # Only an overlapped run's export tasks wake the fleet.
            assert (fleet.stats.workers_spawned > 0) is overlap
        attrs, tasks = self._validate_span(traced)
        assert attrs["placement"] == "in-process"
        assert attrs["merge_groups"] == 1
        assert tasks == []
        if overlap:
            assert set(traced.pool_stats["tasks_by_kind"]) == {"spool-export"}
        else:
            assert traced.pool_stats is None
        assert plain.trace is None
        assert _pipeline_view(traced.to_dict()) == _pipeline_view(
            plain.to_dict()
        )

    @pytest.mark.parametrize("overlap", (False, True))
    def test_multi_group_plan_runs_one_task_span_per_group(self, overlap):
        # The sampling pretest splits build_component_db's graph.
        db = build_component_db()
        with WorkerPool(2) as fleet:
            traced = self._run(
                db, fleet, trace=True, overlap=overlap, sampling_size=2
            )
            plain = self._run(
                db, fleet, trace=False, overlap=overlap, sampling_size=2
            )
        attrs, tasks = self._validate_span(traced)
        assert attrs["placement"] == "pool"
        assert attrs["merge_groups"] > 1
        assert len(tasks) == attrs["merge_groups"]
        assert (
            traced.pool_stats["tasks_by_kind"]["merge-partition"]
            == attrs["merge_groups"]
        )
        assert plain.trace is None
        assert _pipeline_view(traced.to_dict()) == _pipeline_view(
            plain.to_dict()
        )


class TestFaultTolerance:
    def test_worker_death_requeue_leaves_no_orphan_spans(
        self, tmp_path, monkeypatch
    ):
        """A requeued task yields exactly one span, still phase-parented."""
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", "t0.c0")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        result = discover_inds(
            _fault_db(),
            DiscoveryConfig(
                strategy="brute-force",
                pretests=PretestConfig(cardinality=True, max_value=False),
                validation_workers=2,
                overlap=True,
                trace=True,
            ),
        )
        assert (tmp_path / "pool-fault-fired").exists(), "fault never fired"
        assert result.pool_stats["tasks_requeued"] >= 1
        trace = result.trace
        _assert_no_orphans(trace)
        by_id = {span["id"]: span for span in trace["spans"]}
        task_spans = [
            s for s in trace["spans"] if s["name"].startswith("task:")
        ]
        assert task_spans
        for span in task_spans:
            assert by_id[span["parent"]]["name"] in (
                "export", "pretest", "validate",
            )
        # The dispatcher dedups done-messages by task id: the killed
        # worker's task appears once, annotated with its retry count.
        requeued = [
            s for s in task_spans if s["attrs"].get("requeues", 0) >= 1
        ]
        assert requeued, "no span recorded the requeue"
        # Task ids are per job, so uniqueness holds within each phase.
        for parent_id in {s["parent"] for s in task_spans}:
            ids = [
                s["attrs"]["task_id"]
                for s in task_spans
                if s["parent"] == parent_id
            ]
            assert len(ids) == len(set(ids)), (
                f"duplicate task spans under {by_id[parent_id]['name']}"
            )


class TestRunnerMetrics:
    def test_discovery_populates_registry(self):
        registry = get_registry()
        before = registry.snapshot()
        db = generate_biosql("tiny", seed=7).db
        result = discover_inds(
            db,
            DiscoveryConfig(
                strategy="brute-force",
                pretests=PretestConfig(cardinality=True, max_value=False),
                validation_workers=2,
            ),
        )
        after = registry.snapshot()

        def delta(name: str) -> float:
            return after["counters"].get(name, 0.0) - before["counters"].get(
                name, 0.0
            )

        assert delta("discoveries_total") == 1.0
        # No sampling pretest here, so every post-pretest candidate got a
        # validation decision.
        assert delta("inds_validated_total") == result.candidates_after_pretests
        assert delta("inds_satisfied_total") == result.satisfied_count
        assert delta("pool_tasks_total{kind=brute-force}") > 0
        hist = after["histograms"]["validate_seconds"]
        prior = before["histograms"].get("validate_seconds", {"count": 0})
        assert hist["count"] == prior["count"] + 1

    @pytest.mark.parametrize("workers", (1, 2))
    def test_pool_task_counters_match_pool_stats(self, workers):
        registry = get_registry()
        before = registry.snapshot()["counters"].get(
            "pool_tasks_total{kind=brute-force}", 0.0
        )
        result = discover_inds(
            _fault_db(),
            DiscoveryConfig(
                strategy="brute-force",
                pretests=PretestConfig(cardinality=True, max_value=False),
                validation_workers=workers,
            ),
        )
        after = registry.snapshot()["counters"].get(
            "pool_tasks_total{kind=brute-force}", 0.0
        )
        if workers == 1:
            assert result.pool_stats is None  # sequential: no pool, no series
            assert after == before
        else:
            assert after - before == result.pool_stats["tasks_by_kind"][
                "brute-force"
            ]
