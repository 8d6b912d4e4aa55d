"""Adaptive engine selection: cost model, routing, reaping, calibration.

The contract under test (ISSUE 6 / ROADMAP open item 3): the router must
*price* the pool tax before paying it — small workloads route sequential,
large parallel-friendly ones route pooled, one-component merge graphs stay
in process — and whichever engine wins, the answers stay byte-identical to
the sequential run of the chosen strategy.  Forced decisions are produced by planting extreme calibration
constants, never by timing, so the suite is deterministic on any box.
"""

from __future__ import annotations

import json

import pytest

from repro.core.brute_force import BruteForceValidator
from repro.core.candidates import Candidate
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError
from repro.parallel.planner import (
    CalibrationProfile,
    calibration_path,
    choose_engine,
    load_calibration,
)
from repro.parallel.pool import WorkerPool


from seeded_dbs import spool_with as _spool_with


def _cand(dep: str, ref: str) -> Candidate:
    return Candidate(AttributeRef("t", dep), AttributeRef("t", ref))


#: Free pool: parallelism costs nothing, so any split with > 1 lane wins.
FREE_POOL = CalibrationProfile(
    pool_startup_seconds=0.0, task_overhead_seconds=0.0, source="calibrated"
)
#: Prohibitive pool: overheads dwarf any compute, so sequential always wins.
TAXED_POOL = CalibrationProfile(
    pool_startup_seconds=1e6, task_overhead_seconds=1e6, source="calibrated"
)


class TestChooseEngine:
    def test_small_workload_routes_sequential_past_the_pool_tax(
        self, tmp_path
    ):
        # The documented bug: tiny requests were 4x slower pooled.  With
        # default (conservative) constants the model must keep them
        # sequential even when workers are on offer.
        spool = _spool_with(tmp_path, {"a": 20, "b": 30, "c": 10})
        decision = choose_engine(
            spool,
            [_cand("a", "b"), _cand("c", "b")],
            ("brute-force",),
            workers=4,
            cpu_count=8,
        )
        assert decision.engine == "sequential-brute-force"
        assert decision.workers == 1
        assert (
            decision.predicted_seconds["sequential-brute-force"]
            < decision.predicted_seconds["pooled-brute-force"]
        )

    def test_free_pool_routes_big_workload_pooled(self, tmp_path):
        spool = _spool_with(tmp_path, {f"c{i}": 500 for i in range(6)})
        candidates = [
            _cand(f"c{i}", f"c{j}") for i in range(6) for j in range(6) if i != j
        ]
        decision = choose_engine(
            spool,
            candidates,
            ("brute-force",),
            workers=4,
            calibration=FREE_POOL,
            cpu_count=8,
        )
        assert decision.engine == "pooled-brute-force"
        assert decision.workers == 4

    def test_single_cpu_box_never_routes_pooled(self, tmp_path):
        # Even a free pool buys nothing without a second lane to run on:
        # lanes = min(workers, cpus, tasks) = 1, so pooled compute equals
        # sequential compute and the sequential tie-break wins.
        spool = _spool_with(tmp_path, {f"c{i}": 500 for i in range(6)})
        candidates = [
            _cand(f"c{i}", f"c{j}") for i in range(6) for j in range(6) if i != j
        ]
        decision = choose_engine(
            spool,
            candidates,
            ("brute-force",),
            workers=4,
            calibration=FREE_POOL,
            cpu_count=1,
        )
        assert decision.engine == "sequential-brute-force"

    def test_taxed_pool_routes_sequential_at_any_size(self, tmp_path):
        spool = _spool_with(tmp_path, {f"c{i}": 5000 for i in range(4)})
        candidates = [
            _cand(f"c{i}", f"c{j}") for i in range(4) for j in range(4) if i != j
        ]
        decision = choose_engine(
            spool,
            candidates,
            ("brute-force", "merge-single-pass"),
            workers=4,
            calibration=TAXED_POOL,
            cpu_count=8,
        )
        assert decision.engine in ("sequential-brute-force", "sequential-merge")

    def test_warm_pool_drops_the_startup_term(self, tmp_path):
        spool = _spool_with(tmp_path, {f"c{i}": 500 for i in range(6)})
        candidates = [
            _cand(f"c{i}", f"c{j}") for i in range(6) for j in range(6) if i != j
        ]
        kwargs = dict(
            strategies=("brute-force",),
            workers=4,
            calibration=CalibrationProfile(
                pool_startup_seconds=0.5,
                task_overhead_seconds=0.0,
                source="calibrated",
            ),
            cpu_count=8,
        )
        cold = choose_engine(spool, candidates, **kwargs)
        warm = choose_engine(spool, candidates, warm_pool=True, **kwargs)
        assert (
            warm.predicted_seconds["pooled-brute-force"]
            < cold.predicted_seconds["pooled-brute-force"]
        )
        assert warm.engine == "pooled-brute-force"

    def test_one_component_merge_routes_sequential(self, tmp_path):
        # A star graph is one connected component: the component plan is
        # one group, and a one-group pooled merge is the sequential pass
        # plus dispatch, so even a warm pool prices nothing but the
        # in-process merge.
        spool = _spool_with(tmp_path, {name: 400 for name in "aemsz"})
        candidates = [_cand(name, "a") for name in "emsz"]
        decision = choose_engine(
            spool,
            candidates,
            ("merge-single-pass",),
            workers=2,
            warm_pool=True,
            cpu_count=8,
        )
        assert decision.engine == "sequential-merge"
        assert set(decision.predicted_seconds) == {"sequential-merge"}

    def test_free_pool_routes_a_split_merge_graph_pooled(self, tmp_path):
        # Four independent pairs are four components: the component plan
        # splits them, so with a free pool on a wide box the pooled merge
        # wins.
        spool = _spool_with(tmp_path, {f"c{i}": 400 for i in range(8)})
        candidates = [_cand(f"c{i}", f"c{i + 1}") for i in range(0, 8, 2)]
        decision = choose_engine(
            spool,
            candidates,
            ("merge-single-pass",),
            workers=4,
            calibration=FREE_POOL,
            cpu_count=8,
        )
        assert decision.engine == "pooled-merge"
        assert decision.workers == 4
        assert set(decision.predicted_seconds) == {
            "sequential-merge",
            "pooled-merge",
        }

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("shape", ["one-component", "four-components"])
    def test_merge_family_prices_only_engines_that_can_win(
        self, tmp_path, shape, workers
    ):
        # The pooled merge is priced only when the component plan splits
        # and a second worker exists; no other merge engine is on offer.
        spool = _spool_with(tmp_path, {f"c{i}": 400 for i in range(8)})
        if shape == "one-component":
            candidates = [_cand(f"c{i}", "c0") for i in range(1, 8)]
        else:
            candidates = [_cand(f"c{i}", f"c{i + 1}") for i in range(0, 8, 2)]
        decision = choose_engine(
            spool,
            candidates,
            ("merge-single-pass",),
            workers=workers,
            calibration=FREE_POOL,
            warm_pool=True,
            cpu_count=8,
        )
        expected = {"sequential-merge"}
        if shape == "four-components" and workers > 1:
            expected.add("pooled-merge")
        assert set(decision.predicted_seconds) == expected

    def test_decision_json_has_exactly_the_documented_keys(self, tmp_path):
        spool = _spool_with(tmp_path, {"a": 20, "b": 30})
        doc = choose_engine(
            spool, [_cand("a", "b")], ("merge-single-pass",), workers=2
        ).as_dict()
        assert set(doc) == {
            "engine",
            "strategy",
            "workers",
            "predicted_seconds",
            "calibration",
        }

    def test_tie_breaks_toward_sequential(self, tmp_path):
        # Zero-cost calibration makes every engine predict 0.0 — the
        # deterministic tie-break must pick the engine with no processes.
        spool = _spool_with(tmp_path, {"a": 50, "b": 50, "c": 50})
        zero = CalibrationProfile(
            seq_item_seconds=0.0,
            merge_item_seconds=0.0,
            pool_startup_seconds=0.0,
            task_overhead_seconds=0.0,
            source="calibrated",
        )
        decision = choose_engine(
            spool,
            [_cand("a", "b"), _cand("b", "c")],
            ("brute-force", "merge-single-pass"),
            workers=4,
            calibration=zero,
            cpu_count=8,
        )
        assert decision.engine == "sequential-brute-force"

    def test_invalid_inputs_rejected(self, tmp_path):
        spool = _spool_with(tmp_path, {"a": 5, "b": 5})
        with pytest.raises(DiscoveryError):
            choose_engine(spool, [_cand("a", "b")], ("brute-force",), workers=0)
        with pytest.raises(DiscoveryError):
            choose_engine(spool, [_cand("a", "b")], (), workers=2)


class TestCalibrationPersistence:
    def test_save_load_round_trip(self, tmp_path):
        profile = CalibrationProfile(
            seq_item_seconds=1e-7,
            merge_item_seconds=2e-7,
            pool_startup_seconds=0.01,
            task_overhead_seconds=0.001,
            source="calibrated",
        )
        profile.save(calibration_path(tmp_path))
        assert load_calibration(tmp_path) == profile

    def test_missing_file_falls_back_to_defaults(self, tmp_path):
        profile = load_calibration(tmp_path / "nowhere")
        assert profile == CalibrationProfile()
        assert profile.source == "default"

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '["a list"]',
            # A constant that is not a finite number >= 0 would fail the
            # run (null, a list) or price engines at NaN or below zero.
            '{"seq_item_seconds": null}',
            '{"seq_item_seconds": [1]}',
            '{"seq_item_seconds": "nan"}',
            '{"seq_item_seconds": -1}',
        ],
    )
    def test_corrupt_file_falls_back_to_defaults(self, tmp_path, text):
        calibration_path(tmp_path).write_text(text, "utf-8")
        assert load_calibration(tmp_path) == CalibrationProfile()

    def test_partial_file_keeps_defaults_for_missing_keys(self, tmp_path):
        calibration_path(tmp_path).write_text(
            json.dumps({"seq_item_seconds": 5e-8}), "utf-8"
        )
        profile = load_calibration(tmp_path)
        assert profile.seq_item_seconds == 5e-8
        assert (
            profile.pool_startup_seconds
            == CalibrationProfile().pool_startup_seconds
        )
        assert profile.source == "calibrated"


class TestIdleReaping:
    def test_reap_idle_drains_workers_and_next_job_respawns(self, tmp_path):
        spool = _spool_with(tmp_path, {"a": 5, "b": 9, "c": 3})
        candidates = [_cand("a", "b"), _cand("c", "b"), _cand("c", "a")]
        sequential = BruteForceValidator(spool).validate(candidates)
        from repro.parallel.engine import ProcessPoolValidationEngine

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
        spool = _spool_with(tmp_path, {"a": 5, "b": 9, "c": 3})
        from repro.parallel.engine import ProcessPoolValidationEngine

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

    def test_session_reaps_after_sequential_routed_runs(self, fk_db):
        # An adaptive session whose requests all route sequential must not
        # pin a warm fleet.  With default calibration this tiny database
        # always routes sequential, so the pool never even starts; an
        # explicitly parallel run then warms it, and the next discover's
        # reap hook (threshold 0) drains it again.
        config = DiscoveryConfig(strategy="adaptive", validation_workers=2)
        with DiscoverySession(config, idle_reap_seconds=0.0) as session:
            result = session.discover(fk_db)
            assert result.engine_choice["engine"].startswith("sequential")
            pool = session._pool
            assert pool is None or pool.alive_workers == 0
            pinned = DiscoveryConfig(strategy="brute-force", validation_workers=2)
            session.discover(fk_db, pinned)
            assert session._pool is not None
            # The reap hook ran right after the pooled discover with a
            # zero threshold, so the fleet is already drained.
            assert session._pool.alive_workers == 0
            assert session._pool.stats.workers_reaped == 2

    def test_session_rejects_negative_idle_reap(self):
        with pytest.raises(DiscoveryError):
            DiscoverySession(DiscoveryConfig(), idle_reap_seconds=-1.0)


class TestAdaptiveRouting:
    def _force_calibration(self, cache_dir, profile: CalibrationProfile):
        profile.save(calibration_path(cache_dir))

    def test_adaptive_default_is_sequential_on_tiny_input(self, fk_db):
        result = discover_inds(
            fk_db,
            DiscoveryConfig(strategy="adaptive", validation_workers=4),
        )
        choice = result.engine_choice
        assert choice is not None
        assert choice["engine"].startswith("sequential")
        assert choice["calibration"] == "default"
        assert choice["engine"] in choice["predicted_seconds"]
        assert choice["actual_seconds"] >= 0
        # Routing cost is accounted separately: it must not be folded into
        # validate_seconds (the bench compares engines on validation alone).
        assert choice["routing_seconds"] >= 0
        assert result.to_dict()["engine_choice"] == choice

    def test_corrupt_calibration_routes_on_the_defaults(self, fk_db, tmp_path):
        calibration_path(tmp_path).write_text(
            '{"seq_item_seconds": null}', "utf-8"
        )
        result = discover_inds(
            fk_db, DiscoveryConfig(strategy="adaptive", cache_dir=str(tmp_path))
        )
        choice = result.engine_choice
        assert choice["calibration"] == "default"
        baseline = discover_inds(
            fk_db, DiscoveryConfig(strategy=choice["strategy"])
        )
        assert {str(i) for i in result.satisfied} == {
            str(i) for i in baseline.satisfied
        }

    def test_fixed_strategy_reports_null_engine_choice(self, fk_db):
        """Non-adaptive runs emit the null choice, not a missing key.

        ``routing_seconds`` is always present (0.0 when no routing ran) so
        downstream consumers never need ``.get`` guards; ``engine`` stays
        ``None`` so "was this run routed?" remains one comparison.
        """
        result = discover_inds(fk_db, DiscoveryConfig(strategy="brute-force"))
        assert result.engine_choice == {
            "strategy": None,
            "engine": None,
            "routing_seconds": 0.0,
        }
        assert result.to_dict()["engine_choice"] == result.engine_choice

    def test_forced_pooled_routing_agrees_with_sequential(
        self, fk_db, tmp_path, monkeypatch
    ):
        # The router reads os.cpu_count(): on a 1-core CI box pooled
        # compute can never beat sequential (lanes == 1), so pretend the
        # box is wide to exercise the pooled path deterministically.
        monkeypatch.setattr("repro.parallel.planner.os.cpu_count", lambda: 8)
        self._force_calibration(tmp_path, FREE_POOL)
        pooled = discover_inds(
            fk_db,
            DiscoveryConfig(
                strategy="brute-force",
                adaptive=True,
                validation_workers=2,
                cache_dir=str(tmp_path),
            ),
        )
        assert pooled.engine_choice["engine"] == "pooled-brute-force"
        assert pooled.engine_choice["calibration"] == "calibrated"
        sequential = discover_inds(
            fk_db, DiscoveryConfig(strategy="brute-force")
        )
        assert {str(i) for i in pooled.satisfied} == {
            str(i) for i in sequential.satisfied
        }
        assert (
            pooled.validator_stats.items_read
            == sequential.validator_stats.items_read
        )

    def test_pinned_merge_routes_only_merge_engines(
        self, fk_db, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.parallel.planner.os.cpu_count", lambda: 8)
        self._force_calibration(tmp_path, FREE_POOL)
        result = discover_inds(
            fk_db,
            DiscoveryConfig(
                strategy="merge-single-pass",
                adaptive=True,
                validation_workers=2,
                cache_dir=str(tmp_path),
            ),
        )
        choice = result.engine_choice
        assert choice["strategy"] == "merge-single-pass"
        assert all(
            "brute-force" not in name for name in choice["predicted_seconds"]
        )

    def test_adaptive_strategy_result_keeps_requested_name(self, fk_db):
        result = discover_inds(fk_db, DiscoveryConfig(strategy="adaptive"))
        assert result.strategy == "adaptive"
        assert result.engine_choice["strategy"] in (
            "brute-force",
            "merge-single-pass",
        )
