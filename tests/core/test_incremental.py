"""Unit tests for the delta planner's edges and the incremental plumbing.

The stress harness (``tests/test_incremental_stress.py``) proves the
headline byte-exactness property; this module pins the machinery around
it: fallback reasons for unusable priors, the config-compatibility rules,
the session's automatic prior threading, and the shape of the ``delta``
accounting in ``to_dict()``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from seeded_dbs import build_db

from repro.core.candidates import PretestConfig
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.errors import DiscoveryError


def _config(**overrides) -> DiscoveryConfig:
    defaults = dict(
        strategy="merge-single-pass",
        sampling_size=2,
        pretests=PretestConfig(cardinality=True, max_value=False),
        incremental=True,
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


class TestConfigValidation:
    def test_requires_an_external_strategy(self):
        with pytest.raises(DiscoveryError, match="external"):
            _config(strategy="sql-join").validated()
        with pytest.raises(DiscoveryError, match="external"):
            _config(strategy="reference").validated()

    def test_rejects_transitivity(self):
        with pytest.raises(DiscoveryError, match="transitivity"):
            _config(use_transitivity=True).validated()

    def test_rejects_overlap(self):
        with pytest.raises(DiscoveryError, match="overlap"):
            _config(overlap=True, validation_workers=2).validated()

    def test_external_strategies_validate(self):
        for strategy in ("brute-force", "merge-single-pass", "single-pass"):
            assert _config(strategy=strategy).validated()


class TestFallbackReasons:
    def test_no_prior_runs_full(self):
        result = discover_inds(build_db(), _config())
        assert result.delta == {"mode": "full", "reason": "no-prior"}
        # Even a full-mode first run stamps the carriers: it can seed a chain.
        assert result.prior_fingerprints is not None
        assert result.prior_sampling_refuted is not None
        assert result.prior_config_signature is not None

    def test_database_mismatch_runs_full(self):
        prior = discover_inds(build_db(0), _config())
        other = build_db(1)
        other.name = "somewhere-else"
        result = discover_inds(other, _config(), prior=prior)
        assert result.delta == {"mode": "full", "reason": "database-mismatch"}

    def test_non_incremental_prior_is_incomplete(self):
        db = build_db()
        prior = discover_inds(db, _config(incremental=False))
        assert prior.prior_fingerprints is None
        result = discover_inds(db, _config(), prior=prior)
        assert result.delta == {"mode": "full", "reason": "prior-incomplete"}

    @pytest.mark.parametrize(
        "carrier", ["prior_payloads", "prior_satisfied_pairs"]
    )
    def test_a_prior_without_a_new_carrier_is_incomplete(self, carrier):
        db = build_db()
        prior = replace(discover_inds(db, _config()), **{carrier: None})
        result = discover_inds(db, _config(), prior=prior)
        assert result.delta == {"mode": "full", "reason": "prior-incomplete"}
        assert result.satisfied == prior.satisfied

    @pytest.mark.parametrize(
        "override",
        [
            {"sampling_size": 3},
            {"sampling_seed": 99},
            {"candidate_mode": "all-pairs"},
            {"pretests": PretestConfig(cardinality=True, max_value=True)},
        ],
    )
    def test_decision_affecting_knob_change_runs_full(self, override):
        db = build_db()
        prior = discover_inds(db, _config())
        result = discover_inds(db, _config(**override), prior=prior)
        assert result.delta == {"mode": "full", "reason": "config-mismatch"}

    def test_strategy_and_workers_do_not_invalidate_the_prior(self):
        """All validators agree, so the signature ignores who validated."""
        db = build_db()
        prior = discover_inds(db, _config(strategy="brute-force"))
        result = discover_inds(
            db,
            _config(strategy="merge-single-pass", validation_workers=2),
            prior=prior,
        )
        assert result.delta["mode"] == "delta"
        assert result.delta["attributes_changed"] == 0


class TestDeltaAccounting:
    def test_unchanged_database_reuses_every_decision(self):
        db = build_db()
        prior = discover_inds(db, _config())
        result = discover_inds(db, _config(), prior=prior)
        assert result.delta == {
            "mode": "delta",
            "attributes_changed": 0,
            "candidates_revalidated": 0,
            "decisions_reused": prior.candidates_after_pretests,
        }
        assert sorted(map(str, result.satisfied)) == sorted(
            map(str, prior.satisfied)
        )
        assert result.sampling_refuted == prior.sampling_refuted

    def test_delta_key_absent_from_non_incremental_dicts(self):
        result = discover_inds(build_db(), _config(incremental=False))
        assert result.delta is None
        assert "delta" not in result.to_dict()

    def test_delta_key_present_and_first_class_when_incremental(self):
        db = build_db()
        prior = discover_inds(db, _config())
        doc = discover_inds(db, _config(), prior=prior).to_dict()
        assert doc["delta"]["mode"] == "delta"

    def test_carriers_are_not_serialised(self):
        db = build_db()
        doc = discover_inds(db, _config()).to_dict()
        for key in (
            "prior_fingerprints",
            "prior_sampling_refuted",
            "prior_config_signature",
            "prior_payloads",
            "prior_satisfied_pairs",
        ):
            assert key not in doc

    def test_carried_state_stays_out_of_equality_and_repr(self):
        db = build_db()
        result = discover_inds(db, _config())
        assert result.prior_payloads and result.prior_satisfied_pairs
        bare = replace(
            result,
            prior_payloads=None,
            prior_satisfied_pairs=None,
            prior_samples=None,
        )
        assert bare == result
        assert repr(bare) == repr(result)
        assert "prior_payloads" not in repr(result)


class TestSessionPriorThreading:
    def test_session_threads_the_prior_automatically(self):
        db = build_db()
        with DiscoverySession(_config()) as session:
            first = session.discover(db)
            assert first.delta["mode"] == "full"
            second = session.discover(db)
            assert second.delta["mode"] == "delta"
            assert second.delta["attributes_changed"] == 0

    def test_priors_are_kept_per_database(self):
        db_a = build_db(0)
        db_b = build_db(1)
        db_b.name = "other"
        with DiscoverySession(_config()) as session:
            session.discover(db_a)
            first_b = session.discover(db_b)
            assert first_b.delta == {"mode": "full", "reason": "no-prior"}
            second_a = session.discover(db_a)
            assert second_a.delta["mode"] == "delta"

    def test_explicit_prior_overrides_the_session_memory(self):
        db = build_db()
        external_prior = discover_inds(db, _config())
        with DiscoverySession(_config()) as session:
            result = session.discover(db, prior=external_prior)
            assert result.delta["mode"] == "delta"

    def test_non_incremental_runs_do_not_touch_the_prior_store(self):
        db = build_db()
        with DiscoverySession(_config(incremental=False)) as session:
            session.discover(db)
            result = session.discover(db, _config())
            assert result.delta == {"mode": "full", "reason": "no-prior"}
