"""Tests for the end-to-end discovery runner."""

import re
import tempfile
from dataclasses import replace

import pytest

from seeded_dbs import build_component_db

from repro.core.candidates import PretestConfig
from repro.core.runner import ALL_STRATEGIES, DiscoveryConfig, discover_inds
from repro.errors import DiscoveryError, SpoolError
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import KIND_BRUTE_FORCE
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory

#: Every strategy a config accepts, each a fixed validator.
STRATEGIES = (
    "blockwise",
    "brute-force",
    "merge-single-pass",
    "reference",
    "single-pass",
    "sql-join",
    "sql-minus",
    "sql-notin",
)
#: The validator each strategy runs, as its stats and the span name it.
VALIDATOR_NAMES = {
    "blockwise": "blockwise-single-pass",
    **{name: name for name in STRATEGIES if name != "blockwise"},
}
_EXTERNAL = {"blockwise", "brute-force", "merge-single-pass", "single-pass"}
_POOLED = {"brute-force", "merge-single-pass"}
#: Each strategy-gated flag: its setting, and the strategies that accept it.
#: Written out rather than read from the runner, so a rule that drifts
#: fails here by name.
GATED_FLAGS = {
    "incremental": ({"incremental": True}, _EXTERNAL),
    "overlap": ({"overlap": True}, _POOLED),
    "reuse_spool": ({"reuse_spool": True}, _EXTERNAL),
    "sampling_size": ({"sampling_size": 5}, _EXTERNAL),
    "skip_scans": ({"skip_scans": True}, _POOLED),
    "use_transitivity": (
        {"use_transitivity": True},
        {"brute-force", "sql-join", "sql-minus", "sql-notin"},
    ),
    "validation_workers": ({"validation_workers": 2}, _POOLED),
}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "name", ("parallel_export", "parallel_pretest", "adaptive")
    )
    def test_removed_pipeline_fields_raise_type_error(self, name):
        # overlap=True is the only pooled export and pretest, and each
        # fixed strategy places its own validation (no cost-model router).
        with pytest.raises(TypeError, match=name):
            DiscoveryConfig(**{name: True})

    def test_unknown_strategy(self):
        # "adaptive" was the cost-model router's strategy; it is gone.
        for name in ("magic", "adaptive"):
            with pytest.raises(DiscoveryError, match="unknown strategy"):
                DiscoveryConfig(strategy=name).validated()

    def test_unknown_candidate_mode(self):
        with pytest.raises(DiscoveryError, match="candidate mode"):
            DiscoveryConfig(candidate_mode="wild").validated()

    def test_transitivity_needs_sequential(self):
        with pytest.raises(DiscoveryError, match="sequential"):
            DiscoveryConfig(
                strategy="single-pass", use_transitivity=True
            ).validated()

    def test_transitivity_with_brute_force_ok(self):
        DiscoveryConfig(strategy="brute-force", use_transitivity=True).validated()

    def test_sampling_needs_external(self):
        with pytest.raises(DiscoveryError, match="sampling"):
            DiscoveryConfig(strategy="sql-join", sampling_size=5).validated()

    def test_negative_sampling(self):
        with pytest.raises(DiscoveryError, match=">= 0"):
            DiscoveryConfig(
                strategy="merge-single-pass", sampling_size=-1
            ).validated()

    def test_all_pairs_join_rejected(self):
        with pytest.raises(DiscoveryError, match="all-pairs"):
            DiscoveryConfig(
                strategy="sql-join", candidate_mode="all-pairs"
            ).validated()

    def test_bad_block_size(self):
        with pytest.raises(DiscoveryError, match="spool_block_size"):
            DiscoveryConfig(spool_block_size=0).validated()

    def test_bad_export_workers(self):
        """export_workers is no longer a setting: export runs on one thread."""
        with pytest.raises(TypeError, match="export_workers"):
            DiscoveryConfig(export_workers=2)
        with pytest.raises(TypeError, match="export_workers"):
            replace(DiscoveryConfig(), export_workers=2)

    def test_strategies_are_the_fixed_validators(self):
        assert ALL_STRATEGIES == set(STRATEGIES)

    # --- strategy × flag audit: one test per pair ---

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("flag", sorted(GATED_FLAGS))
    def test_strategy_gated_flag(self, flag, strategy):
        setting, accepted_by = GATED_FLAGS[flag]
        config = DiscoveryConfig(strategy=strategy, **setting)
        if strategy in accepted_by:
            assert config.validated() is config
        else:
            # Each rejection names the strategy it refused.
            named = re.escape(repr(strategy))
            with pytest.raises(DiscoveryError, match=named):
                config.validated()

    def test_skip_scans_with_merge_strategy_ok(self):
        DiscoveryConfig(
            strategy="merge-single-pass", skip_scans=True
        ).validated()

    def test_skip_scans_reject_non_skippable_strategy(self):
        with pytest.raises(DiscoveryError, match="skip-scans only apply"):
            DiscoveryConfig(strategy="single-pass", skip_scans=True).validated()

    def test_unknown_compression_rejected(self):
        with pytest.raises(DiscoveryError, match="unknown spool compression"):
            DiscoveryConfig(spool_compression="lz4").validated()

    def test_read_only_names_report_their_one_value(self):
        config = DiscoveryConfig().validated()
        assert config.spool_format == "binary"
        assert config.export_workers == 1
        assert config.resolved_mmap_reads is False

    def test_settable_fields(self):
        """The knobs a caller can set; read-only names are properties."""
        import dataclasses

        assert [f.name for f in dataclasses.fields(DiscoveryConfig)] == [
            "strategy", "candidate_mode", "pretests", "use_transitivity",
            "sampling_size", "sampling_seed", "spool_dir", "keep_spool",
            "spool_block_size", "spool_compression",
            "overlap", "validation_workers", "skip_scans",
            "reuse_spool", "cache_dir", "cache_max_bytes",
            "max_items_in_memory", "max_open_files", "sql_null_safe",
            "trace", "incremental",
        ]
        for name in ("spool_format", "resolved_mmap_reads", "export_workers"):
            assert isinstance(getattr(DiscoveryConfig, name), property)


class TestStrategies:
    def test_all_strategies_agree(self, fk_db):
        results = {}
        for strategy in sorted(ALL_STRATEGIES):
            result = discover_inds(fk_db, DiscoveryConfig(strategy=strategy))
            results[strategy] = {str(i) for i in result.satisfied}
        baseline = results["reference"]
        for strategy, inds in results.items():
            assert inds == baseline, f"{strategy} disagrees"

    def test_fk_found(self, fk_db):
        result = discover_inds(fk_db)
        assert "child.pid [= parent.id" in {str(i) for i in result.satisfied}

    def test_export_workers_reach_export(self, fk_db, tmp_path):
        """The read-only export_workers is a value export_database takes."""
        import json

        config = DiscoveryConfig()
        spool, stats = export_database(
            fk_db, str(tmp_path / "spool"), workers=config.export_workers
        )
        assert stats.attributes_exported == len(spool) > 0
        doc = json.loads((tmp_path / "spool" / "index.json").read_text())
        assert doc["format"] == "binary"

    def test_counts_consistent(self, fk_db):
        result = discover_inds(fk_db)
        stats = result.validator_stats
        assert (
            stats.satisfied_count + stats.refuted_count
            == result.candidates_after_pretests
        )
        assert result.raw_candidates >= result.candidates_after_pretests

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_worker_validates_in_process(self, fk_db, strategy):
        # At one worker no strategy touches a pool, and the validate span
        # names the validator that ran.
        result = discover_inds(
            fk_db, DiscoveryConfig(strategy=strategy, trace=True)
        )
        assert result.pool_stats is None
        spans = result.trace["spans"]
        assert not [s for s in spans if s["name"].startswith("task:")]
        (validate,) = [s for s in spans if s["name"] == "validate"]
        name = VALIDATOR_NAMES[strategy]
        assert validate["attrs"] == {"validator": name}
        assert result.to_dict()["validator"]["name"] == name



def _placement_db(shape: str, fk_db, make_db):
    """The database and sampling size whose candidates take ``shape``.

    ``build_component_db``'s graph splits into several components once
    the sampling pretest has refuted its cross-cluster pairs.
    """
    if shape == "no-candidates":
        return make_db({"t": {"a": [1, 2, 3]}}), 0
    if shape == "one-candidate":
        # Only t.a [= t.b survives: b has more distinct values than a.
        return make_db({"t": {"a": [1, 2, 3, None], "b": [1, 2, 3, 4]}}), 0
    if shape == "one-component":
        return fk_db, 0
    return build_component_db(), 2


class TestPlacement:
    """Each fixed strategy places its validation where its validator says.

    At two workers, brute force pools more than one candidate; the merge
    always runs in this process, as does every other shape, and never
    wakes the fleet.  Either way the answer and the I/O counters are the
    one-worker run's.
    """

    POOLED = {
        ("brute-force", "one-component"),
        ("brute-force", "several-components"),
    }

    SHAPES = (
        "no-candidates",
        "one-candidate",
        "one-component",
        "several-components",
    )

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("strategy", sorted(_POOLED))
    def test_fixed_placement(self, strategy, shape, fk_db, adhoc_db_factory):
        db, sampling = _placement_db(shape, fk_db, adhoc_db_factory)

        def config(workers):
            return DiscoveryConfig(
                strategy=strategy,
                validation_workers=workers,
                sampling_size=sampling,
                trace=True,
            )

        sequential = discover_inds(db, config(1))
        with WorkerPool(2) as fleet:
            result = discover_inds(db, config(2), pool=fleet)
            spawned = fleet.stats.workers_spawned
        pooled = (strategy, shape) in self.POOLED
        assert (spawned > 0) is pooled
        assert (result.pool_stats is not None) is pooled
        if pooled:
            assert set(result.pool_stats["tasks_by_kind"]) == {
                KIND_BRUTE_FORCE
            }
        (validate,) = [
            s for s in result.trace["spans"] if s["name"] == "validate"
        ]
        assert validate["attrs"] == {"validator": VALIDATOR_NAMES[strategy]}
        assert result.satisfied == sequential.satisfied
        for counter in ("items_read", "comparisons", "files_opened"):
            assert getattr(result.validator_stats, counter) == getattr(
                sequential.validator_stats, counter
            ), counter


class TestPhases:
    def test_timings_populated(self, fk_db):
        result = discover_inds(fk_db)
        assert result.timings.profile_seconds >= 0
        assert result.timings.validate_seconds > 0
        assert result.timings.total_seconds >= result.timings.validate_seconds

    def test_export_counts(self, fk_db):
        result = discover_inds(fk_db)
        assert result.export_values_scanned > 0
        assert result.export_values_written > 0

    def test_sql_strategy_skips_export(self, fk_db):
        result = discover_inds(fk_db, DiscoveryConfig(strategy="sql-join"))
        assert result.export_values_scanned == 0
        assert result.timings.export_seconds == 0


class TestSpoolHandling:
    def test_spool_temp_cleaned(self, fk_db, tmp_path):
        import glob
        import tempfile

        before = set(glob.glob(tempfile.gettempdir() + "/repro-spool-*"))
        discover_inds(fk_db)
        after = set(glob.glob(tempfile.gettempdir() + "/repro-spool-*"))
        assert before == after

    def test_failed_export_removes_temporary_spool(
        self, fk_db, tmp_path, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise SpoolError("no space left on device")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(SpoolDirectory, "add_values", fail)
        with pytest.raises(SpoolError) as excinfo:
            discover_inds(fk_db)
        # excinfo holds the failed frames; the spool must be gone anyway.
        assert excinfo.value is not None
        assert list(tmp_path.glob("repro-spool-*")) == []

    def test_failed_export_discards_a_kept_temporary_spool(
        self, fk_db, tmp_path, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise SpoolError("no space left on device")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(SpoolDirectory, "add_values", fail)
        with pytest.raises(SpoolError):
            discover_inds(fk_db, DiscoveryConfig(keep_spool=True))
        # keep_spool keeps the spool of a successful run only.
        assert list(tmp_path.glob("repro-spool-*")) == []

    @pytest.mark.parametrize("overlap", (False, True))
    def test_keep_spool_keeps_a_temporary_spool(
        self, fk_db, tmp_path, monkeypatch, overlap
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = discover_inds(
            fk_db, DiscoveryConfig(keep_spool=True, overlap=overlap)
        )
        (kept,) = tmp_path.glob("repro-spool-*")
        assert result.spool_path == str(kept)
        assert len(SpoolDirectory.open(kept)) > 0

    def test_keep_spool_in_directory(self, fk_db, tmp_path):
        spool_dir = tmp_path / "keep"
        result = discover_inds(
            fk_db,
            DiscoveryConfig(spool_dir=str(spool_dir), keep_spool=True),
        )
        assert result.spool_path == str(spool_dir)
        spool = SpoolDirectory.open(spool_dir)
        assert len(spool) > 0


class TestOptionsEndToEnd:
    def test_transitivity_same_result(self, fk_db):
        plain = discover_inds(fk_db, DiscoveryConfig(strategy="brute-force"))
        pruned = discover_inds(
            fk_db,
            DiscoveryConfig(strategy="brute-force", use_transitivity=True),
        )
        assert {str(i) for i in plain.satisfied} == {
            str(i) for i in pruned.satisfied
        }

    def test_sql_transitivity(self, fk_db):
        result = discover_inds(
            fk_db, DiscoveryConfig(strategy="sql-join", use_transitivity=True)
        )
        plain = discover_inds(fk_db, DiscoveryConfig(strategy="sql-join"))
        assert {str(i) for i in result.satisfied} == {
            str(i) for i in plain.satisfied
        }
        assert result.validator_stats.sql_statements <= (
            plain.validator_stats.sql_statements
        )

    def test_sampling_same_result(self, fk_db):
        plain = discover_inds(fk_db)
        sampled = discover_inds(
            fk_db,
            DiscoveryConfig(strategy="merge-single-pass", sampling_size=3),
        )
        assert {str(i) for i in plain.satisfied} == {
            str(i) for i in sampled.satisfied
        }

    def test_all_pairs_mode(self, fk_db):
        result = discover_inds(
            fk_db,
            DiscoveryConfig(
                strategy="merge-single-pass", candidate_mode="all-pairs"
            ),
        )
        # all-pairs tests each unordered pair once, directed by cardinality.
        assert result.raw_candidates == 10  # C(5,2) usable attributes
        assert "child.pid [= parent.id" in {str(i) for i in result.satisfied}

    def test_blockwise_strategy(self, fk_db):
        result = discover_inds(
            fk_db,
            DiscoveryConfig(strategy="blockwise", max_open_files=3),
        )
        plain = discover_inds(fk_db)
        assert {str(i) for i in result.satisfied} == {
            str(i) for i in plain.satisfied
        }

    def test_disable_all_pretests(self, fk_db):
        result = discover_inds(
            fk_db,
            DiscoveryConfig(pretests=PretestConfig(cardinality=False)),
        )
        assert result.raw_candidates == result.candidates_after_pretests


class TestResultSerialisation:
    def test_to_dict_roundtrips_to_json(self, fk_db):
        import json

        result = discover_inds(fk_db)
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["database"] == "fk_db"
        assert doc["satisfied_count"] == len(result.satisfied)
        assert ["child.pid", "parent.id"] in doc["satisfied"]
        assert doc["timings"]["total_seconds"] >= 0
        assert "engine_choice" not in doc
