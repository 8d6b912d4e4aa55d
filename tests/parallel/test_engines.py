"""Unit tests of the parallel engines' building blocks.

The cross-validator agreement of the full engines against the sequential
validators lives in ``tests/test_validator_agreement.py``; this file covers
the pieces in isolation: the shard-outcome merge (including its must-fail
paths) and the engine's guards.
"""

from __future__ import annotations

import pytest

from repro.core.candidates import Candidate
from repro.core.stats import ValidatorStats
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError
from repro.parallel.engine import (
    ProcessPoolValidationEngine,
    ShardOutcome,
    merge_shard_outcomes,
)
from repro.storage.sorted_sets import SpoolDirectory


def _cand(dep: str, ref: str) -> Candidate:
    return Candidate(AttributeRef("t", dep), AttributeRef("t", ref))


class TestMergeShardOutcomes:
    def _outcome(self, index, decisions, items=0):
        stats = ValidatorStats(validator="brute-force", items_read=items)
        return ShardOutcome(
            shard_index=index, decisions=decisions, vacuous=set(), stats=stats
        )

    def test_merges_in_candidate_order_and_sums_io(self):
        a, b, c = _cand("a", "x"), _cand("b", "x"), _cand("c", "x")
        result = merge_shard_outcomes(
            [a, b, c],
            [
                self._outcome(1, {b: False}, items=5),
                self._outcome(0, {a: True, c: True}, items=7),
            ],
            "brute-force",
        )
        assert result.decisions == {a: True, b: False, c: True}
        assert [str(i) for i in result.satisfied] == [str(a.as_ind()), str(c.as_ind())]
        assert result.stats.items_read == 12
        assert result.stats.satisfied_count == 2
        assert result.stats.refuted_count == 1
        assert result.stats.candidates_total == 3

    def test_rejects_double_and_missing_coverage(self):
        a, b = _cand("a", "x"), _cand("b", "x")
        with pytest.raises(DiscoveryError, match="two shards"):
            merge_shard_outcomes(
                [a],
                [self._outcome(0, {a: True}), self._outcome(1, {a: True})],
                "brute-force",
            )
        with pytest.raises(DiscoveryError, match="no shard"):
            merge_shard_outcomes(
                [a, b], [self._outcome(0, {a: True})], "brute-force"
            )


class TestEngineGuards:
    def test_engine_requires_saved_index(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "s")
        ref_a, ref_b = AttributeRef("t", "a"), AttributeRef("t", "b")
        spool.add_values(ref_a, ["1"])
        spool.add_values(ref_b, ["1", "2"])
        # No save_index(): workers could never re-open this directory.
        from repro.errors import SpoolError

        engine = ProcessPoolValidationEngine(spool, workers=2)
        with pytest.raises(SpoolError, match="no saved index"):
            engine.validate([Candidate(ref_a, ref_b), Candidate(ref_b, ref_a)])

    def test_rejects_nonpositive_workers(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "s")
        with pytest.raises(DiscoveryError):
            ProcessPoolValidationEngine(spool, workers=0)

    def test_duplicate_candidates_handled_like_sequential(self, tmp_path):
        """Duplicates must be deduped before sharding, not split across shards."""
        from repro.core.brute_force import BruteForceValidator

        spool = SpoolDirectory.create(tmp_path / "s")
        refs = {}
        for name, count in (("a", 3), ("b", 9), ("c", 5), ("d", 7)):
            refs[name] = AttributeRef("t", name)
            spool.add_values(refs[name], [f"{name}{i}" for i in range(count)])
        spool.save_index()
        candidates = [
            _cand("a", "b"), _cand("c", "d"), _cand("a", "b"),  # duplicate
            _cand("c", "b"), _cand("c", "d"),                    # duplicate
        ]
        sequential = BruteForceValidator(spool).validate(candidates)
        parallel = ProcessPoolValidationEngine(spool, workers=2).validate(
            candidates
        )
        assert parallel.decisions == sequential.decisions
        assert parallel.stats.candidates_total == sequential.stats.candidates_total
        assert parallel.stats.items_read == sequential.stats.items_read
