"""Tests for the block-wise single-pass validator (Sec. 4.2)."""

import pytest

from repro.core.blockwise import BlockwiseValidator
from repro.core.candidates import Candidate
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.db.schema import AttributeRef
from repro.errors import ValidatorError
from repro.storage.sorted_sets import SpoolDirectory


@pytest.fixture()
def spool(tmp_path) -> SpoolDirectory:
    s = SpoolDirectory.create(tmp_path / "spool")
    pool = [f"{v:02d}" for v in range(30)]
    import random

    rng = random.Random(4)
    for i in range(12):
        s.add_values(
            AttributeRef("t", f"c{i:02d}"),
            sorted(rng.sample(pool, rng.randint(1, 20))),
        )
    return s


@pytest.fixture()
def candidates(spool) -> list[Candidate]:
    refs = spool.attributes()
    return [Candidate(d, r) for d in refs for r in refs if d != r]


class TestCorrectness:
    @pytest.mark.parametrize("budget", [2, 3, 5, 8, 100])
    def test_matches_unbounded_at_any_budget(self, spool, candidates, budget):
        unbounded = MergeSinglePassValidator(spool).validate(candidates)
        blocked = BlockwiseValidator(
            spool, max_open_files=budget
        ).validate(candidates)
        assert blocked.decisions == unbounded.decisions

    def test_observer_engine(self, spool, candidates):
        unbounded = MergeSinglePassValidator(spool).validate(candidates)
        blocked = BlockwiseValidator(
            spool, max_open_files=6, engine="observer"
        ).validate(candidates)
        assert blocked.decisions == unbounded.decisions


class TestBudget:
    def test_peak_respects_budget(self, spool, candidates):
        for budget in (2, 4, 8):
            result = BlockwiseValidator(
                spool, max_open_files=budget
            ).validate(candidates)
            assert result.stats.peak_open_files <= budget

    def test_smaller_budget_more_subruns_more_io(self, spool, candidates):
        tight = BlockwiseValidator(spool, max_open_files=2).validate(candidates)
        loose = BlockwiseValidator(spool, max_open_files=100).validate(candidates)
        assert tight.stats.extra["sub_runs"] > loose.stats.extra["sub_runs"]
        assert tight.stats.items_read >= loose.stats.items_read

    def test_budget_validation(self, spool):
        with pytest.raises(ValidatorError, match="at least 2"):
            BlockwiseValidator(spool, max_open_files=1)

    def test_engine_validation(self, spool):
        with pytest.raises(ValidatorError, match="unknown engine"):
            BlockwiseValidator(spool, engine="quantum")


class TestOpenFileAccounting:
    """Sec. 4.2: the open-file peak is the maximum over the sub-runs.

    The peak is the very quantity the blockwise budget exists to bound.
    """

    def test_peak_equals_max_over_subruns(self, spool, candidates):
        budget = 6
        result = BlockwiseValidator(
            spool, max_open_files=budget
        ).validate(candidates)
        # The merged peak is the max over sub-runs: within the budget, but
        # genuinely reflecting concurrent opens (> 1 whenever work happened).
        assert 2 <= result.stats.peak_open_files <= budget
        # Every sub-run closed its cursors; a validator-level merge must not
        # manufacture phantom open files either.
        assert result.stats.files_opened >= result.stats.peak_open_files


class TestStats:
    def test_counts_aggregate(self, spool, candidates):
        result = BlockwiseValidator(spool, max_open_files=4).validate(candidates)
        assert (
            result.stats.satisfied_count + result.stats.refuted_count
            == len(candidates)
        )
        assert result.stats.items_read > 0
        assert result.stats.extra["dep_block_size"] >= 1
        assert result.stats.extra["ref_block_size"] >= 1

    def test_empty_candidates(self, spool):
        result = BlockwiseValidator(spool, max_open_files=4).validate([])
        assert len(result.decisions) == 0
