"""Chunk and merge-group planning: coverage, balance, determinism."""

from __future__ import annotations

import pytest

from repro.core.candidates import Candidate
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError
from repro.parallel.planner import (
    MAX_CHUNK_CANDIDATES,
    ShardPlanner,
    pack_cost_groups,
)
from repro.storage.sorted_sets import SpoolDirectory


def _spool_with(tmp_path, sizes: dict[str, int]) -> SpoolDirectory:
    spool = SpoolDirectory.create(tmp_path / "spool")
    for name, count in sizes.items():
        ref = AttributeRef("t", name)
        spool.add_values(ref, [f"{name}-{i:06d}" for i in range(count)])
    spool.save_index()
    return spool


def _cand(dep: str, ref: str) -> Candidate:
    return Candidate(AttributeRef("t", dep), AttributeRef("t", ref))


class TestChunkPlanning:
    def test_balances_by_spool_size_not_candidate_count(self, tmp_path):
        # One giant attribute and many tiny ones: counting candidates would
        # pair each big-referencing candidate with a cheap one; costing by
        # spool size fills each chunk's budget with two of the eight big
        # ones and leaves the cheap ones to share the last chunk.
        sizes = {"big": 10_000} | {f"tiny{i}": 2 for i in range(8)}
        spool = _spool_with(tmp_path, sizes)
        candidates = []
        for i in range(8):
            candidates += [
                _cand(f"tiny{i}", "big"),
                _cand(f"tiny{i}", f"tiny{(i + 1) % 8}"),
            ]
        chunks = ShardPlanner(spool).plan_chunks(
            candidates, workers=2, chunk_size=16
        )
        big_refs = [
            sum(1 for c in chunk.candidates if c.referenced.column == "big")
            for chunk in chunks
        ]
        assert big_refs == [2, 2, 2, 2, 0]
        assert [chunk.estimated_cost for chunk in chunks] == [20006] * 4 + [40]


    def test_more_workers_than_candidates_emits_no_empty_chunks(
        self, tmp_path
    ):
        spool = _spool_with(tmp_path, {"a": 3, "b": 5, "c": 7})
        candidates = [_cand("a", "b"), _cand("c", "b")]
        chunks = ShardPlanner(spool).plan_chunks(candidates, workers=16)
        assert [len(chunk.candidates) for chunk in chunks] == [1, 1]
        assert [chunk.index for chunk in chunks] == [0, 1]

    def test_default_cap_never_exceeds_max_chunk_candidates(self, tmp_path):
        # 132 equal-cost candidates.  At two workers the even split into
        # eight chunks caps a chunk at 17; at one worker the even split
        # would allow 33, and MAX_CHUNK_CANDIDATES closes it at 32.
        spool = _spool_with(tmp_path, {f"c{i}": 4 for i in range(12)})
        candidates = [
            _cand(f"c{i}", f"c{j}")
            for i in range(12)
            for j in range(12)
            if i != j
        ]
        planner = ShardPlanner(spool)
        two = planner.plan_chunks(candidates, workers=2)
        assert max(len(chunk.candidates) for chunk in two) == 17
        one = planner.plan_chunks(candidates, workers=1)
        assert max(len(chunk.candidates) for chunk in one) == (
            MAX_CHUNK_CANDIDATES
        )

    def test_chunk_cost_is_the_sum_of_its_candidate_costs(self, tmp_path):
        spool = _spool_with(tmp_path, {"a": 3, "b": 50, "c": 7, "d": 500})
        planner = ShardPlanner(spool)
        candidates = [
            _cand("a", "b"), _cand("c", "d"), _cand("a", "d"), _cand("b", "c"),
        ]
        # Both attributes' spooled sizes, plus one.
        assert planner.candidate_cost(_cand("a", "d")) == 3 + 500 + 1
        chunks = planner.plan_chunks(candidates, workers=2)
        for chunk in chunks:
            assert chunk.estimated_cost == sum(
                planner.candidate_cost(c) for c in chunk.candidates
            )


class TestMergeGroupPlanning:
    """Merge groups: whole components, exact coverage, cost budgeting."""

    def _component_of(self, candidate, groups):
        for group in groups:
            if candidate in group.candidates:
                return group.index
        raise AssertionError(f"{candidate} landed in no group")

    def test_groups_cover_exactly_once_and_never_split_components(
        self, tmp_path
    ):
        # Two independent components: {a,b,c} chained, {x,y} paired.
        spool = _spool_with(
            tmp_path, {"a": 4, "b": 9, "c": 5, "x": 7, "y": 3}
        )
        candidates = [
            _cand("a", "b"), _cand("x", "y"), _cand("c", "b"),
            _cand("y", "x"), _cand("a", "c"),
        ]
        groups = ShardPlanner(spool).plan_merge_groups(candidates, workers=4)
        seen = [c for group in groups for c in group.candidates]
        assert sorted(map(str, seen)) == sorted(map(str, candidates))
        assert len(seen) == len(candidates)
        # Candidates sharing an attribute always share a group.
        abc = {_cand("a", "b"), _cand("c", "b"), _cand("a", "c")}
        xy = {_cand("x", "y"), _cand("y", "x")}
        assert len({self._component_of(c, groups) for c in abc}) == 1
        assert len({self._component_of(c, groups) for c in xy}) == 1
        assert sum(group.components for group in groups) == 2

    def test_transitive_components_stay_whole(self, tmp_path):
        # a-b and b-c share attribute b: one component despite no a-c edge.
        spool = _spool_with(tmp_path, {"a": 2, "b": 2, "c": 2})
        candidates = [_cand("a", "b"), _cand("c", "b")]
        groups = ShardPlanner(spool).plan_merge_groups(candidates, workers=8)
        assert len(groups) == 1
        assert groups[0].components == 1

    def test_small_components_pack_into_budgeted_groups(self, tmp_path):
        sizes = {f"d{i}": 10 for i in range(8)} | {f"r{i}": 10 for i in range(8)}
        spool = _spool_with(tmp_path, sizes)
        candidates = [_cand(f"d{i}", f"r{i}") for i in range(8)]
        groups = ShardPlanner(spool).plan_merge_groups(candidates, workers=2)
        # 8 equal components, budget = total/(2*4): one component per group.
        assert len(groups) == 8
        assert all(group.components == 1 for group in groups)
        # Heaviest-first output: costs never increase along the queue.
        costs = [group.estimated_cost for group in groups]
        assert costs == sorted(costs, reverse=True)

    def test_group_candidates_keep_original_order(self, tmp_path):
        spool = _spool_with(tmp_path, {"a": 3, "b": 5, "c": 2})
        candidates = [_cand("a", "b"), _cand("c", "b"), _cand("b", "a")]
        (group,) = ShardPlanner(spool).plan_merge_groups(candidates, workers=1)
        assert list(group.candidates) == candidates

    def test_deterministic_and_deduplicating(self, tmp_path):
        spool = _spool_with(tmp_path, {"a": 3, "b": 5})
        candidates = [_cand("a", "b"), _cand("a", "b"), _cand("b", "a")]
        planner = ShardPlanner(spool)
        first = planner.plan_merge_groups(candidates, workers=2)
        second = planner.plan_merge_groups(candidates, workers=2)
        assert first == second
        assert sum(len(g.candidates) for g in first) == 2  # duplicate dropped

    def test_empty_and_invalid_inputs(self, tmp_path):
        spool = _spool_with(tmp_path, {"a": 1})
        planner = ShardPlanner(spool)
        assert planner.plan_merge_groups([], workers=2) == []
        with pytest.raises(DiscoveryError):
            planner.plan_merge_groups([_cand("a", "a")], workers=0)


class TestPackCostGroups:
    """Boundary behaviour of the shared packer every chunk-shaped plan uses."""

    def test_zero_cost_items_all_land_in_one_trailing_group(self):
        items = [(0, f"i{i}") for i in range(10)]
        groups = pack_cost_groups(items, workers=3)
        # The budget floors at 1, so zero-cost items never close a group
        # mid-walk: they all ride the trailing flush, in input order, and
        # none is silently dropped.
        assert groups == [[f"i{i}" for i in range(10)]]

    def test_single_item_heavier_than_whole_budget_gets_own_group(self):
        items = [(1000, "whale")] + [(1, f"minnow{i}") for i in range(8)]
        groups = pack_cost_groups(items, workers=2)
        # Heaviest-first: the over-budget item closes its group alone and
        # comes out first so a worker starts on it immediately.
        assert groups[0] == ["whale"]
        flat = [item for group in groups for item in group]
        assert sorted(flat) == sorted(item for _, item in items)
        assert len(flat) == len(items)

    def test_equal_costs_tie_break_stably_by_input_position(self):
        items = [(5, f"t{i}") for i in range(6)]
        first = pack_cost_groups(items, workers=1)
        second = pack_cost_groups(items, workers=1)
        assert first == second
        # At equal cost the walk order is the input order, so groups are
        # contiguous runs of the input — never an interleaving.
        flat = [item for group in first for item in group]
        assert flat == [f"t{i}" for i in range(6)]

    def test_workers_exceeding_item_count_split_one_item_per_group(self):
        items = [(7, "a"), (3, "b")]
        groups = pack_cost_groups(items, workers=64)
        # Budget collapses to the floor of 1: every item closes its own
        # group (heaviest first), and no empty groups are emitted for the
        # 62 workers with nothing to do.
        assert groups == [["a"], ["b"]]
