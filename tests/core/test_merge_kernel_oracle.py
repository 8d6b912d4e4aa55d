"""Oracle equivalence of the merge-single-pass kernel.

The merge kernel (:mod:`repro.core.merge_single_pass`) replaced a per-value
heap loop — one ``(value, id)`` heap entry per attribute, every value read
through :class:`~repro.storage.cursors.BatchReader` — with a bucket queue,
an inlined reader and two run-skipping fast paths.  That loop is vendored
below as the oracle.  On every input the kernel must reproduce it exactly:
the decisions and the order they were recorded in, ``vacuous``,
``satisfied``, every :class:`ValidatorStats` field but ``elapsed_seconds``,
and the full :class:`IOStats` including ``reads_per_attribute`` — over
seeded and generated databases in both candidate modes, both spool
compressions, a grid of block and batch sizes with skip-scans on and off, and
hand-built spools aimed at each fast path.
"""

from __future__ import annotations

import heapq
from dataclasses import fields
from functools import lru_cache

import pytest

from seeded_dbs import build_db, build_random_db

from repro.core.candidates import (
    Candidate,
    generate_all_pairs_candidates,
    generate_unique_ref_candidates,
)
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.core.stats import DecisionCollector, ValidationResult
from repro.datagen.biosql import generate_biosql
from repro.datagen.openmms import generate_openmms
from repro.datagen.scop import generate_scop
from repro.db.schema import AttributeRef
from repro.db.stats import collect_column_stats
from repro.errors import SpoolError, ValidatorError
from repro.storage.codec import SPOOL_COMPRESSIONS
from repro.storage.cursors import DEFAULT_BATCH_SIZE, BatchReader, IOStats
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory

# ------------------------------------------------------------------ oracle


class _AttributeCursor:
    """One attribute's position in the global merge (batched reads)."""

    __slots__ = ("ref", "cursor", "reader", "live_refs", "ref_usage", "closed")

    def __init__(self, ref, cursor, batch_size=DEFAULT_BATCH_SIZE) -> None:
        self.ref = ref
        self.cursor = cursor
        self.reader = BatchReader(cursor, batch_size=batch_size)
        self.live_refs: set[int] = set()
        self.ref_usage = 0
        self.closed = False

    @property
    def is_needed(self) -> bool:
        return bool(self.live_refs) or self.ref_usage > 0

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.reader.close()


class OracleMergeValidator:
    """The per-value heap merge the kernel replaced."""

    name = "merge-single-pass"

    def __init__(self, spool, skip_scan=False, batch_size=DEFAULT_BATCH_SIZE):
        self._spool = spool
        self._skip_scan = bool(skip_scan)
        self._batch_size = batch_size

    def validate(self, candidates) -> ValidationResult:
        collector = DecisionCollector(candidates, self.name)
        io = IOStats()
        self._run(collector, io)
        collector.stats.absorb_io(io)
        return collector.result()

    def _run(self, collector, io) -> None:
        involved = set()
        for candidate in collector.candidates:
            if candidate.dependent == candidate.referenced:
                raise ValidatorError(
                    f"trivial candidate {candidate} must not reach the validator"
                )
            involved.add(candidate.dependent)
            involved.add(candidate.referenced)
        order = sorted(involved)
        index = {ref: aid for aid, ref in enumerate(order)}
        states = [
            _AttributeCursor(ref, self._spool.open_cursor(ref, io), self._batch_size)
            for ref in order
        ]
        holders: list[set[int]] = [set() for _ in states]
        for candidate in collector.candidates:
            dep = index[candidate.dependent]
            rid = index[candidate.referenced]
            states[dep].live_refs.add(rid)
            states[rid].ref_usage += 1
            holders[rid].add(dep)

        for aid, state in enumerate(states):
            if state.live_refs and not state.reader.has_more():
                for rid in sorted(state.live_refs):
                    collector.record(
                        Candidate(state.ref, states[rid].ref), True, vacuous=True
                    )
                    states[rid].ref_usage -= 1
                    holders[rid].discard(aid)
                state.live_refs.clear()
        for state in states:
            if not state.is_needed:
                state.close()

        heap: list[tuple[str, int]] = []
        current: list[str] = [""] * len(states)
        for aid, state in enumerate(states):
            if state.closed:
                continue
            if state.reader.has_more():
                first = state.reader.next()
                current[aid] = first
                heapq.heappush(heap, (first, aid))
            else:
                self._refute_all_into(aid, states, holders, collector)
                state.close()

        group: list[int] = []
        while heap:
            value, aid = heapq.heappop(heap)
            group.clear()
            group.append(aid)
            while heap and heap[0][0] == value:
                group.append(heapq.heappop(heap)[1])
            self._process_group(group, states, holders, collector)
            for member in group:
                state = states[member]
                if state.closed or not state.is_needed:
                    state.close()
                    continue
                if self._skip_scan and not state.live_refs and holders[member]:
                    frontier = min(current[dep] for dep in holders[member])
                    if frontier > value:
                        state.reader.flush()
                        state.cursor.skip_blocks_below(frontier)
                if state.reader.has_more():
                    nxt = state.reader.next()
                    current[member] = nxt
                    heapq.heappush(heap, (nxt, member))
                else:
                    self._exhaust(state, member, states, holders, collector)

        undecided = collector.undecided
        if undecided:
            raise ValidatorError(
                "merge single-pass finished with undecided candidates: "
                + ", ".join(str(c) for c in undecided[:5])
            )
        for state in states:
            state.close()

    def _process_group(self, group, states, holders, collector) -> None:
        present = set(group)
        for member in group:
            state = states[member]
            if not state.live_refs:
                continue
            collector.stats.comparisons += len(state.live_refs)
            dropped = state.live_refs - present
            for rid in sorted(dropped):
                state.live_refs.discard(rid)
                holders[rid].discard(member)
                collector.record(Candidate(state.ref, states[rid].ref), False)
                self._release_ref(states[rid])

    def _exhaust(self, state, aid, states, holders, collector) -> None:
        for rid in sorted(state.live_refs):
            collector.record(Candidate(state.ref, states[rid].ref), True)
            holders[rid].discard(aid)
            self._release_ref(states[rid])
        state.live_refs.clear()
        if not state.is_needed:
            state.close()

    @staticmethod
    def _release_ref(ref_state) -> None:
        ref_state.ref_usage -= 1
        if not ref_state.is_needed:
            ref_state.close()

    def _refute_all_into(self, empty_rid, states, holders, collector) -> None:
        empty_state = states[empty_rid]
        for aid, state in enumerate(states):
            if empty_rid in state.live_refs:
                state.live_refs.discard(empty_rid)
                holders[empty_rid].discard(aid)
                collector.record(Candidate(state.ref, empty_state.ref), False)
                empty_state.ref_usage -= 1
                if not state.is_needed:
                    state.close()


# --------------------------------------------------------------- harness


class CapturingSpool:
    """Spool view that keeps the :class:`IOStats` cursors are opened with."""

    def __init__(self, spool: SpoolDirectory) -> None:
        self._spool = spool
        self.io: IOStats | None = None

    def open_cursor(self, ref, stats=None):
        self.io = stats
        return self._spool.open_cursor(ref, stats)


def _run(validator_cls, spool, candidates, **options):
    view = CapturingSpool(spool)
    result = validator_cls(view, **options).validate(candidates)
    return result, view.io


def _counters(stats) -> dict:
    return {
        f.name: getattr(stats, f.name)
        for f in fields(stats)
        if f.name != "elapsed_seconds"
    }


def assert_matches_oracle(spool, candidates, **options) -> ValidationResult:
    got, got_io = _run(MergeSinglePassValidator, spool, candidates, **options)
    want, want_io = _run(OracleMergeValidator, spool, candidates, **options)
    assert list(got.decisions.items()) == list(want.decisions.items()), options
    assert got.vacuous == want.vacuous
    assert got.satisfied == want.satisfied
    assert _counters(got.stats) == _counters(want.stats), options
    assert got_io == want_io, options
    return got


# ---------------------------------------------------------------- inputs

CANDIDATE_MODES = {
    "unique-ref": generate_unique_ref_candidates,
    "all-pairs": generate_all_pairs_candidates,
}
SEEDED = 10


@lru_cache(maxsize=None)
def seeded_db(index: int):
    if index < 6:
        return build_random_db(index)
    if index == 6:
        return build_db(0)
    generator = (generate_biosql, generate_scop, generate_openmms)[index - 7]
    return generator("tiny", seed=index).db


def candidates_for(db, spool, mode: str) -> list[Candidate]:
    raw = CANDIDATE_MODES[mode](collect_column_stats(db))
    return [c for c in raw if c.dependent in spool and c.referenced in spool]


def export(db, root, compression="none", block_size=7):
    spool, _ = export_database(
        db,
        str(root),
        include_empty=True,
        block_size=block_size,
        compression=compression,
    )
    return spool


def hand_built(
    root, columns: dict[str, list[str]], compression="none", block_size=7
):
    spool = SpoolDirectory.create(
        root, block_size=block_size, compression=compression
    )
    for name, values in columns.items():
        spool.add_values(AttributeRef("t", name), sorted(set(values)))
    spool.save_index()
    return spool


def pairs_between(names, referenced=None) -> list[Candidate]:
    refs = [AttributeRef("t", n) for n in names]
    targets = [AttributeRef("t", n) for n in (referenced or names)]
    return [Candidate(d, r) for d in refs for r in targets if d != r]


# ----------------------------------------------------------------- tests


class TestSeededDatabases:
    @pytest.mark.parametrize("index", range(SEEDED))
    def test_every_spool_variant_and_candidate_mode(self, tmp_path, index):
        db = seeded_db(index)
        for compression in SPOOL_COMPRESSIONS:
            spool = export(db, tmp_path / compression, compression)
            for mode in CANDIDATE_MODES:
                candidates = candidates_for(db, spool, mode)
                for skip_scan in (False, True):
                    assert_matches_oracle(
                        spool, candidates, skip_scan=skip_scan, batch_size=5
                    )

    def test_generated_databases_decide_both_ways(self, tmp_path):
        # The generated inputs must reach both verdicts, or the equality
        # above would prove little.
        db = seeded_db(7)
        spool = export(db, tmp_path / "s")
        result = assert_matches_oracle(spool, candidates_for(db, spool, "unique-ref"))
        assert 0 < result.stats.satisfied_count < result.stats.candidates_total


GRID_DBS = (5, 7, 9)


@pytest.fixture(scope="module")
def grid_spools(tmp_path_factory):
    """``{block_size: [(spool, candidates), ...]}`` over ``GRID_DBS``."""
    spools = {}
    for block_size in (1, 7, 1024):
        root = tmp_path_factory.mktemp(f"grid{block_size}")
        spools[block_size] = []
        for index in GRID_DBS:
            db = seeded_db(index)
            spool = export(db, root / str(index), block_size=block_size)
            spools[block_size].append(
                (spool, candidates_for(db, spool, "unique-ref"))
            )
    return spools


class TestBlockAndBatchSizes:
    @pytest.mark.parametrize("skip_scan", [False, True])
    @pytest.mark.parametrize("batch_size", [1, 5, 1024])
    @pytest.mark.parametrize("block_size", [1, 7, 1024])
    def test_grid(self, grid_spools, block_size, batch_size, skip_scan):
        for spool, candidates in grid_spools[block_size]:
            assert_matches_oracle(
                spool, candidates, skip_scan=skip_scan, batch_size=batch_size
            )


def _values(prefix: str, numbers) -> list[str]:
    return [f"{prefix}{n:05d}" for n in numbers]


#: Hand-built spools, one per fast path, as ``(columns, candidates)``.
FAST_PATH_CASES = {
    # Identical columns longer than a batch: same-membership runs of
    # {a, b} (and of {a, b, c} between c's gaps) cross buffer refills.
    "same-membership": (
        {
            "a": _values("v", range(80)),
            "b": _values("v", range(80)),
            "c": _values("v", (n for n in range(80) if n % 13)),
            "d": _values("v", range(0, 80, 2)),
        },
        pairs_between("abcd"),
    ),
    # A reference-only column with long runs below every dependent: no-op
    # singleton runs cross refills, and skip-scans can seek past blocks.
    "no-op-runs": (
        {
            "r": _values("k", range(600)),
            "s": _values("k", range(100, 700, 3)),
            "d1": _values("k", (150, 151, 400, 599)),
            "d2": _values("k", (420, 421, 422, 598)),
            "d3": _values("k", (160, 650)),
        },
        pairs_between(["d1", "d2", "d3"], referenced=["r", "s"]),
    ),
    # Empty dependent and empty reference-only attributes, single-value
    # columns, and values outside the BMP.
    "edges": (
        {
            "empty_dep": [],
            "empty_ref": [],
            "one": ["m"],
            "one_too": ["m"],
            "other": ["z"],
            "wide": ["a", "m", "z", "\U0001f600", "\U00010348x", "é"],
            "astral": ["\U0001f600", "\U00010348x"],
        },
        pairs_between(["empty_dep", "one", "one_too", "other", "astral"])
        + pairs_between(
            ["empty_dep", "one", "one_too", "other", "astral"],
            referenced=["wide", "empty_ref"],
        ),
    ),
}


class TestFastPaths:
    @pytest.mark.parametrize("case", sorted(FAST_PATH_CASES))
    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    def test_hand_built_spool(self, tmp_path, case, compression):
        columns, candidates = FAST_PATH_CASES[case]
        for block_size in (1, 7, 1024):
            spool = hand_built(
                tmp_path / str(block_size), columns, compression, block_size
            )
            for batch_size in (1, 5, 1024):
                for skip_scan in (False, True):
                    assert_matches_oracle(
                        spool,
                        candidates,
                        skip_scan=skip_scan,
                        batch_size=batch_size,
                    )

    def test_same_membership_runs_are_counted(self, tmp_path):
        # a and b share 80 values: each group compares both live references,
        # skipped or not.
        columns = {"a": _values("v", range(80)), "b": _values("v", range(80))}
        spool = hand_built(tmp_path / "s", columns)
        result = assert_matches_oracle(spool, pairs_between("ab"), batch_size=5)
        assert result.stats.comparisons == 2 * 80
        assert result.stats.items_read == 2 * 80
        assert result.stats.satisfied_count == 2

    def test_skip_scan_seeks_past_a_no_op_run(self, tmp_path):
        columns, candidates = FAST_PATH_CASES["no-op-runs"]
        spool = hand_built(tmp_path / "s", columns)
        # Small batches leave r's and s's later blocks undecoded, so the
        # frontier (the lowest live dependent head) can seek past them.
        result = assert_matches_oracle(
            spool, candidates, skip_scan=True, batch_size=5
        )
        assert result.stats.blocks_skipped > 0


def test_zero_batch_size_rejected_at_construction(tmp_path):
    spool = SpoolDirectory.create(tmp_path / "s")
    with pytest.raises(SpoolError, match="batch_size"):
        MergeSinglePassValidator(spool, batch_size=0)
