"""Oracle equivalence of the merge-single-pass kernel.

The merge kernel (:mod:`repro.core.merge_single_pass`) replaced a per-value
heap loop — one ``(value, id)`` heap entry per attribute, every value read
through :class:`~repro.storage.cursors.BatchReader` — with a windowed kernel
that decides each batch window's candidates by set containment.  That loop
is vendored below as the oracle.  On every input the kernel must reproduce
it exactly: the decisions and the order they were recorded in, ``vacuous``,
``satisfied``, every :class:`ValidatorStats` field but ``elapsed_seconds``,
and the full :class:`IOStats` including ``reads_per_attribute`` — over
seeded and generated databases in both candidate modes, both spool
compressions, a grid of block and batch sizes with skip-scans on and off,
hand-built spools aimed at runs of equal or matchless values, and hand-built
spools aimed at each edge of a window.
"""

from __future__ import annotations

import heapq
from dataclasses import fields
from functools import lru_cache

import pytest

from seeded_dbs import build_db, build_random_db

from repro.core import merge_single_pass
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


#: Hand-built spools aimed at long runs, as ``(columns, candidates)``.
FAST_PATH_CASES = {
    # Identical columns longer than a batch: groups of the same members
    # ({a, b}, and {a, b, c} between c's gaps) run across buffer refills.
    "same-membership": (
        {
            "a": _values("v", range(80)),
            "b": _values("v", range(80)),
            "c": _values("v", (n for n in range(80) if n % 13)),
            "d": _values("v", range(0, 80, 2)),
        },
        pairs_between("abcd"),
    ),
    # A reference-only column with long runs below every dependent: groups
    # of that column alone run across refills, and skip-scans can seek past
    # blocks.
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
        # a and b share 80 values: each of the 80 groups compares both live
        # references, however many of them one window decides.
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


#: The bitmask threshold of the kernel under test.
DENSE = merge_single_pass.DENSE_REFS

#: Hand-built spools aimed at the edges of a batch window, as
#: ``(columns, candidates)``.  A window ends at the smallest last value of a
#: full batch (``W``); its own group is the only one walked member by member.
WINDOW_EDGE_CASES = {
    # Files that end exactly on a batch boundary at every batch size of the
    # grid: 10 values (batches of 1 and 5) and 1024 (batches of 1 and 1024).
    # The last batch comes back full, so end of file shows only at the
    # refill in W's group.  ref_short lacks each dependent's last value, so
    # that refutation falls on the boundary too.
    "batch-boundary": (
        {
            "dep10": _values("v", range(10)),
            "dep1024": _values("v", range(1024)),
            "ref": _values("v", range(1100)),
            "ref_short": _values("v", (n for n in range(1100) if n not in (9, 1023))),
        },
        pairs_between(["dep10", "dep1024"], referenced=["ref", "ref_short"]),
    ),
    # d's first batch of 5 ends at v00004, the smallest full-batch end, and
    # r lacks exactly that value: the pair is refuted at W itself, before
    # any member of W's group moves; e refutes r there too, after d.  r2
    # lacks d's last value, which ends d's file on a batch boundary.
    "refute-at-bound": (
        {
            "d": _values("v", range(10)),
            "e": _values("v", (0, 2, 4, 6, 8, 9)),
            "r": _values("v", (n for n in range(12) if n != 4)),
            "r2": _values("v", range(9)),
        },
        pairs_between(["d", "e"], referenced=["r", "r2"]),
    ),
    # a_ref is only referenced.  Its first batch and z_near's end at W =
    # v00004, where z_near (the higher id) has not moved yet when a_ref
    # moves, so the frontier is W and a_ref must not seek, although
    # b_far and z_near's next value lie far ahead.
    "skip-holder-at-bound": (
        {
            "a_ref": _values("v", range(100)),
            "b_far": _values("v", range(90, 100)),
            "z_near": _values("v", (0, 1, 2, 3, 4, 95)),
        },
        pairs_between(["b_far", "z_near"], referenced=["a_ref"]),
    ),
    # r is only referenced, and far below its one holder: a skip-scan seeks
    # it towards v00150.  d refutes r at v00151, which r lacks, in the middle
    # of a window that x and y keep open, and r closes with the values the
    # heap loop had handed out, through v00152.
    "close-after-seek": (
        {
            "d": _values("v", (150, 151, 180)),
            "r": _values("v", (n for n in range(200) if n != 151)),
            "x": _values("v", range(0, 200, 3)),
            "y": _values("v", range(200)),
        },
        [Candidate(AttributeRef("t", "d"), AttributeRef("t", "r"))]
        + pairs_between(["x"], referenced=["y"]),
    ),
    # d's last batch is short and ends at v00005, inside a window that x
    # and y keep open, so d's candidate into c holds there.  c is only
    # referenced, by d alone, and sorts before d: the heap loop moves c on
    # to v00006 before d's end of file closes it, so c commits three values.
    "close-at-end-of-file": (
        {
            "c": _values("v", (1, 5, 6, 7)),
            "d": _values("v", (1, 5)),
            "x": _values("v", (0, 2, 3, 8, 9, 10)),
            "y": _values("v", range(11)),
        },
        [Candidate(AttributeRef("t", "d"), AttributeRef("t", "c"))]
        + pairs_between(["x"], referenced=["y"]),
    ),
    # One dependent with DENSE live references (the bitmask fold) and one
    # with DENSE - 1 (set checks) over the same references, which lack
    # values at staggered places or none.
    "bitmask-threshold": (
        {
            "dense": _values("v", range(50)),
            "sparse": _values("v", range(50)),
            **{
                f"r{i:02d}": _values(
                    "v", (n for n in range(50) if i >= DENSE // 2 or n != 3 * i)
                )
                for i in range(DENSE)
            },
        },
        pairs_between(["dense"], referenced=[f"r{i:02d}" for i in range(DENSE)])
        + pairs_between(
            ["sparse"], referenced=[f"r{i:02d}" for i in range(1, DENSE)]
        ),
    ),
}


class TestWindowEdges:
    @pytest.mark.parametrize("case", sorted(WINDOW_EDGE_CASES))
    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    def test_hand_built_spool(self, tmp_path, case, compression):
        columns, candidates = WINDOW_EDGE_CASES[case]
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

    def test_cases_reach_what_they_aim_at(self, tmp_path):
        # Each case must still exercise its edge, or passing it proves
        # little.
        def run(case, **options):
            columns, candidates = WINDOW_EDGE_CASES[case]
            spool = hand_built(tmp_path / case, columns, block_size=1)
            assert_matches_oracle(spool, candidates, **options)
            return _run(MergeSinglePassValidator, spool, candidates, **options)

        boundary, _ = run("batch-boundary", batch_size=5)
        assert boundary.stats.satisfied_count == 2  # both into ref
        assert boundary.stats.refuted_count == 2  # both into ref_short
        at_bound, _ = run("refute-at-bound", batch_size=5)
        assert at_bound.stats.refuted_count == 4
        holder, _ = run("skip-holder-at-bound", skip_scan=True, batch_size=5)
        assert holder.stats.blocks_skipped > 0
        seek, _ = run("close-after-seek", skip_scan=True, batch_size=5)
        assert seek.stats.blocks_skipped > 0
        assert seek.stats.refuted_count == 1
        end, io = run("close-at-end-of-file", batch_size=5)
        assert end.stats.satisfied_count == 2
        assert io.reads_per_attribute == {"t.c": 3, "t.d": 2, "t.x": 6, "t.y": 11}
        dense, _ = run("bitmask-threshold", batch_size=5)
        assert dense.stats.refuted_count == 2 * (DENSE // 2) - 1
        assert dense.stats.satisfied_count == 2 * DENSE - 1 - dense.stats.refuted_count


@pytest.mark.parametrize("index", (0, 5, 7, 9))
def test_bitmask_fold_for_every_dependent(tmp_path, monkeypatch, index):
    # With the threshold at one live reference every dependent folds
    # bitmasks; the heap loop's decisions and counters must not change.
    monkeypatch.setattr(merge_single_pass, "DENSE_REFS", 1)
    db = seeded_db(index)
    spool = export(db, tmp_path / "s")
    for mode in CANDIDATE_MODES:
        candidates = candidates_for(db, spool, mode)
        for batch_size in (1, 5, 1024):
            for skip_scan in (False, True):
                assert_matches_oracle(
                    spool, candidates, skip_scan=skip_scan, batch_size=batch_size
                )


def test_zero_batch_size_rejected_at_construction(tmp_path):
    spool = SpoolDirectory.create(tmp_path / "s")
    with pytest.raises(SpoolError, match="batch_size"):
        MergeSinglePassValidator(spool, batch_size=0)
