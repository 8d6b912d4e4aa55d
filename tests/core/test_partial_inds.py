"""Tests for partial IND computation (dirty data)."""

import dataclasses
from functools import partial
from itertools import permutations

import pytest

from seeded_dbs import build_random_db, prefixed_db, value_at_a_time

from repro.core.candidates import Candidate
from repro.core.partial_inds import PartialINDCalculator, count_containment
from repro.core.stats import ValidatorStats
from repro.db.schema import AttributeRef
from repro.errors import ValidatorError
from repro.storage.cursors import IOStats, MemoryValueCursor
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory

A = AttributeRef("t", "a")
B = AttributeRef("t", "b")


def counts(dep: list[str], ref: list[str]) -> tuple[int, int]:
    return count_containment(MemoryValueCursor(dep), MemoryValueCursor(ref))


class TestCountContainment:
    def test_full_containment(self):
        assert counts(["a", "b"], ["a", "b", "c"]) == (2, 2)

    def test_partial(self):
        assert counts(["a", "b", "x"], ["a", "b", "c"]) == (3, 2)

    def test_no_overlap(self):
        assert counts(["x", "y"], ["a", "b"]) == (2, 0)

    def test_empty_dep(self):
        assert counts([], ["a"]) == (0, 0)

    def test_empty_ref(self):
        assert counts(["a"], []) == (1, 0)

    def test_dep_values_beyond_ref(self):
        assert counts(["a", "z"], ["a", "b"]) == (2, 1)

    def test_interleaved(self):
        assert counts(["b", "d", "f"], ["a", "b", "c", "d", "e"]) == (3, 2)


class TestPartialIND:
    @pytest.fixture()
    def spool(self, tmp_path) -> SpoolDirectory:
        s = SpoolDirectory.create(tmp_path / "s")
        # 9 of 10 dep values exist in ref: strength 0.9 (one dirty value).
        s.add_values(A, sorted([f"{i:02d}" for i in range(9)] + ["zz"]))
        s.add_values(B, [f"{i:02d}" for i in range(20)])
        return s

    def test_strength(self, spool):
        partial = PartialINDCalculator(spool).measure(Candidate(A, B))
        assert partial.dependent_count == 10
        assert partial.contained_count == 9
        assert partial.strength == pytest.approx(0.9)
        assert not partial.is_exact

    def test_exact_ind_strength_one(self, tmp_path):
        s = SpoolDirectory.create(tmp_path / "e")
        s.add_values(A, ["a"])
        s.add_values(B, ["a", "b"])
        partial = PartialINDCalculator(s).measure(Candidate(A, B))
        assert partial.strength == 1.0
        assert partial.is_exact

    def test_trivial_rejected(self, spool):
        with pytest.raises(ValidatorError, match="trivial"):
            PartialINDCalculator(spool).measure(Candidate(A, A))

    def test_measure_all_threshold(self, spool):
        calc = PartialINDCalculator(spool)
        kept, stats = calc.measure_all(
            [Candidate(A, B), Candidate(B, A)], threshold=0.8
        )
        assert len(kept) == 1  # A->B at 0.9; B->A at 10/20=0.5
        assert stats.candidates_tested == 2
        assert stats.satisfied_count == 1
        assert stats.refuted_count == 1
        assert stats.items_read > 0

    def test_measure_all_zero_threshold_keeps_everything(self, spool):
        kept, _ = PartialINDCalculator(spool).measure_all(
            [Candidate(A, B), Candidate(B, A)], threshold=0.0
        )
        assert len(kept) == 2

    def test_invalid_threshold(self, spool):
        with pytest.raises(ValidatorError, match="threshold"):
            PartialINDCalculator(spool).measure_all([], threshold=1.5)

    def test_str_rendering(self, spool):
        partial = PartialINDCalculator(spool).measure(Candidate(A, B))
        assert "0.900" in str(partial)

    def test_strength_of_empty_dep_is_one(self, tmp_path):
        s = SpoolDirectory.create(tmp_path / "v")
        s.add_values(A, [])
        s.add_values(B, ["x"])
        partial = PartialINDCalculator(s).measure(Candidate(A, B))
        assert partial.strength == 1.0


# ---------------------------------------------------------- per-value oracle
#: The seeded random databases and the one with prefixed values.
DATABASES = {
    "prefixed": prefixed_db,
    **{f"seed{seed}": partial(build_random_db, seed) for seed in range(6)},
}


def oracle_containment(dep_cursor, ref_cursor) -> tuple[int, int]:
    """The value-at-a-time merge: (dependent values, matched values)."""
    dep_count = matched = 0
    refs = value_at_a_time(ref_cursor)
    ref_value = next(refs, None)
    for dep_value in value_at_a_time(dep_cursor):
        dep_count += 1
        while ref_value is not None and ref_value < dep_value:
            ref_value = next(refs, None)
        if ref_value == dep_value:
            matched += 1
    return dep_count, matched


def oracle_measure_all(spool, candidates, threshold):
    """Strengths of the kept candidates and the counters, value at a time."""
    io = IOStats()
    stats = ValidatorStats(
        validator="partial-ind", candidates_total=len(candidates)
    )
    kept = []
    for candidate in candidates:
        dep = spool.open_cursor(candidate.dependent, io)
        ref = spool.open_cursor(candidate.referenced, io)
        dep_count, matched = oracle_containment(dep, ref)
        dep.close()
        ref.close()
        strength = matched / dep_count if dep_count else 1.0
        stats.candidates_tested += 1
        if strength >= threshold:
            kept.append((candidate, dep_count, matched))
            stats.satisfied_count += 1
        else:
            stats.refuted_count += 1
    stats.absorb_io(io)
    return kept, stats


def counters(stats: ValidatorStats) -> dict:
    """Every counter of ``stats``; wall clock is not one."""
    return {
        key: value
        for key, value in dataclasses.asdict(stats).items()
        if key != "elapsed_seconds"
    }


class TestMeasureAllAgainstPerValueOracle:
    """``measure_all`` reads what a value-at-a-time merge reads.

    Over seeded random databases and one with prefixed values, the
    strengths and every :class:`ValidatorStats` counter — values read per
    attribute, files, and the payload bytes of the blocks decoded — equal
    a per-value oracle's, at block sizes that put block boundaries
    everywhere and with compressed frames.
    """

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    @pytest.mark.parametrize("block_size", [1, 2, 7, 1024])
    @pytest.mark.parametrize("source", sorted(DATABASES))
    def test_measure_all(self, tmp_path, source, block_size, compression):
        db = DATABASES[source]()
        spool, _ = export_database(
            db, str(tmp_path / "s"), block_size=block_size,
            compression=compression,
        )
        candidates = [
            Candidate(dep, ref)
            for dep, ref in permutations(spool.attributes(), 2)
        ]
        for threshold in (0.0, 0.5, 1.0):
            kept, stats = PartialINDCalculator(spool).measure_all(
                candidates, threshold
            )
            want, want_stats = oracle_measure_all(spool, candidates, threshold)
            assert [
                (p.candidate, p.dependent_count, p.contained_count)
                for p in kept
            ] == want
            assert counters(stats) == counters(want_stats)
            assert stats.items_read > 0
