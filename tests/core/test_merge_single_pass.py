"""Tests for the heap-merge single-pass validator."""

import pytest

from repro.core.brute_force import BruteForceValidator
from repro.core.candidates import Candidate
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.core.single_pass import SinglePassValidator
from repro.db.schema import AttributeRef
from repro.errors import SpoolError, ValidatorError
from repro.storage.blockio import BLOCK_HEADER
from repro.storage.sorted_sets import SpoolDirectory


def build_spool(tmp_path, columns: dict[str, list[str]]) -> SpoolDirectory:
    spool = SpoolDirectory.create(tmp_path / "spool")
    for name, values in columns.items():
        spool.add_values(AttributeRef("t", name), sorted(set(values)))
    return spool


def candidates_between(names: list[str]) -> list[Candidate]:
    refs = [AttributeRef("t", n) for n in names]
    return [Candidate(d, r) for d in refs for r in refs if d != r]


class TestDecisions:
    def test_small_example(self, tmp_path):
        spool = build_spool(
            tmp_path, {"a": ["1", "2"], "b": ["1", "2", "3"], "c": ["3"]}
        )
        result = MergeSinglePassValidator(spool).validate(
            candidates_between(["a", "b", "c"])
        )
        sat = {str(i) for i in result.satisfied}
        assert sat == {"t.a [= t.b", "t.c [= t.b"}

    def test_agrees_with_observer_and_brute_force(self, tmp_path):
        spool = build_spool(
            tmp_path,
            {
                "p": ["1", "3", "5"],
                "q": ["1", "2", "3", "4", "5"],
                "r": ["2", "4"],
                "s": ["1", "5"],
                "t_": [],
            },
        )
        cands = candidates_between(["p", "q", "r", "s", "t_"])
        merge = MergeSinglePassValidator(spool).validate(cands)
        observer = SinglePassValidator(spool).validate(cands)
        brute = BruteForceValidator(spool).validate(cands)
        assert merge.decisions == observer.decisions == brute.decisions

    def test_trivial_rejected(self, tmp_path):
        spool = build_spool(tmp_path, {"a": ["1"]})
        ref = AttributeRef("t", "a")
        with pytest.raises(ValidatorError, match="trivial"):
            MergeSinglePassValidator(spool).validate([Candidate(ref, ref)])

    def test_empty_dep_vacuous(self, tmp_path):
        spool = build_spool(tmp_path, {"e": [], "f": ["a"]})
        c = Candidate(AttributeRef("t", "e"), AttributeRef("t", "f"))
        result = MergeSinglePassValidator(spool).validate([c])
        assert result.is_satisfied(c)
        assert result.stats.vacuous_count == 1

    def test_empty_ref_refuted(self, tmp_path):
        spool = build_spool(tmp_path, {"e": [], "f": ["a"]})
        c = Candidate(AttributeRef("t", "f"), AttributeRef("t", "e"))
        result = MergeSinglePassValidator(spool).validate([c])
        assert not result.is_satisfied(c)


class TestIO:
    def test_single_cursor_per_attribute(self, tmp_path):
        # The merge variant shares one cursor across both roles, so its peak
        # open files equals the attribute count (observer: 2x).
        columns = {f"c{i}": ["v", "w"] for i in range(4)}
        spool = build_spool(tmp_path, columns)
        cands = candidates_between(sorted(columns))
        result = MergeSinglePassValidator(spool).validate(cands)
        assert result.stats.peak_open_files == 4

    def test_each_value_read_once(self, tmp_path):
        columns = {
            "a": [f"v{i}" for i in range(10)],
            "b": [f"v{i}" for i in range(12)],
            "c": [f"v{i}" for i in range(8)],
        }
        spool = build_spool(tmp_path, columns)
        cands = candidates_between(["a", "b", "c"])
        result = MergeSinglePassValidator(spool).validate(cands)
        assert result.stats.items_read <= spool.total_values()

    def test_dead_cursors_close_early(self, tmp_path):
        # "z_only" shares nothing with the others: all its candidates die at
        # the first merge step, so its cursor must not be drained to the end.
        columns = {
            "a": [f"a{i}" for i in range(5)],
            "b": [f"a{i}" for i in range(5)],
            "z_only": [f"z{i}" for i in range(1000)],
        }
        spool = build_spool(tmp_path, columns)
        cands = candidates_between(["a", "b", "z_only"])
        result = MergeSinglePassValidator(spool).validate(cands)
        assert result.stats.items_read < 200

    def test_no_heap_entry_for_undecided_left(self, tmp_path):
        columns = {"a": ["1"], "b": ["1"]}
        spool = build_spool(tmp_path, columns)
        cands = candidates_between(["a", "b"])
        result = MergeSinglePassValidator(spool).validate(cands)
        assert len(result.decisions) == 2
        assert result.stats.satisfied_count == 2


    @pytest.mark.parametrize("skip_scan", [False, True])
    def test_lost_tail_of_a_reference_raises(self, tmp_path, skip_scan):
        # The kernel reads a short batch as end of file, so a referenced
        # file that lost its last frame must raise rather than refute a
        # valid IND.
        values = [f"v{i}" for i in range(8)]
        spool = SpoolDirectory.create(tmp_path / "spool", block_size=2)
        spool.add_values(AttributeRef("t", "dep"), values)
        spool.add_values(AttributeRef("t", "ref"), values)
        spool.save_index()
        path = spool.get(AttributeRef("t", "ref")).path
        with open(path, "rb") as fh:
            data = fh.read()
        # Each 2-value frame is a header plus "v6\nv7": drop the last one.
        with open(path, "wb") as fh:
            fh.write(data[: len(data) - len(BLOCK_HEADER.pack(5, 2)) - 5])
        spool = SpoolDirectory.open(spool.root)
        cands = [Candidate(AttributeRef("t", "dep"), AttributeRef("t", "ref"))]
        validator = MergeSinglePassValidator(spool, skip_scan=skip_scan, batch_size=2)
        with pytest.raises(SpoolError, match="block 3 of the 4"):
            validator.validate(cands)


class TestStress:
    def test_random_agreement(self, tmp_path):
        import random

        rng = random.Random(99)
        columns = {}
        pool = [f"{v:03d}" for v in range(50)]
        for i in range(10):
            count = rng.randint(0, 25)
            columns[f"c{i}"] = rng.sample(pool, count)
        spool = build_spool(tmp_path, columns)
        cands = candidates_between(sorted(columns))
        merge = MergeSinglePassValidator(spool).validate(cands)
        brute = BruteForceValidator(spool).validate(cands)
        assert merge.decisions == brute.decisions
