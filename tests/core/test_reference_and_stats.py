"""Tests for the in-memory oracle, the decision collector, and results."""

import pytest

from repro.core.candidates import Candidate
from repro.core.reference import ReferenceValidator
from repro.core.stats import DecisionCollector, ValidatorStats
from repro.db import Column, Database, DataType, TableSchema
from repro.db.schema import AttributeRef
from repro.errors import ValidatorError
from repro.storage.cursors import IOStats


@pytest.fixture()
def db() -> Database:
    database = Database("ref")
    t = database.create_table(
        TableSchema(
            "t",
            [
                Column("small", DataType.INTEGER),
                Column("big", DataType.INTEGER),
                Column("stringly", DataType.VARCHAR),
                Column("void", DataType.VARCHAR),
            ],
        )
    )
    for i in range(6):
        t.insert(
            {
                "small": i % 3,
                "big": i,
                "stringly": str(i),
                "void": None,
            }
        )
    return database


SMALL = AttributeRef("t", "small")
BIG = AttributeRef("t", "big")
STR = AttributeRef("t", "stringly")
VOID = AttributeRef("t", "void")


class TestReferenceValidator:
    def test_containment(self, db):
        validator = ReferenceValidator(db)
        assert validator.validate_one(Candidate(SMALL, BIG))
        assert not validator.validate_one(Candidate(BIG, SMALL))

    def test_to_char_semantics(self, db):
        # INTEGER {0..5} [= VARCHAR {"0".."5"} under rendered comparison.
        validator = ReferenceValidator(db)
        assert validator.validate_one(Candidate(BIG, STR))
        assert validator.validate_one(Candidate(STR, BIG))

    def test_empty_dep_vacuous(self, db):
        result = ReferenceValidator(db).validate([Candidate(VOID, BIG)])
        assert result.is_satisfied(Candidate(VOID, BIG))
        assert result.stats.vacuous_count == 1

    def test_value_sets_cached(self, db):
        validator = ReferenceValidator(db)
        validator.validate_one(Candidate(SMALL, BIG))
        assert validator._value_set(SMALL) is validator._value_set(SMALL)

    def test_trivial_rejected(self, db):
        with pytest.raises(ValidatorError, match="trivial"):
            ReferenceValidator(db).validate([Candidate(BIG, BIG)])


class TestDecisionCollector:
    def test_records_once(self):
        collector = DecisionCollector([Candidate(SMALL, BIG)], "test")
        collector.record(Candidate(SMALL, BIG), True)
        collector.record(Candidate(SMALL, BIG), False)  # ignored
        assert collector.decisions[Candidate(SMALL, BIG)] is True
        assert collector.stats.satisfied_count == 1
        assert collector.stats.refuted_count == 0

    def test_undecided_tracking(self):
        c1, c2 = Candidate(SMALL, BIG), Candidate(BIG, SMALL)
        collector = DecisionCollector([c1, c2], "test")
        assert not collector.all_decided
        collector.record(c1, True)
        assert collector.undecided == [c2]
        assert not collector.all_decided
        collector.record(c1, False)  # a repeat decides nothing new
        assert not collector.all_decided
        collector.record(c2, False)
        assert collector.all_decided
        assert collector.undecided == []

    def test_vacuous_not_counted_as_tested(self):
        collector = DecisionCollector([Candidate(VOID, BIG)], "test")
        collector.record(Candidate(VOID, BIG), True, vacuous=True)
        assert collector.stats.vacuous_count == 1
        assert collector.stats.candidates_tested == 0

    def test_dedupe_preserves_order(self):
        c1, c2 = Candidate(SMALL, BIG), Candidate(BIG, SMALL)
        collector = DecisionCollector([c2, c1, c2], "test")
        assert collector.candidates == [c2, c1]

    def test_result_snapshot(self):
        c = Candidate(SMALL, BIG)
        collector = DecisionCollector([c], "named")
        collector.record(c, True)
        result = collector.result()
        assert result.stats.validator == "named"
        assert result.satisfied_inds == [c.as_ind()]


class TestValidatorStats:
    def test_absorb_io(self):
        stats = ValidatorStats()
        io = IOStats()
        io.record_open()
        io.record_read("x")
        io.record_read("x")
        stats.absorb_io(io)
        assert stats.items_read == 2
        assert stats.files_opened == 1
        assert stats.peak_open_files == 1

    def test_absorb_keeps_peak_maximum(self):
        stats = ValidatorStats(peak_open_files=9)
        io = IOStats()
        io.record_open()
        stats.absorb_io(io)
        assert stats.peak_open_files == 9
