"""Tests for candidate generation and the metadata pretests."""

import pytest

from repro.core.candidates import (
    AttributeIds,
    Candidate,
    PretestConfig,
    apply_pretests,
    generate_all_pairs_candidates,
    generate_unique_ref_candidates,
    pretest_pairs,
)
from repro.db import Column, Database, DataType, TableSchema
from repro.db.schema import AttributeRef
from repro.db.stats import collect_column_stats


@pytest.fixture()
def db() -> Database:
    database = Database("cand")
    t = database.create_table(
        TableSchema(
            "t",
            [
                Column("uniq", DataType.INTEGER),     # unique: 1..10
                Column("dup", DataType.INTEGER),      # duplicates
                Column("text", DataType.VARCHAR),     # unique strings
                Column("big", DataType.CLOB),         # LOB: excluded
                Column("void", DataType.VARCHAR),     # all NULL: excluded
            ],
        )
    )
    for i in range(10):
        t.insert(
            {
                "uniq": i + 1,
                "dup": i % 3,
                "text": f"s{i}",
                "big": "lob-value",
                "void": None,
            }
        )
    return database


@pytest.fixture()
def stats(db):
    return collect_column_stats(db)


T = "t"
UNIQ = AttributeRef(T, "uniq")
DUP = AttributeRef(T, "dup")
TEXT = AttributeRef(T, "text")
BIG = AttributeRef(T, "big")
VOID = AttributeRef(T, "void")


def dependents(stats) -> list[AttributeRef]:
    ids = AttributeIds(stats)
    return [ids.refs[aid] for aid in ids.dependents]


def referenced(stats) -> list[AttributeRef]:
    ids = AttributeIds(stats)
    return [ids.refs[aid] for aid in ids.referenced]


def survives(rule: str, candidate: Candidate, stats) -> bool:
    """Whether ``candidate`` passes the one pretest ``rule``."""
    ids = AttributeIds(stats)
    config = PretestConfig(cardinality=False)
    setattr(config, rule, True)
    kept, _ = pretest_pairs(ids, ids.pairs_of([candidate]), config)
    return bool(kept)


class TestAttributeSets:
    def test_dependents_exclude_lob_and_empty(self, stats):
        deps = dependents(stats)
        assert UNIQ in deps and DUP in deps and TEXT in deps
        assert BIG not in deps
        assert VOID not in deps

    def test_referenced_are_unique_non_lob(self, stats):
        refs = referenced(stats)
        assert refs == [TEXT, UNIQ]

    def test_referenced_subset_of_dependents(self, stats):
        assert set(referenced(stats)) <= set(dependents(stats))


class TestGeneration:
    def test_unique_ref_mode(self, stats):
        candidates = generate_unique_ref_candidates(stats)
        # 3 deps x 2 refs - 2 self pairs = 4
        assert len(candidates) == 4
        assert Candidate(DUP, UNIQ) in candidates
        assert Candidate(UNIQ, UNIQ) not in candidates

    def test_all_pairs_mode_counts(self, stats):
        candidates = generate_all_pairs_candidates(stats)
        # 3 usable attributes -> 3 unordered pairs.
        assert len(candidates) == 3

    def test_all_pairs_directs_small_into_large(self, stats):
        candidates = generate_all_pairs_candidates(stats)
        pair = next(
            c for c in candidates if {c.dependent, c.referenced} == {DUP, UNIQ}
        )
        assert pair.dependent == DUP  # 3 distinct vs 10 distinct

    def test_all_pairs_equal_cardinality_one_direction(self, stats):
        candidates = generate_all_pairs_candidates(stats)
        pair = next(
            c for c in candidates if {c.dependent, c.referenced} == {TEXT, UNIQ}
        )
        # Equal cardinality (10 = 10): lexicographically smaller dep wins.
        assert pair.dependent == TEXT


class TestPretests:
    def test_cardinality(self, stats):
        assert survives("cardinality", Candidate(DUP, UNIQ), stats)
        assert not survives("cardinality", Candidate(UNIQ, DUP), stats)
        assert survives("cardinality", Candidate(UNIQ, TEXT), stats)  # equal

    def test_max_value_rendered_order(self, stats):
        # max(dup)="2", max(uniq)="9" rendered: "2" <= "9" passes.
        assert survives("max_value", Candidate(DUP, UNIQ), stats)
        # max(text)="s9" > max(uniq)="9": fails.
        assert not survives("max_value", Candidate(TEXT, UNIQ), stats)

    def test_min_value(self, stats):
        # min(dup)="0" < min(uniq)="1": dep has a value below every ref value.
        assert not survives("min_value", Candidate(DUP, UNIQ), stats)
        assert survives("min_value", Candidate(UNIQ, DUP), stats)

    def test_datatype(self, stats):
        assert survives("datatype", Candidate(DUP, UNIQ), stats)
        assert not survives("datatype", Candidate(DUP, TEXT), stats)

    def test_pretest_soundness_no_false_pruning(self, db, stats):
        """Candidates pruned by cardinality/max-value are provably unsatisfied."""
        from repro.core.reference import ReferenceValidator

        oracle = ReferenceValidator(db)
        candidates = generate_unique_ref_candidates(stats)
        for candidate in candidates:
            for rule in ("cardinality", "max_value", "min_value"):
                if not survives(rule, candidate, stats):
                    assert not oracle.validate_one(candidate)


class TestApplyPretests:
    def test_report_counts(self, stats):
        candidates = generate_unique_ref_candidates(stats)
        survivors, report = apply_pretests(
            candidates, stats, PretestConfig(cardinality=True, max_value=True)
        )
        assert report.initial == len(candidates)
        assert report.remaining == len(survivors)
        assert (
            report.initial
            - report.removed_by_cardinality
            - report.removed_by_max_value
            == report.remaining
        )
        assert report.removed_total >= 0

    def test_order_of_filters(self, stats):
        # A candidate failing both tests is attributed to cardinality (the
        # paper's phase-1 test comes first).
        candidates = [Candidate(UNIQ, DUP)]
        _, report = apply_pretests(
            candidates, stats, PretestConfig(cardinality=True, max_value=True)
        )
        assert report.removed_by_cardinality == 1
        assert report.removed_by_max_value == 0

    def test_disabled_pretests_pass_everything(self, stats):
        candidates = generate_unique_ref_candidates(stats)
        survivors, report = apply_pretests(
            candidates, stats, PretestConfig(cardinality=False)
        )
        assert survivors == candidates
        assert report.removed_total == 0
