"""Tests for per-column statistics (profiling) and the profile memo."""

import gc
import sys
import threading

import pytest
from seeded_dbs import build_db
from storage.test_column_kernels import _exact, seeded_dbs

from repro.core.candidates import generate_unique_ref_candidates
from repro.core.reference import ReferenceValidator
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.db import stats as stats_module
from repro.db.database import Database
from repro.db.schema import AttributeRef, Column, TableSchema
from repro.db.stats import (
    PROFILE_MEMO,
    ProfileMemo,
    collect_column_stats,
    profile_column,
)
from repro.db.types import DataType


@pytest.fixture()
def db() -> Database:
    database = Database("stats")
    t = database.create_table(
        TableSchema(
            "t",
            [
                Column("i", DataType.INTEGER),
                Column("s", DataType.VARCHAR),
                Column("f", DataType.FLOAT),
                Column("all_null", DataType.VARCHAR),
            ],
        )
    )
    rows = [
        {"i": 9, "s": "bb", "f": 1.5, "all_null": None},
        {"i": 150, "s": "a", "f": 2.0, "all_null": None},
        {"i": 9, "s": None, "f": None, "all_null": None},
        {"i": None, "s": "ccc", "f": 2.0, "all_null": None},
    ]
    for row in rows:
        t.insert(row)
    return database


class TestProfileColumn:
    def test_counts(self, db):
        st = profile_column(db, AttributeRef("t", "i"))
        assert st.row_count == 4
        assert st.null_count == 1
        assert st.non_null_count == 3
        assert st.distinct_count == 2  # {9, 150}

    def test_rendered_minmax_is_lexicographic(self, db):
        st = profile_column(db, AttributeRef("t", "i"))
        # Paper semantics: lexicographic order over rendered values.
        assert st.min_value == "150"
        assert st.max_value == "9"

    def test_numeric_minmax_is_numeric(self, db):
        st = profile_column(db, AttributeRef("t", "i"))
        assert st.numeric_min == 9
        assert st.numeric_max == 150

    def test_numeric_bounds_absent_for_strings(self, db):
        st = profile_column(db, AttributeRef("t", "s"))
        assert st.numeric_min is None
        assert st.numeric_max is None

    def test_float_rendering_drops_integral_fraction(self, db):
        st = profile_column(db, AttributeRef("t", "f"))
        # 2.0 renders as "2" (TO_CHAR semantics).
        assert st.max_value == "2"
        assert st.distinct_count == 2  # {1.5, 2.0}

    def test_lengths(self, db):
        st = profile_column(db, AttributeRef("t", "s"))
        assert st.min_length == 1
        assert st.max_length == 3

    def test_empty_column(self, db):
        st = profile_column(db, AttributeRef("t", "all_null"))
        assert st.is_empty
        assert st.distinct_count == 0
        assert st.min_value is None and st.max_value is None
        assert not st.is_unique  # empty columns are not referenced candidates


class TestUniqueness:
    def test_unique_measured_not_declared(self, db):
        st = profile_column(db, AttributeRef("t", "s"))
        assert st.is_unique  # bb, a, ccc all distinct

    def test_duplicates_not_unique(self, db):
        st = profile_column(db, AttributeRef("t", "i"))
        assert not st.is_unique  # 9 appears twice

    def test_unique_ignores_nulls(self):
        database = Database("u")
        t = database.create_table(
            TableSchema("t", [Column("c", DataType.VARCHAR)])
        )
        t.insert({"c": "a"})
        t.insert({"c": None})
        t.insert({"c": None})
        st = profile_column(database, AttributeRef("t", "c"))
        assert st.is_unique

    def test_to_char_collision_collapses_distinct(self):
        """An INTEGER 1 and VARCHAR '1' in one column cannot happen, but a
        FLOAT column holding 1.0 and 1 collapses to one rendered value."""
        database = Database("c")
        t = database.create_table(TableSchema("t", [Column("f", DataType.FLOAT)]))
        t.insert({"f": 1})
        t.insert({"f": 1.0})
        st = profile_column(database, AttributeRef("t", "f"))
        assert st.distinct_count == 1
        assert not st.is_unique


class TestCollect:
    def test_collect_skips_empty_tables_by_default(self, db):
        db.create_table(TableSchema("empty", [Column("x", DataType.INTEGER)]))
        stats = collect_column_stats(db)
        assert AttributeRef("empty", "x") not in stats
        stats_all = collect_column_stats(db, include_empty_tables=True)
        assert AttributeRef("empty", "x") in stats_all

    def test_collect_covers_all_attributes(self, db):
        stats = collect_column_stats(db)
        assert set(stats) == {
            AttributeRef("t", "i"),
            AttributeRef("t", "s"),
            AttributeRef("t", "f"),
            AttributeRef("t", "all_null"),
        }


def _exact_map(stats) -> list:
    """Stats as an ordered list of exact field tuples (NaN == NaN)."""
    return [(ref, _exact(st)) for ref, st in stats.items()]


def _count_profiles(monkeypatch) -> list:
    """Record the table of every ``profile_column`` call."""
    calls = []
    real = stats_module.profile_column

    def counting(db, ref):
        calls.append(ref.table)
        return real(db, ref)

    monkeypatch.setattr(stats_module, "profile_column", counting)
    return calls


class TestProfileMemo:
    @pytest.mark.parametrize("index", range(10))
    def test_equals_the_stateless_profile_cold_and_on_a_hit(self, index):
        db = seeded_dbs()[index]
        expected = _exact_map(collect_column_stats(db))
        memo = ProfileMemo()
        cold, profiled = memo.collect(db)
        assert _exact_map(cold) == expected
        assert profiled == sum(1 for _ in db.non_empty_tables())
        hit, profiled = memo.collect(db)
        assert _exact_map(hit) == expected
        assert profiled == 0
        assert hit is not cold  # every call gets a fresh dict

    def test_an_insert_reprofiles_only_its_table(self, monkeypatch):
        db = build_db(0)
        memo = ProfileMemo()
        memo.collect(db)
        calls = _count_profiles(monkeypatch)
        db.table("t1").insert({"id": 500, "c0": 7})
        stats, profiled = memo.collect(db)
        assert profiled == 1
        assert set(calls) == {"t1"}
        assert len(calls) == len(db.table("t1").schema.columns)
        monkeypatch.undo()
        assert _exact_map(stats) == _exact_map(collect_column_stats(db))

    def test_a_recreated_table_misses_at_the_same_row_count(self):
        db = build_db(0)
        memo = ProfileMemo()
        before, _ = memo.collect(db)
        old = db.table("t1")
        rows = [{**row, "c0": row["c0"] + 1} for row in old.rows()]
        db.drop_table("t1")
        db.create_table(old.schema).insert_many(rows)
        assert db.table("t1").row_count == old.row_count
        after, profiled = memo.collect(db)
        assert profiled == 1
        ref = AttributeRef("t1", "c0")
        assert after[ref] != before[ref]
        assert _exact_map(after) == _exact_map(collect_column_stats(db))

    def test_stateless_runs_leave_the_memo_untouched(self):
        db = build_db(0)
        before = len(PROFILE_MEMO)
        collect_column_stats(db)
        discover_inds(db, DiscoveryConfig())
        assert not any(table in PROFILE_MEMO for table in db.tables())
        assert len(PROFILE_MEMO) <= before

    def test_an_entry_dies_with_its_database(self):
        memo = ProfileMemo()
        db = build_db(0)
        memo.collect(db)
        assert len(memo) == 2
        del db
        gc.collect()
        assert len(memo) == 0

    def test_concurrent_profiling_agrees(self):
        db = seeded_dbs()[8]  # SCOP: several tables
        expected = _exact_map(collect_column_stats(db))
        memo = ProfileMemo()
        barrier = threading.Barrier(4)
        results = []

        def profile():
            barrier.wait(timeout=10)
            for _ in range(20):
                results.append(_exact_map(memo.collect(db)[0]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=profile) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 80
        assert all(result == expected for result in results)
        assert len(memo) == sum(1 for _ in db.non_empty_tables())


def _reference_pairs(db) -> set:
    """Satisfied unary INDs by set containment over a stateless profile."""
    candidates = generate_unique_ref_candidates(collect_column_stats(db))
    decisions = ReferenceValidator(db).validate(candidates)
    return {(ind.dependent, ind.referenced) for ind in decisions.satisfied}


class TestReuseSessions:
    @pytest.mark.parametrize(
        "options",
        [
            {"reuse_spool": True},
            {"incremental": True},
            {"incremental": True, "reuse_spool": True},
        ],
        ids=["reuse-spool", "incremental", "both"],
    )
    def test_rounds_with_inserts_agree_with_the_reference(
        self, tmp_path, options
    ):
        db = build_db(0)
        config = DiscoveryConfig(cache_dir=str(tmp_path), trace=True, **options)
        edits = [
            None,
            ("t1", {"id": 500, "c0": 7}),
            None,
            ("t0", {"id": 900, "c0": 3}),
            ("t0", {"id": 901, "c0": None, "c1": "new"}),
        ]
        with DiscoverySession(config) as session:
            session.discover(db)
            for edit in edits:
                if edit is not None:
                    table, row = edit
                    db.table(table).insert(row)
                result = session.discover(db)
                pairs = {(i.dependent, i.referenced) for i in result.satisfied}
                assert pairs == _reference_pairs(db)
                (profile,) = [
                    span
                    for span in result.trace["spans"]
                    if span["name"] == "profile"
                ]
                assert profile["attrs"]["tables_profiled"] == (edit is not None)
                if config.reuse_spool:
                    assert result.spool_cache_hit is (edit is None)
