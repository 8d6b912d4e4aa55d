"""Tests for database → spool extraction."""

import pytest

from repro.db.database import Database
from repro.db.schema import AttributeRef, Column, TableSchema
from repro.db.types import DataType
from repro.sql.engine import SqlEngine
from repro.storage.exporter import export_database


@pytest.fixture()
def db() -> Database:
    database = Database("exp")
    t = database.create_table(
        TableSchema(
            "t",
            [
                Column("num", DataType.INTEGER),
                Column("txt", DataType.VARCHAR),
                Column("blob", DataType.BLOB),
                Column("clob", DataType.CLOB),
                Column("empty", DataType.VARCHAR),
            ],
        )
    )
    t.insert({"num": 10, "txt": "b", "blob": b"x", "clob": "long"})
    t.insert({"num": 9, "txt": "a", "blob": None, "clob": None})
    t.insert({"num": 10, "txt": None, "blob": None, "clob": None})
    return database


class TestExport:
    def test_sorted_distinct_rendered(self, db, tmp_path):
        spool, stats = export_database(db, str(tmp_path / "s"))
        num = spool.get(AttributeRef("t", "num"))
        # Lexicographic order over rendered values: "10" < "9".
        assert num.values() == ["10", "9"]
        assert stats.values_scanned >= 5
        assert stats.values_written == 4  # num:2 txt:2

    def test_lob_columns_skipped(self, db, tmp_path):
        spool, _ = export_database(db, str(tmp_path / "s"))
        assert AttributeRef("t", "blob") not in spool
        assert AttributeRef("t", "clob") not in spool

    def test_empty_attributes_dropped(self, db, tmp_path):
        spool, stats = export_database(db, str(tmp_path / "s"))
        assert AttributeRef("t", "empty") not in spool
        assert stats.skipped_empty == 1

    def test_empty_attributes_kept_on_request(self, db, tmp_path):
        spool, _ = export_database(db, str(tmp_path / "s"), include_empty=True)
        assert AttributeRef("t", "empty") in spool
        assert spool.get(AttributeRef("t", "empty")).is_empty

    def test_attribute_subset(self, db, tmp_path):
        ref = AttributeRef("t", "txt")
        spool, stats = export_database(db, str(tmp_path / "s"), attributes=[ref])
        assert spool.attributes() == [ref]
        assert stats.attributes_exported == 1

    def test_index_is_persisted(self, db, tmp_path):
        from repro.storage.sorted_sets import SpoolDirectory

        export_database(db, str(tmp_path / "s"))
        reopened = SpoolDirectory.open(tmp_path / "s")
        assert AttributeRef("t", "num") in reopened

    def test_export_into_leaves_the_index_to_its_caller(self, db, tmp_path):
        from repro.storage.exporter import export_into
        from repro.storage.sorted_sets import SpoolDirectory

        spool = SpoolDirectory.create(tmp_path / "s")
        stats = export_into(db, spool)
        assert stats.attributes_exported == 2
        assert not (tmp_path / "s" / "index.json").exists()
        spool.save_index()
        assert SpoolDirectory.open(tmp_path / "s").attributes() == (
            spool.attributes()
        )

    def test_external_sort_path_same_output(self, db, tmp_path):
        small, _ = export_database(
            db, str(tmp_path / "small"), max_items_in_memory=1
        )
        large, _ = export_database(db, str(tmp_path / "large"))
        for ref in large.attributes():
            assert small.get(ref).values() == large.get(ref).values()


class TestSqlEnginePath:
    def test_sql_extraction_matches_direct(self, db, tmp_path):
        """The paper's extraction statement yields each spooled value list."""
        direct, _ = export_database(db, str(tmp_path / "direct"))
        engine = SqlEngine(db)
        for ref in direct.attributes():
            result = engine.execute(
                f"SELECT DISTINCT TO_CHAR({ref.column}) FROM {ref.table} "
                f"WHERE {ref.column} IS NOT NULL ORDER BY 1"
            )
            assert direct.get(ref).values() == [row[0] for row in result.rows]

    def test_per_attribute_counts(self, db, tmp_path):
        _, stats = export_database(db, str(tmp_path / "s"))
        assert stats.per_attribute_counts["t.num"] == 2
        assert stats.per_attribute_counts["t.txt"] == 2
