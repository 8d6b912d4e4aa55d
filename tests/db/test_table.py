"""Tests for columnar table storage and constraint enforcement."""

import pytest

from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import DataError, SchemaError


@pytest.fixture()
def table() -> Table:
    return Table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, nullable=False, unique=True),
                Column("name", DataType.VARCHAR),
                Column("score", DataType.FLOAT),
            ],
        )
    )


class TestInsert:
    def test_insert_and_count(self, table):
        table.insert({"id": 1, "name": "a", "score": 0.5})
        assert table.row_count == 1
        assert len(table) == 1
        assert not table.is_empty

    def test_missing_columns_become_null(self, table):
        table.insert({"id": 1})
        assert table.row(0) == {"id": 1, "name": None, "score": None}

    def test_unknown_column_rejected(self, table):
        with pytest.raises(SchemaError, match="no column"):
            table.insert({"id": 1, "bogus": 2})

    def test_type_enforced(self, table):
        with pytest.raises(DataError):
            table.insert({"id": "not-an-int"})

    def test_not_null_enforced(self, table):
        with pytest.raises(DataError, match="NULL not allowed"):
            table.insert({"id": None, "name": "x"})

    def test_unique_enforced(self, table):
        table.insert({"id": 1})
        with pytest.raises(DataError, match="unique"):
            table.insert({"id": 1})

    def test_unique_allows_multiple_nulls(self):
        t = Table(TableSchema("t", [Column("u", DataType.VARCHAR, unique=True)]))
        t.insert({"u": None})
        t.insert({"u": None})
        assert t.row_count == 2

    def test_failed_insert_leaves_no_trace(self, table):
        table.insert({"id": 1, "name": "a"})
        with pytest.raises(DataError):
            table.insert({"id": 1, "name": "b"})
        assert table.row_count == 1
        assert table.column_values("name") == ["a"]

    def test_failed_unique_check_keeps_sets_clean(self):
        # Insert with two unique columns where the *second* one collides:
        # the first column's value must not be remembered.
        t = Table(
            TableSchema(
                "t",
                [
                    Column("u1", DataType.INTEGER, unique=True),
                    Column("u2", DataType.INTEGER, unique=True),
                ],
            )
        )
        t.insert({"u1": 1, "u2": 10})
        with pytest.raises(DataError):
            t.insert({"u1": 2, "u2": 10})
        t.insert({"u1": 2, "u2": 20})  # u1=2 must still be available
        assert t.row_count == 2

    def test_insert_many(self, table):
        count = table.insert_many({"id": i} for i in range(5))
        assert count == 5
        assert table.row_count == 5

    def test_float_column_widens_ints(self, table):
        table.insert({"id": 1, "score": 2})
        assert table.row(0)["score"] == 2.0
        assert isinstance(table.row(0)["score"], float)


class TestReads:
    def test_column_values_include_nulls(self, table):
        table.insert({"id": 1, "name": None})
        table.insert({"id": 2, "name": "x"})
        assert table.column_values("name") == [None, "x"]

    def test_non_null_values(self, table):
        table.insert({"id": 1, "name": None})
        table.insert({"id": 2, "name": "x"})
        table.insert({"id": 3, "name": "x"})
        assert table.non_null_values("name") == ["x", "x"]

    def test_distinct_values(self, table):
        table.insert({"id": 1, "name": "x"})
        table.insert({"id": 2, "name": "x"})
        table.insert({"id": 3, "name": None})
        assert table.distinct_values("name") == {"x"}

    def test_column_values_is_a_copy(self, table):
        """Editing the returned list cannot bypass insert's checks."""
        table.insert({"id": 1, "name": "a"})
        table.column_values("id").append(1)
        table.column_values("name").append(True)
        assert table.row_count == 1
        assert table.column_values("id") == [1]
        assert table.column_values("name") == ["a"]
        assert list(table.rows()) == [{"id": 1, "name": "a", "score": None}]
        assert table.non_null_values("id") == [1]  # still measured unique
        with pytest.raises(DataError, match="unique"):
            table.insert({"id": 1})

    def test_unknown_column_read(self, table):
        with pytest.raises(SchemaError):
            table.column_values("nope")

    def test_rows_iteration_order(self, table):
        table.insert({"id": 2})
        table.insert({"id": 1})
        assert [r["id"] for r in table.rows()] == [2, 1]

    def test_row_index_bounds(self, table):
        table.insert({"id": 1})
        with pytest.raises(IndexError):
            table.row(1)
        with pytest.raises(IndexError):
            table.row(-1)
