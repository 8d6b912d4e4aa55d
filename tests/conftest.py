"""Shared fixtures for the test suite.

Loading this conftest also puts ``tests/`` on ``sys.path``, which is what
lets test modules at any depth import the shared seeded builders
(``from seeded_dbs import build_db, build_random_db, spool_with``) — see
``tests/seeded_dbs.py``.
"""

from __future__ import annotations

import argparse

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db.stats import collect_column_stats
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory


@pytest.fixture()
def fk_db() -> Database:
    """A small parent/child database with one true FK and planted noise.

    INDs that hold: child.pid [= parent.id (the FK),
    child.pid [= child.cid (40 > 25 ids, 1-based ranges... see values),
    and parent.id [= child.cid.
    """
    db = Database("fk_db")
    parent = db.create_table(
        TableSchema(
            "parent",
            [Column("id", DataType.INTEGER), Column("acc", DataType.VARCHAR)],
            primary_key="id",
        )
    )
    child = db.create_table(
        TableSchema(
            "child",
            [
                Column("cid", DataType.INTEGER),
                Column("pid", DataType.INTEGER),
                Column("note", DataType.VARCHAR),
            ],
            primary_key="cid",
        )
    )
    for i in range(25):
        parent.insert({"id": i + 1, "acc": f"ACC{i + 1:04d}"})
    for i in range(40):
        child.insert(
            {
                "cid": i + 1,
                "pid": (i % 25) + 1,
                "note": ["alpha", "beta", None][i % 3],
            }
        )
    return db


@pytest.fixture()
def fk_spool(fk_db, tmp_path) -> SpoolDirectory:
    spool, _ = export_database(fk_db, str(tmp_path / "spool"))
    return spool


@pytest.fixture()
def fk_stats(fk_db):
    return collect_column_stats(fk_db)


def make_db(tables: dict[str, dict[str, list]]) -> Database:
    """Build a database from {table: {column: [values]}} with inferred types.

    Test helper: all columns nullable, types inferred from the values.
    """
    from repro.db.types import infer_type

    db = Database("adhoc")
    for table_name, columns in tables.items():
        schema = TableSchema(
            table_name,
            [Column(name, infer_type(values)) for name, values in columns.items()],
        )
        table = db.create_table(schema)
        lengths = {len(v) for v in columns.values()}
        assert len(lengths) == 1, "all columns must have equal row counts"
        n = lengths.pop()
        names = list(columns)
        for i in range(n):
            table.insert({name: columns[name][i] for name in names})
    return db


@pytest.fixture()
def adhoc_db_factory():
    return make_db


@pytest.fixture(scope="session")
def cli_parsers() -> list[argparse.ArgumentParser]:
    """The ``repro-ind`` root parser and every subparser under it."""
    from repro.cli import build_parser

    def walk(parser):
        yield parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from walk(sub)

    return list(walk(build_parser()))
