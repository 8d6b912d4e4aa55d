"""Guard rails on the public API surface and error hierarchy."""

import importlib

import pytest

import repro
from repro.errors import (
    BenchmarkError,
    CatalogError,
    CsvFormatError,
    DataError,
    DiscoveryError,
    ReproError,
    SchemaError,
    SpoolError,
    SqlError,
    SqlExecutionError,
    SqlLexError,
    SqlParseError,
    SqlPlanError,
    ValidatorError,
)

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.datagen",
    "repro.db",
    "repro.discovery",
    "repro.parallel",
    "repro.sql",
    "repro.storage",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_top_level_exports_are_usable():
    db = repro.Database("api")
    table = db.create_table(
        repro.TableSchema(
            "t",
            [repro.Column("a", repro.DataType.INTEGER)],
        )
    )
    table.insert({"a": 1})
    result = repro.discover_inds(db, repro.DiscoveryConfig())
    assert result.satisfied_count == 0  # one attribute, no candidates


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            BenchmarkError, CatalogError, CsvFormatError, DataError,
            DiscoveryError, SchemaError, SpoolError, SqlError,
            SqlExecutionError, SqlLexError, SqlParseError, SqlPlanError,
            ValidatorError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    @pytest.mark.parametrize(
        "exc", [SqlLexError, SqlParseError, SqlPlanError, SqlExecutionError]
    )
    def test_sql_errors_share_base(self, exc):
        assert issubclass(exc, SqlError)

    def test_one_catch_all(self):
        with pytest.raises(ReproError):
            repro.Database("")


def test_ind_str_is_stable():
    """The '[=' rendering is part of the public output format (CLI, docs)."""
    ind = repro.IND(
        repro.AttributeRef("child", "pid"), repro.AttributeRef("parent", "id")
    )
    assert str(ind) == "child.pid [= parent.id"
