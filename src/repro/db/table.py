"""Column-oriented table storage with type and uniqueness enforcement.

Rows are stored as parallel per-column lists — the access pattern of every
consumer in this project (value-set extraction, statistics, query operators)
is columnar, so the storage is too.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from repro.db.schema import Column, TableSchema
from repro.db.types import validate_value
from repro.errors import DataError, SchemaError


class Table:
    """One relational table: a schema plus columnar row storage.

    Insertion validates types against the schema, rejects NULLs in
    ``nullable=False`` columns, and enforces declared uniqueness with SQL
    semantics (multiple NULLs are permitted in a unique column).
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: dict[str, list[Any]] = {c.name: [] for c in schema.columns}
        self._unique_seen: dict[str, set[Any]] = {
            c.name: set() for c in schema.columns if c.unique
        }
        self._row_count = 0

    # ------------------------------------------------------------------ meta
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def is_empty(self) -> bool:
        return self._row_count == 0

    def __len__(self) -> int:
        return self._row_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self._row_count})"

    # --------------------------------------------------------------- inserts
    def insert(self, row: Mapping[str, Any]) -> None:
        """Insert one row given as a column-name → value mapping.

        Missing columns are filled with NULL; unknown keys are an error so
        that generator bugs surface instead of silently dropping data.
        """
        unknown = set(row) - set(self._columns)
        if unknown:
            raise SchemaError(
                f"table {self.name!r} has no column(s) {sorted(unknown)!r}"
            )
        prepared: dict[str, Any] = {}
        for col in self.schema.columns:
            value = validate_value(col.dtype, row.get(col.name))
            if value is None and not col.nullable:
                raise DataError(
                    f"{self.name}.{col.name}: NULL not allowed (nullable=False)"
                )
            prepared[col.name] = value
        self._check_unique(prepared)
        for name, value in prepared.items():
            self._columns[name].append(value)
        self._row_count += 1

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert rows in order; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def _check_unique(self, prepared: Mapping[str, Any]) -> None:
        for name, seen in self._unique_seen.items():
            value = prepared[name]
            if value is None:
                continue  # SQL unique constraints ignore NULLs
            if value in seen:
                raise DataError(
                    f"{self.name}.{name}: duplicate value {value!r} violates "
                    "unique constraint"
                )
        # Only mutate after all unique columns were checked, so a failed
        # insert leaves no partial trace.
        for name, seen in self._unique_seen.items():
            value = prepared[name]
            if value is not None:
                seen.add(value)

    # ----------------------------------------------------------------- reads
    def column_values(self, name: str) -> list[Any]:
        """A copy of a column's values, in row order, including NULLs.

        A copy, so that :meth:`insert` stays the only way to change a
        table: it checks types and uniqueness and bumps :attr:`row_count`,
        which is what the profile memo of :mod:`repro.db.stats` keys on.
        """
        return list(self._column(name))

    def non_null_values(self, name: str) -> list[Any]:
        """All non-NULL values of a column, in row order (the bag ``v(a)``)."""
        return [v for v in self._column(name) if v is not None]

    def distinct_values(self, name: str) -> set[Any]:
        """The set of distinct non-NULL values of a column (``s(a)`` unsorted)."""
        return set(self.non_null_values(name))

    def column_def(self, name: str) -> Column:
        return self.schema.column(name)

    def _column(self, name: str) -> list[Any]:
        if name not in self._columns:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._columns[name]

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate rows as dictionaries (used by CSV export and tests)."""
        names = self.schema.column_names
        for i in range(self._row_count):
            yield {name: self._columns[name][i] for name in names}

    def row(self, index: int) -> dict[str, Any]:
        if not 0 <= index < self._row_count:
            raise IndexError(index)
        return {name: self._columns[name][index] for name in self.schema.column_names}
