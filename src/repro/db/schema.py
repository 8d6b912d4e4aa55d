"""Schema objects: attribute references, columns, constraints, table schemas.

:class:`AttributeRef` is the identity used everywhere in the IND pipeline — an
inclusion dependency is a pair of these.  The remaining classes describe table
shapes the way an (undocumented) source schema would: column types, optional
declared uniqueness, and — for generated gold-standard datasets only — foreign
keys that the discovery benchmarks score against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.db.types import DataType
from repro.errors import SchemaError


@dataclass(frozen=True, order=True)
class AttributeRef:
    """A fully qualified attribute: ``table.column``.

    Frozen and ordered so it can key dictionaries, live in sets, and give the
    deterministic iteration order the single-pass validator relies on.
    """

    table: str
    column: str

    def __hash__(self) -> int:
        # The hot paths from candidate generation to the merge key integer
        # attribute ids (repro.core.candidates.AttributeIds), but refs
        # still key the profile, the spool index and the Candidate-taking
        # validators, where a ref is hashed far more often than it is
        # created — cache the (salted, per-process) hash on first use.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.table, self.column))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> tuple[str, str]:
        # The cached hash is salted per process (PYTHONHASHSEED); letting it
        # cross a pickle boundary would poison every dict and set lookup in a
        # worker with a different salt.  Ship only the identity.
        return (self.table, self.column)

    def __setstate__(self, state: tuple[str, str]) -> None:
        object.__setattr__(self, "table", state[0])
        object.__setattr__(self, "column", state[1])

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}"

    @classmethod
    def parse(cls, qualified: str) -> "AttributeRef":
        """Parse ``"table.column"``; the column part may itself contain dots."""
        table, sep, column = qualified.partition(".")
        if not sep or not table or not column:
            raise SchemaError(f"expected 'table.column', got {qualified!r}")
        return cls(table, column)

    def __str__(self) -> str:
        return self.qualified


#: Sort key equal to :class:`AttributeRef`'s own order, compared in C:
#: ``sorted(refs, key=REF_ORDER) == sorted(refs)`` without a Python-level
#: comparison per step.
REF_ORDER = attrgetter("table", "column")


@dataclass(frozen=True)
class Column:
    """A column definition within a table schema."""

    name: str
    dtype: DataType
    nullable: bool = True
    unique: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")


@dataclass(frozen=True)
class ForeignKey:
    """A unary foreign key: ``table.column`` references ``ref_table.ref_column``.

    The paper discovers *unary* INDs, so the gold standard is unary as well.
    """

    table: str
    column: str
    ref_table: str
    ref_column: str

    @property
    def dependent(self) -> AttributeRef:
        return AttributeRef(self.table, self.column)

    @property
    def referenced(self) -> AttributeRef:
        return AttributeRef(self.ref_table, self.ref_column)

    def __str__(self) -> str:
        return f"{self.table}.{self.column} -> {self.ref_table}.{self.ref_column}"


@dataclass
class TableSchema:
    """Definition of one table: named, typed columns plus light constraints."""

    name: str
    columns: list[Column]
    primary_key: str | None = None
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must declare at least one column")
        seen: set[str] = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(
                    f"table {self.name!r} declares column {col.name!r} twice"
                )
            seen.add(col.name)
        if self.primary_key is not None:
            if self.primary_key not in seen:
                raise SchemaError(
                    f"table {self.name!r}: primary key {self.primary_key!r} "
                    "is not a declared column"
                )
            # A primary key is implicitly unique and non-null; normalise the
            # column definition so downstream code has one source of truth.
            self.columns = [
                Column(c.name, c.dtype, nullable=False, unique=True)
                if c.name == self.primary_key
                else c
                for c in self.columns
            ]
        for fk in self.foreign_keys:
            if fk.table != self.name:
                raise SchemaError(
                    f"table {self.name!r} declares foreign key for table {fk.table!r}"
                )
            if fk.column not in seen:
                raise SchemaError(
                    f"table {self.name!r}: foreign key column {fk.column!r} "
                    "is not a declared column"
                )

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def attribute(self, column: str) -> AttributeRef:
        if not self.has_column(column):
            raise SchemaError(f"table {self.name!r} has no column {column!r}")
        return AttributeRef(self.name, column)

    @property
    def attributes(self) -> list[AttributeRef]:
        return [AttributeRef(self.name, c.name) for c in self.columns]
