"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one base class.  Subsystems raise the more specific
subclasses below; none of them should ever escape as a bare ``ValueError`` or
``KeyError`` from public API entry points.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A schema definition is inconsistent (duplicate columns, bad FK, ...)."""


class CatalogError(ReproError):
    """A database catalog lookup failed (unknown table or column)."""


class DataError(ReproError):
    """A value violates its declared column type or constraint."""


class CsvFormatError(ReproError):
    """A CSV file cannot be parsed into the expected relational shape."""


class SqlError(ReproError):
    """Base class for errors raised by the SQL substrate."""


class SqlLexError(SqlError):
    """The SQL lexer hit an unrecognised character sequence."""


class SqlParseError(SqlError):
    """The SQL parser rejected the statement."""


class SqlPlanError(SqlError):
    """The statement parsed but cannot be turned into an executable plan."""


class SqlExecutionError(SqlError):
    """A physical operator failed at runtime."""


class SpoolError(ReproError):
    """A sorted value file is missing, truncated, or corrupt."""


class FingerprintError(ReproError):
    """Column statistics lack the fields a fingerprint hashes.

    A cold run profiles without the length bounds and the value checksum;
    fingerprinting such statistics would hash a placeholder.
    """


class ValidatorError(ReproError):
    """An IND validator was driven with inconsistent inputs."""


class DiscoveryError(ReproError):
    """A schema-discovery step received inputs it cannot work with."""


class BenchmarkError(ReproError):
    """A benchmark workload could not be constructed."""
