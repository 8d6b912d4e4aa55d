"""repro — a reproduction of Bauckmann, Leser & Naumann (ICDE 2006):
*Efficiently Computing Inclusion Dependencies for Schema Discovery*.

The package discovers all satisfied unary inclusion dependencies (INDs) of a
relational database and applies them to schema discovery: guessing foreign
keys, identifying the primary relation, and linking undocumented sources.

Quickstart::

    from repro import DiscoveryConfig, discover_inds, load_csv_directory

    db = load_csv_directory("path/to/csv/dump")
    result = discover_inds(db, DiscoveryConfig(strategy="merge-single-pass"))
    for ind in result.satisfied:
        print(ind)

Sub-packages:

* :mod:`repro.db` — relational substrate (tables, catalog, CSV I/O, stats);
* :mod:`repro.sql` — SQL engine executing the paper's join/minus/not-in tests;
* :mod:`repro.storage` — sorted value files and external sorting;
* :mod:`repro.core` — candidate generation, pretests, and all validators;
* :mod:`repro.parallel` — the worker pool: sharded brute-force validation,
  pooled export and pretest over a shared read-only spool;
* :mod:`repro.discovery` — foreign keys, accession numbers, primary relations;
* :mod:`repro.datagen` — synthetic UniProt/SCOP/PDB-like datasets;
* :mod:`repro.bench` — the harness regenerating the paper's tables/figures.
"""

from repro.core import (
    IND,
    BlockwiseValidator,
    BruteForceValidator,
    Candidate,
    DiscoveryConfig,
    DiscoveryResult,
    DiscoverySession,
    INDSet,
    MergeSinglePassValidator,
    PartialINDCalculator,
    ReferenceValidator,
    SinglePassValidator,
    SqlJoinValidator,
    SqlMinusValidator,
    SqlNotInValidator,
    discover_inds,
)
from repro.db import (
    AttributeRef,
    Column,
    Database,
    DataType,
    ForeignKey,
    TableSchema,
    load_csv_directory,
    write_csv_directory,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "AttributeRef",
    "BlockwiseValidator",
    "BruteForceValidator",
    "Candidate",
    "Column",
    "DataType",
    "Database",
    "DiscoveryConfig",
    "DiscoveryResult",
    "DiscoverySession",
    "ForeignKey",
    "IND",
    "INDSet",
    "MergeSinglePassValidator",
    "PartialINDCalculator",
    "ReferenceValidator",
    "ReproError",
    "SinglePassValidator",
    "SqlJoinValidator",
    "SqlMinusValidator",
    "SqlNotInValidator",
    "TableSchema",
    "discover_inds",
    "load_csv_directory",
    "write_csv_directory",
    "__version__",
]
