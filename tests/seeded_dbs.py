"""Seeded database and spool builders shared across the test suite.

These used to be copy-pasted into their consuming test modules; every
suite that wants a deterministic messy database — agreement matrices,
pipeline fault injection, pool lifecycle, overlap stress — imports them
from this one place (``from seeded_dbs import ...`` resolves because
pytest puts ``tests/`` on ``sys.path`` when it loads ``tests/conftest.py``;
a plain module rather than the conftest itself, because ``conftest`` is an
ambiguous module name once the benchmark suite's conftest is loaded too).
"""

from __future__ import annotations

import random

from repro.db import Column, Database, DataType, TableSchema
from repro.db.schema import AttributeRef
from repro.storage.sorted_sets import SpoolDirectory

# Small value pools force collisions across columns (satisfied INDs) while
# awkward strings exercise the codecs; integers collide with their rendered
# string forms (the paper's TO_CHAR semantics).
STRING_POOL = [
    "a", "b", "ab", "0", "1", "7", "42",
    "x\ny", "back\\slash", "nul\x00byte", "tab\tchar", "",
]


def build_random_db(seed: int) -> Database:
    """A deterministic random database of 1-3 tables with messy values.

    Every table gets an id-like first column (unique, drawn from overlapping
    integer ranges so inter-table INDs arise) plus random payload columns, so
    the unique-ref candidate generator always has work to do.
    """
    rng = random.Random(seed)
    db = Database(f"agree{seed}")
    for t in range(rng.randint(1, 3)):
        columns = [Column("id", DataType.INTEGER, unique=True)]
        columns += [
            Column(
                f"c{i}",
                rng.choice([DataType.INTEGER, DataType.VARCHAR]),
            )
            for i in range(rng.randint(1, 3))
        ]
        table = db.create_table(TableSchema(f"t{t}", columns))
        offset = rng.choice([0, 0, 3, 10])
        for row_index in range(rng.randint(1, 30)):
            row = {"id": offset + row_index}
            for col in columns[1:]:
                roll = rng.random()
                if roll < 0.15:
                    row[col.name] = None
                elif col.dtype is DataType.INTEGER:
                    # Overlaps the id ranges: integer payloads are often
                    # included in some table's id column, and vice versa.
                    row[col.name] = rng.randint(0, 12)
                else:
                    row[col.name] = rng.choice(STRING_POOL)
            table.insert(row)
    return db


def build_component_db(seeds: tuple[int, ...] = (5, 9)) -> Database:
    """The seeded databases of ``seeds`` side by side, on disjoint values.

    Cluster ``k`` holds the tables of ``build_random_db(seeds[k])`` as
    ``k{k}_t*``, with every integer shifted by ``-1000 * k`` and every
    string prefixed with ``k{k}|``, so no value of one cluster equals a
    rendered value of another.  The candidate generator still pairs
    attributes across clusters, but the sampling pretest refutes every
    such pair (any sampled dependent value is missing from the other
    cluster).  After sampling, the candidate graph therefore has at least
    one component per cluster.
    With the default two clusters, their rendered value ranges do not
    interleave either (``-`` sorts before every digit), so the min- and
    max-value pretests alone refute every cross-cluster pair of the same
    type and the candidate graph splits before any sampling.
    """
    db = Database("components-" + "-".join(map(str, seeds)))
    for k, seed in enumerate(seeds):
        source = build_random_db(seed)
        for name in source.table_names:
            table = source.table(name)
            columns = table.schema.columns
            target = db.create_table(TableSchema(f"k{k}_{name}", columns))
            for row in table.rows():
                target.insert(
                    {
                        col.name: _shift(row[col.name], col.dtype, k)
                        for col in columns
                    }
                )
    return db


def _shift(value, dtype: DataType, cluster: int):
    """``value`` moved into cluster ``cluster``'s own value domain."""
    if value is None:
        return None
    if dtype is DataType.INTEGER:
        return value - 1000 * cluster
    return f"k{cluster}|{value}"


def build_db(seed: int = 0) -> Database:
    """Two tables with overlapping integer ranges: INDs in both directions."""
    db = Database(f"pipeline{seed}")
    t0 = db.create_table(
        TableSchema(
            "t0",
            [
                Column("id", DataType.INTEGER, unique=True),
                Column("c0", DataType.INTEGER),
                Column("c1", DataType.VARCHAR),
            ],
        )
    )
    t1 = db.create_table(
        TableSchema(
            "t1",
            [
                Column("id", DataType.INTEGER, unique=True),
                Column("c0", DataType.INTEGER),
            ],
        )
    )
    for row in range(20):
        t0.insert({"id": row, "c0": (row * 7 + seed) % 12, "c1": f"v{row % 5}"})
    for row in range(12):
        t1.insert({"id": row + 3, "c0": row % 12})
    return db


def spool_with(tmp_path, sizes: dict[str, int]) -> SpoolDirectory:
    """A spool with one single-table attribute per entry of ``sizes``."""
    spool = SpoolDirectory.create(tmp_path / "spool")
    for name, count in sizes.items():
        ref = AttributeRef("t", name)
        spool.add_values(ref, [f"{name}-{i:06d}" for i in range(count)])
    spool.save_index()
    return spool
