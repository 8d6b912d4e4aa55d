"""Spool file names: sanitised, collision-free, and the same as ever.

:class:`SpoolDirectory` names each value file after its attribute,
replacing characters outside ``[A-Za-z0-9_.-]`` with ``_`` and appending
``__N`` (N = 2, 3, ...) when the sanitised name is taken.  The registry
keeps a count of used names so naming stays O(1) per attribute; these
tests pin that the names themselves — suffixes included — are exactly what
rebuilding the used-name set from scratch for every reservation gives.
"""

from __future__ import annotations

import json
import re

from repro.db import Column, Database, DataType, TableSchema
from repro.db.schema import AttributeRef
from repro.storage.exporter import export_database, plan_export_units
from repro.storage.sorted_sets import SpoolDirectory


def expected_names(refs, extension):
    """Names from scratch: each reservation scans every earlier name."""
    names: dict[AttributeRef, str] = {}
    for ref in refs:
        base = re.sub(r"[^A-Za-z0-9_.-]", "_", f"{ref.table}__{ref.column}")
        candidate = f"{base}{extension}"
        suffix = 1
        while candidate in set(names.values()):
            suffix += 1
            candidate = f"{base}__{suffix}{extension}"
        names[ref] = candidate
    return names


def colliding_db() -> Database:
    """300 attributes whose sanitised names collide in groups of twelve."""
    db = Database("names")
    columns = [f"c{i // 4}{' /?_'[i % 4]}" for i in range(100)]
    for table_name in ("a b", "a_b", "a+b"):
        table = db.create_table(
            TableSchema(table_name, [Column(c, DataType.VARCHAR) for c in columns])
        )
        table.insert(
            {c: (None if i % 17 == 0 else f"v{i}") for i, c in enumerate(columns)}
        )
    return db


def _index_names(root) -> dict[AttributeRef, str]:
    with open(root / "index.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        AttributeRef(e["table"], e["column"]): e["file"] for e in doc["attributes"]
    }


def test_wide_export_keeps_the_suffixed_names(tmp_path):
    db = colliding_db()
    refs = db.attributes()
    assert len(refs) == 300
    expected = expected_names(refs, ".valsb")
    assert any(name.endswith("__12.valsb") for name in expected.values())
    spool, stats = export_database(db, str(tmp_path / "s"))
    # Empty columns are discarded after every name was handed out, so the
    # survivors keep the names a full reservation pass gave them.
    assert stats.skipped_empty == 3 * 6
    written = _index_names(tmp_path / "s")
    assert written == {ref: expected[ref] for ref in written}
    assert sorted(p.name for p in (tmp_path / "s").glob("*.valsb")) == sorted(
        written.values()
    )


def test_export_units_reserve_the_same_names(tmp_path):
    db = colliding_db()
    spool = SpoolDirectory.create(tmp_path / "s")
    units = plan_export_units(db, None, spool)
    expected = expected_names(db.attributes(), ".valsb")
    assert {AttributeRef(u.table, u.column): u.file_name for u in units} == expected


def test_freed_names_are_reused_and_reopened_names_avoided(tmp_path):
    spool = SpoolDirectory.create(tmp_path / "s")
    first, second, third = (AttributeRef("t", c) for c in ("x y", "x/y", "x?y"))
    spool.add_values(first, ["a"])
    assert spool.reserve_name(second) == "t__x_y__2.valsb"
    spool.release(second)
    assert spool.reserve_name(third) == "t__x_y__2.valsb"
    spool.release(third)
    spool.add_values(second, ["b"])
    spool.discard(first)
    assert spool.reserve_name(third) == "t__x_y.valsb"
    spool.release(third)
    spool.save_index()

    reopened = SpoolDirectory.open(tmp_path / "s")
    assert reopened.reserve_name(first) == "t__x_y.valsb"
    assert reopened.reserve_name(third) == "t__x_y__3.valsb"
