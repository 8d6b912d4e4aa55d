"""Incremental vs full discovery on a mutating database.

Not a paper table — the paper's pipeline is one-shot — but the natural
extension its schema-discovery setting implies: the catalog under
observation keeps changing, and re-running the full pipeline per edit
re-validates mostly-unchanged candidate pairs.  The benchmark measures the
delta planner's work avoidance on a synthetic multi-table catalog and
emits ``BENCH_incremental.json``.

Acceptance shape (asserted, not just reported): a single-column edit
re-validates **under 20 %** of the candidate set, with a satisfied set
identical to the fresh full run's, and the partial spool-cache reuse path
re-exports only the changed column.
"""

from __future__ import annotations

import json

from repro._util import Stopwatch
from repro.core.candidates import PretestConfig
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.db import Column, Database, DataType, TableSchema
from repro.obs.metrics import get_registry

TABLES = 6
PAYLOAD_COLUMNS = 3
ROWS = 120


def _catalog() -> Database:
    """A wide catalog with dense cross-table inclusion structure.

    Every table holds a unique ``id`` over overlapping ranges plus payload
    columns drawn from nested value ranges, so the candidate set is large
    and one column's pairs are a small fraction of it.
    """
    db = Database("bench-incremental")
    for t in range(TABLES):
        columns = [Column("id", DataType.INTEGER, unique=True)]
        columns += [
            Column(f"c{i}", DataType.INTEGER)
            for i in range(PAYLOAD_COLUMNS)
        ]
        table = db.create_table(TableSchema(f"t{t}", columns))
        for row in range(ROWS):
            record = {"id": t * 10 + row}
            for i in range(PAYLOAD_COLUMNS):
                record[f"c{i}"] = (row * (i + 3) + t) % (40 + 10 * i)
            table.insert(record)
    return db


def _mutate_one_column(db: Database) -> str:
    """Push one payload column's values out of every other column's range.

    The table is rebuilt, as an edit script would: ``insert`` is the only
    way into a table.
    """
    table = db.table("t2")
    rows = [{**row, "c1": row["c1"] + 1000} for row in table.rows()]
    db.drop_table("t2")
    db.create_table(table.schema).insert_many(rows)
    return "t2.c1"


def _config(**overrides) -> DiscoveryConfig:
    defaults = dict(
        strategy="merge-single-pass",
        pretests=PretestConfig(cardinality=True, max_value=False),
        sampling_size=2,
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


def test_incremental_single_column_edit(tmp_path, report):
    db = _catalog()
    cache_dir = str(tmp_path / "cache")
    with DiscoverySession(
        _config(incremental=True, reuse_spool=True, cache_dir=cache_dir)
    ) as session:
        with Stopwatch() as cold_clock:
            cold = session.discover(db)
        changed = _mutate_one_column(db)
        counters_before = get_registry().snapshot()["counters"]
        with Stopwatch() as delta_clock:
            delta = session.discover(db)
        counters_after = get_registry().snapshot()["counters"]
    with Stopwatch() as full_clock:
        full = discover_inds(db, _config())

    assert delta.delta["mode"] == "delta"
    candidates = full.candidates_after_pretests
    revalidated = delta.delta["candidates_revalidated"]
    fraction = revalidated / candidates
    assert fraction < 0.20, (
        f"single-column edit revalidated {revalidated}/{candidates} "
        f"candidates ({fraction:.1%}) — delta planning is not paying off"
    )
    assert sorted(map(str, delta.satisfied)) == sorted(map(str, full.satisfied))
    files_reused = counters_after.get(
        "spool_cache_files_reused_total", 0
    ) - counters_before.get("spool_cache_files_reused_total", 0)
    assert files_reused >= 1, "partial cache reuse never engaged"
    # Only the changed column (and nothing else) went back through export.
    assert delta.export_values_written <= ROWS

    doc = {
        "database": db.name,
        "tables": TABLES,
        "attributes": cold.attribute_count,
        "candidates": candidates,
        "changed_column": changed,
        "full": {
            "seconds": round(full_clock.elapsed, 6),
            "satisfied_count": full.satisfied_count,
        },
        "cold_incremental": {
            "seconds": round(cold_clock.elapsed, 6),
            "mode": cold.delta["mode"],
        },
        "delta": {
            "seconds": round(delta_clock.elapsed, 6),
            "satisfied_count": delta.satisfied_count,
            "fraction_revalidated": round(fraction, 4),
            "files_reused": files_reused,
            **delta.delta,
        },
    }
    with open("BENCH_incremental.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)

    report(
        "Incremental discovery — single-column edit on "
        f"{TABLES} tables / {cold.attribute_count} attributes\n"
        f"  candidates            {candidates}\n"
        f"  revalidated by delta  {revalidated} ({fraction:.1%})\n"
        f"  decisions reused      {delta.delta['decisions_reused']}\n"
        f"  spool files adopted   {files_reused}\n"
        f"  full run              {full_clock.elapsed:.3f} s\n"
        f"  delta run             {delta_clock.elapsed:.3f} s\n"
        f"  satisfied (both)      {full.satisfied_count}"
    )


def test_incremental_unchanged_round_reuses_everything(tmp_path, report):
    db = _catalog()
    with DiscoverySession(
        _config(
            incremental=True,
            reuse_spool=True,
            cache_dir=str(tmp_path / "cache"),
        )
    ) as session:
        first = session.discover(db)
        with Stopwatch() as clock:
            second = session.discover(db)
    assert second.delta == {
        "mode": "delta",
        "attributes_changed": 0,
        "candidates_revalidated": 0,
        "decisions_reused": first.candidates_after_pretests,
    }
    assert second.spool_cache_hit is True
    assert sorted(map(str, second.satisfied)) == sorted(
        map(str, first.satisfied)
    )
    report(
        "Incremental discovery — unchanged round\n"
        f"  decisions reused      {second.delta['decisions_reused']}\n"
        f"  spool cache           hit\n"
        f"  round time            {clock.elapsed:.3f} s"
    )
