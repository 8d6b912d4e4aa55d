"""Oracle equivalence of the column-at-a-time kernels.

Profiling, export and the sampling pretest each replaced a per-value
Python loop with whole-column operations.  The per-value implementations
they replaced are vendored below as oracles, and every kernel must agree
with its oracle exactly: equal :class:`ColumnStats`, byte-identical value
files and ``index.json``, identical pretest verdicts — on seeded databases
and on hostile columns (NULL-only and empty, NaN/±inf/−0.0 and large
floats, ints next to equal floats, escapes and non-BMP text, single
values, sets over ``max_items_in_memory``), including the errors a bad
column must still raise.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import fields
from pathlib import Path

import pytest

from seeded_dbs import build_db, build_random_db

from repro.core.brute_force import check_inclusion
from repro.core.candidates import Candidate
from repro.core.pruning import SamplingPretest
from repro.datagen.biosql import generate_biosql
from repro.datagen.scop import generate_scop
from repro.db import Column, Database, DataType, TableSchema
from repro.db.schema import AttributeRef
from repro.db.stats import ColumnStats, profile_column
from repro.errors import SpoolError
from repro.storage.codec import (
    COMPRESSION_NONE,
    COMPRESSION_ZLIB,
    encode_block,
    escape_line,
    render_distinct,
    render_distinct_sorted,
    render_value,
)
from repro.storage.cursors import MemoryValueCursor
from repro.storage.exporter import (
    export_database,
    plan_export_units,
    run_export_unit,
)
from repro.storage.external_sort import external_sort
from repro.storage.sorted_sets import (
    SortedValueFile,
    SpoolDirectory,
    write_value_file,
)
from repro.storage.blockio import MAGIC, MAGIC_V3_ZLIB, BlockMeta

# ------------------------------------------------------------------ oracles


def oracle_profile_column(db: Database, ref: AttributeRef) -> ColumnStats:
    """The per-value profiler the column kernel replaced."""
    table = db.table(ref.table)
    column = table.column_def(ref.column)
    values = table.column_values(ref.column)
    null_count = 0
    distinct: set[str] = set()
    min_len = max_len = None
    numeric_min = numeric_max = None
    all_numeric = True
    for value in values:
        if value is None:
            null_count += 1
            continue
        rendered = render_value(value)
        distinct.add(rendered)
        length = len(rendered)
        if min_len is None or length < min_len:
            min_len = length
        if max_len is None or length > max_len:
            max_len = length
        if all_numeric and isinstance(value, (int, float)):
            numeric = float(value)
            if numeric_min is None or numeric < numeric_min:
                numeric_min = numeric
            if numeric_max is None or numeric > numeric_max:
                numeric_max = numeric
        else:
            all_numeric = False
    checksum = 0
    for rendered in distinct:
        checksum ^= zlib.crc32(rendered.encode("utf-8"))
    return ColumnStats(
        ref=ref,
        dtype=column.dtype,
        row_count=len(values),
        null_count=null_count,
        distinct_count=len(distinct),
        min_value=min(distinct) if distinct else None,
        max_value=max(distinct) if distinct else None,
        min_length=min_len,
        max_length=max_len,
        numeric_min=numeric_min if all_numeric else None,
        numeric_max=numeric_max if all_numeric else None,
        value_checksum=checksum,
    )


def oracle_write_value_file(
    ref, path, values, dtype, block_size, compression
) -> SortedValueFile:
    """The per-value writer: one ascent check and one escape per value."""
    blocks: list[BlockMeta] = []
    body = bytearray()
    pending: list[str] = []
    first = last = None
    count = 0

    def flush():
        payload = "\n".join(escape_line(v) for v in pending).encode("utf-8")
        raw = len(payload)
        if compression == COMPRESSION_ZLIB:
            payload = zlib.compress(payload, 6)
            meta = BlockMeta(len(pending), pending[0], pending[-1], raw, len(payload))
        else:
            meta = BlockMeta(len(pending), pending[0], pending[-1])
        body.extend(struct.pack("<II", len(payload), len(pending)))
        body.extend(payload)
        blocks.append(meta)
        pending.clear()

    for value in values:
        if last is not None and value <= last:
            raise SpoolError(
                f"values for {ref} are not strictly ascending: "
                f"{value!r} after {last!r}"
            )
        if first is None:
            first = value
        last = value
        count += 1
        pending.append(value)
        if len(pending) >= block_size:
            flush()
    if pending:
        flush()
    body[:0] = MAGIC_V3_ZLIB if compression == COMPRESSION_ZLIB else MAGIC
    Path(path).write_bytes(bytes(body))
    return SortedValueFile(
        ref=ref,
        path=str(path),
        count=count,
        min_value=first,
        max_value=last,
        dtype=dtype,
        blocks=tuple(blocks),
    )


def oracle_export(db, root, *, block_size, compression, max_items):
    """The per-value export: render each value, external sort, write."""
    spool = SpoolDirectory.create(
        root, block_size=block_size, compression=compression
    )
    for ref in db.attributes():
        dtype = db.table(ref.table).column_def(ref.column).dtype
        if dtype.is_lob:
            continue
        values = list(
            external_sort(
                (render_value(v) for v in db.attribute_values(ref)),
                max_items_in_memory=max_items,
            )
        )
        name = spool.reserve_name(ref)
        svf = oracle_write_value_file(
            ref, spool.root / name, values, dtype.value, block_size, compression
        )
        spool.register(svf)
        if svf.is_empty:
            spool.discard(ref)
    spool.save_index()
    return spool


def oracle_pretest(spool, sample, referenced) -> bool:
    """The streaming pretest: Algorithm 1 of the sample against the file."""
    if not sample:
        return True
    cursor = spool.open_cursor(referenced)
    try:
        return check_inclusion(MemoryValueCursor(sample, label="sample"), cursor)
    finally:
        cursor.close()


# ------------------------------------------------------------- hostile data

FLOATS = [
    float("nan"), 1.0, float("inf"), float("-inf"), -0.0, 0.0, 1e16, 2.5,
    0.1, -3.0, 1e-7, 123456789.125, float(2**53), None, 1.0,
]
INTS = [2**53 + 1, 1, 144, -7, 0, 10**30, None, 144, 9, 10, 100]
STRINGS = [
    "a\nb", "x\r", "back\\slash", "\\", "\n", "\r\n", "", "é", "\U0001F600",
    "\U0001F600z", "zz", "nul\x00byte", "tab\tchar", "plain", None, "plain",
    "\U0010FFFF", "퟿",
]


def hostile_db() -> Database:
    db = Database("hostile")
    columns = [
        Column("floats", DataType.FLOAT),
        Column("nan_late", DataType.FLOAT),
        Column("ints", DataType.INTEGER),
        Column("texts", DataType.VARCHAR),
        Column("nulls", DataType.VARCHAR),
        Column("single", DataType.VARCHAR),
        Column("one_int", DataType.INTEGER),
        Column("wide", DataType.VARCHAR),
        Column("blob", DataType.BLOB),
    ]
    table = db.create_table(TableSchema("h", columns))
    rows = max(len(FLOATS), len(INTS), len(STRINGS), 40)
    for i in range(rows):
        table.insert(
            {
                "floats": FLOATS[i % len(FLOATS)],
                "nan_late": [1.0, float("nan"), -1.0, 5.5][i % 4],
                "ints": INTS[i % len(INTS)],
                "texts": STRINGS[i % len(STRINGS)],
                "nulls": None,
                "single": "only",
                "one_int": 7 if i == 3 else None,
                "wide": f"w{(i * 7919) % 40:03d}\n" if i % 5 else f"w{i}\\",
                "blob": bytes([i % 256, 255]),
            }
        )
    db.create_table(
        TableSchema("empty", [Column("e", DataType.VARCHAR), Column("f", DataType.FLOAT)])
    )
    # Ints next to equal floats — only reachable by bypassing insert's
    # INTEGER → FLOAT widening, which is exactly what a kernel must not
    # assume away.  column_values returns a copy, so the smuggled values go
    # into the private column list.
    mixed = db.create_table(TableSchema("mixed", [Column("m", DataType.FLOAT)]))
    for value in (1.0, 2.5, float(2**53), -0.0):
        mixed.insert({"m": value})
    mixed._columns["m"].extend([1, 2**53 + 1, 0, 3])
    return db


def seeded_dbs():
    return [
        *(build_random_db(seed) for seed in range(6)),
        build_db(0),
        generate_biosql("tiny", seed=1).db,
        generate_scop("tiny", seed=2).db,
        hostile_db(),
    ]


def _exact(stats: ColumnStats) -> tuple:
    """Field tuple under which NaN equals NaN and -0.0 differs from 0.0."""
    return tuple(
        repr(v) if isinstance(v, float) else v
        for v in (getattr(stats, f.name) for f in fields(stats))
    )


def _tree(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


# ----------------------------------------------------------------- profiling
class TestProfileKernel:
    @pytest.mark.parametrize("index", range(10))
    def test_stats_equal_oracle(self, index):
        db = seeded_dbs()[index]
        for ref in db.attributes(include_empty_tables=True):
            assert _exact(profile_column(db, ref)) == _exact(
                oracle_profile_column(db, ref)
            ), ref

    def test_hostile_columns_are_covered(self):
        db = hostile_db()
        stats = {r.column: profile_column(db, r) for r in db.attributes(True)}
        assert stats["nulls"].is_empty and stats["nulls"].min_value is None
        assert stats["e"].row_count == 0 and stats["e"].min_length is None
        assert math.isnan(stats["floats"].numeric_min)  # NaN came first
        assert stats["nan_late"].numeric_min == -1.0
        assert stats["single"].distinct_count == 1
        # 1 and 1.0, 0 and -0.0 render alike; 2**53 + 1 stays distinct.
        assert stats["m"].distinct_count == 6

    def test_render_distinct_matches_render_value(self):
        for values in (
            [v for v in FLOATS if v is not None] + [1, 0, 2**53 + 1],
            [v for v in INTS if v is not None],
            [v for v in STRINGS if v is not None],
            [b"\x00\xff", b"ab"],
            [],
        ):
            assert render_distinct(values) == {render_value(v) for v in values}
            assert render_distinct_sorted(values) == sorted(
                {render_value(v) for v in values}
            )

    @pytest.mark.parametrize("smuggled", [True, object(), ["list"]])
    def test_bad_value_still_raises(self, smuggled):
        db = hostile_db()
        # insert would reject the value, so it is smuggled into the
        # private column list.
        db.table("h")._columns["ints"].append(smuggled)
        ref = AttributeRef("h", "ints")
        with pytest.raises(SpoolError):
            oracle_profile_column(db, ref)
        with pytest.raises(SpoolError):
            profile_column(db, ref)

    def test_bool_in_export_still_raises(self, tmp_path):
        db = hostile_db()
        # insert would reject a bool in a VARCHAR column; smuggle it in.
        db.table("h")._columns["texts"].append(False)
        with pytest.raises(SpoolError, match="boolean"):
            export_database(db, str(tmp_path / "s"))


# -------------------------------------------------------------------- export
VARIANTS = [
    (4, COMPRESSION_NONE),
    (1024, COMPRESSION_NONE),
    (3, COMPRESSION_ZLIB),
]


class TestExportKernel:
    @pytest.mark.parametrize("max_items", [5, 100_000])
    @pytest.mark.parametrize("block_size,compression", VARIANTS)
    def test_spool_bytes_equal_oracle(
        self, tmp_path, block_size, compression, max_items
    ):
        for index, db in enumerate(seeded_dbs()):
            options = dict(block_size=block_size, compression=compression)
            expected = oracle_export(
                db, tmp_path / f"o{index}", max_items=max_items, **options
            )
            export_database(
                db,
                str(tmp_path / f"k{index}"),
                max_items_in_memory=max_items,
                block_size=block_size,
                compression=compression,
            )
            assert _tree(tmp_path / f"k{index}") == _tree(expected.root), db.name

    @pytest.mark.parametrize("block_size,compression", VARIANTS)
    def test_worker_units_equal_oracle(self, tmp_path, block_size, compression):
        db = hostile_db()
        expected = oracle_export(
            db, tmp_path / "o", block_size=block_size,
            compression=compression, max_items=5,
        )
        spool = SpoolDirectory.create(
            tmp_path / "k", block_size=block_size, compression=compression
        )
        for unit in plan_export_units(db, None, spool):
            svf = run_export_unit(
                str(spool.root), unit, block_size,
                max_items_in_memory=5, compression=compression,
            )
            spool.register(svf)
            if svf.is_empty:
                spool.discard(svf.ref)
        spool.save_index()
        assert _tree(tmp_path / "k") == _tree(expected.root)

    def test_encode_block_equals_per_value_escape(self):
        for values in (
            ["plain", "x"], [v for v in STRINGS if v is not None], [""],
            ["", ""], ["a\n"], ["\n"], ["\\"], ["\r"], [],
        ):
            assert encode_block(values) == "\n".join(
                map(escape_line, values)
            ).encode("utf-8")

    @pytest.mark.parametrize(
        "values,bad",
        [
            (["a", "c", "b"], "'b' after 'c'"),
            (["a", "b", "c", "d", "d"], "'d' after 'd'"),  # across a block cut
            (["b", "a"], "'a' after 'b'"),
            ([f"{i:02d}" for i in range(9)] + ["03"], "'03' after '08'"),
        ],
    )
    def test_mis_sorted_input_names_the_attribute(self, tmp_path, values, bad):
        ref = AttributeRef("t", "col")
        path = tmp_path / "v"
        with pytest.raises(SpoolError) as oracle_err:
            oracle_write_value_file(
                ref, path, values, "VARCHAR", 4, COMPRESSION_NONE
            )
        with pytest.raises(SpoolError) as kernel_err:
            write_value_file(ref, path, iter(values), block_size=4)
        assert str(kernel_err.value) == str(oracle_err.value)
        assert "t.col" in str(kernel_err.value) and bad in str(kernel_err.value)
        assert not [p for p in os.listdir(tmp_path) if p.startswith("v.tmp")]


# ------------------------------------------------------------------- pretest
class TestPretestKernel:
    @pytest.mark.parametrize("index", range(10))
    @pytest.mark.parametrize("sample_size,seed", [(1, 0), (3, 7), (50, 1)])
    def test_verdicts_equal_streaming_oracle(
        self, tmp_path, index, sample_size, seed
    ):
        db = seeded_dbs()[index]
        spool, _ = export_database(
            db, str(tmp_path / "s"), block_size=3
        )
        refs = spool.attributes()
        sampler = SamplingPretest(spool, sample_size=sample_size, seed=seed)
        refuted = 0
        for dep in refs:
            for ref in refs:
                if dep == ref:
                    continue
                expected = oracle_pretest(spool, sampler.sample(dep), ref)
                refuted += not expected
                assert sampler.pretest(Candidate(dep, ref)) is expected
        assert sampler.refuted == refuted
