"""Tests for spool format v2: block files, index versions, parallel export."""

import json
import threading

import pytest

from repro.db.database import Database
from repro.db.schema import AttributeRef, Column, TableSchema
from repro.db.types import DataType
from repro.errors import SpoolError
from repro.storage.blockio import MAGIC, BlockFileWriter
from repro.storage.cursors import BlockValueCursor, IOStats
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory

A = AttributeRef("t", "a")
B = AttributeRef("t", "b")

AWKWARD = sorted(["", "a\nb", "a\\nb", "back\\slash", "nul\x00byte", "z\r"])


def _write(path, values, block_size):
    """A block file of ``values``, one ``write_block`` per block."""
    with BlockFileWriter(path, block_size=block_size) as writer:
        for start in range(0, len(values), block_size):
            writer.write_block(values[start : start + block_size])
    return writer


# --------------------------------------------------------------- block files
class TestBlockFileRoundTrip:
    @pytest.mark.parametrize("block_size", [1, 2, 3, 1000])
    def test_values_survive(self, tmp_path, block_size):
        path = str(tmp_path / "v.valsb")
        values = [f"v{i:03d}" for i in range(17)]
        _write(path, values, block_size)
        cursor = BlockValueCursor(path)
        out = []
        while batch := cursor.read_batch(1):
            out.extend(batch)
        cursor.close()
        assert out == values

    @pytest.mark.parametrize("block_size", [1, 2, 5])
    def test_awkward_values(self, tmp_path, block_size):
        path = str(tmp_path / "v.valsb")
        _write(path, AWKWARD, block_size)
        cursor = BlockValueCursor(path)
        assert cursor.read_batch(100) == AWKWARD
        cursor.close()

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "v.valsb")
        with BlockFileWriter(path) as writer:
            pass
        assert writer.count == 0 and writer.blocks == []
        cursor = BlockValueCursor(path)
        assert cursor.peek_batch(1) == []
        with pytest.raises(SpoolError, match="cannot advance"):
            cursor.advance(1)
        cursor.close()

    def test_block_metadata(self, tmp_path):
        path = str(tmp_path / "v.valsb")
        writer = _write(path, ["a", "b", "c", "d", "e"], 2)
        assert [b.count for b in writer.blocks] == [2, 2, 1]
        assert [(b.min_value, b.max_value) for b in writer.blocks] == [
            ("a", "b"), ("c", "d"), ("e", "e"),
        ]
        assert writer.count == 5
        assert writer.min_value == "a"
        assert writer.max_value == "e"

    def test_batches_straddle_block_boundaries(self, tmp_path):
        path = str(tmp_path / "v.valsb")
        values = [f"{i:02d}" for i in range(20)]
        _write(path, values, 3)
        cursor = BlockValueCursor(path)
        # 7-value batches over 3-value blocks: every read crosses a boundary.
        out = []
        while True:
            batch = cursor.read_batch(7)
            if not batch:
                break
            assert len(batch) == 7 or len(batch) == len(values) - len(out)
            out.extend(batch)
        cursor.close()
        assert out == values

    def test_peek_does_not_consume_across_blocks(self, tmp_path):
        path = str(tmp_path / "v.valsb")
        _write(path, ["a", "b", "c", "d", "e"], 2)
        stats = IOStats()
        cursor = BlockValueCursor(path, stats)
        assert cursor.peek_batch(5) == ["a", "b", "c", "d", "e"]
        assert stats.items_read == 0  # peeking is never charged
        cursor.advance(3)
        assert stats.items_read == 3
        assert cursor.read_batch(10) == ["d", "e"]
        assert stats.items_read == 5
        cursor.close()

    def test_writer_rejects_bad_block_size(self, tmp_path):
        with pytest.raises(SpoolError, match="block_size"):
            BlockFileWriter(str(tmp_path / "v.valsb"), block_size=0)

    def test_write_after_close(self, tmp_path):
        writer = BlockFileWriter(str(tmp_path / "v.valsb"))
        writer.close()
        with pytest.raises(SpoolError, match="after close"):
            writer.write_block(["x"])

    def test_writer_rejects_an_oversized_block(self, tmp_path):
        writer = BlockFileWriter(str(tmp_path / "v.valsb"), block_size=2)
        with pytest.raises(SpoolError, match="2-value block layout"):
            writer.write_block(["a", "b", "c"])
        writer.close()


class TestBlockFileCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.valsb"
        path.write_bytes(b"not a block file")
        with pytest.raises(SpoolError, match="bad magic"):
            BlockValueCursor(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "v.valsb"
        path.write_bytes(MAGIC + b"\x01\x02")
        cursor = BlockValueCursor(str(path))
        with pytest.raises(SpoolError, match="truncated block header"):
            cursor.peek_batch(1)
        cursor.close()

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "v.valsb")
        _write(path, ["aaa", "bbb"], 10)
        data = open(path, "rb").read()
        trimmed = tmp_path / "trimmed.valsb"
        trimmed.write_bytes(data[:-2])
        cursor = BlockValueCursor(str(trimmed))
        with pytest.raises(SpoolError, match="truncated block"):
            cursor.peek_batch(1)
        cursor.close()


# ------------------------------------------------------------ spool directory
class TestBinarySpoolDirectory:
    def test_round_trip_and_reopen(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "s", block_size=2)
        spool.add_values(A, AWKWARD)
        spool.add_values(B, [])
        spool.save_index()
        reopened = SpoolDirectory.open(tmp_path / "s")
        assert reopened.block_size == 2
        assert reopened.get(A).values() == AWKWARD
        assert reopened.get(B).values() == []

    def test_index_carries_version_and_blocks(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "s", block_size=2)
        spool.add_values(A, ["a", "b", "c"])
        spool.save_index()
        doc = json.loads((tmp_path / "s" / "index.json").read_text())
        assert doc["version"] == 2
        assert doc["format"] == "binary"
        assert doc["block_size"] == 2
        (entry,) = doc["attributes"]
        assert entry["file"].endswith(".valsb")
        assert entry["blocks"] == [
            {"count": 2, "min": "a", "max": "b"},
            {"count": 1, "min": "c", "max": "c"},
        ]

    def test_binary_rejects_unsorted(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "s")
        with pytest.raises(SpoolError, match="strictly ascending"):
            spool.add_values(A, ["b", "a"])
        # The failed write never leaks a half-written file or a reservation.
        assert A not in spool
        spool.add_values(A, ["a", "b"])
        assert spool.get(A).values() == ["a", "b"]

    def test_cursor_accounting_counts_logical_reads(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "s", block_size=3)
        spool.add_values(A, [f"{i:02d}" for i in range(10)])
        stats = IOStats()
        cursor = spool.open_cursor(A, stats)
        cursor.read_batch(4)
        cursor.read_batch(1)
        cursor.close()
        assert (
            stats.items_read,
            stats.files_opened,
            stats.reads_per_attribute,
        ) == (5, 1, {"t.a": 5})


class TestIndexVersions:
    """Index documents this build cannot read fail loudly at open.

    The removed v1 text layouts are covered in
    ``tests/test_legacy_inputs.py``.
    """

    @pytest.mark.parametrize(
        "head, named",
        [
            ({"version": 1, "format": "binary"}, "version 1"),
            ({"version": 9, "format": "binary"}, "version 9"),
            ({"version": "2", "format": "binary"}, "version '2'"),
            ({"version": 2, "format": "parquet"}, "parquet"),
        ],
        ids=["v1", "v9", "v2-as-string", "v2-parquet"],
    )
    def test_unreadable_index_names_its_path(self, tmp_path, head, named):
        root = tmp_path / "unreadable"
        root.mkdir()
        (root / "index.json").write_text(json.dumps({**head, "attributes": []}))
        with pytest.raises(SpoolError, match=named) as err:
            SpoolDirectory.open(root)
        assert str(root) in str(err.value)


# ------------------------------------------------------------ parallel export
def _sample_db(columns=8, rows=120) -> Database:
    db = Database("par")
    cols = [Column(f"c{i}", DataType.INTEGER) for i in range(columns)]
    table = db.create_table(TableSchema("t", cols))
    for r in range(rows):
        table.insert({f"c{i}": (r * (i + 1)) % 97 for i in range(columns)})
    return db


class TestParallelExport:
    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_workers_match_sequential(self, tmp_path, compression):
        """workers=1, the one value accepted, is the default export."""
        db = _sample_db()
        seq, seq_stats = export_database(
            db, str(tmp_path / "seq"), compression=compression
        )
        one, one_stats = export_database(
            db, str(tmp_path / "one"), workers=1, compression=compression
        )
        assert seq.attributes() == one.attributes()
        for ref in seq.attributes():
            assert seq.get(ref).values() == one.get(ref).values()
        assert seq_stats == one_stats
        assert json.loads((tmp_path / "seq" / "index.json").read_text()) == (
            json.loads((tmp_path / "one" / "index.json").read_text())
        )

    @pytest.mark.parametrize("workers", (0, 2))
    def test_workers_validation(self, tmp_path, workers):
        """Export runs on one thread; the parallel export is the pool's."""
        with pytest.raises(SpoolError, match="workers.*pooled_export"):
            export_database(
                _sample_db(2, 4), str(tmp_path / "s"), workers=workers
            )
        assert not (tmp_path / "s").exists()

    def test_concurrent_add_values_thread_safety(self, tmp_path):
        """Direct hammering of the registry lock from many threads."""
        spool = SpoolDirectory.create(tmp_path / "s")
        errors = []

        def add(i):
            try:
                spool.add_values(
                    AttributeRef("t", f"c{i}"),
                    [f"{i}-{j:02d}" for j in range(50)],
                )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=add, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(spool) == 16
        names = {spool.get(AttributeRef("t", f"c{i}")).path for i in range(16)}
        assert len(names) == 16  # no file-name collisions under concurrency
