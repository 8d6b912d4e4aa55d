"""Tests for value cursors, batched reads, and I/O accounting."""

import pytest

from repro.errors import SpoolError
from repro.storage.blockio import BlockFileWriter
from repro.storage.cursors import (
    BatchReader,
    BlockValueCursor,
    CountingCursor,
    IOStats,
    MemoryValueCursor,
)


def write_value_file(path, values):
    with BlockFileWriter(str(path), block_size=3) as writer:
        for start in range(0, len(values), 3):
            writer.write_block(values[start : start + 3])
    return str(path)


class TestIOStats:
    def test_open_close_tracking(self):
        stats = IOStats()
        stats.record_open()
        stats.record_open()
        assert stats.files_opened == 2
        assert stats.open_files == 2
        assert stats.peak_open_files == 2
        stats.record_close()
        stats.record_open()
        assert stats.open_files == 2
        assert stats.peak_open_files == 2  # never exceeded two concurrently

    def test_reads_per_attribute(self):
        stats = IOStats()
        stats.record_read_batch("a", 2)
        stats.record_read_batch("b", 1)
        stats.record_read_batch("b", 0)
        assert stats.items_read == 3
        assert stats.reads_per_attribute == {"a": 2, "b": 1}


class TestMemoryValueCursor:
    def test_iteration(self):
        cursor = MemoryValueCursor(["a", "b"])
        assert cursor.read_batch(1) == ["a"]
        assert cursor.read_batch(5) == ["b"]
        assert cursor.read_batch(5) == []

    def test_read_past_end(self):
        cursor = MemoryValueCursor([])
        assert cursor.peek_batch(1) == []
        with pytest.raises(SpoolError, match="cannot advance"):
            cursor.advance(1)

    def test_counts_reads(self):
        stats = IOStats()
        cursor = MemoryValueCursor(["a", "b"], stats, label="m")
        cursor.read_batch(1)
        assert stats.items_read == 1
        cursor.close()
        assert stats.open_files == 0

    def test_use_after_close(self):
        cursor = MemoryValueCursor(["a"])
        cursor.close()
        with pytest.raises(SpoolError, match="after close"):
            cursor.read_batch(1)

    def test_double_close_is_safe(self):
        stats = IOStats()
        cursor = MemoryValueCursor(["a"], stats)
        cursor.close()
        cursor.close()
        assert stats.open_files == 0


class TestBlockValueCursor:
    def test_reads_escaped_values(self, tmp_path):
        path = write_value_file(tmp_path / "v.valsb", ["a\nb", "plain"])
        cursor = BlockValueCursor(path)
        assert cursor.read_batch(1) == ["a\nb"]
        assert cursor.read_batch(1) == ["plain"]
        assert cursor.peek_batch(1) == []
        cursor.close()

    def test_empty_file(self, tmp_path):
        path = write_value_file(tmp_path / "v.valsb", [])
        cursor = BlockValueCursor(path)
        assert cursor.peek_batch(1) == []
        with pytest.raises(SpoolError, match="cannot advance"):
            cursor.advance(1)
        cursor.close()

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpoolError, match="cannot open"):
            BlockValueCursor(str(tmp_path / "missing.valsb"))

    def test_stats_label(self, tmp_path):
        path = write_value_file(tmp_path / "v.valsb", ["x"])
        stats = IOStats()
        cursor = BlockValueCursor(path, stats, label="t.c")
        cursor.read_batch(1)
        cursor.close()
        assert stats.reads_per_attribute == {"t.c": 1}
        assert stats.files_opened == 1
        assert stats.open_files == 0

    def test_use_after_close(self, tmp_path):
        path = write_value_file(tmp_path / "v.valsb", ["x"])
        cursor = BlockValueCursor(path)
        cursor.close()
        with pytest.raises(SpoolError, match="after close"):
            cursor.read_batch(1)


def _all_cursor_kinds(tmp_path, values, stats=None):
    """One cursor of every kind over the same values."""
    path = write_value_file(tmp_path / "batch.valsb", values)
    return [
        MemoryValueCursor(list(values), stats, label="m"),
        BlockValueCursor(path, stats, label="f"),
        CountingCursor(iter(values), stats, label="i"),
    ]


class TestBatchedProtocol:
    def test_read_batch_consumes_and_counts(self, tmp_path):
        values = [f"{i:02d}" for i in range(10)]
        stats = IOStats()
        for cursor in _all_cursor_kinds(tmp_path, values, stats):
            before = stats.items_read
            assert cursor.read_batch(4) == values[:4]
            assert cursor.read_batch(100) == values[4:]
            assert cursor.read_batch(5) == []
            assert stats.items_read - before == 10
            cursor.close()
        assert stats.open_files == 0
        assert stats.files_opened == 3

    def test_peek_is_free_and_stable(self, tmp_path):
        values = ["a", "b", "c"]
        stats = IOStats()
        for cursor in _all_cursor_kinds(tmp_path, values, stats):
            before = stats.items_read
            assert cursor.peek_batch(2) == ["a", "b"]
            assert cursor.peek_batch(2) == ["a", "b"]  # idempotent
            assert stats.items_read == before
            cursor.advance(1)
            assert stats.items_read == before + 1
            assert cursor.peek_batch(2) == ["b", "c"]
            cursor.close()

    def test_advance_beyond_peeked_rejected(self, tmp_path):
        for cursor in _all_cursor_kinds(tmp_path, ["a", "b"]):
            cursor.peek_batch(2)
            with pytest.raises(SpoolError, match="cannot advance"):
                cursor.advance(3)
            cursor.close()

    def test_batched_and_single_reads_interleave(self, tmp_path):
        values = [f"{i}" for i in range(6)]
        for cursor in _all_cursor_kinds(tmp_path, values):
            assert cursor.read_batch(1) == ["0"]
            assert cursor.read_batch(2) == ["1", "2"]
            assert cursor.read_batch(1) == ["3"]
            assert cursor.peek_batch(5) == ["4", "5"]
            assert cursor.read_batch(5) == ["4", "5"]
            assert cursor.peek_batch(1) == []
            cursor.close()

    def test_peek_after_close_rejected(self, tmp_path):
        for cursor in _all_cursor_kinds(tmp_path, ["a"]):
            cursor.close()
            with pytest.raises(SpoolError, match="after close"):
                cursor.peek_batch(1)

    def test_mixed_accounting_equals_per_value(self, tmp_path):
        """Batches of 7 and of 1 must report identical stats."""
        values = [f"{i:03d}" for i in range(25)]
        batched, single = IOStats(), IOStats()
        cursor = MemoryValueCursor(list(values), batched, label="x")
        while cursor.read_batch(7):
            pass
        cursor.close()
        cursor = MemoryValueCursor(list(values), single, label="x")
        while cursor.read_batch(1):
            pass
        cursor.close()
        assert batched.items_read == single.items_read
        assert batched.reads_per_attribute == single.reads_per_attribute
        assert batched.files_opened == single.files_opened


class TestBatchReader:
    def test_iterates_all_values(self):
        stats = IOStats()
        reader = BatchReader(MemoryValueCursor(["a", "b", "c"], stats, "m"),
                             batch_size=2)
        out = []
        while reader.has_more():
            out.append(reader.next())
        assert out == ["a", "b", "c"]
        reader.close()
        assert stats.items_read == 3
        assert stats.open_files == 0

    def test_lazy_commit_flushes_on_close(self):
        stats = IOStats()
        reader = BatchReader(MemoryValueCursor(["a", "b", "c"], stats, "m"),
                             batch_size=10)
        reader.next()
        reader.next()
        # Consumption is committed lazily — but close() must settle it.
        reader.close()
        assert stats.items_read == 2

    def test_flush_keeps_cursor_open(self):
        stats = IOStats()
        cursor = MemoryValueCursor(["a", "b"], stats, "m")
        reader = BatchReader(cursor, batch_size=10)
        reader.next()
        reader.flush()
        assert stats.items_read == 1
        assert cursor.read_batch(1) == ["b"]  # cursor still usable
        cursor.close()

    def test_read_past_end(self):
        reader = BatchReader(MemoryValueCursor([]))
        assert not reader.has_more()
        with pytest.raises(SpoolError, match="past end"):
            reader.next()

    def test_rejects_bad_batch_size(self):
        with pytest.raises(SpoolError, match="batch_size"):
            BatchReader(MemoryValueCursor([]), batch_size=0)


class TestCountingCursor:
    def test_wraps_iterator(self):
        stats = IOStats()
        cursor = CountingCursor(iter(["a", "b"]), stats)
        assert cursor.read_batch(1) + cursor.read_batch(5) == ["a", "b"]
        assert stats.items_read == 2

    def test_empty_iterator(self):
        cursor = CountingCursor(iter([]))
        assert cursor.peek_batch(1) == []
        with pytest.raises(SpoolError, match="cannot advance"):
            cursor.advance(1)
