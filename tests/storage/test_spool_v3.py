"""Tests for spool format v3: compressed payloads and frame magics."""

import json

import pytest

from repro.db.schema import AttributeRef
from repro.errors import SpoolError
from repro.storage.blockio import (
    BLOCK_HEADER,
    MAGIC,
    MAGIC_V3_ZLIB,
    BlockFileWriter,
    parse_magic,
)
from repro.storage.codec import (
    COMPRESSION_NONE,
    COMPRESSION_ZLIB,
    SPOOL_COMPRESSIONS,
    compress_payload,
    encode_block,
)
from repro.storage.cursors import BlockValueCursor, IOStats
from repro.storage.sorted_sets import SpoolDirectory

A = AttributeRef("t", "a")
B = AttributeRef("t", "b")

AWKWARD = sorted(["", "a\nb", "a\\nb", "back\\slash", "nul\x00byte", "z\r"])


def _write(path, values, block_size=4):
    with BlockFileWriter(
        str(path), block_size=block_size, compression=COMPRESSION_ZLIB
    ) as writer:
        for start in range(0, len(values), block_size):
            writer.write_block(values[start : start + block_size])
    return writer


# ----------------------------------------------------------- compressed files
class TestCompressedRoundTrip:
    @pytest.mark.parametrize("block_size", [1, 2, 3, 1000])
    def test_values_survive(self, tmp_path, block_size):
        path = tmp_path / "v.valsb"
        values = [f"v{i:03d}" for i in range(17)]
        _write(path, values, block_size=block_size)
        cursor = BlockValueCursor(str(path))
        assert cursor.read_batch(100) == values
        cursor.close()

    @pytest.mark.parametrize("block_size", [1, 2, 5])
    def test_awkward_values(self, tmp_path, block_size):
        path = tmp_path / "v.valsb"
        _write(path, AWKWARD, block_size=block_size)
        cursor = BlockValueCursor(str(path))
        assert cursor.read_batch(100) == AWKWARD
        cursor.close()

    def test_empty_file_is_magic_only(self, tmp_path):
        path = tmp_path / "v.valsb"
        writer = _write(path, [])
        assert writer.count == 0 and writer.blocks == []
        assert path.read_bytes() == MAGIC_V3_ZLIB
        cursor = BlockValueCursor(str(path))
        assert cursor.peek_batch(1) == []
        cursor.close()

    def test_writer_records_raw_and_stored_bytes(self, tmp_path):
        path = tmp_path / "v.valsb"
        # Highly repetitive values deflate well, so stored < raw is certain.
        writer = _write(path, ["x" * 50 + f"{i:03d}" for i in range(40)])
        for block in writer.blocks:
            assert block.raw_bytes > 0
            assert block.stored_bytes > 0
        assert writer.raw_payload_bytes == sum(
            b.raw_bytes for b in writer.blocks
        )
        assert writer.stored_payload_bytes == sum(
            b.stored_bytes for b in writer.blocks
        )
        assert writer.stored_payload_bytes < writer.raw_payload_bytes

    def test_bytes_accounting_charges_raw_and_stored(self, tmp_path):
        path = tmp_path / "v.valsb"
        writer = _write(path, ["y" * 30 + f"{i:02d}" for i in range(12)])
        stats = IOStats()
        cursor = BlockValueCursor(str(path), stats)
        cursor.read_batch(100)
        cursor.close()
        assert stats.bytes_read == writer.raw_payload_bytes
        assert stats.bytes_stored == writer.stored_payload_bytes
        assert stats.bytes_stored < stats.bytes_read


class TestMagicSniffing:
    def test_parse_magic_accepts_both_frames(self):
        assert parse_magic(MAGIC, "f") == COMPRESSION_NONE
        assert parse_magic(MAGIC_V3_ZLIB, "f") == COMPRESSION_ZLIB

    def test_unknown_v3_flags_rejected(self):
        unknown = b"RSPL2\x03\x02\n"  # flag bit 1 is unassigned
        with pytest.raises(SpoolError, match="unknown flags 0x02"):
            parse_magic(unknown, "f")

    def test_future_version_rejected(self):
        with pytest.raises(SpoolError, match="bad magic"):
            parse_magic(b"RSPL2\x04\x00\n", "f")


class TestCompressedCorruption:
    """Every corruption raises SpoolError naming the file and the ordinal."""

    def test_bit_flipped_payload_names_file_and_block(self, tmp_path):
        path = tmp_path / "v.valsb"
        _write(path, [f"{i:04d}" for i in range(8)], block_size=4)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # inside the second block's deflate stream
        broken = tmp_path / "broken.valsb"
        broken.write_bytes(bytes(data))
        cursor = BlockValueCursor(str(broken))
        with pytest.raises(SpoolError, match="corrupt compressed block 1") as err:
            cursor.read_batch(100)
        assert "broken.valsb" in str(err.value)
        cursor.close()

    def test_truncated_compressed_payload(self, tmp_path):
        path = tmp_path / "v.valsb"
        _write(path, ["aaa", "bbb"], block_size=10)
        trimmed = tmp_path / "trimmed.valsb"
        trimmed.write_bytes(path.read_bytes()[:-2])
        cursor = BlockValueCursor(str(trimmed))
        with pytest.raises(SpoolError, match="truncated block 0"):
            cursor.peek_batch(1)
        cursor.close()

    def test_count_mismatch_after_inflate(self, tmp_path):
        # Hand-frame a block whose header promises 3 values but whose
        # (valid) deflate stream holds 2: decode must fail with the ordinal.
        payload = compress_payload(encode_block(["a", "b"]))
        path = tmp_path / "v.valsb"
        path.write_bytes(
            MAGIC_V3_ZLIB + BLOCK_HEADER.pack(len(payload), 3) + payload
        )
        cursor = BlockValueCursor(str(path))
        with pytest.raises(SpoolError, match="corrupt block 0"):
            cursor.read_batch(10)
        cursor.close()


# ----------------------------------------------------- compressed directories
class TestCompressedSpoolDirectory:
    def test_round_trip_and_reopen(self, tmp_path):
        spool = SpoolDirectory.create(
            tmp_path / "s", block_size=2, compression=COMPRESSION_ZLIB
        )
        spool.add_values(A, AWKWARD)
        spool.add_values(B, [])  # empty attribute: magic-only file
        spool.save_index()
        reopened = SpoolDirectory.open(tmp_path / "s")
        assert reopened.compression == COMPRESSION_ZLIB
        assert reopened.get(A).values() == AWKWARD
        assert reopened.get(B).values() == []

    def test_skip_blocks_below_seeks_past_compressed_frames(self, tmp_path):
        spool = SpoolDirectory.create(
            tmp_path / "s", block_size=4, compression=COMPRESSION_ZLIB
        )
        spool.add_values(A, [f"{i:04d}" for i in range(20)])
        spool.save_index()
        io = IOStats()
        cursor = spool.open_cursor(A, io)
        assert cursor.skip_blocks_below("0013") == 3
        assert io.blocks_skipped == 3 and io.values_skipped == 12
        assert cursor.read_batch(3) == ["0012", "0013", "0014"]
        cursor.close()

    def test_index_version_3_with_compression_key(self, tmp_path):
        spool = SpoolDirectory.create(
            tmp_path / "s", block_size=2, compression=COMPRESSION_ZLIB
        )
        spool.add_values(A, ["a" * 40, "b" * 40, "c" * 40])
        spool.save_index()
        doc = json.loads((tmp_path / "s" / "index.json").read_text())
        # Version 3 makes pre-v3 builds reject the directory loudly instead
        # of feeding deflate streams to the block decoder.
        assert doc["version"] == 3
        assert doc["compression"] == "zlib"
        (entry,) = doc["attributes"]
        for block in entry["blocks"]:
            assert block["raw"] > 0 and block["stored"] > 0

    def test_uncompressed_index_stays_version_2(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "s", block_size=2)
        spool.add_values(A, ["a", "b"])
        spool.save_index()
        doc = json.loads((tmp_path / "s" / "index.json").read_text())
        assert doc["version"] == 2
        assert "compression" not in doc
        assert "raw" not in doc["attributes"][0]["blocks"][0]

    def test_unknown_index_compression_rejected(self, tmp_path):
        root = tmp_path / "weird"
        root.mkdir()
        (root / "index.json").write_text(
            json.dumps(
                {"version": 3, "format": "binary", "compression": "lz4",
                 "attributes": []}
            )
        )
        with pytest.raises(SpoolError, match="lz4") as err:
            SpoolDirectory.open(root)
        assert str(root) in str(err.value)

    def test_block_size_one(self, tmp_path):
        spool = SpoolDirectory.create(
            tmp_path / "s", block_size=1, compression=COMPRESSION_ZLIB
        )
        values = [f"{i:02d}" for i in range(7)]
        spool.add_values(A, values)
        spool.save_index()
        svf = SpoolDirectory.open(tmp_path / "s").get(A)
        assert len(svf.blocks) == len(values)
        assert svf.values() == values

    def test_compressed_files_smaller_on_redundant_data(self, tmp_path):
        values = ["prefix-" * 8 + f"{i:05d}" for i in range(500)]
        sizes = {}
        for name, compression in (
            ("v2", COMPRESSION_NONE), ("v3", COMPRESSION_ZLIB),
        ):
            spool = SpoolDirectory.create(tmp_path / name, compression=compression)
            spool.add_values(A, values)
            spool.save_index()
            sizes[name] = sum(
                p.stat().st_size for p in (tmp_path / name).glob("*.valsb")
            )
        assert sizes["v3"] < sizes["v2"] // 2


# ------------------------------------------------------------- storage legs
class TestStorageLegs:
    """A reopened directory reads the same bytes on every storage leg.

    Values that need escaping straddle two-value blocks; mixed batched and
    single reads must return them unchanged, with the logical accounting of
    the plain v2 leg.
    """

    @staticmethod
    def _read_back(root):
        spool = SpoolDirectory.open(root)
        io = IOStats()
        cursor = spool.open_cursor(A, io)
        values = cursor.read_batch(3) + cursor.read_batch(1)
        values += cursor.read_batch(100)
        cursor.close()
        return values, io

    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    def test_reopened_directory_reads_awkward_values(
        self, tmp_path, compression
    ):
        for name, leg_compression in (
            ("plain", COMPRESSION_NONE), ("leg", compression),
        ):
            spool = SpoolDirectory.create(
                tmp_path / name, block_size=2, compression=leg_compression
            )
            spool.add_values(A, AWKWARD)
            spool.save_index()
        _, plain_io = self._read_back(tmp_path / "plain")
        values, io = self._read_back(tmp_path / "leg")
        assert values == AWKWARD
        assert io.items_read == plain_io.items_read == len(AWKWARD)
        assert io.bytes_read == plain_io.bytes_read
        assert io.reads_per_attribute == {"t.a": len(AWKWARD)}
