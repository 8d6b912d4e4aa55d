"""The block cursor against a plain-list oracle on every frame layout.

Every spool read, in process and in pool workers, goes through
:class:`~repro.storage.cursors.BlockValueCursor`: one buffered file handle
that reads a frame header, then its payload, and seeks over the payloads of
frames it skips.  These tests write the same sorted values at each layout
the writer produces — both compressions, block sizes from one value per
frame to the default where a small set is one frame, and value counts that
end on a frame boundary or one value past it — reopen the spool from its
``index.json`` as a worker does, and check scans, skip-scans and
truncation errors against the frames a plain list predicts.

The values carry every character the block codec escapes or must pass
through unchanged (newline, backslash, carriage return, NUL, multi-byte
UTF-8), so each frame's payload exercises the codec as well as the framing.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.db.schema import AttributeRef
from repro.errors import SpoolError
from repro.storage.blockio import BLOCK_HEADER, DEFAULT_BLOCK_SIZE
from repro.storage.codec import (
    COMPRESSION_ZLIB,
    SPOOL_COMPRESSIONS,
    compress_payload,
    encode_block,
)
from repro.storage.cursors import IOStats
from repro.storage.sorted_sets import SpoolDirectory

REF = AttributeRef("t", "a")

#: One value per frame, the smallest multi-value frame, an odd size that
#: reads of 7 straddle, and the default block size.
BLOCK_SIZES = (1, 2, 5, DEFAULT_BLOCK_SIZE)

#: Value counts as a function of the block size: a lone value, three whole
#: frames, and three whole frames plus a one-value tail frame.
SHAPES = {
    "one-value": lambda block_size: 1,
    "whole-frames": lambda block_size: 3 * block_size,
    "ragged-tail": lambda block_size: 3 * block_size + 1,
}

_SUFFIXES = ("", "\n", "\\", "\\n", "\x00", "\r", "é", "\U0001d11e", " ")

#: Sorts after every value ``_values`` produces.
_ABOVE_ALL = "\U0010ffff"

layouts = pytest.mark.parametrize(
    "compression, block_size, shape",
    [
        (compression, block_size, shape)
        for compression in SPOOL_COMPRESSIONS
        for block_size in BLOCK_SIZES
        for shape in SHAPES
    ],
    ids=lambda param: f"b{param}" if isinstance(param, int) else param,
)


def _values(count: int) -> list[str]:
    """``count`` strictly ascending values; the fixed-width prefix orders them."""
    return [f"{i:05d}{_SUFFIXES[i % len(_SUFFIXES)]}" for i in range(count)]


def _frames(values: list[str], block_size: int) -> list[list[str]]:
    return [
        values[start : start + block_size]
        for start in range(0, len(values), block_size)
    ]


def _stored(frame: list[str], compression: str) -> bytes:
    payload = encode_block(frame)
    if compression == COMPRESSION_ZLIB:
        return compress_payload(payload)
    return payload


def _spool(tmp_path, compression, block_size, count):
    """Write ``_values(count)`` and reopen the spool from its index."""
    spool = SpoolDirectory.create(
        tmp_path / "spool", block_size=block_size, compression=compression
    )
    values = _values(count)
    spool.add_values(REF, values)
    spool.save_index()
    return SpoolDirectory.open(spool.root), values


def _read_rest(cursor) -> list[str]:
    out: list[str] = []
    while batch := cursor.read_batch(7):
        out.extend(batch)
    return out


def _flat(frames: list[list[str]]) -> list[str]:
    return [value for frame in frames for value in frame]


class TestScan:
    @layouts
    def test_scan_returns_every_value_once(
        self, tmp_path, compression, block_size, shape
    ):
        spool, values = _spool(
            tmp_path, compression, block_size, SHAPES[shape](block_size)
        )
        frames = _frames(values, block_size)
        assert [
            (meta.count, meta.min_value, meta.max_value)
            for meta in spool.get(REF).blocks
        ] == [(len(frame), frame[0], frame[-1]) for frame in frames]
        io = IOStats()
        cursor = spool.open_cursor(REF, io)
        got = cursor.read_batch(1) + _read_rest(cursor)
        assert got == values
        assert cursor.peek_batch(1) == []
        with pytest.raises(SpoolError, match="cannot advance"):
            cursor.advance(1)
        cursor.close()
        assert io.items_read == len(values)
        assert io.reads_per_attribute == {"t.a": len(values)}
        assert io.bytes_read == sum(len(encode_block(f)) for f in frames)
        assert io.bytes_stored == sum(
            len(_stored(frame, compression)) for frame in frames
        )
        assert io.blocks_skipped == io.values_skipped == 0
        assert io.open_files == 0


class TestSkipScan:
    @layouts
    def test_skip_lands_on_the_first_frame_reaching_the_target(
        self, tmp_path, compression, block_size, shape
    ):
        """A fresh cursor skips exactly the leading frames whose max is lower.

        Targets: below every value, each frame's min and max, a value
        between one frame's max and the next frame's min, and above every
        value.  Skipped frames are neither read nor decoded.
        """
        spool, values = _spool(
            tmp_path, compression, block_size, SHAPES[shape](block_size)
        )
        frames = _frames(values, block_size)
        targets = [""] + [
            target
            for frame in frames
            for target in (frame[0], frame[-1], frame[-1] + _ABOVE_ALL)
        ] + [_ABOVE_ALL]
        for target in targets:
            skipped = sum(1 for frame in frames if frame[-1] < target)
            kept = frames[skipped:]
            io = IOStats()
            cursor = spool.open_cursor(REF, io)
            assert cursor.skip_blocks_below(target) == skipped, target
            assert io.blocks_skipped == skipped
            assert io.values_skipped == len(values) - len(_flat(kept))
            assert io.items_read == 0
            assert _read_rest(cursor) == _flat(kept), target
            cursor.close()
            assert io.items_read == len(_flat(kept))
            assert io.bytes_read == sum(len(encode_block(f)) for f in kept)

    @layouts
    def test_skip_keeps_the_frame_already_buffered(
        self, tmp_path, compression, block_size, shape
    ):
        """A skip after a read seeks only over frames still on disk."""
        spool, values = _spool(
            tmp_path, compression, block_size, SHAPES[shape](block_size)
        )
        frames = _frames(values, block_size)
        io = IOStats()
        cursor = spool.open_cursor(REF, io)
        assert cursor.read_batch(1) == [values[0]]  # decodes frame 0
        middle = frames[1:-1]
        assert cursor.skip_blocks_below(frames[-1][0]) == len(middle)
        expected = frames[0][1:] + (frames[-1] if len(frames) > 1 else [])
        assert _read_rest(cursor) == expected
        cursor.close()
        assert io.blocks_skipped == len(middle)
        assert io.values_skipped == len(_flat(middle))
        assert io.items_read == 1 + len(expected)

    @layouts
    def test_sparse_probes_read_or_skip_each_value_once(
        self, tmp_path, compression, block_size, shape
    ):
        """The frontier pattern: skip to a probe, peek, advance below it.

        Probing every third value, each probe must be found where the list
        puts it, and at the end every value was either read or skipped,
        never both and never neither.
        """
        spool, values = _spool(
            tmp_path, compression, block_size, SHAPES[shape](block_size)
        )
        io = IOStats()
        cursor = spool.open_cursor(REF, io)
        for probe in values[::3]:
            cursor.skip_blocks_below(probe)
            while True:
                batch = cursor.peek_batch(4)
                below = sum(1 for value in batch if value < probe)
                cursor.advance(below)
                if not batch or below < len(batch):
                    break
            assert cursor.read_batch(1) == [probe]
        rest = _read_rest(cursor)
        cursor.close()
        assert rest == values[len(values) - len(rest) :]
        assert io.items_read + io.values_skipped == len(values)


class TestTruncation:
    """A value file cut at or inside its last frame fails loudly, naming it.

    Every layout writes four frames (three whole ones and a one-value
    tail); the cut falls inside the tail frame's header or its payload, or
    just before the tail frame.  That last cut leaves a file that ends on a
    clean frame boundary: only the index's block list tells that the tail
    is gone, and a reader that took it for the end of the set could refute
    a valid IND.
    """

    @staticmethod
    def _truncated(tmp_path, compression, block_size, cut):
        spool, values = _spool(
            tmp_path, compression, block_size, 3 * block_size + 1
        )
        frames = _frames(values, block_size)
        path = spool.get(REF).path
        tail_start = (
            os.path.getsize(path)
            - BLOCK_HEADER.size
            - len(_stored(frames[-1], compression))
        )
        keep = tail_start + {
            "frame": 0,
            "header": BLOCK_HEADER.size // 2,
            "payload": BLOCK_HEADER.size + 1,
        }[cut]
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        return spool, frames, path

    @staticmethod
    def _message(cut, path):
        if cut == "frame":
            return re.escape(
                f"truncated value file {path}: block 3 of the 4 its index "
                "records is missing"
            )
        if cut == "header":
            return re.escape(f"truncated block header in {path} (block 3)")
        return re.escape(f"truncated block 3 in {path}")

    @pytest.mark.parametrize("cut", ("frame", "header", "payload"))
    @pytest.mark.parametrize(
        "block_size", BLOCK_SIZES, ids=lambda size: f"b{size}"
    )
    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    def test_cut_tail_frame_names_file_and_block(
        self, tmp_path, compression, block_size, cut
    ):
        spool, frames, path = self._truncated(
            tmp_path, compression, block_size, cut
        )
        cursor = spool.open_cursor(REF)
        assert cursor.read_batch(len(_flat(frames[:3]))) == _flat(frames[:3])
        with pytest.raises(SpoolError, match=self._message(cut, path)):
            cursor.read_batch(7)
        cursor.close()
        # Skipping the three whole frames seeks to the cut frame, which
        # must fail the same way when it is read.
        cursor = spool.open_cursor(REF)
        assert cursor.skip_blocks_below(frames[-1][0]) == 3
        with pytest.raises(SpoolError, match=self._message(cut, path)):
            cursor.read_batch(7)
        cursor.close()

    @pytest.mark.parametrize(
        "block_size", BLOCK_SIZES, ids=lambda size: f"b{size}"
    )
    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    def test_seek_over_a_cut_payload_names_file_and_block(
        self, tmp_path, compression, block_size
    ):
        # Cut one byte short of the third frame's end: a skip that seeks
        # over that frame would land past the end of the file.
        spool, frames, path = self._truncated(
            tmp_path, compression, block_size, "frame"
        )
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 1)
        cursor = spool.open_cursor(REF)
        with pytest.raises(
            SpoolError, match=re.escape(f"truncated block 2 in {path}")
        ):
            cursor.skip_blocks_below(frames[-1][0])
        cursor.close()
