"""Framing of spool formats v2 and v3: length-prefixed binary block files.

A binary value file is::

    MAGIC (8 bytes)  [block]*

where each block is::

    header  = struct '<II'  → (stored_payload_bytes, value_count)
    payload = encode_block(values)   (see repro.storage.codec),
              zlib-deflated when the frame flags say so

The 8-byte magic is ``b"RSPL2"`` + a version byte + a flags byte + ``\\n``.
The v2 frame (version ``0x02``) left the flags byte as a zero pad; the v3
frame (version ``0x03``) uses it: bit 0 (:data:`FLAG_ZLIB`) marks every
block payload in the file as zlib-compressed.  v2 files written by older
code therefore stay readable byte-for-byte, and a v2-only reader rejects a
v3 file loudly at the magic instead of misparsing compressed bytes.

Blocks hold a fixed number of values (``block_size``, the last block may be
short), so a cursor amortises one read + decode over thousands of values —
the batched-read design the paper's follow-up work points at (Sec. 7).  The
writer records per-block value counts, min/max values and (for compressed
files) raw/stored payload byte counts; the spool index persists them, which
enables skip-scans and compression-ratio reporting without touching the
file.

Empty attributes produce a file holding only the magic — a zero-block file is
valid and distinct from a missing or truncated one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import IO

from repro.errors import SpoolError
from repro.storage.codec import (
    COMPRESSION_NONE,
    COMPRESSION_ZLIB,
    compress_payload,
    encode_block,
)

#: Common prefix of every binary spool magic ("RSPL2" + version + flags + LF).
MAGIC_PREFIX = b"RSPL2"

#: File magic of spool format v2 value files (version 2, zero flags byte).
MAGIC = b"RSPL2\x02\x00\n"

#: File magic of v3 value files with zlib-compressed payloads.
MAGIC_V3_ZLIB = b"RSPL2\x03\x01\n"

#: v3 flags-byte bit: every block payload in the file is zlib-deflated.
FLAG_ZLIB = 0x01

#: Per-block frame header: little-endian (stored_payload_bytes, value_count).
BLOCK_HEADER = struct.Struct("<II")

#: Default number of values per block.  Large enough that per-block Python
#: overhead vanishes, small enough that early-stopping validators rarely
#: decode values they never look at.
DEFAULT_BLOCK_SIZE = 1024


@dataclass(frozen=True)
class BlockMeta:
    """Per-block metadata recorded by the writer and persisted in the index.

    ``raw_bytes``/``stored_bytes`` are the uncompressed and on-disk payload
    sizes.  They are recorded (and serialised) only for compressed files, so
    the v2 index document stays byte-identical to what older code wrote.
    """

    count: int
    min_value: str
    max_value: str
    raw_bytes: int = 0
    stored_bytes: int = 0

    def to_doc(self) -> dict:
        doc = {"count": self.count, "min": self.min_value, "max": self.max_value}
        if self.stored_bytes:
            doc["raw"] = self.raw_bytes
            doc["stored"] = self.stored_bytes
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "BlockMeta":
        return cls(
            count=doc["count"],
            min_value=doc["min"],
            max_value=doc["max"],
            raw_bytes=doc.get("raw", 0),
            stored_bytes=doc.get("stored", 0),
        )


class BlockFileWriter:
    """Writes sorted values into a v2 (or v3-compressed) block file.

    Each :meth:`write_block` call writes one block of at most
    ``block_size`` values, which the caller has already sorted and made
    distinct (:func:`~repro.storage.sorted_sets.write_value_file` slices
    and checks them); only the last block of a file may be short.  The
    writer tracks the per-block metadata.  ``compression="zlib"`` deflates
    every block payload and writes the v3 magic; the default writes a v2
    file identical to older builds.  Use as a context manager or call
    :meth:`close`.
    """

    def __init__(
        self,
        path: str,
        block_size: int = DEFAULT_BLOCK_SIZE,
        compression: str = COMPRESSION_NONE,
    ) -> None:
        if block_size < 1:
            raise SpoolError(f"block_size must be >= 1, got {block_size!r}")
        if compression not in (COMPRESSION_NONE, COMPRESSION_ZLIB):
            raise SpoolError(
                f"unknown spool compression {compression!r} "
                f"(expected 'none' or 'zlib')"
            )
        self.path = path
        self.block_size = block_size
        self.compression = compression
        self.count = 0
        self.min_value: str | None = None
        self.max_value: str | None = None
        self.blocks: list[BlockMeta] = []
        self.raw_payload_bytes = 0
        self.stored_payload_bytes = 0
        try:
            self._fh: IO[bytes] | None = open(path, "wb")
        except OSError as exc:
            raise SpoolError(f"cannot create value file {path}: {exc}") from exc
        self._fh.write(
            MAGIC_V3_ZLIB if compression == COMPRESSION_ZLIB else MAGIC
        )

    def write_block(self, values: list[str]) -> None:
        """Write ``values`` as one block; an empty list writes nothing."""
        if self._fh is None:
            raise SpoolError(f"block writer {self.path} used after close")
        if len(values) > self.block_size:
            raise SpoolError(
                f"block writer {self.path}: a block of {len(values)} values "
                f"breaks the {self.block_size}-value block layout"
            )
        if not values:
            return
        payload = encode_block(values)
        raw_len = len(payload)
        if self.compression == COMPRESSION_ZLIB:
            payload = compress_payload(payload)
            meta = BlockMeta(
                count=len(values),
                min_value=values[0],
                max_value=values[-1],
                raw_bytes=raw_len,
                stored_bytes=len(payload),
            )
        else:
            meta = BlockMeta(
                count=len(values), min_value=values[0], max_value=values[-1]
            )
        self._fh.write(BLOCK_HEADER.pack(len(payload), len(values)))
        self._fh.write(payload)
        self.blocks.append(meta)
        self.raw_payload_bytes += raw_len
        self.stored_payload_bytes += len(payload)
        self.count += len(values)
        if self.min_value is None:
            self.min_value = values[0]
        self.max_value = values[-1]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "BlockFileWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def parse_magic(head: bytes, path: str) -> str:
    """Decode an 8-byte spool magic; returns the file's compression scheme.

    Accepts the v2 frame (``none``) and the v3 frame with known flags
    (``zlib``).  Anything else — wrong prefix, short read, unknown version
    or unknown flag bits — raises :class:`SpoolError` rather than letting a
    reader misinterpret the blocks that follow.
    """
    if head == MAGIC:
        return COMPRESSION_NONE
    if (
        len(head) == len(MAGIC)
        and head.startswith(MAGIC_PREFIX)
        and head[5] == 3
        and head[7] == 0x0A
    ):
        flags = head[6]
        if flags == FLAG_ZLIB:
            return COMPRESSION_ZLIB
        raise SpoolError(
            f"{path} is a spool v3 value file with unknown flags "
            f"0x{flags:02x} (this build understands 0x{FLAG_ZLIB:02x})"
        )
    raise SpoolError(
        f"{path} is not a spool v2/v3 value file (bad magic {head!r})"
    )


def read_magic(fh: IO[bytes], path: str) -> str:
    """Consume and verify the magic at the start of ``fh``.

    Returns the compression scheme the flags byte declares (``"none"`` for
    v2 files).
    """
    return parse_magic(fh.read(len(MAGIC)), path)
