"""Forward value cursors with item-read accounting and batched reads.

Both external algorithms consume sorted value sets strictly front-to-back,
through one batched protocol: ``peek_batch(n)`` / ``advance(n)`` /
``read_batch(n)`` / ``close``, with :class:`BatchReader` as the
value-at-a-time façade for loops that want one value per step.  Reads
are amortised over whole blocks while the *logical* item accounting stays
exact.

``peek_batch`` is pure lookahead: it returns up to ``n`` upcoming values
without consuming them and without touching :class:`IOStats`.  ``advance(k)``
then commits ``k`` of those values as read.  The split matters because the
validators early-stop: a refuted candidate must only be charged for the items
the algorithm *logically* consumed, not for whatever block the cursor happened
to decode — that is the measurement behind the paper's Figure 5 ("number of
items read"), and it must not change with the on-disk layout (block size,
compression).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import islice
from typing import IO, Iterator, Protocol

from repro.errors import SpoolError
from repro.storage.blockio import BLOCK_HEADER, BlockMeta, read_magic
from repro.storage.codec import COMPRESSION_ZLIB, decode_block, decompress_payload

#: Default number of values handed out per batched read.
DEFAULT_BATCH_SIZE = 1024


@dataclass
class IOStats:
    """Mutable I/O counters shared by all cursors of one validation run."""

    items_read: int = 0
    files_opened: int = 0
    open_files: int = 0
    peak_open_files: int = 0
    blocks_skipped: int = 0
    values_skipped: int = 0
    bytes_read: int = 0
    bytes_stored: int = 0
    reads_per_attribute: dict[str, int] = field(default_factory=dict)

    def record_open(self) -> None:
        self.files_opened += 1
        self.open_files += 1
        if self.open_files > self.peak_open_files:
            self.peak_open_files = self.open_files

    def record_close(self) -> None:
        if self.open_files > 0:
            self.open_files -= 1

    def record_read_batch(self, label: str, count: int) -> None:
        """Account ``count`` items read in one batched cursor advance."""
        if count <= 0:
            return
        self.items_read += count
        self.reads_per_attribute[label] = (
            self.reads_per_attribute.get(label, 0) + count
        )

    def record_skip(self, blocks: int, values: int) -> None:
        """Account a skip-scan: whole blocks seeked past without decoding.

        Skipped values are deliberately *not* ``items_read`` — the algorithm
        never looked at them; that is the entire point of the skip.
        """
        self.blocks_skipped += blocks
        self.values_skipped += values

    def record_bytes(self, raw: int, stored: int) -> None:
        """Account one physical payload fetch.

        ``raw`` is the decoded (uncompressed) payload size — the
        format-comparable measure of data the cursor materialised; ``stored``
        is what actually came off disk (smaller for compressed spools).
        Charged at decode time, so skip-scans visibly reduce both.
        """
        self.bytes_read += raw
        self.bytes_stored += stored


class ValueCursor(Protocol):
    """Forward-only cursor over a sorted set of rendered values."""

    def peek_batch(self, max_items: int) -> list[str]: ...

    def advance(self, count: int) -> None: ...

    def read_batch(self, max_items: int) -> list[str]: ...

    def skip_blocks_below(self, value: str) -> int: ...

    def close(self) -> None: ...


class BufferedValueCursor:
    """Base class implementing the cursor protocol over physical chunks.

    Subclasses provide :meth:`_load`, which returns the next physical chunk
    of decoded values (an empty list signals end of input).  The base class
    buffers chunks, serves batched reads from the buffer, and keeps the
    :class:`IOStats` accounting tied to *logical* consumption.
    """

    def __init__(self, stats: IOStats | None, label: str) -> None:
        self._stats = stats
        self._label = label
        self._buf: list[str] = []
        self._pos = 0
        self._eof = False
        self._closed = False
        if stats is not None:
            stats.record_open()

    # ------------------------------------------------------- subclass hooks
    def _load(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _do_close(self) -> None:
        """Release subclass resources (called at most once)."""

    # ------------------------------------------------------------ buffering
    def _fill(self, wanted: int) -> None:
        """Grow the lookahead until ``wanted`` values are available (or EOF)."""
        while not self._eof and len(self._buf) - self._pos < wanted:
            chunk = self._load()
            if not chunk:
                self._eof = True
                return
            if self._pos:
                del self._buf[: self._pos]
                self._pos = 0
            if self._buf:
                self._buf.extend(chunk)
            else:
                self._buf = chunk

    # ------------------------------------------------------ batched protocol
    def peek_batch(self, max_items: int) -> list[str]:
        """Up to ``max_items`` upcoming values, without consuming them."""
        if self._closed:
            raise SpoolError(f"cursor {self._label} used after close")
        if max_items < 1:
            raise SpoolError(f"peek_batch needs max_items >= 1, got {max_items}")
        self._fill(max_items)
        return self._buf[self._pos : self._pos + max_items]

    def advance(self, count: int) -> None:
        """Commit ``count`` previously peeked values as read."""
        if count == 0:
            return
        if self._closed:
            raise SpoolError(f"cursor {self._label} used after close")
        if count < 0 or count > len(self._buf) - self._pos:
            raise SpoolError(
                f"cursor {self._label} cannot advance {count} items "
                f"({len(self._buf) - self._pos} buffered)"
            )
        self._pos += count
        if self._stats is not None:
            self._stats.record_read_batch(self._label, count)

    def read_batch(self, max_items: int) -> list[str]:
        """Consume and return up to ``max_items`` values in one call."""
        batch = self.peek_batch(max_items)
        self.advance(len(batch))
        return batch

    # ----------------------------------------------------------- skip-scans
    def skip_blocks_below(self, value: str) -> int:
        """Seek past whole not-yet-decoded blocks whose max is below ``value``.

        A no-op for cursors without per-block metadata, so validators may
        call it unconditionally.  Skipped values are never charged to
        :class:`IOStats.items_read`; subclasses that actually skip record the
        skip through :meth:`IOStats.record_skip` instead.
        """
        if self._closed:
            raise SpoolError(f"cursor {self._label} used after close")
        return 0

    # -------------------------------------------------------------- closing
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._do_close()
            if self._stats is not None:
                self._stats.record_close()


class MemoryValueCursor(BufferedValueCursor):
    """Cursor over an in-memory list of rendered values (tests, small sets)."""

    def __init__(
        self, values: list[str], stats: IOStats | None = None, label: str = "<memory>"
    ) -> None:
        super().__init__(stats, label)
        self._buf = list(values)
        self._eof = True

    def _load(self) -> list[str]:
        return []


class BlockValueCursor(BufferedValueCursor):
    """Cursor over a v2/v3 binary block file (see :mod:`repro.storage.blockio`).

    One ``_load`` decodes one whole block — a single read, one
    ``bytes.decode`` and one split for up to ``block_size`` values, which is
    what makes the batched protocol cheap on the validator hot path.  The
    magic's flags byte decides per file whether payloads are inflated first
    (v3 compressed frames); corruption anywhere — short header, short
    payload, bad inflate, wrong value count, or a file that ends before the
    last block its index records — raises :class:`SpoolError` naming the
    file and the block ordinal, on a read and on a skip alike.

    ``payloads``, a list, collects ``(max_value, payload)`` for every block
    the cursor decodes, the payload inflated, which is what a
    :class:`~repro.storage.codec.PayloadSet` is built from.

    When the caller hands over the per-block metadata recorded in the spool
    index (``blocks``), the cursor can *skip-scan*: :meth:`skip_blocks_below`
    seeks past whole frames whose recorded max value is below a sought value
    — one small header read and one ``seek`` per skipped block, no payload
    read, no decode.
    """

    def __init__(
        self,
        path: str,
        stats: IOStats | None = None,
        label: str | None = None,
        blocks: tuple[BlockMeta, ...] | None = None,
        payloads: list[tuple[str, bytes]] | None = None,
    ) -> None:
        self._path = path
        self._blocks = blocks
        self._payloads = payloads
        self._next_block = 0  # index of the next on-disk frame to read
        try:
            self._fh: IO[bytes] = open(path, "rb")
        except OSError as exc:
            raise SpoolError(f"cannot open value file {path}: {exc}") from exc
        try:
            self._compression = read_magic(self._fh, path)
        except SpoolError:
            self._fh.close()
            raise
        super().__init__(stats, label or path)

    # ------------------------------------------------------------- decoding
    def _load(self) -> list[str]:
        header = self._fh.read(BLOCK_HEADER.size)
        if header == b"":
            # A file cut between two frames reads as a clean end; only the
            # index's block list tells that its tail is gone.
            if self._blocks and self._next_block < len(self._blocks):
                raise SpoolError(
                    f"truncated value file {self._path}: block "
                    f"{self._next_block} of the {len(self._blocks)} its index "
                    "records is missing"
                )
            return []
        if len(header) != BLOCK_HEADER.size:
            raise SpoolError(
                f"truncated block header in {self._path} "
                f"(block {self._next_block})"
            )
        payload_len, count = BLOCK_HEADER.unpack(header)
        payload = self._fh.read(payload_len)
        if len(payload) != payload_len:
            raise SpoolError(
                f"truncated block {self._next_block} in {self._path}: "
                f"expected {payload_len} payload bytes, got {len(payload)}"
            )
        if count == 0:
            raise SpoolError(
                f"empty block frame in {self._path} (block {self._next_block})"
            )
        stored = len(payload)
        if self._compression == COMPRESSION_ZLIB:
            payload = decompress_payload(payload, self._path, self._next_block)
        try:
            values = decode_block(payload, count)
        except SpoolError as exc:
            raise SpoolError(
                f"corrupt block {self._next_block} in {self._path}: {exc}"
            ) from exc
        if self._stats is not None:
            self._stats.record_bytes(len(payload), stored)
        if self._payloads is not None:
            self._payloads.append((values[-1], payload))
        self._next_block += 1
        return values

    def skip_blocks_below(self, value: str) -> int:
        """Seek past on-disk blocks whose recorded max value is below ``value``.

        Values already buffered are unaffected (they stay ahead of the sought
        value or below it — either way the caller still sees them); only whole
        frames not yet read are skipped.  Requires the per-block metadata from
        the spool index; without it this is the base-class no-op.
        """
        if self._closed:
            raise SpoolError(f"cursor {self._label} used after close")
        if not self._blocks or self._eof:
            return 0
        blocks_skipped = 0
        values_skipped = 0
        while (
            self._next_block < len(self._blocks)
            and self._blocks[self._next_block].max_value < value
        ):
            values_skipped += self._seek_past_next_block()
            blocks_skipped += 1
        if blocks_skipped and self._stats is not None:
            self._stats.record_skip(blocks_skipped, values_skipped)
        return blocks_skipped

    def _seek_past_next_block(self) -> int:
        """Jump over one frame without reading its payload; returns its count."""
        header = self._fh.read(BLOCK_HEADER.size)
        if len(header) != BLOCK_HEADER.size:
            raise SpoolError(
                f"truncated block header in {self._path} "
                f"(block {self._next_block})"
            )
        payload_len, count = BLOCK_HEADER.unpack(header)
        start = self._fh.tell()
        # A seek past the end succeeds, so check that the payload is there.
        size = os.fstat(self._fh.fileno()).st_size
        if start + payload_len > size:
            raise SpoolError(
                f"truncated block {self._next_block} in {self._path}: "
                f"expected {payload_len} payload bytes, got {size - start}"
            )
        self._fh.seek(start + payload_len)
        self._next_block += 1
        return count

    def _do_close(self) -> None:
        self._fh.close()


class CountingCursor(BufferedValueCursor):
    """Adapter exposing any string iterator through the cursor protocol."""

    _CHUNK = 256

    def __init__(
        self,
        values: Iterator[str],
        stats: IOStats | None = None,
        label: str = "<iterator>",
    ) -> None:
        self._iter = iter(values)
        super().__init__(stats, label)

    def _load(self) -> list[str]:
        return list(islice(self._iter, self._CHUNK))


class BatchReader:
    """Buffered-iteration façade over a cursor for validator hot loops.

    Serves values from a local list (plain indexing, no per-value cursor
    call) and commits consumed counts back to the cursor lazily — once per
    ``batch_size`` values instead of once per value.  Totals are exact: a
    value is charged to :class:`IOStats` iff it was handed to the caller.
    Each refill peeks ``batch_size`` values, so over a fresh cursor a
    ``batch_size`` equal to the spool's block size refills one block at a
    time and decodes only blocks holding handed-out values.

    ``flush`` commits pending consumption without closing (used when the
    caller owns the cursor); ``close`` flushes and closes the cursor.
    """

    __slots__ = ("_cursor", "_batch_size", "_buf", "_idx")

    def __init__(self, cursor, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise SpoolError(f"batch_size must be >= 1, got {batch_size!r}")
        self._cursor = cursor
        self._batch_size = batch_size
        self._buf: list[str] = []
        self._idx = 0

    def _refill(self) -> None:
        self._cursor.advance(self._idx)
        self._idx = 0
        self._buf = self._cursor.peek_batch(self._batch_size)

    def has_more(self) -> bool:
        if self._idx < len(self._buf):
            return True
        self._refill()
        return bool(self._buf)

    def next(self) -> str:
        if self._idx >= len(self._buf):
            self._refill()
            if not self._buf:
                raise SpoolError("batch reader read past end")
        value = self._buf[self._idx]
        self._idx += 1
        return value

    def flush(self) -> None:
        """Commit pending consumption to the cursor's accounting."""
        if self._idx:
            self._cursor.advance(self._idx)
            self._buf = self._buf[self._idx :]
            self._idx = 0

    def close(self) -> None:
        self.flush()
        self._cursor.close()
