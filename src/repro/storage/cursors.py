"""Forward value cursors with item-read accounting and batched reads.

Both external algorithms consume sorted value sets strictly front-to-back.
The protocol has two layers:

* the classic single-value layer — ``has_next`` / ``next_value`` / ``close``;
* the batched layer — ``peek_batch(n)`` / ``advance(n)`` / ``read_batch(n)``
  — which validators use to amortise file reads and decoding over whole
  blocks while keeping the *logical* item accounting exact.

``peek_batch`` is pure lookahead: it returns up to ``n`` upcoming values
without consuming them and without touching :class:`IOStats`.  ``advance(k)``
then commits ``k`` of those values as read.  The split matters because the
validators early-stop: a refuted candidate must only be charged for the items
the algorithm *logically* consumed, not for whatever block the cursor happened
to decode — that is the measurement behind the paper's Figure 5 ("number of
items read"), and it must not change with the on-disk format.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from itertools import islice
from typing import IO, Iterator, Protocol

from repro.errors import SpoolError
from repro.storage.blockio import BLOCK_HEADER, BlockMeta, read_magic
from repro.storage.codec import (
    COMPRESSION_ZLIB,
    decode_block,
    decompress_payload,
    unescape_line,
)

#: Default number of values handed out per batched read.
DEFAULT_BATCH_SIZE = 1024

#: Byte hint for one physical read of a v1 text file.
_TEXT_READ_HINT = 64 * 1024


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

    def record_read(self, label: str) -> None:
        self.items_read += 1
        self.reads_per_attribute[label] = self.reads_per_attribute.get(label, 0) + 1

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

    def merge(self, other: "IOStats") -> None:
        """Fold another run's counters into this one (block-wise validation).

        ``open_files`` must carry over too: merging a run that still holds
        open cursors into a fresh ``IOStats`` would otherwise leave
        ``open_files`` at zero while ``files_opened`` says the files exist,
        and every later ``record_open`` would under-count the true peak.
        """
        self.items_read += other.items_read
        self.files_opened += other.files_opened
        self.open_files += other.open_files
        self.peak_open_files = max(
            self.peak_open_files, other.peak_open_files, self.open_files
        )
        self.blocks_skipped += other.blocks_skipped
        self.values_skipped += other.values_skipped
        self.bytes_read += other.bytes_read
        self.bytes_stored += other.bytes_stored
        for label, count in other.reads_per_attribute.items():
            self.reads_per_attribute[label] = (
                self.reads_per_attribute.get(label, 0) + count
            )


class ValueCursor(Protocol):
    """Forward-only cursor over a sorted set of rendered values."""

    def has_next(self) -> bool: ...

    def next_value(self) -> str: ...

    def peek_batch(self, max_items: int) -> list[str]: ...

    def advance(self, count: int) -> None: ...

    def read_batch(self, max_items: int) -> list[str]: ...

    def skip_blocks_below(self, value: str) -> int: ...

    def close(self) -> None: ...


class BufferedValueCursor:
    """Base class implementing the cursor protocol over physical chunks.

    Subclasses provide :meth:`_load`, which returns the next physical chunk
    of decoded values (an empty list signals end of input).  The base class
    buffers chunks, serves single-value and batched reads from the buffer,
    and keeps the :class:`IOStats` accounting tied to *logical* consumption.
    """

    def __init__(self, stats: IOStats | None, label: str) -> None:
        self._stats = stats
        self._label = label
        self._buf: list[str] = []
        self._pos = 0
        self._eof = False
        self._closed = False
        self._consumed = 0  # logical position; lets a pickled cursor resume
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

    # ------------------------------------------------------ classic protocol
    def has_next(self) -> bool:
        if self._pos < len(self._buf):
            return True
        if self._closed:
            return False
        self._fill(1)
        return self._pos < len(self._buf)

    def next_value(self) -> str:
        if self._closed:
            raise SpoolError(f"cursor {self._label} used after close")
        if not self.has_next():
            raise SpoolError(f"cursor {self._label} read past end")
        value = self._buf[self._pos]
        self._pos += 1
        self._consumed += 1
        if self._stats is not None:
            self._stats.record_read(self._label)
        return value

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
        self._consumed += count
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

        A no-op for formats without per-block metadata, so validators may call
        it unconditionally.  Skipped values are never charged to
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


class _PicklableByPath:
    """Pickle support for file-backed cursors: re-open by path, not by handle.

    Worker processes must never inherit a parent's file descriptors — the
    shared offset would corrupt both readers.  Pickling therefore captures
    only ``(path, label, logical position)``; unpickling re-opens the file in
    the receiving process and fast-forwards to the recorded position.  The
    restored cursor carries no :class:`IOStats` (the receiving run attaches
    its own accounting by opening fresh cursors when it wants counters).
    """

    def __getstate__(self) -> dict:
        return {
            "path": self._path,
            "label": self._label,
            "consumed": self._consumed,
            "closed": self._closed,
        }

    def __setstate__(self, state: dict) -> None:
        if state["closed"]:
            self._stats = None
            self._label = state["label"]
            self._path = state["path"]
            self._buf = []
            self._pos = 0
            self._eof = True
            self._closed = True
            self._consumed = state["consumed"]
            self._fh = None
            self._init_reopened_extras()
            return
        self.__init__(state["path"], stats=None, label=state["label"])
        self._fast_forward(state["consumed"])

    def _init_reopened_extras(self) -> None:
        """Subclass hook: restore fields beyond the base cursor state."""

    def _fast_forward(self, count: int) -> None:
        """Re-consume ``count`` values after re-opening (no stats attached)."""
        remaining = count
        while remaining:
            batch = self.peek_batch(min(remaining, 4096))
            if not batch:
                raise SpoolError(
                    f"value file {self._path} shrank: cannot restore cursor "
                    f"position {count}"
                )
            take = min(remaining, len(batch))
            self.advance(take)
            remaining -= take


class FileValueCursor(_PicklableByPath, BufferedValueCursor):
    """Cursor over a v1 escaped, newline-delimited sorted value file.

    Reads lazily in ~64 KB slabs of lines, so a refuted candidate never pays
    for the rest of the file — the early-stop behaviour SQL could not express
    — while a full scan still amortises the file I/O over many values.
    """

    def __init__(
        self, path: str, stats: IOStats | None = None, label: str | None = None
    ) -> None:
        self._path = path
        try:
            self._fh: IO[str] | None = open(path, encoding="utf-8")
        except OSError as exc:
            raise SpoolError(f"cannot open value file {path}: {exc}") from exc
        super().__init__(stats, label or path)

    def _load(self) -> list[str]:
        assert self._fh is not None
        lines = self._fh.readlines(_TEXT_READ_HINT)
        if lines and self._stats is not None:
            # Text mode: character count stands in for bytes (exact for
            # ASCII values, the overwhelming majority).
            loaded = sum(len(line) for line in lines)
            self._stats.record_bytes(loaded, loaded)
        return [unescape_line(line.rstrip("\n")) for line in lines]

    def _do_close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class BlockFileValueCursor(_PicklableByPath, BufferedValueCursor):
    """Cursor over a v2/v3 binary block file (see :mod:`repro.storage.blockio`).

    One ``_load`` decodes one whole block — a single read, one
    ``bytes.decode`` and one split for up to ``block_size`` values, which is
    what makes the batched protocol cheap on the validator hot path.  The
    magic's flags byte decides per file whether payloads are inflated first
    (v3 compressed frames); corruption anywhere — short header, short
    payload, bad inflate, wrong value count — raises :class:`SpoolError`
    naming the file and the block ordinal.

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
    ) -> None:
        self._path = path
        self._blocks = blocks
        self._next_block = 0  # index of the next on-disk frame to read
        self._skipped_values = 0
        try:
            self._fh: IO[bytes] | None = open(path, "rb")
        except OSError as exc:
            raise SpoolError(f"cannot open value file {path}: {exc}") from exc
        try:
            self._compression = read_magic(self._fh, path)
            self._init_byte_source()
        except SpoolError:
            self._fh.close()
            self._fh = None
            raise
        super().__init__(stats, label or path)

    # ------------------------------------------------------ byte-source hooks
    def _init_byte_source(self) -> None:
        """Subclass hook: set up the frame byte source (after the magic)."""

    def _read_frame_bytes(self, size: int) -> bytes:
        """Read up to ``size`` bytes at the current frame position."""
        assert self._fh is not None
        return self._fh.read(size)

    def _seek_forward(self, size: int) -> None:
        """Advance the frame position ``size`` bytes without reading."""
        assert self._fh is not None
        self._fh.seek(size, 1)

    # ------------------------------------------------------------- decoding
    def _load(self) -> list[str]:
        header = self._read_frame_bytes(BLOCK_HEADER.size)
        if header == b"":
            return []
        if len(header) != BLOCK_HEADER.size:
            raise SpoolError(
                f"truncated block header in {self._path} "
                f"(block {self._next_block})"
            )
        payload_len, count = BLOCK_HEADER.unpack(header)
        payload = self._read_frame_bytes(payload_len)
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
        if blocks_skipped:
            self._skipped_values += values_skipped
            if self._stats is not None:
                self._stats.record_skip(blocks_skipped, values_skipped)
        return blocks_skipped

    def _seek_past_next_block(self) -> int:
        """Jump over one frame without reading its payload; returns its count."""
        header = self._read_frame_bytes(BLOCK_HEADER.size)
        if len(header) != BLOCK_HEADER.size:
            raise SpoolError(
                f"truncated block header in {self._path} "
                f"(block {self._next_block})"
            )
        payload_len, count = BLOCK_HEADER.unpack(header)
        self._seek_forward(payload_len)
        self._next_block += 1
        return count

    def _do_close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        if self._skipped_values:
            # The logical position no longer equals the file position; a
            # fast-forward in the receiving process could not reproduce it.
            raise SpoolError(
                f"cursor {self._label} cannot be pickled after skip-scans"
            )
        return super().__getstate__()

    def _init_reopened_extras(self) -> None:
        self._blocks = None
        self._next_block = 0
        self._skipped_values = 0
        self._compression = None  # closed cursor: never decodes again


class MmapBlockFileValueCursor(BlockFileValueCursor):
    """Block cursor decoding lazily out of one shared memory mapping.

    Maps the whole value file once and reads frames by slicing the mapping,
    so the dozens of concurrent cursors a merge or pooled run opens on the
    same referenced-side file share the OS page cache instead of each
    carrying a private stdio buffer.  Identical protocol, accounting and
    pickling semantics to :class:`BlockFileValueCursor` — only the byte
    source differs, so decisions and every counter stay byte-exact either
    way.
    """

    def _init_byte_source(self) -> None:
        assert self._fh is not None
        try:
            self._map: mmap.mmap | None = mmap.mmap(
                self._fh.fileno(), 0, access=mmap.ACCESS_READ
            )
        except (OSError, ValueError) as exc:
            raise SpoolError(
                f"cannot mmap value file {self._path}: {exc}"
            ) from exc
        self._offset = self._fh.tell()  # just past the magic

    def _read_frame_bytes(self, size: int) -> bytes:
        assert self._map is not None
        data = self._map[self._offset : self._offset + size]
        self._offset += len(data)
        return data

    def _seek_forward(self, size: int) -> None:
        self._offset += size

    def _do_close(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None
        super()._do_close()

    def _init_reopened_extras(self) -> None:
        super()._init_reopened_extras()
        self._map = None
        self._offset = 0


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
    value is charged to :class:`IOStats` iff it was handed to the caller, so
    every validator reports the same ``items_read`` it did with per-value
    ``next_value`` loops, for both spool formats.

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
