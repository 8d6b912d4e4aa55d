"""Sorted, distinct value files — one per attribute — and their directory.

This is the paper's central data structure: "All value sets are extracted from
the database and stored in sorted files" (Sec. 3.2).  A
:class:`SpoolDirectory` holds one :class:`SortedValueFile` per attribute plus
an ``index.json`` with per-attribute metadata (distinct count, min/max value,
source type).  The metadata is what makes the Sec. 4.1 pretests free: the
cardinality and max-value tests read the index, not the files.

Value files are binary block files in one of two frames
(``docs/spool_format.md``):

* **v2** — length-prefixed blocks of escaped values, ``.valsb`` files, with
  per-block value counts and min/max persisted in the index;
* **v3 (compressed)** — the v2 block layout with zlib-deflated payloads,
  declared by the frame flags byte and an index ``version: 3`` +
  ``compression`` field, with per-block raw/stored byte counts persisted
  alongside the min/max.

The ``version`` and ``format`` fields of ``index.json`` identify the layout.
A directory of the removed v1 text format — an index without ``version``,
or one naming ``"format": "text"`` — is rejected at :meth:`SpoolDirectory.open`
with a :class:`SpoolError` naming its path; re-export it.
Every cursor reads its file front to back through one buffered file handle.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import islice
from operator import lt
from pathlib import Path

from repro.db.schema import REF_ORDER, AttributeRef
from repro.errors import SpoolError
from repro.storage.blockio import DEFAULT_BLOCK_SIZE, BlockFileWriter, BlockMeta
from repro.storage.codec import COMPRESSION_NONE, SPOOL_COMPRESSIONS
from repro.storage.cursors import BlockValueCursor, IOStats

_INDEX_FILE = "index.json"
_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]")
#: The indentation of an attribute entry inside ``index.json``'s array.
_ENTRY_INDENT = "    "

#: The spool format every index names, and the index schema versions.
FORMAT_BINARY = "binary"
INDEX_VERSION = 2
#: Index version written for compressed (v3) spools, so builds that predate
#: compression reject the directory loudly at the index instead of failing
#: deeper at the frame magic.
COMPRESSED_INDEX_VERSION = 3

_EXTENSION = ".valsb"


def _identity(st: os.stat_result) -> tuple[int, ...]:
    """Which file an ``index.json`` stat names, and which version of it.

    Device and inode tell files apart, so an index replaced by rename is a
    new file even at the same size and mtime.  ``st_ctime_ns`` catches an
    in-place rewrite whose mtime was set back, since ``os.utime`` cannot
    set it.
    """
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def value_file_name(ref: AttributeRef, suffix: int = 1) -> str:
    """The name a spool gives ``ref``'s value file: ``table__column`` with
    unsafe characters replaced, and ``__<suffix>`` after a name clash."""
    base = _SAFE_NAME.sub("_", f"{ref.table}__{ref.column}")
    if suffix > 1:
        base = f"{base}__{suffix}"
    return f"{base}{_EXTENSION}"


def check_format(format: str) -> None:
    """Reject every spool format but ``"binary"``, naming the removed one.

    ``format=`` and ``spool_format=`` keywords remain on the export and
    cache entry points for callers that still pass them; they accept only
    ``"binary"``.
    """
    if format != FORMAT_BINARY:
        raise SpoolError(
            f"spool format {format!r} is not supported: the v1 'text' "
            f"format was removed and every spool is {FORMAT_BINARY!r}"
        )


def check_mmap_reads(mmap_reads: bool) -> None:
    """Reject every ``mmap_reads`` but ``False``, naming the removed reader.

    ``mmap_reads=`` remains on the export and cache entry points for
    callers that still pass it; every cursor reads through a buffered
    file handle, so it accepts only ``False``.
    """
    if mmap_reads is not False:
        raise SpoolError(
            f"mmap_reads={mmap_reads!r} is not supported: the mmap reader "
            "was removed and every cursor reads through a buffered file "
            "handle"
        )


def write_value_file(
    ref: AttributeRef,
    file_path: str | Path,
    sorted_distinct_values: Iterable[str],
    dtype: str = "VARCHAR",
    block_size: int = DEFAULT_BLOCK_SIZE,
    compression: str = COMPRESSION_NONE,
) -> "SortedValueFile":
    """Write one sorted distinct value file atomically; return its metadata.

    The shared writing primitive behind :meth:`SpoolDirectory.add_values`
    and the pool's ``spool-export`` tasks.  The payload is written to a
    process-unique temporary name and renamed onto ``file_path`` only once
    complete, so a reader (or the re-execution of the same export task
    after its worker died mid-write) can never observe a half-written
    file — the last complete writer wins, and every writer produces
    byte-identical content because the input is deterministic.

    The input **must already be sorted and duplicate-free**; this is
    verified while writing because a mis-sorted spool file silently breaks
    every validator.  Values are written ``block_size`` at a time: each
    slice is checked for strict ascent in one C-level pass and lands as
    one block.  A failed write (a full disk) removes the temporary file and
    raises :class:`~repro.errors.SpoolError` naming the attribute and the
    file.
    """
    final_path = os.fspath(file_path)
    tmp_path = f"{final_path}.tmp-{os.getpid()}"
    try:
        with BlockFileWriter(
            tmp_path, block_size=block_size, compression=compression
        ) as writer:
            for chunk in _checked_chunks(ref, sorted_distinct_values, block_size):
                writer.write_block(chunk)
        os.replace(tmp_path, final_path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise SpoolError(
                f"cannot write the value file of {ref} to {final_path}: {exc}"
            ) from exc
        raise
    return SortedValueFile(
        ref=ref,
        path=final_path,
        count=writer.count,
        min_value=writer.min_value,
        max_value=writer.max_value,
        dtype=dtype,
        blocks=tuple(writer.blocks),
    )


def _checked_chunks(
    ref: AttributeRef, values: Iterable[str], size: int
) -> Iterator[list[str]]:
    """Yield ``values`` in lists of ``size``, verifying strict ascent.

    Each slice is checked pairwise with ``operator.lt`` in one pass, plus
    the pair across the boundary with the previous slice; only a failing
    slice is rescanned, to name its first violation.
    """
    source = iter(values)
    last: str | None = None
    while chunk := list(islice(source, size)):
        if (last is not None and not last < chunk[0]) or not all(
            map(lt, chunk, islice(chunk, 1, None))
        ):
            _raise_first_descent(ref, chunk, last)
        last = chunk[-1]
        yield chunk


def _raise_first_descent(
    ref: AttributeRef, chunk: list[str], last: str | None
) -> None:
    for value in chunk:
        if last is not None and value <= last:
            raise SpoolError(
                f"values for {ref} are not strictly ascending: "
                f"{value!r} after {last!r}"
            )
        last = value


@dataclass(frozen=True)
class SortedValueFile:
    """One attribute's sorted distinct value set on disk, plus its metadata."""

    ref: AttributeRef
    path: str
    count: int
    min_value: str | None
    max_value: str | None
    dtype: str
    blocks: tuple[BlockMeta, ...] = field(default=())

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    def index_entry(self) -> dict:
        """This file's entry in the ``attributes`` array of ``index.json``."""
        return {
            "table": self.ref.table,
            "column": self.ref.column,
            "file": os.path.basename(self.path),
            "count": self.count,
            "min": self.min_value,
            "max": self.max_value,
            "dtype": self.dtype,
            "blocks": [block.to_doc() for block in self.blocks],
        }

    def index_text(self) -> str:
        """:meth:`index_entry` as ``json.dumps(doc, indent=2)`` writes it
        inside the index's ``attributes`` array, memoised on the record.

        json escapes a newline inside a string, so every newline of the
        entry's own indented text is a line break, and indenting each one
        nests the entry two levels deep.  Every field of the record is
        frozen, so the text is computed once; :meth:`relocated` hands it on
        while the file name stays.
        """
        text = self.__dict__.get("_index_text")
        if text is None:
            text = json.dumps(self.index_entry(), indent=2).replace(
                "\n", "\n" + _ENTRY_INDENT
            )
            object.__setattr__(self, "_index_text", text)
        return text

    def relocated(self, path: str) -> "SortedValueFile":
        """This record with its file at ``path``; the memoised index text
        carries over when the file name does not change."""
        moved = self._at(path)
        if os.path.basename(path) != os.path.basename(self.path):
            moved.__dict__.pop("_index_text", None)
        return moved

    def _at(self, path: str) -> "SortedValueFile":
        """A copy of the instance dict, every field and the memo, with
        ``path`` in place of the file's path."""
        moved = object.__new__(SortedValueFile)
        state = moved.__dict__
        state.update(self.__dict__)
        state["path"] = path
        return moved

    def open_cursor(
        self,
        stats: IOStats | None = None,
        payloads: list[tuple[str, bytes]] | None = None,
    ) -> BlockValueCursor:
        """A cursor over the file; ``payloads`` collects its decoded
        blocks (see :class:`~repro.storage.cursors.BlockValueCursor`)."""
        return BlockValueCursor(
            self.path,
            stats=stats,
            label=self.ref.qualified,
            blocks=self.blocks,
            payloads=payloads,
        )

    def values(self) -> list[str]:
        """Read the whole file into memory (tests and small sets only)."""
        cursor = self.open_cursor()
        try:
            out: list[str] = []
            while True:
                batch = cursor.read_batch(4096)
                if not batch:
                    return out
                out.extend(batch)
        finally:
            cursor.close()


class SpoolDirectory:
    """A directory of sorted value files, addressable by attribute.

    Create with :meth:`create`, populate with :meth:`add_values`, persist with
    :meth:`save_index`, reopen later with :meth:`open` (which reads the
    frame version and compression from the index).  The registry is
    guarded by a lock, so threads may add, register and discard attributes
    concurrently.

    The directory remembers the stat identity of the ``index.json`` it
    last read or wrote, so :meth:`index_is_current` can tell with one
    ``os.stat`` whether the registry in memory still describes the index
    on disk.
    """

    def __init__(
        self,
        root: Path,
        block_size: int = DEFAULT_BLOCK_SIZE,
        compression: str = COMPRESSION_NONE,
    ) -> None:
        if block_size < 1:
            raise SpoolError(f"block_size must be >= 1, got {block_size!r}")
        if compression not in SPOOL_COMPRESSIONS:
            raise SpoolError(
                f"unknown spool compression {compression!r}; choose from "
                f"{SPOOL_COMPRESSIONS}"
            )
        self.root = root
        self.block_size = block_size
        self.compression = compression
        #: SHA-256 fingerprint of the source database catalog, stamped by the
        #: spool cache so a kept directory can be matched to an unchanged
        #: database (see :mod:`repro.storage.spool_cache`).
        self.catalog_hash: str | None = None
        #: Source database name and per-attribute fingerprint map
        #: (qualified name → content digest), stamped alongside
        #: ``catalog_hash`` by the spool cache.  They let a *different*
        #: fingerprint's rebuild identify which of this directory's value
        #: files cover unchanged columns and adopt them instead of
        #: re-exporting (``SpoolCache.find_partial``).  ``None`` on spools
        #: written before the map existed — those still serve exact hits.
        self.database_name: str | None = None
        self.attribute_fingerprints: dict[str, str] | None = None
        self._files: dict[AttributeRef, SortedValueFile] = {}
        self._reserved: dict[AttributeRef, str] = {}
        #: How many registered files and reservations hold each file name,
        #: kept in step with both so naming a new attribute is O(1).
        self._used_names: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._index_identity: tuple[int, ...] | None = None

    # ---------------------------------------------------------- construction
    @classmethod
    def create(
        cls,
        root: str | Path,
        format: str = FORMAT_BINARY,
        block_size: int = DEFAULT_BLOCK_SIZE,
        compression: str = COMPRESSION_NONE,
        mmap_reads: bool = False,
    ) -> "SpoolDirectory":
        """An empty spool directory at ``root`` (created if missing).

        ``format`` accepts only ``"binary"`` (see :func:`check_format`) and
        ``mmap_reads`` only ``False`` (see :func:`check_mmap_reads`).
        """
        check_format(format)
        check_mmap_reads(mmap_reads)
        path = Path(root)
        path.mkdir(parents=True, exist_ok=True)
        return cls(path, block_size=block_size, compression=compression)

    @classmethod
    def open(cls, root: str | Path) -> "SpoolDirectory":
        path = Path(root)
        index_path = path / _INDEX_FILE
        if not index_path.exists():
            raise SpoolError(f"{path} is not a spool directory (no {_INDEX_FILE})")
        with open(index_path, encoding="utf-8") as fh:
            doc = json.load(fh)
            identity = _identity(os.fstat(fh.fileno()))
        version = doc.get("version")
        if version is None:
            raise SpoolError(
                f"{path} is a v1 text spool (its {_INDEX_FILE} has no "
                "version); the text format was removed, so re-export it"
            )
        if version not in (INDEX_VERSION, COMPRESSED_INDEX_VERSION):
            raise SpoolError(
                f"spool index version {version!r} of {path} is not supported "
                f"(this build reads versions {INDEX_VERSION} and "
                f"{COMPRESSED_INDEX_VERSION})"
            )
        format = doc.get("format")
        if format != FORMAT_BINARY:
            raise SpoolError(
                f"spool index of {path} names format {format!r}; only "
                f"{FORMAT_BINARY!r} spools are readable (the v1 'text' "
                "format was removed, so re-export it)"
            )
        compression = COMPRESSION_NONE
        if version == COMPRESSED_INDEX_VERSION:
            compression = doc.get("compression", COMPRESSION_NONE)
            if compression not in SPOOL_COMPRESSIONS:
                raise SpoolError(
                    f"spool index of {path} names unknown compression "
                    f"{compression!r}"
                )
        spool = cls(
            path,
            block_size=doc.get("block_size", DEFAULT_BLOCK_SIZE),
            compression=compression,
        )
        spool.catalog_hash = doc.get("catalog_hash")
        spool.database_name = doc.get("database")
        fingerprints = doc.get("attribute_fingerprints")
        if isinstance(fingerprints, dict):
            spool.attribute_fingerprints = {
                str(k): str(v) for k, v in fingerprints.items()
            }
        # One listing vouches for every value file the index names.
        base = os.fspath(path)
        present = set(os.listdir(base))
        for entry in doc.get("attributes", []):
            ref = AttributeRef(entry["table"], entry["column"])
            name = entry["file"]
            file_path = os.path.join(base, name)
            if name not in present:
                raise SpoolError(f"spool index references missing file {file_path}")
            blocks = tuple(
                BlockMeta.from_doc(b) for b in entry.get("blocks", [])
            )
            spool._files[ref] = SortedValueFile(
                ref=ref,
                path=file_path,
                count=entry["count"],
                min_value=entry.get("min"),
                max_value=entry.get("max"),
                dtype=entry.get("dtype", "VARCHAR"),
                blocks=blocks,
            )
            spool._used_names[name] += 1
        spool._index_identity = identity
        return spool

    def add_values(
        self,
        ref: AttributeRef,
        sorted_distinct_values: Iterable[str],
        dtype: str = "VARCHAR",
    ) -> SortedValueFile:
        """Write one attribute's sorted distinct values to its spool file.

        The input **must already be sorted and duplicate-free**; this is
        verified while writing (cheap, one comparison per value) because a
        mis-sorted spool file silently breaks every validator.
        """
        file_name = self.reserve_name(ref)
        file_path = self.root / file_name
        try:
            svf = write_value_file(
                ref,
                file_path,
                sorted_distinct_values,
                dtype=dtype,
                block_size=self.block_size,
                compression=self.compression,
            )
        except BaseException:
            self.release(ref)
            file_path.unlink(missing_ok=True)
            raise
        self.register(svf)
        return svf

    def reserve_name(self, ref: AttributeRef) -> str:
        """Claim a unique spool file name for ``ref`` without writing it.

        The task-shaped export path plans every attribute's file name in the
        parent — worker processes each hold their own registry copy, so
        collision avoidance must happen where the full picture lives — and
        ships the name to the worker inside the export unit.  The
        reservation blocks both duplicate spooling of ``ref`` and name
        reuse until :meth:`register` (or a failure) releases it.
        """
        with self._lock:
            if ref in self._files or ref in self._reserved:
                raise SpoolError(f"attribute {ref} already spooled")
            file_name = self._file_name(ref)
            self._reserved[ref] = file_name
            self._used_names[file_name] += 1
            return file_name

    def register(self, svf: SortedValueFile) -> SortedValueFile:
        """Install an externally written value file into the registry.

        The counterpart of :meth:`reserve_name`: the parent folds the
        :class:`SortedValueFile` metadata a worker's export task produced
        back into the directory, after which :meth:`save_index` persists
        it like any locally written attribute.  The file must already
        exist at its recorded path.
        """
        with self._lock:
            if svf.ref in self._files:
                raise SpoolError(f"attribute {svf.ref} already spooled")
            self._release_name(self._reserved.pop(svf.ref, None))
            self._files[svf.ref] = svf
            self._used_names[os.path.basename(svf.path)] += 1
            self._index_identity = None  # the index on disk lacks this file
        return svf

    def release(self, ref: AttributeRef) -> None:
        """Drop the name reservation of ``ref`` (an export unit that failed
        or produced an empty attribute the caller decided not to keep)."""
        with self._lock:
            self._release_name(self._reserved.pop(ref, None))

    def _release_name(self, name: str | None) -> None:
        if name is not None:
            self._used_names[name] -= 1
            if not self._used_names[name]:
                del self._used_names[name]

    def save_index(self) -> None:
        """Write ``index.json`` atomically; a failed write (a full disk)
        removes its temporary file and raises
        :class:`~repro.errors.SpoolError` naming the index path."""
        compressed = self.compression != COMPRESSION_NONE
        doc: dict = {
            "version": COMPRESSED_INDEX_VERSION if compressed else INDEX_VERSION,
            "format": FORMAT_BINARY,
        }
        if compressed:
            doc["compression"] = self.compression
        doc["block_size"] = self.block_size
        if self.catalog_hash is not None:
            doc["catalog_hash"] = self.catalog_hash
        if self.database_name is not None:
            doc["database"] = self.database_name
        if self.attribute_fingerprints is not None:
            doc["attribute_fingerprints"] = {
                k: self.attribute_fingerprints[k]
                for k in sorted(self.attribute_fingerprints)
            }
        # The text is json.dumps(doc, indent=2) with "attributes" last,
        # each attribute's entry text memoised on its record.
        parts = [json.dumps(doc, indent=2)[: -len("\n}")]]
        parts.append(',\n  "attributes": ')
        files = self._files
        if files:
            parts.append(f"[\n{_ENTRY_INDENT}")
            parts.append(
                f",\n{_ENTRY_INDENT}".join(
                    files[ref].index_text()
                    for ref in sorted(files, key=REF_ORDER)
                )
            )
            parts.append("\n  ]")
        else:
            parts.append("[]")
        parts.append("\n}")
        # Write-then-rename: a reader (or a crash) can never observe a
        # truncated index — it either sees the previous one or the new one.
        # The rename sets the file's ctime, so the identity is taken after.
        tmp_path = os.path.join(self.root, f"{_INDEX_FILE}.tmp")
        index_path = os.path.join(self.root, _INDEX_FILE)
        try:
            with open(tmp_path, "w", encoding="utf-8") as fh:
                fh.write("".join(parts))
            os.replace(tmp_path, index_path)
        except OSError as exc:
            with suppress(FileNotFoundError):
                os.unlink(tmp_path)
            raise SpoolError(
                f"cannot save the spool index {index_path}: {exc}"
            ) from exc
        self._index_identity = _identity(os.stat(index_path))

    def index_is_current(self) -> bool:
        """Whether ``index.json`` on disk is the file this registry last
        read or wrote, unchanged since.

        One ``os.stat``.  ``False`` when the directory never read or wrote
        an index, when a file was registered or discarded since, or when
        the index is gone, replaced or rewritten.
        """
        if self._index_identity is None:
            return False
        try:
            st = os.stat(os.path.join(self.root, _INDEX_FILE))
        except OSError:
            return False
        return _identity(st) == self._index_identity

    def moved_to(
        self, root: str | Path, refs: Iterable[AttributeRef] | None = None
    ) -> "SpoolDirectory":
        """This registry as it reads once its directory is renamed to ``root``.

        Each file keeps its name, and its recorded path moves to ``root``.
        The index identity carries over, because renaming a directory
        leaves the inodes of its files alone.  Lets a caller that renamed a
        finished spool keep using its registry instead of parsing the
        index again.  ``refs`` keeps only those attributes' records; the
        index on disk then no longer describes the registry.
        """
        moved = SpoolDirectory(
            Path(root), block_size=self.block_size, compression=self.compression
        )
        moved.catalog_hash = self.catalog_hash
        moved.database_name = self.database_name
        moved.attribute_fingerprints = self.attribute_fingerprints
        base = os.path.join(os.fspath(root), "")
        names = []
        with self._lock:
            for ref in self._files if refs is None else refs:
                svf = self._files[ref]
                name = os.path.basename(svf.path)
                moved._files[ref] = svf._at(base + name)  # the name stays
                names.append(name)
        moved._used_names.update(names)
        if refs is None:
            moved._index_identity = self._index_identity
        return moved

    def _file_name(self, ref: AttributeRef) -> str:
        candidate = value_file_name(ref)
        suffix = 1
        while candidate in self._used_names:
            suffix += 1
            candidate = value_file_name(ref, suffix)
        return candidate

    def discard(self, ref: AttributeRef) -> None:
        """Remove an attribute's spool file (used to drop empty attributes)."""
        with self._lock:
            svf = self._files.pop(ref, None)
            if svf is not None:
                self._release_name(os.path.basename(svf.path))
                self._index_identity = None
        if svf is not None:
            with suppress(FileNotFoundError):
                os.unlink(svf.path)

    # --------------------------------------------------------------- lookups
    def __contains__(self, ref: AttributeRef) -> bool:
        return ref in self._files

    def __len__(self) -> int:
        return len(self._files)

    def get(self, ref: AttributeRef) -> SortedValueFile:
        try:
            return self._files[ref]
        except KeyError:
            raise SpoolError(f"attribute {ref} is not in the spool") from None

    def attributes(self) -> list[AttributeRef]:
        return sorted(self._files)

    def open_cursor(
        self,
        ref: AttributeRef,
        stats: IOStats | None = None,
        payloads: list[tuple[str, bytes]] | None = None,
    ) -> BlockValueCursor:
        return self.get(ref).open_cursor(stats, payloads)

    def total_values(self) -> int:
        return sum(f.count for f in self._files.values())
