"""Sorted value-set storage: the database-external half of the paper.

The external algorithms (Sec. 3) operate on *sorted files of distinct
attribute values* extracted once from the database.  This package provides:

* :mod:`repro.storage.codec` — TO_CHAR-style value rendering plus the escaping
  and binary block codec of the spool files;
* :mod:`repro.storage.blockio` — framing of the v2/v3 length-prefixed block
  files (writer, magic, per-block metadata);
* :mod:`repro.storage.external_sort` — bounded-memory external merge sort;
* :mod:`repro.storage.sorted_sets` — one sorted, distinct value file per
  attribute plus a JSON metadata sidecar;
* :mod:`repro.storage.cursors` — forward cursors with batched reads and
  item-read accounting (the counters behind Figure 5);
* :mod:`repro.storage.exporter` — extraction of a whole database into a
  spool directory, optionally with parallel workers;
* :mod:`repro.storage.spool_cache` — content-addressed reuse of spool
  directories across runs, keyed by a catalog fingerprint.
"""

from repro.storage.blockio import (
    DEFAULT_BLOCK_SIZE,
    BlockFileWriter,
    BlockMeta,
)
from repro.storage.codec import (
    COMPRESSION_NONE,
    COMPRESSION_ZLIB,
    SPOOL_COMPRESSIONS,
    decode_block,
    encode_block,
    escape_line,
    render_value,
    unescape_line,
)
from repro.storage.cursors import (
    BatchReader,
    BlockValueCursor,
    CountingCursor,
    IOStats,
    MemoryValueCursor,
    ValueCursor,
)
from repro.storage.exporter import export_database
from repro.storage.external_sort import external_sort
from repro.storage.spool_cache import SpoolCache, catalog_fingerprint
from repro.storage.sorted_sets import (
    FORMAT_BINARY,
    SortedValueFile,
    SpoolDirectory,
)

__all__ = [
    "BatchReader",
    "BlockFileWriter",
    "BlockMeta",
    "BlockValueCursor",
    "COMPRESSION_NONE",
    "COMPRESSION_ZLIB",
    "CountingCursor",
    "DEFAULT_BLOCK_SIZE",
    "FORMAT_BINARY",
    "IOStats",
    "MemoryValueCursor",
    "SPOOL_COMPRESSIONS",
    "SortedValueFile",
    "SpoolCache",
    "SpoolDirectory",
    "ValueCursor",
    "catalog_fingerprint",
    "decode_block",
    "encode_block",
    "escape_line",
    "export_database",
    "external_sort",
    "render_value",
    "unescape_line",
]
