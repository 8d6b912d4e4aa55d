"""Spools and cache entries written earlier must stay byte-for-byte the same.

A spool cache directory outlives the build that filled it: an entry is
found by its name and trusted by its ``index.json``, and every lookup after
an upgrade hits only if the new build would have written the very same
names and bytes.  These goldens pin both, on uncompressed (v2) spools of
two seeded databases whose values exercise the escaping (newline,
backslash, NUL, tab, empty string) at three block sizes.  The digests were
produced by builds that still carried the v1 text writer, so a failure
here means caches built before the text format's removal stop hitting.
Compressed (v3) frames are left out: their bytes depend on the zlib
library the interpreter links.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from seeded_dbs import build_db, build_random_db

from repro.db.stats import collect_column_stats
from repro.storage.exporter import export_database
from repro.storage.spool_cache import SpoolCache, catalog_fingerprint

#: (seed of ``build_random_db``, block size) -> SHA-256 over the spool's
#: files in name order, each as ``name NUL bytes NUL``.
SPOOL_DIGESTS = {
    (3, 1): "854368d4622f0d748c66c5b0db773151be539dbfc36eec730937dd7595f1916e",
    (3, 3): "d95140bf468fd4c0267d7b06b0f2b8be7eaa216775d40f04077fe106703a3e47",
    (3, 4096): "44d392636f27431b6cffe5e5681252d6fb9283c43fdd084918956858438f98e5",
    (7, 1): "5de40ffe8bec440e7f59647ff03303ba7259378abd339f71074257fb30906ebb",
    (7, 3): "24fd7f2b184e9d981e12f1b0cdfb0a171d7690dae6e9e74b1356fe95ad8da500",
    (7, 4096): "b51b931fee303506edab7f8f04864ce7427264a0107e7900383f694495fabdef",
}

#: Cache entry names of ``build_db(0)``'s catalog, by (block size,
#: compression).
ENTRY_NAMES = {
    (4096, "none"): "3c6851dee7866e75b5dcaede730b7be9-binary-4096",
    (3, "none"): "3c6851dee7866e75b5dcaede730b7be9-binary-3",
    (3, "zlib"): "3c6851dee7866e75b5dcaede730b7be9-binary-3-zlib",
}


def _spool_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(root).iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "seed, block_size", sorted(SPOOL_DIGESTS), ids=lambda v: str(v)
)
def test_spool_bytes_are_pinned(tmp_path, seed, block_size):
    spool, _ = export_database(
        build_random_db(seed), str(tmp_path / "spool"), block_size=block_size
    )
    assert _spool_digest(spool.root) == SPOOL_DIGESTS[(seed, block_size)]


@pytest.mark.parametrize(
    "block_size, compression", sorted(ENTRY_NAMES), ids=lambda v: str(v)
)
def test_cache_entry_names_are_pinned(tmp_path, block_size, compression):
    db = build_db(0)
    fingerprint = catalog_fingerprint(db.name, collect_column_stats(db))
    entry = SpoolCache(tmp_path / "cache").entry_path(
        fingerprint, block_size=block_size, compression=compression
    )
    assert entry.name == ENTRY_NAMES[(block_size, compression)]
