"""The content-addressed spool cache: hit, miss, and stale invalidation."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import DiscoveryConfig, discover_inds
from repro.datagen import generate_biosql
from repro.db import Column, Database, DataType, TableSchema
from repro.db.stats import collect_column_stats
from repro.errors import SpoolError
from repro.storage import exporter
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory
from repro.storage.spool_cache import SpoolCache, catalog_fingerprint


def _db(rows: int = 20, extra: int | None = None) -> Database:
    db = Database("cachedb")
    table = db.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, unique=True),
                Column("ref", DataType.INTEGER),
            ],
        )
    )
    for i in range(rows):
        table.insert({"id": i, "ref": i % 7})
    if extra is not None:
        table.insert({"id": extra, "ref": extra % 7})
    return db


def _fingerprint(db: Database) -> str:
    return catalog_fingerprint(db.name, collect_column_stats(db))


def _evict_all_in_another_process(cache_dir: Path) -> None:
    """Empty the cache at ``cache_dir`` from a separate interpreter."""
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from repro.storage.spool_cache import SpoolCache; "
            "SpoolCache(sys.argv[1]).evict_all()",
            str(cache_dir),
        ],
        env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1])),
        check=True,
        timeout=60,
    )


class TestCatalogFingerprint:
    def test_stable_for_identical_databases(self):
        assert _fingerprint(_db()) == _fingerprint(_db())

    def test_changes_on_any_data_or_schema_change(self):
        base = _fingerprint(_db())
        assert _fingerprint(_db(rows=21)) != base  # one extra row
        assert _fingerprint(_db(extra=999)) != base  # one extra value
        renamed = _db()
        renamed.name = "other"
        assert _fingerprint(renamed) != base

    def test_detects_stats_preserving_value_swap(self):
        """Counts and extrema can miss an edit; the value checksum must not.

        Both columns hold 3 distinct single-character values with identical
        min/max — every counted and extremal statistic agrees — yet the
        databases differ, so reusing one's spool for the other would return
        wrong INDs.
        """

        def tiny(values):
            db = Database("swap")
            table = db.create_table(
                TableSchema("t", [Column("v", DataType.VARCHAR)])
            )
            for value in values:
                table.insert({"v": value})
            return db

        assert _fingerprint(tiny(["a", "b", "d"])) != _fingerprint(
            tiny(["a", "c", "d"])
        )


class TestSpoolCache:
    def _populate(self, cache, db, fingerprint, **export_kwargs):
        spool, _ = export_database(
            db, str(cache.prepare(fingerprint)), **export_kwargs
        )
        return cache.publish(fingerprint, spool)

    def test_miss_then_hit(self, tmp_path):
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        assert cache.lookup(fingerprint) is None
        spool = self._populate(cache, db, fingerprint)
        assert Path(spool.root) == cache.entry_path(fingerprint)
        cached = cache.lookup(fingerprint)
        assert cached is not None
        assert cached.catalog_hash == fingerprint
        assert cached.total_values() == spool.total_values()
        assert cache.entries() == [cache.entry_path(fingerprint)]

    def test_changed_catalog_misses(self, tmp_path):
        db = _db()
        cache = SpoolCache(tmp_path / "cache")
        self._populate(cache, db, _fingerprint(db))
        assert cache.lookup(_fingerprint(_db(extra=999))) is None

    def test_stale_entry_is_evicted_and_rebuilt_over(self, tmp_path):
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        self._populate(cache, db, fingerprint)
        # Corrupt the recorded hash: the entry no longer proves it belongs
        # to this fingerprint and must not be trusted.
        index = cache.entry_path(fingerprint) / "index.json"
        doc = json.loads(index.read_text())
        doc["catalog_hash"] = "0" * 64
        index.write_text(json.dumps(doc))
        assert cache.lookup(fingerprint) is None
        assert not cache.entry_path(fingerprint).exists()  # evicted

    def test_corrupt_index_is_evicted_not_fatal(self, tmp_path):
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        self._populate(cache, db, fingerprint)
        index = cache.entry_path(fingerprint) / "index.json"
        index.write_text(index.read_text()[:40])  # truncated JSON
        assert cache.lookup(fingerprint) is None
        assert not cache.entry_path(fingerprint).exists()

    def test_unpublished_staging_never_hits(self, tmp_path):
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        export_database(db, str(cache.prepare(fingerprint)))
        # Crash before publish(): nothing exists under the entry path.
        assert cache.lookup(fingerprint) is None
        assert not cache.entry_path(fingerprint).exists()
        assert cache.entries() == []  # staging dirs are not entries

    def test_differently_configured_entries_coexist(self, tmp_path):
        """Compression/block size are part of the slot: no thrashing."""
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        self._populate(cache, db, fingerprint, compression="zlib")
        assert cache.lookup(fingerprint) is None
        assert cache.entry_path(fingerprint, compression="zlib").exists()
        self._populate(cache, db, fingerprint)
        # Both layouts now hit, each from its own entry.
        assert cache.lookup(fingerprint, compression="zlib") is not None
        assert cache.lookup(fingerprint) is not None
        assert len(cache.entries()) == 2

    def test_block_size_mismatch_is_a_miss(self, tmp_path):
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        self._populate(cache, db, fingerprint, block_size=8)
        assert cache.lookup(fingerprint, block_size=4) is None
        assert cache.lookup(fingerprint, block_size=8) is not None

    def test_concurrent_publish_replaces_equivalent_entry(self, tmp_path):
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        staging_a = cache.prepare(fingerprint)
        spool_a, _ = export_database(db, str(staging_a))
        # A second process races past us and publishes first; our publish
        # swaps its complete, equivalent entry for ours in one rename.
        other = SpoolCache(tmp_path / "cache")
        self._populate(other, db, fingerprint)
        published = cache.publish(fingerprint, spool_a)
        assert Path(published.root) == cache.entry_path(fingerprint)
        assert not staging_a.exists()
        assert cache.lookup(fingerprint) is not None


    def test_publish_hands_back_the_staged_registry(self, tmp_path):
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        staging = cache.prepare(fingerprint)
        spool, _ = export_database(db, str(staging))
        published = cache.publish(fingerprint, spool, database=db.name)
        entry = cache.entry_path(fingerprint)
        reopened = SpoolDirectory.open(entry)
        assert published is not spool
        assert Path(published.root) == entry
        assert published.attributes() == reopened.attributes()
        for ref in reopened.attributes():
            assert published.get(ref) == reopened.get(ref)
        assert published.catalog_hash == reopened.catalog_hash == fingerprint
        assert published.database_name == reopened.database_name == db.name
        assert published.index_is_current()

    def test_a_publish_that_loses_the_rename_opens_the_winner(
        self, tmp_path, monkeypatch
    ):
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        staging = cache.prepare(fingerprint)
        spool, _ = export_database(db, str(staging))
        rename = Path.rename

        def publish_theirs():
            other = SpoolCache(tmp_path / "cache")
            theirs, _ = export_database(db, str(other.prepare(fingerprint)))
            other.publish(fingerprint, theirs, database="theirs")

        def racing_rename(self, target):
            if self == staging:
                # Another process publishes the slot between our check
                # and our rename, which then fails on the full directory.
                monkeypatch.setattr(Path, "rename", rename)
                publish_theirs()
            return rename(self, target)

        monkeypatch.setattr(Path, "rename", racing_rename)
        published = cache.publish(fingerprint, spool, database=db.name)
        assert not staging.exists()
        assert Path(published.root) == cache.entry_path(fingerprint)
        assert published.database_name == "theirs"  # read from disk


class TestDiscoverIndsReuse:
    def _config(self, cache_dir, **kwargs) -> DiscoveryConfig:
        return DiscoveryConfig(
            strategy="brute-force",
            reuse_spool=True,
            cache_dir=str(cache_dir),
            **kwargs,
        )

    def test_second_run_performs_zero_export_work(self, tmp_path, monkeypatch):
        db = _db()
        calls = {"count": 0}
        real_export = exporter.export_into

        def counting_export(*args, **kwargs):
            calls["count"] += 1
            return real_export(*args, **kwargs)

        # The runner resolves the exporter through its own import; patch both.
        monkeypatch.setattr(exporter, "export_into", counting_export)
        monkeypatch.setattr("repro.core.runner.export_into", counting_export)
        first = discover_inds(db, self._config(tmp_path / "cache"))
        assert calls["count"] == 1
        assert not first.spool_cache_hit
        assert first.export_values_written > 0

        second = discover_inds(db, self._config(tmp_path / "cache"))
        assert calls["count"] == 1  # exporter never called again
        assert second.spool_cache_hit
        assert second.export_values_written == 0
        assert second.export_values_scanned == 0
        assert second.satisfied == first.satisfied
        assert second.validator_stats.items_read == first.validator_stats.items_read

    def test_changed_database_re_exports(self, tmp_path):
        cache = tmp_path / "cache"
        first = discover_inds(_db(), self._config(cache))
        changed = discover_inds(_db(extra=999), self._config(cache))
        assert not first.spool_cache_hit
        assert not changed.spool_cache_hit
        assert changed.export_values_written > 0

    def test_cache_survives_and_feeds_parallel_validation(self, tmp_path):
        cache = tmp_path / "cache"
        sequential = discover_inds(_db(), self._config(cache))
        parallel = discover_inds(
            _db(), self._config(cache, validation_workers=2)
        )
        assert parallel.spool_cache_hit
        assert parallel.satisfied == sequential.satisfied

    def test_reuse_requires_external_strategy(self, tmp_path):
        from repro.errors import DiscoveryError

        with pytest.raises(DiscoveryError, match="external"):
            DiscoveryConfig(
                strategy="sql-join", reuse_spool=True, cache_dir=str(tmp_path)
            ).validated()

    def test_reuse_rejects_explicit_spool_dir(self, tmp_path):
        from repro.errors import DiscoveryError

        with pytest.raises(DiscoveryError, match="spool_dir"):
            DiscoveryConfig(
                reuse_spool=True,
                cache_dir=str(tmp_path / "cache"),
                spool_dir=str(tmp_path / "spool"),
            ).validated()


class TestLruEviction:
    """The LRU-by-mtime eviction policy behind `repro-ind cache` and budgets."""

    def _entries(self, cache, count):
        """Publish `count` distinct-fingerprint entries, oldest first."""
        import os
        import time

        infos = []
        for i in range(count):
            db = _db(rows=10 + i)
            db.name = f"lru{i}"  # distinct catalog => distinct fingerprint
            fingerprint = catalog_fingerprint(db.name, collect_column_stats(db))
            spool, _ = export_database(db, str(cache.prepare(fingerprint)))
            cache.publish(fingerprint, spool)
            entry = cache.entry_path(fingerprint)
            # Deterministic, well-spread recency regardless of clock tick.
            stamp = time.time() - 1000 + i * 10
            os.utime(entry, (stamp, stamp))
            infos.append((fingerprint, entry))
        return infos

    def test_list_entries_reports_metadata_stalest_first(self, tmp_path):
        cache = SpoolCache(tmp_path / "cache")
        published = self._entries(cache, 3)
        listed = cache.list_entries()
        assert [info.path for info in listed] == [e for _, e in published]
        for info in listed:
            assert info.spool_format == "binary"
            assert info.block_size is not None
            assert info.size_bytes > 0
            assert info.attribute_count == 2  # id + ref
            assert any(fp.startswith(info.fingerprint_prefix)
                       for fp, _ in published)
        assert cache.total_bytes() == sum(i.size_bytes for i in listed)

    def test_enforce_budget_evicts_stalest_first(self, tmp_path):
        cache = SpoolCache(tmp_path / "cache")
        published = self._entries(cache, 3)
        sizes = {i.path: i.size_bytes for i in cache.list_entries()}
        keep_two = sizes[published[1][1]] + sizes[published[2][1]]
        evicted = cache.enforce_budget(max_bytes=keep_two)
        assert [info.path for info in evicted] == [published[0][1]]
        assert not published[0][1].exists()
        assert published[1][1].exists() and published[2][1].exists()
        assert cache.total_bytes() <= keep_two

    def test_hit_refreshes_recency(self, tmp_path):
        cache = SpoolCache(tmp_path / "cache")
        published = self._entries(cache, 3)
        oldest_fp = published[0][0]
        assert cache.lookup(oldest_fp) is not None  # touch: now most recent
        listed = cache.list_entries()
        assert listed[-1].path == published[0][1], (
            "a hit must move the entry to the most-recent end"
        )
        # Budget for one entry: the freshly hit one must be the survivor.
        evicted = cache.enforce_budget(max_bytes=listed[-1].size_bytes)
        assert published[0][1].exists()
        assert {info.path for info in evicted} == {
            published[1][1], published[2][1]
        }

    def test_publish_with_budget_never_evicts_its_own_entry(self, tmp_path):
        cache = SpoolCache(tmp_path / "cache", max_bytes=1)  # absurdly small
        db = _db()
        fingerprint = _fingerprint(db)
        spool, _ = export_database(db, str(cache.prepare(fingerprint)))
        published = cache.publish(fingerprint, spool)
        # Over budget, but the just-published entry is protected...
        assert Path(published.root).exists()
        assert cache.lookup(fingerprint) is not None
        # ...while the next publish evicts it as the stalest unprotected one.
        other = _db(rows=33)
        other.name = "lru-other"
        fp2 = catalog_fingerprint(other.name, collect_column_stats(other))
        spool2, _ = export_database(other, str(cache.prepare(fp2)))
        cache.publish(fp2, spool2)
        assert cache.lookup(fingerprint) is None
        assert cache.lookup(fp2) is not None

    def test_eviction_racing_a_concurrent_hit_is_safe(self, tmp_path):
        """A reader holding a cursor survives eviction of its entry."""
        cache = SpoolCache(tmp_path / "cache")
        db = _db(rows=50)
        fingerprint = _fingerprint(db)
        spool, _ = export_database(db, str(cache.prepare(fingerprint)))
        cache.publish(fingerprint, spool)
        hit = cache.lookup(fingerprint)
        ref = hit.attributes()[0]
        cursor = hit.open_cursor(ref)
        first = cursor.read_batch(5)
        assert len(first) == 5
        # Eviction renames the entry aside before deleting, so the open
        # file descriptor keeps working (POSIX) and a subsequent lookup
        # is a clean miss, never a torn read.
        assert cache.evict(fingerprint)
        rest = cursor.read_batch(10_000)
        assert len(first) + len(rest) == hit.get(ref).count
        cursor.close()
        assert cache.lookup(fingerprint) is None

    def test_another_process_evicting_a_hit_never_changes_the_answer(
        self, tmp_path, monkeypatch
    ):
        """A hit whose entry another process evicts answers right or fails.

        Eviction waits for no reader in another process, and cursors open
        value files lazily.  So a run that hits an entry which a second
        process evicts right after the lookup may fail with a
        ``SpoolError`` naming a value file.  It must never answer
        differently from a fresh run, and once holds reach across
        processes it answers.
        """
        db = generate_biosql("tiny", seed=0).db
        config = DiscoveryConfig(
            reuse_spool=True, cache_dir=str(tmp_path / "cache")
        )
        fresh = discover_inds(db, DiscoveryConfig())
        discover_inds(db, config)  # publishes the entry
        lookup = SpoolCache.lookup
        hits = []

        def lookup_then_evict_elsewhere(cache, *args, **kwargs):
            spool = lookup(cache, *args, **kwargs)
            hits.append(spool is not None)
            _evict_all_in_another_process(cache.root)
            return spool

        monkeypatch.setattr(SpoolCache, "lookup", lookup_then_evict_elsewhere)
        try:
            result = discover_inds(db, config)
        except SpoolError as exc:
            assert re.search(r"cannot open value file \S+\.valsb", str(exc))
        else:
            assert result.satisfied == fresh.satisfied
        assert hits == [True]

    def test_evict_prefix_accepts_the_full_fingerprint(self, tmp_path):
        """The full 64-char digest (longer than the stored 32-char entry
        prefix, and the natural thing to paste from logs) must match."""
        cache = SpoolCache(tmp_path / "cache")
        published = self._entries(cache, 1)
        full = published[0][0]
        assert len(full) == 64
        assert [i.path for i in cache.evict_prefix(full)] == [published[0][1]]
        assert cache.list_entries() == []

    def test_evict_prefix_and_evict_all(self, tmp_path):
        cache = SpoolCache(tmp_path / "cache")
        published = self._entries(cache, 2)
        prefix = published[0][0][:8]
        evicted = cache.evict_prefix(prefix)
        assert [info.path for info in evicted] == [published[0][1]]
        with pytest.raises(Exception, match="empty prefix"):
            cache.evict_prefix("")
        assert [i.path for i in cache.evict_all()] == [published[1][1]]
        assert cache.list_entries() == []


class TestOrphans:
    """Operator visibility into never-published working directories."""

    def test_empty_cache_has_no_orphans(self, tmp_path):
        assert SpoolCache(tmp_path / "cache").list_orphans() == []

    def test_abandoned_staging_is_listed_and_reclaimed(self, tmp_path):
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        # A completed export that crashed before publish: full spool files
        # in staging, no catalog_hash, invisible to lookup.
        export_database(db, str(cache.prepare(fingerprint)))
        orphans = cache.list_orphans()
        assert [o.kind for o in orphans] == ["staging"]
        assert orphans[0].size_bytes > 0
        assert orphans[0].name.startswith(".staging-")
        assert cache.lookup(fingerprint) is None
        evicted = cache.evict_orphans()
        assert evicted == orphans
        assert cache.list_orphans() == []
        assert not orphans[0].path.exists()

    def test_published_entries_are_never_orphans(self, tmp_path):
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        spool, _ = export_database(db, str(cache.prepare(fingerprint)))
        cache.publish(fingerprint, spool)
        assert cache.list_orphans() == []
        assert cache.evict_orphans() == []
        # Eviction of orphans must leave the real entry untouched.
        (cache.root / ".doomed-leftover").mkdir()
        assert [o.kind for o in cache.list_orphans()] == ["doomed"]
        cache.evict_orphans()
        assert cache.lookup(fingerprint) is not None

    def test_plain_files_in_the_root_are_ignored(self, tmp_path):
        # Older versions kept a calibration.json in the cache root; a
        # plain file there is neither an entry nor an orphan.
        db = _db()
        fingerprint = _fingerprint(db)
        cache = SpoolCache(tmp_path / "cache")
        spool, _ = export_database(db, str(cache.prepare(fingerprint)))
        cache.publish(fingerprint, spool)
        stray = cache.root / "calibration.json"
        stray.write_text('{"pool_startup_seconds": 0.08}')
        assert cache.entries() == [cache.entry_path(fingerprint)]
        assert len(cache.list_entries()) == 1
        assert cache.list_orphans() == []
        assert cache.evict_orphans() == []
        assert len(cache.evict_all()) == 1
        assert stray.exists()

    def test_orphans_listed_stalest_first(self, tmp_path):
        import os as _os
        import time as _time

        cache = SpoolCache(tmp_path / "cache")
        old = cache.prepare("a" * 64)
        new = cache.prepare("b" * 64)
        stamp = _time.time() - 3600
        _os.utime(old, (stamp, stamp))
        assert [o.path for o in cache.list_orphans()] == [old, new]
