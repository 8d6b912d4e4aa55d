"""Unit tests for spool-cache partial reuse: ``find_partial`` and ``adopt``.

A catalog-fingerprint miss no longer has to mean a full re-export: a
previous entry over the *same database and spool configuration* whose
stamped per-attribute fingerprint map still matches some needed columns
can donate those columns' value files.  These tests pin the donor search
(who qualifies, who wins) and the adoption mechanics (hardlink-or-copy
into staging, vanished donor files skipped, never mutating the donor).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from seeded_dbs import build_db

from repro.core.runner import DiscoveryConfig, discover_inds
from repro.db.schema import AttributeRef
from repro.db.stats import collect_column_stats
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory
from repro.storage.spool_cache import (
    SpoolCache,
    attribute_fingerprints,
    catalog_fingerprint,
)


def _publish_entry(cache, db, *, stamped=True, spool_format="binary"):
    """Export ``db`` into a fresh staging dir and publish it as an entry."""
    stats = collect_column_stats(db)
    fingerprint = catalog_fingerprint(db.name, stats)
    spool, _ = export_database(
        db, str(cache.prepare(fingerprint)), spool_format=spool_format
    )
    return (
        cache.publish(
            fingerprint,
            spool,
            database=db.name,
            fingerprints=attribute_fingerprints(stats) if stamped else None,
        ),
        stats,
        fingerprint,
    )


def _shift_column(db, table, column, delta=1):
    """Change one integer column's content in place.

    A plain shift (no wrap-around) so the value *multiset* always moves —
    ``t1.c0`` holds exactly 0..11, which a modular shift would merely
    permute, leaving the content fingerprint correctly unchanged.
    """
    values = db.table(table).column_values(column)
    values[:] = [None if v is None else v + delta for v in values]


def _mutated(db_seed=0):
    """The ``build_db`` database with one column's content changed."""
    db = build_db(db_seed)
    _shift_column(db, "t1", "c0")
    return db


class TestFindPartial:
    def test_miss_with_stamped_donor_lends_unchanged_attributes(self, tmp_path):
        cache = SpoolCache(tmp_path)
        _publish_entry(cache, build_db(0))
        changed_db = _mutated()
        stats = collect_column_stats(changed_db)
        fingerprints = attribute_fingerprints(stats)
        needed = sorted(fingerprints)
        found = cache.find_partial(
            catalog_fingerprint(changed_db.name, stats),
            changed_db.name,
            fingerprints,
            needed,
        )
        assert found is not None
        donor, reusable = found
        assert AttributeRef("t1", "c0") not in reusable
        assert AttributeRef("t0", "id") in reusable
        assert len(reusable) == len(needed) - 1

    def test_empty_cache_and_unstamped_entries_yield_none(self, tmp_path):
        cache = SpoolCache(tmp_path)
        changed_db = _mutated()
        stats = collect_column_stats(changed_db)
        fingerprints = attribute_fingerprints(stats)
        args = (
            catalog_fingerprint(changed_db.name, stats),
            changed_db.name,
            fingerprints,
            sorted(fingerprints),
        )
        assert cache.find_partial(*args) is None
        # A pre-refactor entry (no stamped map) can never donate.
        _publish_entry(cache, build_db(0), stamped=False)
        assert cache.find_partial(*args) is None

    def test_other_databases_and_other_formats_never_donate(self, tmp_path):
        cache = SpoolCache(tmp_path)
        # Same content, different database name: not a donor.
        other = build_db(0)
        other.name = "elsewhere"
        _publish_entry(cache, other)
        # Same database, different spool format: wrong entry family.
        _publish_entry(cache, build_db(0), spool_format="text")
        changed_db = _mutated()
        stats = collect_column_stats(changed_db)
        fingerprints = attribute_fingerprints(stats)
        assert (
            cache.find_partial(
                catalog_fingerprint(changed_db.name, stats),
                changed_db.name,
                fingerprints,
                sorted(fingerprints),
            )
            is None
        )

    def test_best_donor_wins_by_reusable_count(self, tmp_path):
        cache = SpoolCache(tmp_path)
        # Donor A: two columns already diverged from the target's content.
        stale = build_db(0)
        _shift_column(stale, "t0", "c0", delta=5)
        stale_c1 = stale.table("t0").column_values("c1")
        stale_c1[:] = [None if v is None else v + "!" for v in stale_c1]
        _publish_entry(cache, stale)
        # Donor B: only the column the target will re-export diverges.
        _publish_entry(cache, build_db(0))
        changed_db = _mutated()
        stats = collect_column_stats(changed_db)
        fingerprints = attribute_fingerprints(stats)
        needed = sorted(fingerprints)
        donor, reusable = cache.find_partial(
            catalog_fingerprint(changed_db.name, stats),
            changed_db.name,
            fingerprints,
            needed,
        )
        assert len(reusable) == len(needed) - 1  # donor B's full offer
        stamped = donor.attribute_fingerprints
        assert stamped["t0.c0"] == fingerprints[AttributeRef("t0", "c0")]


class TestDiscoveryPublishesDonors:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_cache_miss_stamps_its_entry_as_a_donor(self, tmp_path, overlap):
        """In-process and overlapped misses publish equally stamped entries."""
        db = build_db(0)
        config = DiscoveryConfig(
            reuse_spool=True,
            cache_dir=str(tmp_path),
            validation_workers=2,
            overlap=overlap,
        )
        assert discover_inds(db, config).spool_cache_hit is False
        cache = SpoolCache(tmp_path)
        (entry,) = cache.entries()
        doc = json.loads((entry / "index.json").read_text())
        assert doc["database"] == db.name
        assert "attribute_fingerprints" in doc
        changed_db = _mutated()
        stats = collect_column_stats(changed_db)
        fingerprints = attribute_fingerprints(stats)
        spool = SpoolDirectory.open(entry)
        spooled = [ref for ref in sorted(fingerprints) if ref in spool]
        edited = AttributeRef("t1", "c0")
        assert edited in spooled
        donor, reusable = cache.find_partial(
            catalog_fingerprint(changed_db.name, stats),
            changed_db.name,
            fingerprints,
            spooled,
        )
        assert donor.root == entry
        assert reusable == [ref for ref in spooled if ref != edited]


class TestAdopt:
    def _donor_and_staging(self, tmp_path):
        cache = SpoolCache(tmp_path / "cache")
        donor, stats, _ = _publish_entry(cache, build_db(0))
        staging = SpoolDirectory.create(
            tmp_path / "staging", format="binary"
        )
        return donor, staging

    def test_adopted_files_read_back_identically(self, tmp_path):
        donor, staging = self._donor_and_staging(tmp_path)
        refs = [AttributeRef("t0", "id"), AttributeRef("t1", "c0")]
        adopted = SpoolCache.adopt(staging, donor, refs)
        assert adopted == refs
        staging.save_index()
        reopened = SpoolDirectory.open(staging.root)
        for ref in refs:
            assert reopened.get(ref).values() == donor.get(ref).values()
        # Hardlink or copy, the donor's own file is untouched either way.
        for ref in refs:
            assert Path(donor.get(ref).path).exists()

    def test_adoption_is_a_link_not_a_second_copy_when_possible(self, tmp_path):
        donor, staging = self._donor_and_staging(tmp_path)
        ref = AttributeRef("t0", "id")
        SpoolCache.adopt(staging, donor, [ref])
        donor_stat = os.stat(donor.get(ref).path)
        staged_stat = os.stat(staging.get(ref).path)
        # Same filesystem here, so the hardlink path must have engaged.
        assert donor_stat.st_ino == staged_stat.st_ino
        assert donor_stat.st_nlink >= 2

    def test_vanished_donor_file_is_skipped_not_fatal(self, tmp_path):
        donor, staging = self._donor_and_staging(tmp_path)
        gone = AttributeRef("t0", "id")
        kept = AttributeRef("t1", "c0")
        os.unlink(donor.get(gone).path)
        adopted = SpoolCache.adopt(staging, donor, [gone, kept])
        assert adopted == [kept]
        # The skipped ref's name reservation was released: a later export
        # of that attribute registers cleanly.
        assert gone not in staging
        assert kept in staging
