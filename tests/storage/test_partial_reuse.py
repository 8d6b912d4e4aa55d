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
from dataclasses import replace
from pathlib import Path

import pytest
from seeded_dbs import build_db

from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.db.schema import AttributeRef
from repro.db.stats import collect_column_stats
from repro.storage import spool_cache
from repro.storage.blockio import DEFAULT_BLOCK_SIZE
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory
from repro.storage.spool_cache import (
    SpoolCache,
    attribute_fingerprints,
    catalog_fingerprint,
)


def _publish_entry(cache, db, *, stamped=True, block_size=DEFAULT_BLOCK_SIZE):
    """Export ``db`` into a fresh staging dir and publish it as an entry."""
    stats = collect_column_stats(db)
    fingerprint = catalog_fingerprint(db.name, stats)
    spool, _ = export_database(
        db, str(cache.prepare(fingerprint)), block_size=block_size
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


def _edit_column(db, table, column, edit):
    """Apply ``edit`` to one column's non-NULL values.

    The table is rebuilt with ``drop_table``/``create_table``/``insert_many``,
    as an edit script would: ``insert`` is the only way into a table.
    """
    old = db.table(table)
    rows = list(old.rows())
    for row in rows:
        if row[column] is not None:
            row[column] = edit(row[column])
    db.drop_table(table)
    db.create_table(old.schema).insert_many(rows)


def _shift_column(db, table, column, delta=1):
    """Change one integer column's content.

    A plain shift (no wrap-around) so the value *multiset* always moves —
    ``t1.c0`` holds exactly 0..11, which a modular shift would merely
    permute, leaving the content fingerprint correctly unchanged.
    """
    _edit_column(db, table, column, lambda value: value + delta)


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

    def test_other_databases_and_other_layouts_never_donate(self, tmp_path):
        cache = SpoolCache(tmp_path)
        # Same content, different database name: not a donor.
        other = build_db(0)
        other.name = "elsewhere"
        _publish_entry(cache, other)
        # Same database, different block size: wrong entry family.
        _publish_entry(cache, build_db(0), block_size=8)
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
        _edit_column(stale, "t0", "c1", lambda value: value + "!")
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


def _donor_args(db):
    """``find_partial``'s positional arguments for a rebuild of ``db``."""
    stats = collect_column_stats(db)
    fingerprints = attribute_fingerprints(stats)
    return (
        catalog_fingerprint(db.name, stats),
        db.name,
        fingerprints,
        sorted(fingerprints),
    )


def _tree(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


def _rebuilt_entry(db, tmp_path) -> dict[str, bytes]:
    """The files of the entry a from-scratch run over ``db`` publishes."""
    config = DiscoveryConfig(reuse_spool=True, cache_dir=str(tmp_path / "fresh"))
    return _tree(discover_inds(db, config).spool_path)


def _count_opens(monkeypatch) -> list[str]:
    """Record the name of every directory the spool cache opens."""
    opened: list[str] = []

    class CountingSpool(SpoolDirectory):
        @classmethod
        def open(cls, root, *args, **kwargs):
            opened.append(Path(root).name)
            return SpoolDirectory.open(root, *args, **kwargs)

    monkeypatch.setattr(spool_cache, "SpoolDirectory", CountingSpool)
    return opened


def _donor_span(result) -> dict:
    (span,) = [s for s in result.trace["spans"] if s["name"] == "donor-lookup"]
    return span["attrs"]


class TestPriorFirstDonor:
    def _session(self, tmp_path):
        return DiscoverySession(
            DiscoveryConfig(
                incremental=True,
                reuse_spool=True,
                cache_dir=str(tmp_path / "cache"),
                trace=True,
            )
        )

    def test_a_delta_round_opens_no_entry(self, tmp_path, monkeypatch):
        """The prior's registry donates from memory, and publish keeps the
        staged registry, so a delta round parses no ``index.json``."""
        db = build_db(0)
        with self._session(tmp_path) as session:
            for round_ in range(30):
                db.table("t0").insert({"id": 100 + round_, "c0": round_ % 12})
                prior = session.discover(db)
            assert len(SpoolCache(tmp_path / "cache").entries()) == 30
            opened = _count_opens(monkeypatch)
            db.table("t0").insert({"id": 200, "c0": 5})
            result = session.discover(db)
        monkeypatch.undo()
        assert opened == []
        assert _donor_span(result)["donor"] == "prior"
        assert _donor_span(result)["entries_opened"] == 0
        assert _donor_span(result)["files_reused"] > 0
        assert result.prior_spool.root == Path(result.spool_path)
        assert prior.prior_spool.root == Path(prior.spool_path)
        assert _tree(result.spool_path) == _rebuilt_entry(db, tmp_path)

    def test_a_delta_round_saves_one_index_and_parses_none(
        self, tmp_path, monkeypatch
    ):
        db = build_db(0)
        calls = {"save_index": 0, "open": 0}
        save_index = SpoolDirectory.save_index
        open_ = SpoolDirectory.open.__func__

        def counting_save(self):
            calls["save_index"] += 1
            return save_index(self)

        def counting_open(cls, *args, **kwargs):
            calls["open"] += 1
            return open_(cls, *args, **kwargs)

        with self._session(tmp_path) as session:
            session.discover(db)
            db.table("t0").insert({"id": 100, "c0": 1})
            monkeypatch.setattr(SpoolDirectory, "save_index", counting_save)
            monkeypatch.setattr(
                SpoolDirectory, "open", classmethod(counting_open)
            )
            result = session.discover(db)
        monkeypatch.undo()
        assert result.delta["mode"] == "delta"
        assert result.spool_cache_hit is False
        assert calls == {"save_index": 1, "open": 0}
        assert _tree(result.spool_path) == _rebuilt_entry(db, tmp_path)

    @pytest.mark.parametrize("how", ["in-place", "by-rename"])
    def test_a_same_size_rewrite_with_a_pinned_mtime_is_read_from_disk(
        self, tmp_path, how
    ):
        """A held registry donates only while its index is the same file.

        The rewrite keeps the size and sets the mtime back, so only the
        inode (a rename) or the ctime (in place) shows it.
        """
        db = build_db(0)
        with self._session(tmp_path) as session:
            session.discover(db)
            db.table("t0").insert({"id": 100, "c0": 1})
            prior = session.discover(db)
            index = Path(prior.spool_path) / "index.json"
            before = os.stat(index)
            data = index.read_bytes()
            if how == "in-place":
                index.write_bytes(data)
            else:
                (index.parent / "index.json.new").write_bytes(data)
                os.replace(index.parent / "index.json.new", index)
            os.utime(index, ns=(before.st_atime_ns, before.st_mtime_ns))
            after = os.stat(index)
            assert (after.st_size, after.st_mtime_ns) == (
                before.st_size,
                before.st_mtime_ns,
            )
            assert not prior.prior_spool.index_is_current()
            db.table("t0").insert({"id": 101, "c0": 2})
            result = session.discover(db)
        assert _donor_span(result)["donor"] == "prior"
        assert _donor_span(result)["entries_opened"] == 1
        assert _tree(result.spool_path) == _rebuilt_entry(db, tmp_path)

    @pytest.mark.parametrize("damage", ["evicted", "corrupt", "block-size"])
    def test_an_unusable_prior_falls_back_to_the_scan(self, tmp_path, damage):
        db = build_db(0)
        cache = SpoolCache(tmp_path / "cache")
        with self._session(tmp_path) as session:
            # Three entries, each donating a different part of the next
            # round's rebuild: the scan has a real choice to make.
            for table, row in (
                ("t0", {"id": 100, "c0": 1}),
                ("t1", {"id": 100, "c0": 1}),
            ):
                db.table(table).insert(row)
                session.discover(db)
            db.table("t0").insert({"id": 101, "c0": 2})
            config = session.config
            if damage == "block-size":
                config = replace(config, spool_block_size=128)
            prior = session.discover(db, config)
            entry = Path(prior.spool_path)
            if damage == "evicted":
                cache.evict_prefix(entry.name.split("-")[0])
            elif damage == "corrupt":
                (entry / "index.json").write_text("{not json")
            db.table("t0").insert({"id": 102, "c0": 3})
            args = _donor_args(db)
            scan = cache.find_partial(*args)
            hinted = cache.find_partial(*args, prior=prior.spool_path)
            assert scan is not None
            assert (hinted[0].root, hinted[1]) == (scan[0].root, scan[1])
            result = session.discover(db)
        assert _donor_span(result)["donor"] == "scan"
        assert _tree(result.spool_path) == _rebuilt_entry(db, tmp_path)

    def test_the_prior_wins_even_when_an_older_entry_offers_more(self, tmp_path):
        """The one case where prior-first and the scan differ."""
        cache = SpoolCache(tmp_path)
        older, _, _ = _publish_entry(cache, build_db(0))
        edited = build_db(0)
        _edit_column(edited, "t0", "c1", lambda value: value + "!")
        prior, _, _ = _publish_entry(cache, edited)
        # t0.c1 goes back to its older content; t1.c0 changes.
        args = _donor_args(_mutated())
        scan = cache.find_partial(*args)
        hinted = cache.find_partial(*args, prior=prior.root)
        assert scan[0].root == older.root
        assert hinted[0].root == prior.root
        assert set(scan[1]) - set(hinted[1]) == {AttributeRef("t0", "c1")}


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
        staging = SpoolDirectory.create(tmp_path / "staging")
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
