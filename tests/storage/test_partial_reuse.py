"""Unit tests for spool-cache partial reuse: ``find_partial`` and ``adopt``.

A catalog-fingerprint miss no longer has to mean a full re-export: a
previous entry over the *same database and spool configuration* whose
stamped per-attribute fingerprint map still matches some needed columns
can donate those columns' value files.  These tests pin the donor search
(who qualifies, who wins), the adoption mechanics (hardlink-or-copy
into staging, vanished donor files skipped, never mutating the donor),
and retirement: an incremental round that publishes removes the entry
its prior used, unless that entry is held, elsewhere or the same slot.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from seeded_dbs import build_db

from repro.core import runner
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.db.schema import AttributeRef
from repro.db.stats import collect_column_stats
from repro.obs.metrics import get_registry
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
            # Each round retired its prior's entry: only the last one is left.
            assert SpoolCache(tmp_path / "cache").entries() == [
                Path(prior.spool_path)
            ]
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
        # Two older states of the database, published outside the session's
        # chain (which retires the entries it supersedes), give the scan a
        # choice once the prior's entry is unusable: only the later one
        # still matches the rebuild's t1.
        older = []
        for table, row in (
            ("t0", {"id": 100, "c0": 1}),
            ("t1", {"id": 100, "c0": 1}),
        ):
            db.table(table).insert(row)
            older.append(_publish_entry(cache, db)[0].root)
        with self._session(tmp_path) as session:
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
            assert scan[0].root == older[-1]  # it shares t1 with the target
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


def _publish_span(result) -> dict:
    (span,) = [s for s in result.trace["spans"] if s["name"] == "cache-publish"]
    return span["attrs"]


def _retired_total() -> float:
    return get_registry().snapshot()["counters"].get(
        "spool_cache_retired_total", 0
    )


def _answer(db):
    return discover_inds(db, DiscoveryConfig()).satisfied


class TestOneLiveEntryPerChain:
    """A round that publishes retires the entry its prior round used."""

    def _config(self, tmp_path, **kwargs):
        return DiscoveryConfig(
            incremental=True,
            reuse_spool=True,
            cache_dir=str(tmp_path / "cache"),
            trace=True,
            **kwargs,
        )

    def test_thirty_edited_rounds_leave_one_entry(self, tmp_path):
        db = build_db(0)
        cache = SpoolCache(tmp_path / "cache")
        before = _retired_total()
        with DiscoverySession(self._config(tmp_path)) as session:
            for round_ in range(30):
                db.table("t0").insert({"id": 100 + round_, "c0": round_ % 12})
                result = session.discover(db)
                assert _publish_span(result)["retired"] is (round_ > 0)
                assert cache.entries() == [Path(result.spool_path)]
        assert cache.list_orphans() == []
        assert _retired_total() - before == 29
        assert result.satisfied == _answer(db)

    def test_a_publish_then_a_hit_then_a_publish_leaves_one_entry(
        self, tmp_path
    ):
        """A hit retires nothing; the next publish retires the entry the
        hit read, which is the entry its own prior published."""
        db = build_db(0)
        cache = SpoolCache(tmp_path / "cache")
        with DiscoverySession(self._config(tmp_path)) as session:
            first = session.discover(db)
            hit = session.discover(db)
            assert hit.spool_cache_hit
            assert cache.entries() == [Path(first.spool_path)]
            db.table("t0").insert({"id": 100, "c0": 1})
            last = session.discover(db)
        assert _publish_span(last)["retired"] is True
        assert cache.entries() == [Path(last.spool_path)]
        assert cache.list_orphans() == []
        assert last.satisfied == _answer(db)

    def test_an_undo_rebuilds_by_partial_reuse(self, tmp_path):
        """A → B → A: A's entry went when B published, so the third round
        misses and rebuilds A from B's entry."""
        cache = SpoolCache(tmp_path / "cache")
        with DiscoverySession(self._config(tmp_path)) as session:
            first = session.discover(build_db(0))
            session.discover(_mutated())
            undone = session.discover(build_db(0))
        assert undone.spool_cache_hit is False
        assert _donor_span(undone)["donor"] == "prior"
        assert undone.spool_path == first.spool_path
        assert cache.entries() == [Path(undone.spool_path)]
        assert _tree(undone.spool_path) == _rebuilt_entry(build_db(0), tmp_path)

    def test_a_held_entry_outlives_a_publish_that_supersedes_it(
        self, tmp_path, monkeypatch
    ):
        """A run that hit entry E and is still validating keeps E while
        another run, whose prior names E, publishes its successor."""
        config = self._config(tmp_path)
        db = build_db(0)
        first = discover_inds(db, config)
        entry = Path(first.spool_path)
        parked, resume = threading.Event(), threading.Event()
        validate = runner._validate

        def parking_validate(*args, **kwargs):
            if threading.current_thread().name == "holder":
                parked.set()
                assert resume.wait(60)
            return validate(*args, **kwargs)

        monkeypatch.setattr(runner, "_validate", parking_validate)
        outcome = {}

        def hold():
            try:
                # No prior: a full round that hits E and validates from it.
                outcome["result"] = discover_inds(db, config)
            except Exception as exc:  # surfaced by the asserts below
                outcome["error"] = exc

        holder = threading.Thread(target=hold, name="holder")
        holder.start()
        try:
            assert parked.wait(60)
            edited = _mutated()
            successor = discover_inds(edited, config, prior=first)
            assert _publish_span(successor)["retired"] is False
            assert entry.is_dir()
        finally:
            resume.set()
            holder.join(60)
        assert not holder.is_alive()
        assert "error" not in outcome, outcome.get("error")
        held = outcome["result"]
        assert held.spool_cache_hit and Path(held.spool_path) == entry
        assert held.satisfied == _answer(db)
        assert successor.satisfied == _answer(edited)
        # Skipped, the entry stays until eviction; the successor is live.
        assert SpoolCache(tmp_path / "cache").entries() == sorted(
            [entry, Path(successor.spool_path)]
        )

    @pytest.mark.parametrize("other", ["block-size", "database", "cache-dir"])
    def test_a_prior_from_elsewhere_is_not_retired(self, tmp_path, other):
        config = self._config(tmp_path)
        source = build_db(0)
        if other == "database":
            source.name = "elsewhere"
        prior = discover_inds(source, config)
        if other == "block-size":
            config = replace(config, spool_block_size=128)
        elif other == "cache-dir":
            config = replace(config, cache_dir=str(tmp_path / "other"))
        db = _mutated()
        result = discover_inds(db, config, prior=prior)
        assert result.spool_cache_hit is False
        assert _publish_span(result)["retired"] is False
        assert Path(prior.spool_path).is_dir()
        assert result.satisfied == _answer(db)

    def test_retire_checks_names_roots_and_holds(self, tmp_path):
        cache = SpoolCache(tmp_path / "cache")
        old, _, _ = _publish_entry(cache, build_db(0))
        new, _, _ = _publish_entry(cache, _mutated())
        other_block, _, _ = _publish_entry(cache, build_db(1), block_size=8)
        elsewhere = SpoolCache(tmp_path / "elsewhere")
        foreign, _, _ = _publish_entry(elsewhere, build_db(0))
        successor = Path(new.root)
        assert not cache.retire(new.root, successor)  # the successor itself
        assert not cache.retire(other_block.root, successor)
        assert not cache.retire(foreign.root, successor)
        assert not cache.retire(tmp_path / "cache" / "missing", successor)
        key = SpoolCache.hold(old.root)
        try:
            assert not cache.retire(old.root, successor)
        finally:
            SpoolCache.release(key)
        assert cache.retire(str(old.root), successor)
        assert cache.entries() == sorted([successor, Path(other_block.root)])
        assert elsewhere.entries() == [Path(foreign.root)]
        assert cache.list_orphans() == []

    def test_take_checks_names_roots_holds_and_file_names(self, tmp_path):
        """:meth:`SpoolCache.take` goes only where :meth:`retire` would,
        and only when every kept file has the name adoption would give."""
        cache = SpoolCache(tmp_path / "cache")
        old, _, _ = _publish_entry(cache, build_db(0))
        new, _, _ = _publish_entry(cache, _mutated())
        other_block, _, _ = _publish_entry(cache, build_db(1), block_size=8)
        elsewhere = SpoolCache(tmp_path / "elsewhere")
        foreign, _, _ = _publish_entry(elsewhere, build_db(0))
        successor = Path(new.root)
        refs = old.attributes()[:3]
        assert cache.take(new.root, new, refs, successor) is None
        other = cache.take(other_block.root, other_block, refs, successor)
        assert other is None
        assert cache.take(foreign.root, foreign, refs, successor) is None
        clashing = old.moved_to(old.root)
        renamed = clashing.get(refs[0]).relocated(
            os.path.join(old.root, "t0__id__2.valsb")
        )
        clashing._files[refs[0]] = renamed
        assert cache.take(old.root, clashing, refs, successor) is None
        key = SpoolCache.hold(old.root)
        try:
            assert cache.take(old.root, old, refs, successor) is None
        finally:
            SpoolCache.release(key)
        assert Path(old.root).is_dir()
        values = {ref: old.get(ref).values() for ref in refs}
        before = _retired_total()
        taken = cache.take(str(old.root), old, refs, successor)
        assert taken is not None
        assert not Path(old.root).exists()
        assert _retired_total() - before == 1
        assert taken.attributes() == sorted(refs)
        assert sorted(os.listdir(taken.root)) == sorted(
            os.path.basename(taken.get(ref).path) for ref in refs
        )
        assert {ref: taken.get(ref).values() for ref in refs} == values
        assert [o.kind for o in cache.list_orphans()] == ["staging"]

    def test_holds_and_retirement_race_safely(self, tmp_path):
        """Readers hold, check and read an entry that one thread keeps
        re-publishing and retiring: an entry seen under a hold stays
        readable until released, and every hold is released."""
        cache = SpoolCache(tmp_path / "cache")
        entry = cache.root / ("a" * 32 + "-binary-4096")
        successor = cache.root / ("b" * 32 + "-binary-4096")
        failures: list[Exception] = []
        counts = {"retired": 0, "read": 0}
        stop = threading.Event()

        def republish_and_retire():
            staging = tmp_path / "staging"
            try:
                while not stop.is_set():
                    if not entry.exists():
                        staging.mkdir()
                        (staging / "index.json").write_text("{}")
                        staging.rename(entry)
                    counts["retired"] += cache.retire(entry, successor)
            except Exception as exc:
                failures.append(exc)

        def read_under_hold():
            while not stop.is_set():
                key = SpoolCache.hold(entry)
                try:
                    if entry.exists():
                        for _ in range(3):
                            (entry / "index.json").read_text()
                        counts["read"] += 1  # a lost update only undercounts
                except Exception as exc:
                    failures.append(exc)
                finally:
                    SpoolCache.release(key)
                time.sleep(1e-3)  # let the retirer find the entry unheld

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=republish_and_retire)] + [
            threading.Thread(target=read_under_hold) for _ in range(7)
        ]
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(30)
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert counts["retired"] > 0 and counts["read"] > 0, counts
        assert os.path.realpath(entry) not in spool_cache._HELD
        assert cache.list_orphans() == []


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
