"""Inputs left behind by older builds: v1 text spools and removed options.

The text spool format is gone, and with it the ``spool_format`` config
field and the ``--spool-format`` flag; the mmap reader is gone, and with
it the ``mmap_reads`` config field and the ``--mmap-reads`` flag.  What
older builds left on disk must never be read as if it were binary, and
what older callers pass must never be silently accepted:

* a text spool directory fails wherever it is opened — by
  :meth:`SpoolDirectory.open`, by ``repro-ind spool inspect`` and by a pool
  worker's warm open — with a :class:`SpoolError` naming its path, whether
  its index is v1's (no ``version``), a version-2 index naming
  ``"format": "text"``, or a version-2 index naming no format (which older
  builds read as text); a run told to spool into such a directory
  re-exports it as binary;
* a ``…-text`` spool-cache entry is never served by ``lookup`` and never
  opened as a ``find_partial`` donor, yet ``repro-ind cache list`` lists it
  and ``cache evict --max-bytes 0`` reclaims it;
* the removed options are rejected: the two config fields, their two CLI
  flags and ``--overlap`` (whose config field remains) on every
  subcommand that took them, ``mmap_reads=`` on
  :meth:`SpoolDirectory.open`, any format but ``"binary"`` on the
  ``format=``/``spool_format=`` keywords that remain, and any value but
  ``False`` on the four ``mmap_reads=`` keywords that remain.
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from pathlib import Path

import pytest

from seeded_dbs import build_db

from repro.cli import main
from repro.core.runner import DiscoveryConfig, discover_inds
from repro.db.stats import collect_column_stats
from repro.errors import SpoolError
from repro.parallel.export import pooled_export
from repro.parallel.pool import _open_warm
from repro.storage.codec import escape_line, render_value
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory
from repro.storage.spool_cache import (
    SpoolCache,
    attribute_fingerprints,
    catalog_fingerprint,
)

#: The index heads of text spools older builds wrote or read as text: v1's
#: (no ``version``, ``format`` or ``block_size``), a version-2 index naming
#: the text format, and a version-2 index naming none, which older builds
#: defaulted to text.
TEXT_HEADS = {
    "v1": {},
    "v2-text": {"version": 2, "format": "text"},
    "v2-unnamed": {"version": 2},
}

#: Subcommands that took ``--spool-format`` and ``--mmap-reads``, each with
#: the positional arguments it needs to parse.
VALIDATING_COMMANDS = {
    "discover": ["discover", "dump"],
    "serve": ["serve"],
    "watch": ["watch", "dump"],
}


def write_text_spool(root, db, head: dict) -> None:
    """Hand-build a spool directory of ``db`` the way the text writer did.

    One escaped value per line in ``<table>__<column>.vals`` files, and an
    ``index.json`` of ``head`` followed by per-attribute entries without
    block metadata.  An empty ``head`` is v1's index: no ``version``,
    ``format`` or ``block_size``.
    """
    root.mkdir(parents=True)
    entries = []
    for ref in db.attributes():
        values = sorted(
            {render_value(v) for v in db.attribute_values(ref) if v is not None}
        )
        file_name = f"{ref.table}__{ref.column}.vals"
        (root / file_name).write_text(
            "".join(escape_line(value) + "\n" for value in values),
            encoding="utf-8",
        )
        entries.append(
            {
                "table": ref.table,
                "column": ref.column,
                "file": file_name,
                "count": len(values),
                "min": values[0] if values else None,
                "max": values[-1] if values else None,
                "dtype": "VARCHAR",
            }
        )
    (root / "index.json").write_text(
        json.dumps({**head, "attributes": entries}, indent=2), encoding="utf-8"
    )


def tree_bytes(root) -> dict[str, bytes]:
    """Every file directly under ``root``, by name."""
    return {path.name: path.read_bytes() for path in Path(root).iterdir()}


@pytest.fixture(params=sorted(TEXT_HEADS))
def text_spool(request, tmp_path):
    root = tmp_path / request.param
    write_text_spool(root, build_db(0), TEXT_HEADS[request.param])
    return root


class TestTextSpoolDirectories:
    def test_open_names_its_path(self, text_spool):
        with pytest.raises(SpoolError, match="text") as err:
            SpoolDirectory.open(text_spool)
        assert str(text_spool) in str(err.value)

    def test_spool_inspect_fails_naming_the_path(self, text_spool, capsys):
        assert main(["spool", "inspect", str(text_spool)]) == 2
        err = capsys.readouterr().err
        assert str(text_spool) in err and "text" in err

    def test_worker_warm_open_names_its_path(self, text_spool):
        """Pool tasks carry a spool root; the worker's open must refuse too."""
        handles: OrderedDict = OrderedDict()
        with pytest.raises(SpoolError, match="text") as err:
            _open_warm(handles, str(text_spool))
        assert str(text_spool) in str(err.value)
        assert not handles, "a refused directory must not be cached warm"

    def test_kept_spool_dir_is_re_exported_as_binary(self, text_spool):
        """A run told to spool into a text build's directory rewrites it."""
        db = build_db(0)
        fresh = discover_inds(db)
        kept = discover_inds(
            db, DiscoveryConfig(spool_dir=str(text_spool), keep_spool=True)
        )
        assert kept.satisfied == fresh.satisfied
        assert kept.validator_stats.items_read == fresh.validator_stats.items_read
        doc = json.loads((text_spool / "index.json").read_text())
        assert doc["format"] == "binary"
        reopened = SpoolDirectory.open(text_spool)
        assert reopened.attributes()
        for ref in reopened.attributes():
            assert reopened.get(ref).values() == sorted(
                {render_value(v) for v in db.attribute_values(ref) if v is not None}
            )


class TestTextCacheEntry:
    """A ``…-text`` entry as an older build published it."""

    def _cache_with_text_entry(self, tmp_path):
        db = build_db(0)
        stats = collect_column_stats(db)
        fingerprint = catalog_fingerprint(db.name, stats)
        stamped = {
            ref.qualified: digest
            for ref, digest in sorted(attribute_fingerprints(stats).items())
        }
        cache = SpoolCache(tmp_path / "cache")
        entry = cache.root / f"{fingerprint[:32]}-text"
        write_text_spool(
            entry,
            db,
            {
                "version": 2,
                "format": "text",
                "catalog_hash": fingerprint,
                "database": db.name,
                "attribute_fingerprints": stamped,
            },
        )
        return cache, db, fingerprint, entry

    def test_lookup_never_serves_it(self, tmp_path):
        cache, db, fingerprint, entry = self._cache_with_text_entry(tmp_path)
        needed = db.attributes()
        assert cache.lookup(fingerprint, needed=needed) is None
        with pytest.raises(SpoolError, match="'text'"):
            cache.lookup(fingerprint, needed=needed, spool_format="text")
        assert entry.exists()

    def test_find_partial_never_opens_it_as_a_donor(self, tmp_path):
        cache, db, _, entry = self._cache_with_text_entry(tmp_path)
        # One more row in t1: a new fingerprint, and a rebuild that could
        # adopt every unchanged column of the text entry.
        db.table("t1").insert({"id": 99, "c0": 99})
        stats = collect_column_stats(db)
        fingerprints = attribute_fingerprints(stats)
        args = (
            catalog_fingerprint(db.name, stats),
            db.name,
            fingerprints,
            sorted(fingerprints),
        )
        assert cache.find_partial(*args) is None
        assert cache.find_partial(*args, prior=str(entry)) is None
        assert cache.donor_entries_opened == 0
        with pytest.raises(SpoolError, match="'text'"):
            cache.find_partial(*args, spool_format="text")

    def test_reusing_run_misses_and_publishes_a_binary_entry(self, tmp_path):
        cache, db, fingerprint, entry = self._cache_with_text_entry(tmp_path)
        config = DiscoveryConfig(reuse_spool=True, cache_dir=str(cache.root))
        first = discover_inds(db, config)
        assert first.spool_cache_hit is False
        assert first.satisfied == discover_inds(db).satisfied
        names = {path.name for path in cache.entries()}
        assert names == {entry.name, cache.entry_path(fingerprint).name}
        second = discover_inds(db, config)
        assert second.spool_cache_hit is True
        assert second.satisfied == first.satisfied
        assert entry.exists(), "the text entry is left for eviction to reclaim"

    def test_list_entries_reports_its_layout(self, tmp_path):
        cache, _, fingerprint, entry = self._cache_with_text_entry(tmp_path)
        (info,) = cache.list_entries()
        assert info.path == entry
        assert info.fingerprint_prefix == fingerprint[:32]
        assert info.spool_format == "text"
        assert info.block_size is None
        assert info.size_bytes > 0

    def test_cache_list_shows_it_and_evict_reclaims_it(self, tmp_path, capsys):
        cache, _, fingerprint, entry = self._cache_with_text_entry(tmp_path)
        cache_dir = str(cache.root)
        assert main(["cache", "list", "--cache-dir", cache_dir]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[:2] == [fingerprint[:32], "text"]
        assert main(
            ["cache", "evict", "--cache-dir", cache_dir, "--max-bytes", "0"]
        ) == 0
        assert f"evicted {entry.name}" in capsys.readouterr().out
        assert not entry.exists()
        assert cache.list_entries() == []


class TestRemovedOptions:
    def test_config_has_no_spool_format_field(self):
        with pytest.raises(TypeError, match="spool_format"):
            DiscoveryConfig(spool_format="text")
        assert DiscoveryConfig().spool_format == "binary"

    def test_spool_format_is_read_only(self):
        config = DiscoveryConfig()
        with pytest.raises(AttributeError):
            config.spool_format = "text"
        with pytest.raises(TypeError, match="spool_format"):
            dataclasses.replace(config, spool_format="text")
        assert config.spool_format == "binary"

    @pytest.mark.parametrize("value", [True, False])
    def test_config_has_no_mmap_reads_field(self, value):
        with pytest.raises(TypeError, match="mmap_reads"):
            DiscoveryConfig(mmap_reads=value)

    def test_resolved_mmap_reads_is_false_and_read_only(self):
        config = DiscoveryConfig()
        assert config.resolved_mmap_reads is False
        with pytest.raises(AttributeError):
            config.resolved_mmap_reads = True
        with pytest.raises(TypeError, match="mmap_reads"):
            dataclasses.replace(config, mmap_reads=True)
        assert config.resolved_mmap_reads is False

    def test_spool_open_has_no_mmap_reads_keyword(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "s")
        spool.save_index()
        with pytest.raises(TypeError, match="mmap_reads"):
            SpoolDirectory.open(spool.root, mmap_reads=False)

    @pytest.mark.parametrize(
        "option, named",
        [(("--spool-format", "binary"), "--spool-format"),
         (("--mmap-reads", "on"), "--mmap-reads"),
         (("--overlap",), "--overlap")],
        ids=["spool-format", "mmap-reads", "overlap"],
    )
    @pytest.mark.parametrize("command", sorted(VALIDATING_COMMANDS))
    def test_removed_option_exits_2(self, command, option, named, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*VALIDATING_COMMANDS[command], *option])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err


@pytest.fixture()
def entry_calls(tmp_path):
    """Entry point -> call(keywords) -> something comparable across calls."""
    db = build_db(0)
    cache_root = tmp_path / "cache"
    discover_inds(
        db, DiscoveryConfig(reuse_spool=True, cache_dir=str(cache_root))
    )
    cache = SpoolCache(cache_root)
    stats = collect_column_stats(db)
    fingerprint = catalog_fingerprint(db.name, stats)
    grown = build_db(0)
    grown.table("t1").insert({"id": 99, "c0": 99})
    grown_stats = collect_column_stats(grown)
    grown_fingerprints = attribute_fingerprints(grown_stats)
    counter = iter(range(1_000))

    def fresh(name):
        return str(tmp_path / f"{name}-{next(counter)}")

    def create(**kw):
        spool = SpoolDirectory.create(fresh("create"), block_size=3, **kw)
        for ref in db.attributes():
            spool.add_values(
                ref,
                sorted(
                    {
                        render_value(v)
                        for v in db.attribute_values(ref)
                        if v is not None
                    }
                ),
            )
        spool.save_index()
        return tree_bytes(spool.root)

    def export(**kw):
        spool, _ = export_database(db, fresh("export"), **kw)
        return tree_bytes(spool.root)

    def pooled(**kw):
        spool, *_ = pooled_export(db, fresh("pooled"), 1, **kw)
        return tree_bytes(spool.root)

    def lookup(**kw):
        return cache.lookup(fingerprint, **kw).root

    def find_partial(**kw):
        donor, adopted = cache.find_partial(
            catalog_fingerprint(grown.name, grown_stats),
            grown.name,
            grown_fingerprints,
            sorted(grown_fingerprints),
            **kw,
        )
        return donor.root, adopted

    return {
        "SpoolDirectory.create": create,
        "export_database": export,
        "pooled_export": pooled,
        "SpoolCache.lookup": lookup,
        "SpoolCache.find_partial": find_partial,
    }


class TestFormatKeywords:
    """The ``format=``/``spool_format=`` keywords accept only ``"binary"``.

    Each entry point that still takes one rejects any other value before it
    writes or opens anything, naming the removed text format, and passing
    ``"binary"`` is the same call as passing nothing.
    """

    #: Entry point -> the name of its format keyword.
    KEYWORDS = {
        "SpoolDirectory.create": "format",
        "export_database": "spool_format",
        "pooled_export": "spool_format",
        "SpoolCache.lookup": "spool_format",
        "SpoolCache.find_partial": "spool_format",
    }

    @pytest.mark.parametrize("value", ["text", "parquet"])
    @pytest.mark.parametrize("entry_point", KEYWORDS)
    def test_rejects_any_other_format(self, entry_calls, entry_point, value):
        with pytest.raises(SpoolError, match="'text' format was removed"):
            entry_calls[entry_point](**{self.KEYWORDS[entry_point]: value})

    @pytest.mark.parametrize("entry_point", KEYWORDS)
    def test_binary_is_the_default(self, entry_calls, entry_point):
        call = entry_calls[entry_point]
        assert call(**{self.KEYWORDS[entry_point]: "binary"}) == call()


class TestMmapReadsKeywords:
    """The ``mmap_reads=`` keywords accept only ``False``.

    Every cursor reads through a buffered file handle.  Each entry point
    that still takes the keyword rejects any other value, naming the
    removed mmap reader, and passing ``False`` is the same call as passing
    nothing.
    """

    ENTRY_POINTS = (
        "SpoolDirectory.create",
        "export_database",
        "pooled_export",
        "SpoolCache.lookup",
    )

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS)
    def test_rejects_true(self, entry_calls, entry_point):
        with pytest.raises(SpoolError, match="the mmap reader was removed"):
            entry_calls[entry_point](mmap_reads=True)

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS)
    def test_false_is_the_default(self, entry_calls, entry_point):
        call = entry_calls[entry_point]
        assert call(mmap_reads=False) == call()
