"""Content-addressed spool reuse across discovery runs.

Export is the single largest fixed cost of an external discovery run: every
value of every candidate attribute is rendered, external-sorted and written
once per run, even when the database has not changed since the last run.  The
cache removes that cost.  A spool directory is keyed by a SHA-256 fingerprint
of the *database catalog* — table and attribute names plus the per-column
statistics the discovery pipeline profiles anyway (row/null/distinct counts,
rendered min/max, length bounds).  Any change to schema or data moves at
least one of those numbers, which moves the fingerprint, which misses the
cache; an unchanged database hits and skips ``export_database`` entirely.

The fingerprint is stamped into the spool's ``index.json`` as
``catalog_hash``, so a cache entry is self-describing: a directory whose
recorded hash does not match the requested fingerprint (manual tampering, a
partially written entry, an older build) is evicted and rebuilt rather than
trusted.

Layout::

    <cache_dir>/<fingerprint-prefix>-binary-<block>[-<compression>]/index.json + value files

One entry per (fingerprint, spool configuration).  Entries named
``<fingerprint-prefix>-text`` hold the removed v1 text format: no lookup or
donor scan addresses them, but ``repro-ind cache list`` lists them and
eviction removes them like any other entry.  The profiling statistics
come in through :func:`catalog_fingerprint` from the runner's profile, which
it needs for candidate generation in any case, so cache keying adds zero
extra scans over the database.  A cache-reusing run takes that profile from
:data:`repro.db.stats.PROFILE_MEMO`, which re-profiles only the tables that
changed since an earlier call; an unchanged database then costs no scan at
all before the lookup.

**Eviction.**  Left alone the cache grows without bound — one entry per
database version ever profiled, except along an incremental chain (see
retirement below).  The policy is LRU by entry mtime: every
cache *hit* touches the entry directory's mtime, so recency is recorded in
the filesystem itself (no sidecar state to corrupt, works across processes).
:meth:`SpoolCache.enforce_budget` drops the stalest entries until the cache
fits a byte budget; a cache built with ``max_bytes`` enforces it after every
:meth:`SpoolCache.publish` (never evicting the entry just published), and
``repro-ind cache list|evict`` exposes the same machinery to operators.
Eviction renames an entry aside before deleting it, so a concurrent
``lookup`` either hits the complete entry or misses cleanly, and a value
file a reader already has open stays readable.  Eviction does not wait
for readers, though, and cursors open value files lazily: a run that hit
an entry which another process then evicts fails with a
:class:`~repro.errors.SpoolError` naming the first value file it had not
opened yet.  It never reads a wrong value, so such a run ends in the
answer a fresh run gives or in that error.  Holds (:meth:`SpoolCache.hold`)
guard an entry only against retirement, and only within one process.

**Retirement.**  An incremental chain keeps one live entry: once a round
has published its entry, :meth:`SpoolCache.retire` removes the entry its
prior round used, the same way eviction does.  Files the new entry adopted
are hardlinks, so they stay on disk.  An entry that a run in this process
holds (:meth:`SpoolCache.hold`) is left alone; readers in other processes
are as unguarded as under eviction.

**Completeness.**  Every listed *entry* is complete by construction —
publication is one atomic rename of a finished, fingerprint-stamped staging
directory, so a half-written export is never an entry.  What a crash (of
the exporting process, or of a pool worker mid ``spool-export`` task whose
job then failed) leaves behind is an *orphan*: a ``.staging-*`` directory
that never published, or a ``.doomed-*`` eviction leftover.  Orphans never
serve hits but hold disk; :meth:`SpoolCache.list_orphans` surfaces them
(``repro-ind cache list`` prints them below the entries) and
:meth:`SpoolCache.evict_orphans` (``repro-ind cache evict --orphans``)
reclaims them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import FingerprintError, SpoolError
from repro.obs.metrics import get_registry
from repro.storage.blockio import DEFAULT_BLOCK_SIZE
from repro.storage.codec import COMPRESSION_NONE
from repro.storage.sorted_sets import (
    FORMAT_BINARY,
    SpoolDirectory,
    check_format,
    check_mmap_reads,
)

if TYPE_CHECKING:  # repro.db imports repro.storage; keep the cycle type-only
    from repro.db.schema import AttributeRef
    from repro.db.stats import ColumnStats

#: Directory-name length: 16 bytes of SHA-256 is plenty below any realistic
#: collision risk while keeping paths short.
_ENTRY_NAME_LENGTH = 32

#: Entries that runs in this process are reading, by real path, with the
#: number of runs holding each (:meth:`SpoolCache.hold`).  Retirement
#: leaves a held entry alone, and checks and renames under the lock a hold
#: takes, so an entry held before its lookup is never retired under it.
_HELD: Counter[str] = Counter()
_HELD_LOCK = threading.Lock()


@dataclass(frozen=True)
class OrphanInfo:
    """A leftover working directory inside the cache root.

    ``staging`` directories are in-progress (or abandoned) exports that
    were never published — a crash mid-export, pooled or not, leaves
    exactly this shape behind, invisible to :meth:`SpoolCache.lookup`;
    ``doomed`` directories are eviction/replacement leftovers whose
    deletion was interrupted.  Neither ever serves a hit, but both consume
    disk silently, which is why ``repro-ind cache list`` surfaces them and
    ``repro-ind cache evict --orphans`` reclaims them.
    """

    path: Path
    kind: str  # "staging" | "doomed"
    size_bytes: int
    mtime: float

    @property
    def name(self) -> str:
        """The orphan's directory name."""
        return self.path.name


@dataclass(frozen=True)
class CacheEntryInfo:
    """One cache entry as the eviction policy and the CLI see it."""

    path: Path
    fingerprint_prefix: str
    spool_format: str  # "binary", or "text" for a legacy v1 entry
    block_size: int | None  # None for legacy text entries (no block framing)
    size_bytes: int
    mtime: float  # last hit (or publish) — the LRU recency key
    attribute_count: int
    compression: str = "none"  # payload compression ("none" or "zlib")

    @property
    def name(self) -> str:
        """The entry's directory name (``<fp-prefix>-binary-<block>[-<comp>]``)."""
        return self.path.name


def _content_entry(st: ColumnStats) -> dict:
    """The identity-free half of one attribute's fingerprint payload.

    Everything the validators' decisions about this column's *value set*
    depend on — profile counts, rendered extrema, length bounds, and the
    order-insensitive CRC32 fold of the rendered distinct values — but not
    the table/column name.  Keeping identity out is what makes the
    per-attribute fingerprint a pure content signal: renaming a column or
    holding the same values in a differently named column leaves it
    untouched, while any multiset change moves at least one field.
    Statistics profiled without the fingerprint-only fields (a cold run's,
    see :func:`~repro.db.stats.profile_column`) raise
    :class:`~repro.errors.FingerprintError` naming the attribute.
    """
    if st.value_checksum is None:
        raise FingerprintError(
            f"statistics of {st.ref} were profiled without the "
            "fingerprint fields (length bounds, value checksum)"
        )
    return {
        "dtype": st.dtype.value,
        "rows": st.row_count,
        "nulls": st.null_count,
        "distinct": st.distinct_count,
        "min": st.min_value,
        "max": st.max_value,
        "min_length": st.min_length,
        "max_length": st.max_length,
        "checksum": st.value_checksum,
    }


def _canonical_digest(payload) -> str:
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Each statistics object's :func:`attribute_fingerprint`, weakly keyed.
#: The profile memo serves the same frozen objects to every call until
#: their table changes, so a delta round digests only re-profiled columns.
#: Keys compare by value, and the digest is a pure function of the
#: fields, so an equal object may share an entry.
_DIGESTS: weakref.WeakKeyDictionary[ColumnStats, str] = (
    weakref.WeakKeyDictionary()
)


def attribute_fingerprint(st: ColumnStats) -> str:
    """SHA-256 hex digest of one column's value-set profile.

    A content-only fingerprint (see :func:`_content_entry`): equal across
    renames and row reorderings, different whenever the column's multiset
    of values changed — up to a checksum collision, the same caveat the
    whole-catalog fingerprint has always carried.  Computed once per
    statistics object and then served from ``_DIGESTS``.
    """
    digest = _DIGESTS.get(st)
    if digest is None:
        digest = _DIGESTS[st] = _canonical_digest(_content_entry(st))
    return digest


def attribute_fingerprints(
    column_stats: dict[AttributeRef, ColumnStats]
) -> dict[AttributeRef, str]:
    """Per-attribute fingerprint map: ``ref`` → :func:`attribute_fingerprint`.

    The delta planner diffs two of these maps to find the changed-attribute
    set, and :meth:`SpoolCache.publish` stamps the map into ``index.json``
    (keyed by qualified name) so a cache entry can donate unchanged
    attributes' value files to a later partial rebuild.
    """
    return {
        ref: attribute_fingerprint(st) for ref, st in column_stats.items()
    }


def catalog_fingerprint(
    database_name: str, column_stats: dict[AttributeRef, ColumnStats]
) -> str:
    """SHA-256 hex digest of the catalog as the discovery pipeline sees it.

    Covers everything the validators' inputs depend on: the database name,
    every attribute's identity and type, the per-column profile (row, null
    and distinct counts, rendered min/max, length bounds), and the
    order-insensitive CRC32 fold of each column's rendered distinct value
    set.  Counts and extrema alone cannot detect every edit (swapping one
    mid-range value for another of equal length preserves all of them);
    the checksum closes that hole — an edit then goes unnoticed only if the
    CRCs of the added and removed values XOR-cancel, which is a hash
    collision, not a constructible stats blind spot.

    Derived from the same per-attribute entries
    :func:`attribute_fingerprint` digests, plus each attribute's identity
    and the database name — so the whole-catalog hash moves exactly when
    the fingerprint *map* (keys or values) moves, while staying
    byte-identical to the pre-per-column builds: existing cache entries
    keep hitting.
    """
    payload = {
        "database": database_name,
        "attributes": [
            {"table": ref.table, "column": ref.column, **_content_entry(st)}
            for ref, st in sorted(column_stats.items())
        ],
    }
    return _canonical_digest(payload)


class SpoolCache:
    """A directory of reusable spool directories, keyed by catalog fingerprint.

    Entries are built in a per-process staging directory and moved into
    place with one ``rename`` after they are complete and stamped, so a
    reader can never observe a half-written entry and two concurrent
    builders of the same fingerprint cannot delete files out from under
    each other — the loser's finished entry simply replaces the winner's
    equivalent one.

    >>> cache = SpoolCache("~/.cache/repro-ind/spools")
    >>> spool = cache.lookup(fp, needed=attrs)
    >>> if spool is None:
    ...     spool, _ = export_database(db, str(cache.prepare(fp)), ...)
    ...     spool = cache.publish(fp, spool)
    """

    def __init__(
        self, cache_dir: str | Path, max_bytes: int | None = None
    ) -> None:
        """Open (and create if needed) the cache rooted at ``cache_dir``.

        ``max_bytes`` arms the LRU size budget: every :meth:`publish` then
        evicts least-recently-hit entries until the cache fits.  ``None``
        (the default) disables automatic eviction; :meth:`enforce_budget`
        can still be called explicitly, e.g. by ``repro-ind cache evict``.
        """
        if max_bytes is not None and max_bytes < 0:
            raise SpoolError(f"max_bytes must be >= 0, got {max_bytes!r}")
        self.root = Path(cache_dir).expanduser()
        self.max_bytes = max_bytes
        #: Entries :meth:`find_partial` opened as donor candidates, over
        #: this object's life.
        self.donor_entries_opened = 0
        self.root.mkdir(parents=True, exist_ok=True)

    def entry_path(
        self,
        fingerprint: str,
        block_size: int = DEFAULT_BLOCK_SIZE,
        compression: str = COMPRESSION_NONE,
    ) -> Path:
        """Slot for one (catalog, spool configuration) combination.

        Block size and compression are part of the entry *name*, so
        differently configured runs over the same database coexist in the
        cache instead of thrashing a single slot with alternating rebuilds.
        The name keeps its ``-binary`` part, and uncompressed entries keep
        their pre-compression names, so caches built by older versions stay
        addressable.
        """
        if len(fingerprint) < _ENTRY_NAME_LENGTH:
            raise SpoolError(
                f"catalog fingerprint {fingerprint!r} is too short to key "
                "a cache entry"
            )
        name = f"{fingerprint[:_ENTRY_NAME_LENGTH]}-{FORMAT_BINARY}-{block_size}"
        if compression != COMPRESSION_NONE:
            name += f"-{compression}"
        return self.root / name

    def lookup(
        self,
        fingerprint: str,
        needed: list[AttributeRef] | None = None,
        spool_format: str = FORMAT_BINARY,
        block_size: int = DEFAULT_BLOCK_SIZE,
        compression: str = COMPRESSION_NONE,
        mmap_reads: bool = False,
    ) -> SpoolDirectory | None:
        """Return a usable cached spool for ``fingerprint``, or ``None``.

        A hit requires all of: the entry for this (fingerprint, block size,
        compression) opens cleanly, its recorded ``catalog_hash`` and
        on-disk layout match what the entry name promises, and — when
        ``needed`` is given — every required attribute is present.  An entry that cannot
        be opened or whose recorded metadata disagrees with its name is
        stale (tampering, an interrupted write, an older build) and is
        evicted on the spot; a missing attribute is an honest miss and the
        entry is simply replaced when the caller publishes its rebuild.
        ``spool_format`` accepts only ``"binary"`` and ``mmap_reads`` only
        ``False``.
        """
        check_format(spool_format)
        check_mmap_reads(mmap_reads)
        entry = self.entry_path(fingerprint, block_size, compression)
        registry = get_registry()
        if not (entry / "index.json").exists():
            registry.inc("spool_cache_misses_total")
            return None
        try:
            spool = SpoolDirectory.open(entry)
        except (SpoolError, OSError, ValueError, KeyError, TypeError):
            # SpoolError: missing files / bad version; ValueError covers
            # corrupt JSON (JSONDecodeError); KeyError/TypeError a malformed
            # document.  All mean the same thing: not a trustworthy entry.
            self._destroy(entry)
            registry.inc("spool_cache_misses_total")
            return None
        if (
            spool.catalog_hash != fingerprint
            or spool.compression != compression
            or spool.block_size != block_size
        ):
            self._destroy(entry)
            registry.inc("spool_cache_misses_total")
            return None
        if needed is not None and any(ref not in spool for ref in needed):
            registry.inc("spool_cache_misses_total")
            return None
        self._touch(entry)
        registry.inc("spool_cache_hits_total")
        return spool

    def prepare(self, fingerprint: str) -> Path:
        """Empty staging directory for a fresh export of this fingerprint.

        Staging is private to this caller (``mkdtemp`` guarantees a unique
        name even across concurrent builders of the same fingerprint);
        nothing is visible under the entry path until :meth:`publish`
        renames the finished directory in.
        """
        return Path(
            tempfile.mkdtemp(
                prefix=f".staging-{fingerprint[:_ENTRY_NAME_LENGTH]}-",
                dir=self.root,
            )
        )

    def find_partial(
        self,
        fingerprint: str,
        database: str,
        fingerprints: dict[AttributeRef, str],
        needed: list[AttributeRef],
        spool_format: str = FORMAT_BINARY,
        block_size: int = DEFAULT_BLOCK_SIZE,
        compression: str = COMPRESSION_NONE,
        prior: str | Path | SpoolDirectory | None = None,
    ) -> tuple[SpoolDirectory, list[AttributeRef]] | None:
        """A donor entry whose unchanged value files a rebuild can adopt.

        Called after an exact :meth:`lookup` missed: scans the entries of
        the *same* spool configuration and database for the one whose
        stamped per-attribute fingerprint map matches the most of
        ``needed`` (ties broken by entry name for determinism), and returns
        it together with the reusable attribute list.  ``None`` when no
        entry donates anything — entries published before the fingerprint
        map existed carry no map and never match, which is the safe
        default: they keep serving exact hits but cannot vouch for
        individual columns.

        ``prior`` names the entry the caller's previous round used: its
        path (the prior result's ``spool_path``), of which only the name is
        read, as an entry of this cache, or the
        :class:`~repro.storage.sorted_sets.SpoolDirectory` that round held.
        That entry is tried first and, if it donates anything, is the
        donor.  A directory rooted at that entry whose index is still the
        file it last read or wrote
        (:meth:`~repro.storage.sorted_sets.SpoolDirectory.index_is_current`,
        one ``os.stat``) donates from memory; otherwise the entry's
        ``index.json`` is read, one read instead of one per entry.  The
        scan runs when the prior entry is missing or unreadable, has
        another configuration or database, or donates nothing.  The two
        can differ in one case: an older entry matches a column that the
        prior entry does not, because the column went back to older
        content.  That column then re-exports, and the published entry is
        byte-identical either way.  :attr:`donor_entries_opened` counts the
        entries opened from disk.

        The donor is only *read*; the caller copies its files into a
        private staging directory (:meth:`adopt`) and publishes under the
        new ``fingerprint``, so a concurrent eviction of the donor costs
        at worst a re-export, never correctness.  ``spool_format`` accepts
        only ``"binary"``.
        """
        check_format(spool_format)
        target = self.entry_path(fingerprint, block_size, compression)
        tried = None
        best = None
        if prior is not None:
            held = None if isinstance(prior, (str, os.PathLike)) else prior
            tried = self.root / Path(prior if held is None else held.root).name
            if held is not None and Path(held.root) != tried:
                held = None  # another cache's entry: read this one's index
            best = self._donation(
                tried, target, database, fingerprints, needed, held
            )
        if best is None:
            for entry in self.entries():
                if entry == tried:
                    continue  # already found wanting above
                offer = self._donation(
                    entry, target, database, fingerprints, needed
                )
                if offer is not None and (
                    best is None
                    or (len(offer[1]), entry.name)
                    > (len(best[1]), best[0].root.name)
                ):
                    best = offer
        if best is not None:
            get_registry().inc("spool_cache_partial_hits_total")
        return best

    def _donation(
        self,
        entry: Path,
        target: Path,
        database: str,
        fingerprints: dict[AttributeRef, str],
        needed: list[AttributeRef],
        held: SpoolDirectory | None = None,
    ) -> tuple[SpoolDirectory, list[AttributeRef]] | None:
        """What ``entry`` can donate to a rebuild of ``target``, if anything.

        ``held`` is a registry of ``entry`` already in memory; it stands in
        for the index on disk while that index is the file it describes.
        """
        if entry.name == target.name:
            return None  # the exact slot already missed
        if entry.name[_ENTRY_NAME_LENGTH:] != target.name[_ENTRY_NAME_LENGTH:]:
            return None  # different spool configuration
        if held is not None and held.index_is_current():
            spool = held
        else:
            self.donor_entries_opened += 1
            try:
                spool = SpoolDirectory.open(entry)
            except (SpoolError, OSError, ValueError, KeyError, TypeError):
                return None  # not a trustworthy donor; lookup() evicts it
        if spool.database_name != database or spool.attribute_fingerprints is None:
            return None
        stamped = spool.attribute_fingerprints
        reusable = [
            ref
            for ref in needed
            if ref in spool and stamped.get(ref.qualified) == fingerprints.get(ref)
        ]
        return (spool, reusable) if reusable else None

    @staticmethod
    def adopt(
        staging: SpoolDirectory,
        donor: SpoolDirectory,
        refs: list[AttributeRef],
    ) -> list[AttributeRef]:
        """Copy ``refs``' value files from ``donor`` into ``staging``.

        Hardlinks where the filesystem allows (entries are never mutated in
        place — every rewrite is an atomic rename to a fresh inode, so a
        shared inode is safe), falling back to a byte copy across devices.
        The donor's recorded per-attribute metadata is registered verbatim;
        the adopted files are byte-identical to what a fresh export of the
        unchanged column would write, which is what keeps partial rebuilds
        inside the byte-exactness contract.  Returns the refs actually
        adopted — a donor file that vanished mid-adoption (concurrent
        eviction) is silently skipped and simply re-exported by the caller.
        """
        from dataclasses import replace

        adopted: list[AttributeRef] = []
        root = os.fspath(staging.root)
        for ref in refs:
            svf = donor.get(ref)
            destination = os.path.join(root, staging.reserve_name(ref))
            try:
                try:
                    os.link(svf.path, destination)
                except OSError:
                    shutil.copy2(svf.path, destination)
            except OSError:
                staging.release(ref)
                continue
            staging.register(replace(svf, path=destination))
            adopted.append(ref)
        if adopted:
            get_registry().inc(
                "spool_cache_files_reused_total", len(adopted)
            )
        return adopted

    def publish(
        self,
        fingerprint: str,
        spool: SpoolDirectory,
        database: str | None = None,
        fingerprints: dict[AttributeRef, str] | None = None,
    ) -> SpoolDirectory:
        """Stamp the finished spool, save its index and move it into its
        entry slot.

        This is the one ``index.json`` write of a cache miss: the exporter
        leaves the index to its caller.  Returns the argument's registry
        re-rooted at the entry path
        (:meth:`~repro.storage.sorted_sets.SpoolDirectory.moved_to`), so
        nothing is parsed again; only when the rename lost a race to a
        concurrent publisher of the same slot is the winner's entry
        re-opened from disk.  If another process published the same slot
        first, its entry — built from the same catalog and configuration —
        is replaced.  Replacement is two renames (old entry aside, staging
        in), never a recursive delete of the live path: a concurrent reader
        either holds file descriptors into the old directory (which stay
        valid on POSIX until closed) or re-opens by path and finds a
        complete entry on either side of the swap.

        ``database`` and ``fingerprints`` (a per-attribute map from
        :func:`attribute_fingerprints`) are stamped into the index alongside
        ``catalog_hash`` when given; they are what lets a *later* fingerprint
        miss reuse this entry's unchanged value files through
        :meth:`find_partial` instead of re-exporting everything.
        """
        spool.catalog_hash = fingerprint
        if database is not None:
            spool.database_name = database
        if fingerprints is not None:
            spool.attribute_fingerprints = {
                ref.qualified: digest for ref, digest in fingerprints.items()
            }
        spool.save_index()
        entry = self.entry_path(fingerprint, spool.block_size, spool.compression)
        staging = Path(spool.root)
        if staging == entry:
            return spool
        doomed: Path | None = None
        if entry.exists():
            doomed = self._grave()
            entry.rename(doomed)
        won = True
        try:
            staging.rename(entry)
        except OSError:
            # Lost the swap race to a concurrent publisher; their entry is
            # equivalent (same slot).  Drop ours and use theirs.
            won = False
            shutil.rmtree(staging, ignore_errors=True)
        if doomed is not None:
            shutil.rmtree(doomed, ignore_errors=True)
        self._touch(entry)
        if self.max_bytes is not None:
            self.enforce_budget(protect=(entry,))
        if won:
            return spool.moved_to(entry)
        return SpoolDirectory.open(entry)

    @staticmethod
    def hold(entry: str | Path) -> str:
        """Keep :meth:`retire` off ``entry`` until :meth:`release`.

        Returns the key to release.  A run takes its hold before it looks
        the entry up, so a retirement either ran before (the lookup misses)
        or leaves the entry alone.  Holds are per process, and eviction
        ignores them.
        """
        key = os.path.realpath(entry)
        with _HELD_LOCK:
            _HELD[key] += 1
        return key

    @staticmethod
    def release(key: str) -> None:
        """Drop one :meth:`hold` taken under ``key``."""
        with _HELD_LOCK:
            _HELD[key] -= 1
            if not _HELD[key]:
                del _HELD[key]

    def retire(self, entry: str | Path, successor: Path) -> bool:
        """Remove ``entry``, which the just-published ``successor`` supersedes.

        Only an entry directly under this cache's root, with
        ``successor``'s spool configuration (the name after the
        fingerprint prefix), that is not ``successor`` and that no run in
        this process holds, goes; the caller vouches that it is the same
        database, so no index is read.  The removal is :meth:`_destroy`'s:
        renamed aside, then deleted, so the files ``successor`` adopted
        from it stay on disk as its hardlinks.  Returns whether ``entry``
        was removed.
        """
        entry = Path(entry)
        if (
            entry.name == successor.name
            or entry.name[_ENTRY_NAME_LENGTH:]
            != successor.name[_ENTRY_NAME_LENGTH:]
            or os.path.realpath(entry.parent) != os.path.realpath(self.root)
        ):
            return False
        retired = self._destroy(entry, unless_held=True)
        if retired:
            get_registry().inc("spool_cache_retired_total")
        return retired

    def evict(self, fingerprint: str) -> bool:
        """Drop every entry of this fingerprint; True when anything was removed."""
        removed = False
        for entry in self.root.glob(f"{fingerprint[:_ENTRY_NAME_LENGTH]}-*"):
            self._destroy(entry)
            removed = True
        return removed

    def evict_prefix(self, prefix: str) -> list[CacheEntryInfo]:
        """Drop every entry whose fingerprint prefix starts with ``prefix``.

        The operator-facing variant of :meth:`evict` — accepts any prefix of
        the hex fingerprint (as ``repro-ind cache list`` prints it), up to
        and including the full 64-char digest (entry names store only the
        first ``_ENTRY_NAME_LENGTH`` characters, so longer prefixes are
        truncated to that before matching).  Returns the entries removed.
        """
        if not prefix:
            raise SpoolError("an empty prefix would evict the whole cache; "
                             "use evict_all() to say that explicitly")
        prefix = prefix[:_ENTRY_NAME_LENGTH]
        victims = [
            info
            for info in self.list_entries()
            if info.fingerprint_prefix.startswith(prefix)
        ]
        for info in victims:
            self._destroy(info.path)
        return victims

    def evict_all(self) -> list[CacheEntryInfo]:
        """Empty the cache; returns the entries removed."""
        victims = self.list_entries()
        for info in victims:
            self._destroy(info.path)
        return victims

    def enforce_budget(
        self,
        max_bytes: int | None = None,
        protect: tuple[Path, ...] = (),
    ) -> list[CacheEntryInfo]:
        """LRU-evict entries until the cache fits ``max_bytes``.

        Recency is the entry directory's mtime, which every hit refreshes;
        the stalest entries go first.  ``protect`` exempts paths (publish
        protects the entry it just wrote — evicting the bytes a caller is
        about to read would turn the budget into a correctness bug).
        Returns the evicted entries, stalest first.  ``max_bytes`` defaults
        to the budget the cache was constructed with.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            raise SpoolError("no size budget given and none configured")
        if budget < 0:
            raise SpoolError(f"size budget must be >= 0, got {budget!r}")
        shielded = {Path(p).resolve() for p in protect}
        entries = self.list_entries()  # stalest-first, see below
        total = sum(info.size_bytes for info in entries)
        evicted: list[CacheEntryInfo] = []
        for info in entries:
            if total <= budget:
                break
            if info.path.resolve() in shielded:
                continue
            self._destroy(info.path)
            total -= info.size_bytes
            evicted.append(info)
        if evicted:
            get_registry().inc("spool_cache_evictions_total", len(evicted))
        return evicted

    def list_entries(self) -> list[CacheEntryInfo]:
        """Every entry with its size, recency, and layout — stalest first.

        Stalest-first is the eviction order, so ``repro-ind cache list``
        output doubles as the answer to "what goes next when the budget
        bites?".  Entries that vanish mid-listing (concurrent eviction) are
        skipped, not errors.
        """
        infos = []
        for entry in self.entries():
            info = self._entry_info(entry)
            if info is not None:
                infos.append(info)
        infos.sort(key=lambda info: (info.mtime, info.name))
        return infos

    def total_bytes(self) -> int:
        """Bytes currently held by all cache entries."""
        return sum(info.size_bytes for info in self.list_entries())

    def list_orphans(self) -> list[OrphanInfo]:
        """Leftover staging/doomed directories — never-published partials.

        A publishable entry becomes visible only through the final atomic
        rename, so anything still named ``.staging-*`` is an export that
        did not complete (in progress right now, or abandoned by a crash)
        and anything named ``.doomed-*`` is an interrupted deletion.
        Sorted stalest first, like :meth:`list_entries`.  Directories that
        vanish mid-listing (a concurrent publish or cleanup) are skipped.
        """
        orphans: list[OrphanInfo] = []
        for path in self.root.iterdir():
            if not path.is_dir():
                continue
            if path.name.startswith(".staging-"):
                kind = "staging"
            elif path.name.startswith(".doomed-"):
                kind = "doomed"
            else:
                continue
            try:
                mtime = path.stat().st_mtime
                size = sum(
                    f.stat().st_size for f in path.rglob("*") if f.is_file()
                )
            except OSError:
                continue  # concurrently published or reclaimed
            orphans.append(
                OrphanInfo(path=path, kind=kind, size_bytes=size, mtime=mtime)
            )
        orphans.sort(key=lambda info: (info.mtime, info.name))
        return orphans

    def evict_orphans(self) -> list[OrphanInfo]:
        """Reclaim every orphaned staging/doomed directory; returns them.

        Safe against published entries (they are never matched) but **not**
        against an export that is genuinely still running in another
        process — its staging directory looks identical to an abandoned
        one, and evicting it fails that export loudly at publish time
        rather than corrupting anything (publish renames, so the loser
        simply errors).  Operators should run this when no export is in
        flight, which is also when orphans can exist at all.
        """
        victims = self.list_orphans()
        for info in victims:
            shutil.rmtree(info.path, ignore_errors=True)
        return victims

    def _entry_info(self, entry: Path) -> CacheEntryInfo | None:
        """Describe one entry directory; ``None`` if it vanished or is corrupt.

        Format and block size come from the entry's own ``index.json`` —
        the document :meth:`SpoolDirectory.save_index` writes — never from
        re-parsing the directory name; only the fingerprint prefix lives in
        the name alone.
        """
        try:
            mtime = entry.stat().st_mtime
            size = sum(
                f.stat().st_size for f in entry.rglob("*") if f.is_file()
            )
            document = json.loads(
                (entry / "index.json").read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None  # concurrently evicted or corrupt; not listable
        if not isinstance(document, dict):
            return None
        return CacheEntryInfo(
            path=entry,
            fingerprint_prefix=entry.name.split("-", 1)[0],
            spool_format=str(document.get("format", "text")),
            block_size=document.get("block_size"),
            size_bytes=size,
            mtime=mtime,
            attribute_count=len(document.get("attributes", [])),
            compression=str(document.get("compression", "none")),
        )

    def _touch(self, entry: Path) -> None:
        """Refresh the entry's mtime — the LRU recency signal — on a hit."""
        try:
            os.utime(entry, (time.time(), time.time()))
        except OSError:
            pass  # entry concurrently evicted; the caller's spool stays valid

    def _destroy(self, entry: Path, unless_held: bool = False) -> bool:
        """Take an entry offline atomically, then reclaim its space.

        Renaming first means no reader can ever open a half-deleted
        directory; rmtree then works on a path nobody resolves.  With
        ``unless_held`` an entry a run in this process holds stays; the
        check and the rename run under the lock :meth:`hold` takes.
        Returns whether this call took the entry offline.
        """
        if not entry.exists():
            return False
        grave = self._grave()
        with _HELD_LOCK:
            if unless_held and _HELD[os.path.realpath(entry)]:
                return False
            try:
                entry.rename(grave)
            except OSError:
                return False  # a concurrent destroyer got it first
        shutil.rmtree(grave, ignore_errors=True)
        return True

    def _grave(self) -> Path:
        """A fresh ``.doomed-*`` path in the root to rename an entry to.

        A rename needs no directory made first, and 64 random bits keep
        concurrent destroyers' names apart.
        """
        return self.root / f".doomed-{os.urandom(8).hex()}"

    def entries(self) -> list[Path]:
        """All entry directories currently in the cache (diagnostics)."""
        return sorted(
            p
            for p in self.root.iterdir()
            if p.is_dir() and not p.name.startswith((".staging-", ".doomed-"))
        )
