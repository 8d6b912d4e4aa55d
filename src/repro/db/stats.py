"""Per-column statistics: the catalog metadata behind candidate generation.

The paper's candidate generation (Sec. 2) and pretests need, per attribute:
row/null counts, the number of distinct values (cardinality pretest), whether
the column is unique over its non-NULL values (referenced attributes must be),
and the minimum/maximum *rendered* value (max-value pretest, Sec. 4.1).
Everything is read off one sorted rendered list per column, the list
:func:`~repro.storage.codec.render_distinct_sorted` builds.

The spool-cache and delta fingerprints read three more fields: the length
bounds and ``value_checksum``.  Only runs that take a fingerprint compute
them.  A cold run profiles with ``fingerprint=False`` and may keep the
sorted lists in a :class:`RenderedLists`, so its export writes each list
instead of rendering and sorting the column a second time.

:func:`collect_column_stats` keeps no state.  Runs that already keep state
across calls (a spool cache or an incremental prior) profile through
:data:`PROFILE_MEMO` instead, which re-profiles only the tables that are
new or grew since an earlier call saw them.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import reduce
from operator import xor
from zlib import crc32

from repro.db.database import Database
from repro.db.schema import AttributeRef
from repro.db.table import Table
from repro.db.types import DataType
from repro.storage.codec import render_distinct_sorted


@dataclass(frozen=True)
class ColumnStats:
    """Profile of one attribute, as the discovery pipeline consumes it."""

    ref: AttributeRef
    dtype: DataType
    row_count: int
    null_count: int
    distinct_count: int
    min_value: str | None  # rendered; None iff the column is all-NULL/empty
    max_value: str | None
    #: Length of the shortest and longest rendered value.  ``None`` for an
    #: empty column, and for every column a cold run profiled (see
    #: :func:`profile_column`'s ``fingerprint``).
    min_length: int | None
    max_length: int | None
    #: Numeric bounds, present only when every non-NULL value is numeric.
    #: The rendered min/max above follow the paper's lexicographic order
    #: ("99" > "150"); range analysis (Sec. 5) needs the numeric ones.
    numeric_min: float | None = None
    numeric_max: float | None = None
    #: Order-insensitive CRC32 fold of the rendered distinct value set.
    #: Counts and extrema alone cannot see every edit (swap a mid-range
    #: value for another of equal length and they all stay put); the spool
    #: cache needs a content signal, and this one is computed from the
    #: distinct list the profiler builds anyway.  ``None`` when a cold run
    #: profiled the column without the fingerprint-only fields; the
    #: fingerprint functions refuse such statistics.
    value_checksum: int | None = 0

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count

    @property
    def is_empty(self) -> bool:
        """True when the column holds no non-NULL value at all."""
        return self.non_null_count == 0

    @property
    def is_unique(self) -> bool:
        """Measured uniqueness over non-NULL values (SQL UNIQUE semantics).

        The paper profiles *undocumented* schemas, so uniqueness is measured
        from the instance, not read from declarations.  Empty columns are not
        unique for our purposes — they cannot be referenced attributes since
        referenced attributes must be non-empty.
        """
        return self.non_null_count > 0 and self.distinct_count == self.non_null_count


def profile_column(
    db: Database,
    ref: AttributeRef,
    *,
    fingerprint: bool = True,
    rendered: RenderedLists | None = None,
) -> ColumnStats:
    """Compute :class:`ColumnStats` for one attribute.

    Column-at-a-time: NULLs are dropped once, one type pass feeds both
    :func:`~repro.storage.codec.render_distinct_sorted` and the numeric
    check, and the rendered extrema are the two ends of the sorted list.
    The numeric bounds scan the non-NULL values in column order, so
    ``min``/``max`` meet a NaN exactly where a value-by-value scan would;
    ``float`` is monotone, so converting the extreme equals taking the
    extreme of the converted values.

    ``fingerprint=False`` skips the fields only a fingerprint reads:
    ``min_length``, ``max_length`` and ``value_checksum`` come back
    ``None``.  A cold run profiles this way, because it never takes a
    fingerprint.  ``rendered`` is offered the sorted list, for the export
    after the profile (see :class:`RenderedLists`).
    """
    table = db.table(ref.table)
    column = table.column_def(ref.column)
    values = table.column_values(ref.column)
    present = (
        [value for value in values if value is not None]
        if None in values
        else values
    )
    kinds = set(map(type, present))
    distinct = render_distinct_sorted(present, kinds)
    numeric = bool(present) and (
        kinds <= {int, float}
        or all(isinstance(value, (int, float)) for value in present)
    )
    min_length = max_length = checksum = None
    if fingerprint:
        if distinct:
            min_length = min(map(len, distinct))
            max_length = max(map(len, distinct))
        # str.encode defaults to strict UTF-8.
        checksum = reduce(xor, map(crc32, map(str.encode, distinct)), 0)
    stats = ColumnStats(
        ref=ref,
        dtype=column.dtype,
        row_count=len(values),
        null_count=len(values) - len(present),
        distinct_count=len(distinct),
        min_value=distinct[0] if distinct else None,
        max_value=distinct[-1] if distinct else None,
        min_length=min_length,
        max_length=max_length,
        numeric_min=float(min(present)) if numeric else None,
        numeric_max=float(max(present)) if numeric else None,
        value_checksum=checksum,
    )
    if rendered is not None:
        rendered.offer(stats, distinct)
    return stats


def collect_column_stats(
    db: Database,
    include_empty_tables: bool = False,
    *,
    fingerprint: bool = True,
    rendered: RenderedLists | None = None,
) -> dict[AttributeRef, ColumnStats]:
    """Profile every attribute of the database.

    Note the distinct-count here reflects TO_CHAR rendering, i.e. it is the
    cardinality of ``s(a)`` exactly as the external algorithms will see it.
    ``fingerprint`` and ``rendered`` pass through to :func:`profile_column`.
    """
    return {
        ref: profile_column(
            db, ref, fingerprint=fingerprint, rendered=rendered
        )
        for ref in db.attributes(include_empty_tables=include_empty_tables)
    }


class RenderedLists(dict):
    """Sorted rendered lists that a cold run's profile hands to its export.

    Maps an attribute to ``(scanned, values)``: its non-NULL value count
    and its sorted rendered distinct values, the list export would build
    again otherwise.  :func:`profile_column` offers every list it builds,
    and only those export would build in memory are kept: none for a LOB
    or empty column, and none for a column with ``max_items`` or more
    non-NULL values, which export streams through
    :func:`~repro.storage.external_sort.external_sort`.
    :func:`~repro.storage.exporter.export_into` pops each list as it
    writes it.
    """

    def __init__(self, max_items: int) -> None:
        super().__init__()
        self.max_items = max_items

    def offer(self, stats: ColumnStats, values: list[str]) -> None:
        """Keep ``values``, the sorted list of ``stats.ref``, if export
        would build it in memory."""
        scanned = stats.non_null_count
        if 0 < scanned < self.max_items and not stats.dtype.is_lob:
            self[stats.ref] = (scanned, values)

    def retain(self, refs) -> None:
        """Drop every list whose attribute is not in ``refs``."""
        keep = set(refs)
        for ref in [ref for ref in self if ref not in keep]:
            del self[ref]


class ProfileMemo:
    """Each table's :class:`ColumnStats`, kept per table version.

    Keyed weakly by the :class:`~repro.db.table.Table` object and valid
    while its ``row_count`` is unchanged.  That key is exact:
    :meth:`Table.insert` is the only way to change a table and it bumps
    ``row_count``, and dropping and re-creating a table gives a new
    object.  An entry dies with its table.  :class:`ColumnStats` is
    frozen, so entries are shared as they are; each :meth:`collect` builds
    a fresh dict.  Entries are read and written under a lock, because a
    server profiles on several threads at once.
    """

    def __init__(self) -> None:
        self._entries: weakref.WeakKeyDictionary[
            Table, tuple[int, list[ColumnStats]]
        ] = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, table: Table) -> bool:
        with self._lock:
            return table in self._entries

    def collect(
        self, db: Database
    ) -> tuple[dict[AttributeRef, ColumnStats], int]:
        """``collect_column_stats(db)``, re-profiling only changed tables.

        Returns the stats, equal to the stateless call's and in its order,
        and the number of tables this call profiled; every other non-empty
        table was served from the memo.
        """
        stats: dict[AttributeRef, ColumnStats] = {}
        profiled = 0
        for table in db.non_empty_tables():
            rows = table.row_count
            with self._lock:
                entry = self._entries.get(table)
            if entry is None or entry[0] != rows:
                entry = (
                    rows,
                    [profile_column(db, ref) for ref in table.schema.attributes],
                )
                with self._lock:
                    self._entries[table] = entry
                profiled += 1
            for column_stats in entry[1]:
                stats[column_stats.ref] = column_stats
        return stats, profiled


#: The process-wide memo behind the runs that opt into cross-call reuse
#: (``reuse_spool`` or ``incremental``).
PROFILE_MEMO = ProfileMemo()
