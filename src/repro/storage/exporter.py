"""Extraction of a database into a spool directory of sorted value sets.

Mirrors the paper's division of labour (Sec. 3): "We first extract from the
database the sorted sets of distinct values of each attribute using SQL" —
sorting and duplicate elimination happen once per attribute here, and the
validators then only ever scan sorted files.

Each attribute's sorted list comes from one of two places:

* the list the profile already built.  A cold run profiles with a
  :class:`~repro.db.stats.RenderedLists` and passes it to
  :func:`export_into` as ``rendered``, which writes each kept list as it
  is, so the run renders and sorts each column once;
* render → sort → spool file (see :func:`_sorted_distinct`), for every
  attribute without a kept list.

Both produce identical spool files, and so does the paper's extraction
statement ``SELECT DISTINCT TO_CHAR(col) FROM t WHERE col IS NOT NULL
ORDER BY 1`` run through :mod:`repro.sql`; tests assert both.

For the *process*-parallel path — export units dispatched as
``spool-export`` tasks through :class:`repro.parallel.pool.WorkerPool` —
this module provides the task-shaped building blocks
(:class:`ExportUnit`, :func:`plan_export_units`, :func:`run_export_unit`)
while :func:`repro.parallel.export.pooled_export` does the orchestration:
storage stays below the parallel layer, and the worker-side unit executor
is a pure function of its unit, which is what makes requeue-after-crash
safe for export exactly as it is for validation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from repro.db.database import Database
from repro.db.schema import AttributeRef
from repro.errors import SpoolError
from repro.storage.blockio import DEFAULT_BLOCK_SIZE
from repro.storage.codec import (
    COMPRESSION_NONE,
    render_distinct_sorted,
    render_value,
)
from repro.storage.external_sort import DEFAULT_RUN_SIZE, external_sort
from repro.storage.sorted_sets import (
    FORMAT_BINARY,
    SortedValueFile,
    SpoolDirectory,
    check_format,
    check_mmap_reads,
    write_value_file,
)


class ExportUnit(NamedTuple):
    """One attribute's export, packaged to cross a process boundary.

    Everything a worker needs to render, sort and write the attribute —
    including the raw (non-NULL, unrendered) ``values`` and the
    ``file_name`` the parent reserved, so two units can never collide on a
    sanitised name the parent-side registry would have disambiguated.
    A plain tuple on purpose: picklable under every start method, and
    transparently scannable by the pool's fault-injection test hook.
    """

    table: str
    column: str
    qualified: str
    dtype: str
    file_name: str
    values: tuple


def plan_export_units(
    db: Database, attributes: list[AttributeRef] | None, spool: SpoolDirectory
) -> list[ExportUnit]:
    """Build one :class:`ExportUnit` per exportable attribute of ``db``.

    Applies the same filtering as :func:`export_database` (catalog
    resolution, LOB exclusion per Sec. 2) and reserves each unit's file
    name in ``spool``, so the parent-side registry stays the single
    authority on names.  Unit order matches the sequential export's
    submission order — the order statistics are folded in.
    """
    targets = attributes if attributes is not None else db.attributes()
    units: list[ExportUnit] = []
    for ref in targets:
        db.resolve(ref)
        if ref in spool:
            continue  # adopted from a donor entry; its file is already final
        dtype = db.table(ref.table).column_def(ref.column).dtype
        if dtype.is_lob:
            continue
        units.append(
            ExportUnit(
                table=ref.table,
                column=ref.column,
                qualified=ref.qualified,
                dtype=dtype.value,
                file_name=spool.reserve_name(ref),
                values=tuple(db.attribute_values(ref)),
            )
        )
    return units


def _sorted_distinct(
    values: Sequence[Any], max_items_in_memory: int = DEFAULT_RUN_SIZE
) -> Iterable[str]:
    """The sorted rendered set ``s(a)`` of one attribute's raw values.

    Below ``max_items_in_memory`` values this is the in-memory kernel
    :func:`~repro.storage.codec.render_distinct_sorted`; from there on
    :func:`~repro.storage.external_sort.external_sort` bounds memory with
    spilled runs.  The cut is where ``external_sort`` itself would start
    spilling, and both yield the same sequence.
    """
    if len(values) < max_items_in_memory:
        return render_distinct_sorted(values)
    return external_sort(
        map(render_value, values), max_items_in_memory=max_items_in_memory
    )


def run_export_unit(
    spool_root: str,
    unit: ExportUnit,
    block_size: int,
    max_items_in_memory: int = DEFAULT_RUN_SIZE,
    compression: str = COMPRESSION_NONE,
) -> SortedValueFile:
    """Render → sort → write one export unit (worker-side).

    A pure function of the unit: deterministic output, no shared state, an
    atomic rename at the end — so the pool may re-execute it after a
    worker death without ever exposing a torn file or a divergent result.
    """
    ref = AttributeRef(unit.table, unit.column)
    return write_value_file(
        ref,
        str(Path(spool_root) / unit.file_name),
        _sorted_distinct(unit.values, max_items_in_memory),
        dtype=unit.dtype,
        block_size=block_size,
        compression=compression,
    )


@dataclass
class ExportStats:
    """Counters describing one export run."""

    attributes_exported: int = 0
    values_scanned: int = 0  # non-NULL values read from the database
    values_written: int = 0  # distinct values written to spool files
    skipped_empty: int = 0
    per_attribute_counts: dict[str, int] = field(default_factory=dict)


def export_database(
    db: Database,
    spool_root: str,
    attributes: list[AttributeRef] | None = None,
    max_items_in_memory: int = DEFAULT_RUN_SIZE,
    include_empty: bool = False,
    spool_format: str = FORMAT_BINARY,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
    compression: str = COMPRESSION_NONE,
    mmap_reads: bool = False,
) -> tuple[SpoolDirectory, ExportStats]:
    """Spool the sorted distinct value set of every attribute of ``db``.

    ``attributes`` restricts the export (used by the Figure 5 benchmark that
    grows the attribute subset).  Empty attributes are skipped unless
    ``include_empty`` is set — the paper's candidate rules only ever consider
    non-empty columns, so their files would never be read.
    ``spool_format`` accepts only ``"binary"``; ``compression="zlib"``
    upgrades the value files to v3 compressed frames;
    ``mmap_reads`` accepts only ``False``.
    ``workers`` accepts only 1: export runs on one thread, and
    :func:`repro.parallel.export.pooled_export` is the parallel export.
    The index is saved once, after the last value file.
    """
    check_format(spool_format)
    check_mmap_reads(mmap_reads)
    if workers != 1:
        raise SpoolError(
            f"export_database runs on one thread, so workers must be 1, "
            f"got {workers!r}; repro.parallel.export.pooled_export exports "
            "on a worker pool"
        )
    spool = SpoolDirectory.create(
        spool_root, block_size=block_size, compression=compression
    )
    stats = export_into(
        db,
        spool,
        attributes=attributes,
        max_items_in_memory=max_items_in_memory,
        include_empty=include_empty,
    )
    spool.save_index()
    return spool, stats


def export_into(
    db: Database,
    spool: SpoolDirectory,
    attributes: list[AttributeRef] | None = None,
    max_items_in_memory: int = DEFAULT_RUN_SIZE,
    include_empty: bool = False,
    rendered: dict[AttributeRef, tuple[int, list[str]]] | None = None,
) -> ExportStats:
    """Spool attributes of ``db`` into an *existing* directory.

    The partial-rebuild primitive behind :func:`export_database` (which
    delegates to it after creating the directory): a delta run first adopts
    unchanged attributes' value files from a donor cache entry, then calls
    this with only the changed attributes.  Attributes already present in
    ``spool`` (adopted, or exported earlier) are skipped, never rewritten —
    their files are byte-exact by construction, and a rewrite would race
    readers for nothing.  Statistics cover only what *this* call scanned
    and wrote, which is exactly what delta accounting wants to report.

    The index is not saved: the caller saves it once the directory is
    complete (:func:`export_database`, the runner's export without a
    cache, :meth:`~repro.storage.spool_cache.SpoolCache.publish`), so a
    round that adopts and exports into one staging directory writes one
    ``index.json``.

    ``rendered`` maps attributes to ``(scanned, values)``: a non-NULL
    count and the sorted rendered list the profile built (a
    :class:`~repro.db.stats.RenderedLists`).  Such an attribute is written
    from its list, which is popped as it is written, instead of being
    rendered and sorted again.  The files and statistics are the same
    either way.
    """
    stats = ExportStats()
    empty: list[AttributeRef] = []
    targets = attributes if attributes is not None else db.attributes()
    for ref in targets:
        db.resolve(ref)
        if ref in spool:
            continue
        dtype = db.table(ref.table).column_def(ref.column).dtype
        if dtype.is_lob:
            # LOB columns are excluded from dependent *and* referenced sides
            # (Sec. 2); spooling them would be wasted I/O.
            continue
        svf, scanned = _export_one(
            db, spool, ref, dtype.value, max_items_in_memory, rendered
        )
        stats.values_scanned += scanned
        if svf.is_empty and not include_empty:
            empty.append(ref)
            stats.skipped_empty += 1
            continue
        stats.attributes_exported += 1
        stats.values_written += svf.count
        stats.per_attribute_counts[ref.qualified] = svf.count
    # Empty files go only once every attribute holds its file name, so a
    # freed name is never handed on: names match the pooled export's,
    # which reserves every name before any file is written.
    for ref in empty:
        spool.discard(ref)
    return stats


def _export_one(
    db: Database,
    spool: SpoolDirectory,
    ref: AttributeRef,
    dtype: str,
    max_items_in_memory: int,
    rendered: dict[AttributeRef, tuple[int, list[str]]] | None,
) -> tuple[SortedValueFile, int]:
    """Extract, sort and spool a single attribute; return its file and the
    number of non-NULL values it scanned."""
    kept = None if rendered is None else rendered.pop(ref, None)
    if kept is not None:
        scanned, sorted_values = kept
    else:
        values = db.attribute_values(ref)
        scanned = len(values)
        sorted_values = _sorted_distinct(values, max_items_in_memory)
    svf = spool.add_values(ref, sorted_values, dtype=dtype)
    return svf, scanned
