"""The four benchmark workloads: inputs, answer key, edits and calls.

Inputs come from the repository's seeded generators (:mod:`repro.datagen`).
``--seed`` seeds them, the request order and the edit script; the program
only ever sees the generated :class:`~repro.db.database.Database` objects.
Each workload drives one way of running discovery and bypasses the others,
so a change to one layer should move some workloads and leave the rest
unchanged (README.md, "Workloads").
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import shutil
from pathlib import Path

import layers
import probes
from layers import pair
from repro import DiscoveryConfig, DiscoverySession, discover_inds
from repro.datagen import (
    SCALES,
    Scale,
    generate_biosql,
    generate_openmms,
    generate_scop,
)
from repro.db.schema import AttributeRef
from repro.db.types import DataType
from repro.parallel.export import pooled_export
from repro.parallel.merge import PartitionedMergeValidator
from repro.parallel.pool import WorkerPool
from repro.storage.codec import render_value
from repro.storage.exporter import export_database, export_into
from repro.storage.sorted_sets import SpoolDirectory
from repro.storage.spool_cache import (
    SpoolCache,
    attribute_fingerprints,
    catalog_fingerprint,
)

#: Columns that mark an OpenMMS satellite table (the schema's long tail).
_SATELLITE_COLUMNS = {"struct_ref", "ordinal", "detail_text"}


class BenchError(Exception):
    """A workload's premise or answer did not hold."""


def openmms(scale: Scale, seed: int):
    """OpenMMS whose shape does not depend on the seed.

    The generator draws each satellite's row count (0.5 to 3 rows per
    entity) and payload columns from the seed, which moves row and
    candidate counts by ~10% between seeds, more than the noise the
    benchmark must resolve.  Cutting every satellite to its smallest
    possible size and dropping the payload columns fixes the schema and the
    row count; the seed still draws every value.
    """
    db = generate_openmms(scale, seed=seed).db
    rows = max(2, scale.entities // 2)
    for name in db.table_names:
        table = db.table(name)
        schema = table.schema
        if not _SATELLITE_COLUMNS <= set(schema.column_names):
            continue
        keep = [c for c in schema.columns if not c.name.startswith("value_")]
        columns = [table.column_values(c.name)[:rows] for c in keep]
        names = [c.name for c in keep]
        db.drop_table(name)
        db.create_table(dataclasses.replace(schema, columns=keep)).insert_many(
            dict(zip(names, values)) for values in zip(*columns)
        )
    return db


def answer(result) -> frozenset:
    """The satisfied INDs of a discovery result as ``(dep, ref)`` pairs."""
    return frozenset(pair(ind) for ind in result.satisfied)


class Oracle:
    """Satisfied unary INDs by plain set containment: the answer key.

    Independent of the program's profiler, candidate generator, pretests,
    spools and validators: it renders every non-NULL value, keeps one set
    per attribute, and tests ``s(dep) ⊆ s(ref)`` for every non-LOB
    dependent and every unique referenced attribute of a non-empty table.
    :meth:`refresh` re-reads only the tables an edit touched.
    """

    def __init__(self, db) -> None:
        self._sets: dict[AttributeRef, frozenset] = {}
        self._unique: set[AttributeRef] = set()
        self.pairs: frozenset = frozenset()
        self.refresh(db, db.table_names)

    def refresh(self, db, tables) -> None:
        """Re-read ``tables`` of ``db`` and recompute :attr:`pairs`."""
        for name in tables:
            for ref in [ref for ref in self._sets if ref.table == name]:
                del self._sets[ref]
                self._unique.discard(ref)
            table = db.table(name)
            if table.is_empty:
                continue
            for column in table.schema.columns:
                if column.dtype.is_lob:
                    continue
                values = table.non_null_values(column.name)
                rendered = frozenset(map(render_value, values))
                if not rendered:
                    continue
                ref = AttributeRef(name, column.name)
                self._sets[ref] = rendered
                if len(rendered) == len(values):
                    self._unique.add(ref)
        self.pairs = frozenset(
            (dep, ref)
            for dep, values in self._sets.items()
            for ref in self._unique
            if ref != dep and values <= self._sets[ref]
        )


_EDITABLE = (DataType.INTEGER, DataType.VARCHAR)
_FRESH_KEYS = (DataType.INTEGER, DataType.FLOAT, DataType.VARCHAR)


def _is_unique(values) -> bool:
    present = [v for v in values if v is not None]
    return bool(present) and len(set(present)) == len(present)


class EditScript:
    """Seeded edits: odd rounds rewrite a column, even rounds append rows.

    A rewrite changes ~1% of the values of one non-unique INTEGER or
    VARCHAR column, one of them to a value above the column's maximum; an
    append copies ~1% of one table's rows and gives every unique column
    fresh values above its maximum.  Each returns the table it touched.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"indbench-edits-{seed}")
        self.round = 0

    def apply(self, db) -> str:
        """Apply the next edit to ``db``; returns the edited table's name."""
        self.round += 1
        return self._rewrite(db) if self.round % 2 else self._append(db)

    def _rewrite(self, db) -> str:
        rng = self._rng
        while True:
            table = rng.choice(list(db.tables()))
            editable = [
                c for c in table.schema.columns if not c.unique and c.dtype in _EDITABLE
            ]
            if table.row_count < 2 or not editable:
                continue
            column = rng.choice(editable)
            present = table.non_null_values(column.name)
            if present and not _is_unique(present):
                break
        names = table.schema.column_names
        columns = [list(table.column_values(name)) for name in names]
        edited = columns[names.index(column.name)]
        picked = rng.sample(range(table.row_count), max(1, table.row_count // 100))
        for index in picked[1:]:
            edited[index] = rng.choice(present)
        edited[picked[0]] = (
            max(present) + 1 + self.round
            if column.dtype is DataType.INTEGER
            else f"{max(present)}~"
        )
        # Rows are built one at a time: the edit's own memory stays small
        # next to the discovery call whose peak RSS is measured.
        db.drop_table(table.name)
        db.create_table(table.schema).insert_many(
            dict(zip(names, values)) for values in zip(*columns)
        )
        return table.name

    def _append(self, db) -> str:
        rng = self._rng
        while True:
            table = rng.choice(list(db.tables()))
            if table.is_empty:
                continue
            keys = [
                c
                for c in table.schema.columns
                if c.unique or _is_unique(table.column_values(c.name))
            ]
            if all(
                c.dtype in _FRESH_KEYS and table.non_null_values(c.name) for c in keys
            ):
                break
        tops = {c.name: max(table.non_null_values(c.name)) for c in keys}
        rows = []
        for i in range(max(1, table.row_count // 100)):
            row = table.row(rng.randrange(table.row_count))
            for column in keys:
                top = tops[column.name]
                row[column.name] = (
                    f"{top}~{self.round}.{i}"
                    if column.dtype is DataType.VARCHAR
                    else top + 1 + i
                )
            rows.append(row)
        table.insert_many(rows)
        return table.name


def _describe(generator: str, scale: Scale, db) -> dict:
    """A generated database: how it was made, its size, and a digest of
    every value, so result files of different inputs are never compared."""
    digest = hashlib.sha256()
    for table in db.tables():
        for column in table.schema.column_names:
            values = table.column_values(column)
            digest.update(repr((table.name, column, values)).encode())
    return {
        "generator": generator,
        "scale": dataclasses.asdict(scale),
        "rows": db.total_rows,
        "attributes": db.attribute_count,
        "digest": digest.hexdigest(),
    }


class Workload:
    """One workload: set-up, requests, the timed call and its layer pass.

    ``min_calls`` timed calls run even when ``--seconds`` is shorter.
    ``layer_passes`` is the fixed, odd number of per-layer iterations, so
    the exact counts repeat between runs of a seed and their median is one
    iteration's count.  Each iteration covers ``cycle`` requests.
    """

    name = ""
    min_calls = 5
    layer_passes = 7
    cycle = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Generate the inputs, compute the answer key, prime the program."""
        raise NotImplementedError

    def request(self):
        """The next request, untimed: ``(db, expected answer)``."""
        return self.db, self.oracle.pairs

    def call(self, db, trace: bool = False):
        """The timed call: one discovery over ``db``."""
        return discover_inds(db, dataclasses.replace(self.config, trace=trace))

    def check(self, result) -> bool:
        """The workload's premise beyond the answer (cache hit, delta run)."""
        return True

    def record_call(self, rec: layers.Recorder, result) -> None:
        """Add the per-layer metrics read off a call's result to ``rec``."""

    def start_passes(self) -> None:
        """Prepare the layer passes, after the trace-overhead calls."""

    def layer_pass(self, rec: layers.Recorder, db) -> tuple[dict, bool]:
        """Drive the layers over ``db``, the request a timed call also
        served; returns ``(decisions, covers_all)``."""
        raise NotImplementedError

    def spool_mib(self) -> float:
        """MiB on disk of the spool (or cache) serving the calls."""
        raise NotImplementedError

    def describe(self) -> dict:
        """The generated inputs, for the result file; asked right after
        set-up, before any edit."""
        raise NotImplementedError

    def close(self) -> None:
        """Release processes and files."""
        shutil.rmtree(self.workdir, ignore_errors=True)


class _OneShot(Workload):
    """One database, one discovery per call, spool in a fresh directory."""

    generator_scale: tuple[Scale, Scale]

    def setup(self) -> None:
        full, smoke = self.generator_scale
        self.scale = smoke if self.smoke else full
        self.db = openmms(self.scale, self.seed)
        self.oracle = Oracle(self.db)
        kept = str(self.workdir / "warmup-spool")
        warm = discover_inds(
            self.db, dataclasses.replace(self.config, spool_dir=kept, keep_spool=True)
        )
        self._spool_mib = probes.disk_mib(kept)
        shutil.rmtree(kept)
        if answer(warm) != self.oracle.pairs:
            raise BenchError(f"{self.name}: warm-up answer differs from the oracle")

    def spool_mib(self) -> float:
        return self._spool_mib

    def describe(self) -> dict:
        return _describe("openmms", self.scale, self.db)

    def _export(self, rec, db, cfg, root: str, needed, pool):
        """Export ``needed`` into ``root``, pooled when ``pool`` is given."""
        options = dict(
            attributes=needed,
            max_items_in_memory=cfg.max_items_in_memory,
            spool_format=cfg.spool_format,
            block_size=cfg.spool_block_size,
            compression=cfg.spool_compression,
            mmap_reads=cfg.resolved_mmap_reads,
        )
        if pool is None:
            with rec.timed("storage.export_s"):
                spool, stats = export_database(
                    db, root, workers=cfg.export_workers, **options
                )
            return spool, stats, None
        with rec.timed("parallel.export_s"):
            spool, stats, pool_stats, _ = pooled_export(
                db, root, cfg.validation_workers, pool=pool, **options
            )
        return spool, stats, pool_stats


class OpenmmsCold(_OneShot):
    """The paper's one-shot path: default config, one process, no cache."""

    name = "openmms-cold"
    generator_scale = (
        Scale(
            "bench-wide", entities=1000, annotations_per_entity=4, satellite_tables=50
        ),
        SCALES["tiny"],
    )

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.config = DiscoveryConfig()

    def layer_pass(self, rec, db):
        cfg = self.config
        _, raw, surviving = layers.profile(rec, db, cfg)
        decisions = {pair(c): False for c in raw}
        root = self.workdir / "pass-spool"
        try:
            spool, stats, _ = self._export(
                rec, db, cfg, str(root), layers.needed_attributes(surviving), None
            )
            layers.record_export(rec, spool, stats)
            survivors = layers.sampling_pretest(rec, spool, cfg, surviving, decisions)
            layers.scan(rec, spool, survivors)
            layers.decide(decisions, layers.validate(rec, spool, survivors))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return decisions, True


class OpenmmsPooled(_OneShot):
    """Export, sampling pretest and validation as one graph on a new pool."""

    name = "openmms-pooled"
    generator_scale = (
        Scale("bench-mid", entities=500, annotations_per_entity=4, satellite_tables=25),
        SCALES["tiny"],
    )

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.config = DiscoveryConfig(
            validation_workers=2, overlap=True, sampling_size=8, sampling_seed=seed
        )

    def record_call(self, rec, result) -> None:
        timings = result.timings
        rec.add("overlap.graph_s", timings.export_seconds + timings.validate_seconds)
        rec.add("overlap.cross_phase_s", result.overlap["cross_phase_overlap_seconds"])
        rec.add("overlap.cancelled_nodes", result.overlap["cancelled"])

    def layer_pass(self, rec, db):
        cfg = self.config
        _, raw, surviving = layers.profile(rec, db, cfg)
        decisions = {pair(c): False for c in raw}
        needed = layers.needed_attributes(surviving)
        root = self.workdir / "pass-spool"
        # The call's phases in barrier order, each on the call's own kind of
        # fleet: a new pool, started, used for export, pretest and merge,
        # and shut down.  The call overlaps the phases, so glue here is the
        # runner's own time minus what the overlap saves.
        pool = WorkerPool(cfg.validation_workers)
        try:
            # Pool start-up is timed to its first finished job: the export
            # of one attribute.
            with rec.timed("pool.start_s"):
                pooled_export(
                    db, str(root / "start"), cfg.validation_workers, pool=pool,
                    attributes=needed[:1],
                )
            spool, stats, export_pool = self._export(
                rec, db, cfg, str(root / "spool"), needed, pool
            )
            layers.record_export(rec, spool, stats)
            survivors = layers.sampling_pretest(
                rec, spool, cfg, surviving, decisions, pool=pool
            )
            layers.scan(rec, spool, survivors)
            sequential = layers.validate(rec, spool, survivors, pipeline=False)
            with rec.timed("parallel.validate_s"):
                pooled = PartitionedMergeValidator(
                    spool, workers=cfg.validation_workers, pool=pool
                ).validate(survivors)
            rec.set("pool.worker_rss_mb", probes.children_rss_mib())
            layers.record_pool(rec, [export_pool, pooled.pool])
            with rec.timed("pool.shutdown_s"):
                pool.shutdown()
        finally:
            pool.shutdown()
            shutil.rmtree(root, ignore_errors=True)
        if pooled.decisions != sequential.decisions:
            raise BenchError("pooled and sequential merge disagree")
        layers.decide(decisions, pooled)
        return decisions, True


class ServeWarm(Workload):
    """The service read path: a warm pool and a primed spool cache.

    BioSQL and SCOP come from one fixed generator seed, ``SHAPE_SEED``.
    Whether their free-text columns (comments, authors) fall inside the
    range of some unique column, and so get spooled, depends on the seed;
    across seeds their spool moves by up to 25%, and a call's length with
    it.  ``--seed`` draws the OpenMMS values and the request order.
    """

    name = "serve-warm"
    #: A seed at which BioSQL and SCOP spool the columns most seeds spool.
    SHAPE_SEED = 2
    min_calls = 10
    layer_passes = 7
    #: One iteration is one round-robin cycle: every database once.
    cycle = 3

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.config = DiscoveryConfig(
            validation_workers=2, reuse_spool=True, cache_dir=str(workdir / "cache")
        )
        self.pool = None

    def setup(self) -> None:
        tiny = SCALES["tiny"]
        self.inputs = [
            ("biosql", tiny if self.smoke else SCALES["paper-shape"]),
            ("scop", tiny if self.smoke else SCALES["paper-shape"]),
            ("openmms", tiny if self.smoke else SCALES["medium"]),
        ]
        self.dbs = [
            generate_biosql(self.inputs[0][1], seed=self.SHAPE_SEED).db,
            generate_scop(self.inputs[1][1], seed=self.SHAPE_SEED).db,
            openmms(self.inputs[2][1], self.seed),
        ]
        self.oracles = [Oracle(db) for db in self.dbs]
        self._order = random.Random(f"indbench-serve-{self.seed}")
        self._queue: list[int] = []
        # The pool a DiscoverySession would keep, held here so the layer
        # pass can validate on the same warm fleet.
        self.pool = WorkerPool(self.config.validation_workers)
        for db, oracle in zip(self.dbs, self.oracles):
            if answer(self.call(db)) != oracle.pairs:
                raise BenchError(f"{self.name}: priming answer differs from the oracle")

    def request(self):
        # Seeded round-robin: every database once per round, shuffled.
        if not self._queue:
            self._queue = list(range(len(self.dbs)))
            self._order.shuffle(self._queue)
        index = self._queue.pop()
        return self.dbs[index], self.oracles[index].pairs

    def call(self, db, trace: bool = False):
        return discover_inds(
            db, dataclasses.replace(self.config, trace=trace), pool=self.pool
        )

    def check(self, result) -> bool:
        return result.spool_cache_hit

    def start_passes(self) -> None:
        # Start a fresh cycle, so each iteration serves every database once.
        self._queue = []

    def layer_pass(self, rec, db):
        cfg = self.config
        stats, raw, surviving = layers.profile(rec, db, cfg)
        decisions = {pair(c): False for c in raw}
        # The runner stamps the attribute map even on a hit.
        with rec.timed("spool_cache.fingerprint_s"):
            attribute_fingerprints(stats)
            fingerprint = catalog_fingerprint(db.name, stats)
        cache = SpoolCache(cfg.cache_dir)
        with rec.timed("spool_cache.lookup_s"):
            spool = cache.lookup(
                fingerprint,
                needed=layers.needed_attributes(surviving),
                mmap_reads=cfg.resolved_mmap_reads,
            )
        if spool is None:
            raise BenchError(f"{self.name}: cache miss on a primed database")
        rec.add("spool_cache.lookups", 1)
        rec.add("spool_cache.hits", 1)
        layers.scan(rec, spool, surviving)
        sequential = layers.validate(rec, spool, surviving, pipeline=False)
        with rec.timed("parallel.validate_s"):
            pooled = PartitionedMergeValidator(
                spool, workers=cfg.validation_workers, pool=self.pool
            ).validate(surviving)
        rec.set("pool.worker_rss_mb", probes.children_rss_mib())
        layers.record_pool(rec, [pooled.pool])
        if pooled.decisions != sequential.decisions:
            raise BenchError("pooled and sequential merge disagree")
        layers.decide(decisions, pooled)
        return decisions, True

    def spool_mib(self) -> float:
        return probes.disk_mib(self.config.cache_dir)

    def describe(self) -> dict:
        return {
            "databases": [
                _describe(generator, scale, db)
                for (generator, scale), db in zip(self.inputs, self.dbs)
            ]
        }

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
        super().close()


class WatchEdits(Workload):
    """Incremental rounds over a database edited between rounds."""

    name = "watch-edits"
    min_calls = 10
    layer_passes = 11

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.config = DiscoveryConfig(
            incremental=True,
            reuse_spool=True,
            cache_dir=str(workdir / "cache"),
            sampling_size=8,
            sampling_seed=seed,
        )
        self.session = None

    def setup(self) -> None:
        self.scale = SCALES["tiny"] if self.smoke else SCALES["medium"]
        self.db = openmms(self.scale, self.seed)
        self.oracle = Oracle(self.db)
        self.edits = EditScript(self.seed)
        self.session = DiscoverySession(self.config)
        first = self.session.discover(self.db)
        if answer(first) != self.oracle.pairs:
            raise BenchError(f"{self.name}: first round differs from the oracle")
        self.fingerprints = first.prior_fingerprints
        self.rounds = 0
        self._spool_mib = None

    def request(self):
        self.oracle.refresh(self.db, [self.edits.apply(self.db)])
        return self.db, self.oracle.pairs

    def call(self, db, trace: bool = False):
        result = self.session.discover(
            db, dataclasses.replace(self.config, trace=trace)
        )
        self.fingerprints = result.prior_fingerprints
        self.rounds += 1
        # The cache grows by one entry per round, so its size is taken
        # after a fixed round count, not after however many fit the run.
        if self.rounds == self.min_calls:
            self._spool_mib = probes.disk_mib(self.config.cache_dir)
        return result

    def check(self, result) -> bool:
        return result.delta["mode"] == "delta"

    def record_call(self, rec, result) -> None:
        delta = result.delta
        revalidated = delta["candidates_revalidated"]
        rec.add("delta.revalidated", revalidated)
        rec.add("delta.candidates", revalidated + delta["decisions_reused"])
        rec.add("delta.attributes_changed", delta["attributes_changed"])

    def start_passes(self) -> None:
        # The passes keep a cache of their own, a copy of the session's, and
        # follow the same edits: each pass re-does the round the session's
        # call just did, with the same donor entries and the same prior.
        self.pass_cache = str(self.workdir / "pass-cache")
        shutil.copytree(self.config.cache_dir, self.pass_cache)
        self.pass_fingerprints = self.fingerprints

    def layer_pass(self, rec, db):
        cfg = self.config
        stats, raw, surviving = layers.profile(rec, db, cfg)
        needed = layers.needed_attributes(surviving)
        with rec.timed("spool_cache.fingerprint_s"):
            fingerprints = attribute_fingerprints(stats)
            fingerprint = catalog_fingerprint(db.name, stats)
        before = self.pass_fingerprints
        changed = {ref for ref, d in fingerprints.items() if before.get(ref) != d}
        changed |= set(before) - set(fingerprints)
        cache = SpoolCache(self.pass_cache)
        layout = dict(
            spool_format=cfg.spool_format,
            block_size=cfg.spool_block_size,
            compression=cfg.spool_compression,
        )
        # Every edit grows a table or moves a value past its column's
        # maximum, so the edited catalog was never cached: the lookup misses.
        with rec.timed("spool_cache.lookup_s"):
            if cache.lookup(fingerprint, needed=needed, **layout) is not None:
                raise BenchError(f"{self.name}: cache hit on an edited database")
            donor = cache.find_partial(
                fingerprint, db.name, fingerprints, needed, **layout
            )
            spool = SpoolDirectory.create(
                str(cache.prepare(fingerprint)),
                format=cfg.spool_format,
                block_size=cfg.spool_block_size,
                compression=cfg.spool_compression,
                mmap_reads=cfg.resolved_mmap_reads,
            )
            reused = SpoolCache.adopt(spool, *donor) if donor else []
        rec.add("spool_cache.lookups", 1)
        rec.add("spool_cache.files_reused", len(reused))
        with rec.timed("storage.export_s"):
            exported = export_into(
                db,
                spool,
                attributes=needed,
                max_items_in_memory=cfg.max_items_in_memory,
            )
        layers.record_export(rec, spool, exported)
        with rec.timed("spool_cache.publish_s"):
            spool = cache.publish(
                fingerprint, spool, database=db.name, fingerprints=fingerprints
            )
        self.pass_fingerprints = fingerprints

        def touches(candidate) -> bool:
            return candidate.dependent in changed or candidate.referenced in changed

        decisions = {pair(c): False for c in raw if touches(c)}
        affected = [c for c in surviving if touches(c)]
        survivors = layers.sampling_pretest(rec, spool, cfg, affected, decisions)
        layers.scan(rec, spool, survivors)
        layers.decide(decisions, layers.validate(rec, spool, survivors))
        return decisions, False

    def spool_mib(self) -> float:
        if self._spool_mib is None:
            return probes.disk_mib(self.config.cache_dir)
        return self._spool_mib

    def describe(self) -> dict:
        return _describe("openmms", self.scale, self.db)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        super().close()


WORKLOADS = {
    cls.name: cls for cls in (OpenmmsCold, OpenmmsPooled, ServeWarm, WatchEdits)
}
