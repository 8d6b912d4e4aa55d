"""Mutation-equivalence stress harness for incremental discovery.

The tentpole contract: an ``incremental=True`` run given the previous
round's result must produce answers **byte-identical** to a fresh full run
over the mutated database — less work, same bytes.  The harness drives a
plain-dict *model* of a database through seeded random mutation vectors
(append/update/delete rows, add/drop columns), materialises it each round,
and diffs the incremental chain against an independent full run:

* a fixed small matrix (workers {1, 2, 4} × the storage variants —
  v2 and v3 compressed block files, buffered and mmap reads) over one
  mutation script;
* a seeded random sweep: each seed derives the starting database, the
  config vector (workers, spool variant, sampling, ``reuse_spool``) *and*
  the mutation script; the seed and vector are printed on failure so any
  counterexample replays with ``pytest -k <seed>``;
* a miss-then-partial-hit spool-cache round: a one-column edit must adopt
  every unchanged column's value file from the stale cache entry instead
  of re-exporting it;
* carried sampling reservoirs: along the sweep's mutation scripts, every
  reservoir a round hands on equals a fresh draw from that round's
  published spool, and a round is seeded only with its prior's
  reservoirs of unchanged attributes;
* the fault matrix: a worker killed mid-delta-validation must requeue and
  converge byte-exactly; a crash-looping delta chunk must fail loudly
  without poisoning the prior it was planned from.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from seeded_dbs import STRING_POOL
from test_validator_agreement import SPOOL_VARIANTS

from repro.core import runner
from repro.core.candidates import PretestConfig
from repro.core.pruning import SamplingPretest
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.db import Column, Database, DataType, TableSchema
from repro.errors import DiscoveryError
from repro.obs.metrics import get_registry
from repro.parallel.pool import WorkerPool
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory

#: Fixed seed list: CI replays exactly these, failures print the seed.
STRESS_SEEDS = tuple(range(10))

WORKER_COUNTS = (1, 2, 4)

#: Mutation kinds the scripts draw from, weighted toward row edits (the
#: common case) but always exercising schema churn across a sweep.
MUTATION_KINDS = (
    "append-row",
    "append-row",
    "update-cell",
    "update-cell",
    "delete-row",
    "add-column",
    "drop-column",
)


def _delta_view(result_dict: dict) -> dict:
    """``to_dict()`` minus work accounting — what must match byte-for-byte.

    A delta run legitimately does *less work* than a full run: it validates
    fewer candidates, exports fewer files, reuses spool-cache entries.  So
    everything that counts work is popped — wall-clock ``timings``, the
    whole ``validator`` counter block, ``pool``, ``overlap``, export
    counters, cache-hit flags, the echoed worker count, the additive
    ``trace`` and the ``delta`` accounting itself.
    Everything that *is an answer* stays: the satisfied set, candidate and
    pretest counts, sampling refutations, transitivity inferences.
    """
    view = json.loads(json.dumps(result_dict))
    for key in (
        "timings",
        "validator",
        "pool",
        "overlap",
        "export_values_scanned",
        "export_values_written",
        "spool_cache_hit",
        "validation_workers",
        "delta",
        "trace",
    ):
        view.pop(key, None)
    return view


def _random_value(rng: random.Random, dtype: str):
    if rng.random() < 0.15:
        return None
    if dtype == "integer":
        return rng.randint(0, 12)
    return rng.choice(STRING_POOL)


def _initial_model(rng: random.Random) -> dict:
    """A mutable plain-dict database model; tables keep insertion order.

    Shape mirrors :func:`seeded_dbs.build_random_db`: 1-3 tables, each
    with a unique integer ``id`` drawn from overlapping ranges plus 1-3
    messy payload columns — enough collisions for satisfied INDs and
    sampling refutations to arise.
    """
    model = {}
    for t in range(rng.randint(1, 3)):
        columns = [("id", "integer")]
        columns += [
            (f"c{i}", rng.choice(("integer", "varchar")))
            for i in range(rng.randint(1, 3))
        ]
        offset = rng.choice([0, 0, 3, 10])
        rows = []
        count = rng.randint(2, 20)
        for row_index in range(count):
            row = {"id": offset + row_index}
            for name, dtype in columns[1:]:
                row[name] = _random_value(rng, dtype)
            rows.append(row)
        model[f"t{t}"] = {
            "columns": columns,
            "rows": rows,
            "next_id": offset + count,
            "next_col": 0,
        }
    return model


def _mutate(model: dict, rng: random.Random) -> str:
    """Apply one random mutation in place; returns a replay label.

    ``id`` columns are never updated or dropped and appended rows take the
    table's next fresh id, so the unique-column invariant the candidate
    generator relies on survives every script.
    """
    kind = rng.choice(MUTATION_KINDS)
    table_name = rng.choice(sorted(model))
    spec = model[table_name]
    payload_columns = [name for name, _ in spec["columns"] if name != "id"]
    if kind == "append-row":
        row = {"id": spec["next_id"]}
        spec["next_id"] += 1
        for name, dtype in spec["columns"][1:]:
            row[name] = _random_value(rng, dtype)
        spec["rows"].append(row)
    elif kind == "update-cell" and spec["rows"] and payload_columns:
        row = rng.choice(spec["rows"])
        name = rng.choice(payload_columns)
        dtype = dict(spec["columns"])[name]
        row[name] = _random_value(rng, dtype)
    elif kind == "delete-row" and spec["rows"]:
        spec["rows"].pop(rng.randrange(len(spec["rows"])))
    elif kind == "add-column":
        name = f"x{spec['next_col']}"
        spec["next_col"] += 1
        dtype = rng.choice(("integer", "varchar"))
        spec["columns"].append((name, dtype))
        for row in spec["rows"]:
            row[name] = _random_value(rng, dtype)
    elif kind == "drop-column" and len(payload_columns) > 1:
        name = rng.choice(payload_columns)
        spec["columns"] = [c for c in spec["columns"] if c[0] != name]
        for row in spec["rows"]:
            row.pop(name, None)
    else:
        kind = "no-op"  # mutation not applicable to the drawn table
    return f"{kind}@{table_name}"


def _materialise(model: dict, name: str) -> Database:
    """Build a fresh :class:`Database` from the model's current state."""
    db = Database(name)
    for table_name, spec in model.items():
        columns = [
            Column(
                cname,
                DataType.INTEGER if dtype == "integer" else DataType.VARCHAR,
                unique=(cname == "id"),
            )
            for cname, dtype in spec["columns"]
        ]
        table = db.create_table(TableSchema(table_name, columns))
        for row in spec["rows"]:
            table.insert(dict(row))
    return db


def _stress_config(**overrides) -> DiscoveryConfig:
    defaults = dict(
        strategy="merge-single-pass",
        spool_block_size=3,
        sampling_size=2,
        pretests=PretestConfig(cardinality=True, max_value=False),
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


class TestMutationMatrix:
    """Fixed matrix: every worker count × every storage variant, one script."""

    @pytest.mark.parametrize("variant", SPOOL_VARIANTS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_incremental_equals_full_after_each_mutation(
        self, workers, variant
    ):
        compression, mmap_reads = variant
        rng = random.Random(3)
        model = _initial_model(rng)
        config = _stress_config(
            spool_compression=compression,
            mmap_reads=mmap_reads,
            validation_workers=workers,
            incremental=True,
        )
        full_config = _stress_config(
            spool_compression=compression,
            mmap_reads=mmap_reads,
            validation_workers=workers,
        )
        with DiscoverySession(config) as session:
            for round_index in range(3):
                if round_index:
                    label = _mutate(model, rng)
                else:
                    label = "initial"
                db = _materialise(model, "matrix")
                incremental = session.discover(db)
                full = discover_inds(_materialise(model, "matrix"), full_config)
                context = (
                    f"round {round_index} ({label}) diverged at "
                    f"{workers} workers, {variant} spools"
                )
                assert _delta_view(incremental.to_dict()) == _delta_view(
                    full.to_dict()
                ), context
                assert incremental.delta is not None, context
                if round_index == 0:
                    assert incremental.delta == {
                        "mode": "full",
                        "reason": "no-prior",
                    }, context
                else:
                    assert incremental.delta["mode"] == "delta", context
                assert "delta" not in full.to_dict(), context


class TestMutationStressSweep:
    """Seeded sweep: random database, config vector AND mutation script."""

    @staticmethod
    def _config_vector(seed: int) -> dict:
        rng = random.Random(seed ^ 0x17C)
        # The draw is over the five storage legs this sweep once had: the
        # first, a v1 text leg since deleted, now runs plain binary, so
        # every seed keeps the rest of the vector it always had.
        compression, mmap_reads = rng.choice((SPOOL_VARIANTS[0], *SPOOL_VARIANTS))
        return {
            "workers": rng.choice(WORKER_COUNTS),
            "compression": compression,
            "mmap_reads": mmap_reads,
            "sampling": rng.choice((0, 2, 3)),
            "reuse_spool": rng.random() < 0.4,
        }

    @pytest.mark.parametrize("seed", STRESS_SEEDS)
    def test_mutation_chain_stays_byte_exact(self, seed, tmp_path):
        vector = self._config_vector(seed)
        rng = random.Random(seed * 7919 + 1)
        model = _initial_model(rng)
        kwargs = dict(
            spool_compression=vector["compression"],
            mmap_reads=vector["mmap_reads"],
            sampling_size=vector["sampling"],
            validation_workers=vector["workers"],
            reuse_spool=vector["reuse_spool"],
        )
        incremental_config = _stress_config(
            incremental=True, cache_dir=str(tmp_path / "inc"), **kwargs
        )
        full_config = _stress_config(
            cache_dir=str(tmp_path / "full"), **kwargs
        )
        script = []
        with DiscoverySession(incremental_config) as session:
            for round_index in range(4):
                if round_index:
                    script.append(_mutate(model, rng))
                db = _materialise(model, f"mut{seed}")
                incremental = session.discover(db)
                full = discover_inds(
                    _materialise(model, f"mut{seed}"), full_config
                )
                context = (
                    f"stress seed {seed} round {round_index} diverged — "
                    f"vector {vector!r}, script {script!r}"
                )
                assert _delta_view(incremental.to_dict()) == _delta_view(
                    full.to_dict()
                ), context
                delta = incremental.delta
                assert delta is not None, context
                if round_index == 0:
                    assert delta == {"mode": "full", "reason": "no-prior"}, (
                        context
                    )
                else:
                    assert delta["mode"] == "delta", context
                    assert (
                        delta["candidates_revalidated"]
                        + delta["decisions_reused"]
                        == full.candidates_after_pretests
                    ), context


class TestPartialCacheReuse:
    """Miss-then-partial-hit: a stale entry donates its unchanged columns."""

    def test_one_column_edit_adopts_the_rest(self, tmp_path):
        rng = random.Random(11)
        model = _initial_model(rng)
        config = _stress_config(
            incremental=True,
            reuse_spool=True,
            cache_dir=str(tmp_path / "cache"),
        )
        with DiscoverySession(config) as session:
            cold = session.discover(_materialise(model, "partial"))
            assert cold.spool_cache_hit is False
            # Mutate exactly one payload cell: every other column's value
            # file in the (now stale) cache entry is still byte-valid.
            table = sorted(model)[0]
            spec = model[table]
            target = next(n for n, _ in spec["columns"] if n != "id")
            dtype = dict(spec["columns"])[target]
            old = spec["rows"][0][target]
            fresh = 99 if dtype == "integer" else "fresh-value"
            assert fresh != old
            spec["rows"][0][target] = fresh
            before = get_registry().snapshot()["counters"]
            warm = session.discover(_materialise(model, "partial"))
            after = get_registry().snapshot()["counters"]
            assert warm.spool_cache_hit is False  # catalog hash moved
            assert warm.delta["mode"] == "delta"
            assert warm.delta["attributes_changed"] == 1
            hits = after.get("spool_cache_partial_hits_total", 0) - before.get(
                "spool_cache_partial_hits_total", 0
            )
            reused = after.get(
                "spool_cache_files_reused_total", 0
            ) - before.get("spool_cache_files_reused_total", 0)
            assert hits == 1
            assert reused >= 1
            full = discover_inds(
                _materialise(model, "partial"),
                _stress_config(
                    reuse_spool=True, cache_dir=str(tmp_path / "full-cache")
                ),
            )
            assert _delta_view(warm.to_dict()) == _delta_view(full.to_dict())


class TestCarriedReservoirs:
    """A round hands on its sampling reservoirs; the next one reuses the
    reservoirs of unchanged attributes instead of scanning their files."""

    @staticmethod
    def _seeding(monkeypatch) -> list[dict]:
        """Record the reservoirs each runner-built sampler starts from."""
        seeded: list[dict] = []

        class Recording(SamplingPretest):
            def __init__(self, *args, samples=None, **kwargs):
                seeded.append(dict(samples or {}))
                super().__init__(*args, samples=samples, **kwargs)

        monkeypatch.setattr(runner, "SamplingPretest", Recording)
        return seeded

    @staticmethod
    def _assert_fresh(result, db, config, scratch) -> None:
        """Every carried reservoir equals a fresh draw from the round's
        published spool; an attribute that spool lacks (no candidate needs
        it this round) is drawn from a full export of the round's data."""
        published = SpoolDirectory.open(result.spool_path)
        full, _ = export_database(db, str(scratch))
        for ref, reservoir in result.prior_samples.items():
            spool = published if ref in published else full
            fresh = SamplingPretest(
                spool,
                sample_size=config.sampling_size,
                seed=config.sampling_seed,
            )
            assert reservoir == fresh.sample(ref), ref

    @pytest.mark.parametrize("seed", STRESS_SEEDS)
    def test_carried_reservoirs_equal_fresh_draws(
        self, seed, tmp_path, monkeypatch
    ):
        rng = random.Random(seed * 7919 + 1)  # the sweep's script
        model = _initial_model(rng)
        config = _stress_config(
            incremental=True,
            reuse_spool=True,
            cache_dir=str(tmp_path / "cache"),
            sampling_size=2,
            sampling_seed=seed,
        )
        seeded = self._seeding(monkeypatch)
        script = []
        prior = None
        with DiscoverySession(config) as session:
            for round_index in range(4):
                if round_index:
                    script.append(_mutate(model, rng))
                db = _materialise(model, f"res{seed}")
                result = session.discover(db)
                context = f"stress seed {seed} round {round_index}, {script!r}"
                self._assert_fresh(
                    result, db, config, tmp_path / f"full-{round_index}"
                )
                if result.delta["mode"] == "full":
                    assert seeded[-1] == {}, context
                else:
                    before = prior.prior_fingerprints
                    now = result.prior_fingerprints
                    assert seeded[-1] == {
                        ref: reservoir
                        for ref, reservoir in prior.prior_samples.items()
                        if ref in now and before.get(ref) == now[ref]
                    }, context
                    # Nothing the round was seeded with was drawn again.
                    for ref, reservoir in seeded[-1].items():
                        assert result.prior_samples[ref] is reservoir
                prior = result

    def test_a_full_mode_round_carries_in_nothing(self, tmp_path, monkeypatch):
        model = _initial_model(random.Random(2))
        config = _stress_config(
            incremental=True,
            reuse_spool=True,
            cache_dir=str(tmp_path / "cache"),
            sampling_size=2,
        )
        seeded = self._seeding(monkeypatch)
        db = _materialise(model, "reseeded")
        prior = discover_inds(db, config)
        assert prior.prior_samples
        # Another sampling seed draws other reservoirs: the prior's are
        # unusable, and the round runs full.
        reseeded = replace(config, sampling_seed=1)
        result = discover_inds(db, reseeded, prior=prior)
        assert result.delta == {"mode": "full", "reason": "config-mismatch"}
        assert seeded == [{}, {}]
        self._assert_fresh(result, db, reseeded, tmp_path / "full")

    def test_non_incremental_runs_carry_nothing(self):
        model = _initial_model(random.Random(2))
        result = discover_inds(
            _materialise(model, "plain"), _stress_config(sampling_size=2)
        )
        assert result.prior_samples is None
        assert result.prior_spool is None


class TestDeltaFaults:
    """Worker death inside the delta-validation slice: converge or fail loudly."""

    @staticmethod
    def _fault_model() -> dict:
        rng = random.Random(5)
        model = _initial_model(rng)
        # Guarantee the fault target exists with integer payloads that
        # overlap the id ranges: t0.c0 sits in several candidate pairs.
        model.setdefault(
            "t0",
            {
                "columns": [("id", "integer"), ("c0", "integer")],
                "rows": [{"id": i, "c0": i % 5} for i in range(8)],
                "next_id": 8,
                "next_col": 0,
            },
        )
        return model

    def test_worker_death_mid_delta_validation_converges(
        self, tmp_path, monkeypatch
    ):
        model = self._fault_model()
        config = _stress_config(
            strategy="brute-force",
            sampling_size=0,
            incremental=True,
            validation_workers=2,
        )
        prior = discover_inds(_materialise(model, "faulty"), config)
        spec = model["t0"]
        column = next(n for n, _ in spec["columns"] if n != "id")
        for row in spec["rows"]:
            if row[column] is not None:
                row[column] = row[column] + 1 if isinstance(
                    row[column], int
                ) else row[column] + "!"
        db = _materialise(model, "faulty")
        expected = _delta_view(
            discover_inds(
                db,
                _stress_config(
                    strategy="brute-force",
                    sampling_size=0,
                    validation_workers=2,
                ),
            ).to_dict()
        )
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", f"t0.{column}")
        monkeypatch.setenv("REPRO_POOL_FAULT_ONCE_DIR", str(tmp_path))
        with WorkerPool(2) as pool:
            result = discover_inds(db, config, pool=pool, prior=prior)
            assert pool.stats.tasks_requeued >= 1
            assert pool.stats.workers_replaced >= 1
        assert result.delta["mode"] == "delta"
        assert result.delta["candidates_revalidated"] >= 1
        assert _delta_view(result.to_dict()) == expected

    def test_crash_looping_delta_chunk_fails_without_poisoning_prior(
        self, monkeypatch
    ):
        """No ONCE marker: every worker that picks the chunk dies.

        The job must fail with the established loud error — and the prior
        it was planned from must stay fully usable: the same incremental
        run retried after the fault clears converges byte-exactly.
        """
        model = self._fault_model()
        config = _stress_config(
            strategy="brute-force",
            sampling_size=0,
            incremental=True,
            validation_workers=2,
        )
        prior = discover_inds(_materialise(model, "faulty"), config)
        prior_view = _delta_view(prior.to_dict())
        spec = model["t0"]
        column = next(n for n, _ in spec["columns"] if n != "id")
        for row in spec["rows"]:
            if row[column] is not None:
                row[column] = row[column] + 1 if isinstance(
                    row[column], int
                ) else row[column] + "!"
        db = _materialise(model, "faulty")
        expected = _delta_view(
            discover_inds(
                db,
                _stress_config(
                    strategy="brute-force",
                    sampling_size=0,
                    validation_workers=2,
                ),
            ).to_dict()
        )
        monkeypatch.setenv("REPRO_POOL_FAULT_ATTR", f"t0.{column}")
        with WorkerPool(2) as pool:
            with pytest.raises(DiscoveryError, match="killed its worker"):
                discover_inds(db, config, pool=pool, prior=prior)
            monkeypatch.delenv("REPRO_POOL_FAULT_ATTR")
            # The failed run must not have mutated the prior's carriers.
            assert _delta_view(prior.to_dict()) == prior_view
            result = discover_inds(db, config, pool=pool, prior=prior)
        assert result.delta["mode"] == "delta"
        assert _delta_view(result.to_dict()) == expected
