"""Seeded differential test for delta chains over the spool cache.

A delta round carries state from its prior: reservoirs, referenced payload
sets, the answer as packed pairs, and the prior's cache entry, which it
takes whole as its staging directory when no run holds it.  This module
drives one chain per seed and storage variant through every kind of
round that moves that state:

* a rewrite (one column's values replaced) and an append (new rows);
* added and dropped columns, which renumber the attributes;
* a round whose prior entry another run holds: it must fall back to
  hardlink adoption and leave the held entry in place;
* an undo to a state whose entry is still cached: an exact hit;
* a round that raises after taking its prior's entry: it leaves no
  staging directory, and the same round run again rebuilds its entry.

After every round the chain is compared with a fresh full run over the
same data: the answer, ``sampling_refuted``, the pretest report and the
candidate counts (:func:`_delta_view`), and the ``delta`` accounting
against a candidate-level plan.  Every published entry must equal, byte
for byte, the entry a fresh run publishes into an empty cache.
"""

from __future__ import annotations

import copy
import os
import random
from pathlib import Path

import pytest

import test_incremental_stress as stress

from repro.core import runner
from repro.core.candidates import (
    AttributeIds,
    all_pairs,
    pretest_pairs,
    unique_ref_pairs,
)
from repro.core.runner import DiscoverySession, discover_inds
from repro.db.schema import AttributeRef
from repro.db.stats import collect_column_stats
from repro.storage import spool_cache
from repro.storage.spool_cache import SpoolCache, attribute_fingerprints

SEEDS = (0, 1, 2)


def _tree(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


def _span(result, name: str) -> dict:
    (span,) = [s for s in result.trace["spans"] if s["name"] == name]
    return span["attrs"]


def _expected_delta(db, prior, config) -> dict:
    """The delta accounting of a round over ``db`` after ``prior``, from
    Candidate objects and fingerprint maps."""
    stats = collect_column_stats(db)
    fingerprints = attribute_fingerprints(stats)
    before = prior.prior_fingerprints
    changed = {
        ref for ref, fp in fingerprints.items() if before.get(ref) != fp
    }
    changed |= set(before) - set(fingerprints)
    ids = AttributeIds(stats)
    if config.candidate_mode == "unique-ref":
        raw = unique_ref_pairs(ids)
    else:
        raw = all_pairs(ids)
    pairs, _ = pretest_pairs(ids, raw, config.pretests)
    candidates = ids.candidates(pairs)
    touched = sum(
        c.dependent in changed or c.referenced in changed for c in candidates
    )
    return {
        "mode": "delta",
        "attributes_changed": len(changed),
        "candidates_revalidated": touched,
        "decisions_reused": len(candidates) - touched,
    }


class _Chain:
    """One session's chain over a model, checked round by round."""

    def __init__(self, seed, compression, tmp_path):
        self.rng = random.Random(seed * 101 + 7)
        # Two tables at least, so an edit of one leaves files to reuse.
        self.model = stress._initial_model(self.rng)
        while len(self.model) < 2:
            self.model = stress._initial_model(self.rng)
        self.name = f"chain{seed}"
        self.tmp_path = tmp_path
        self.config = stress._stress_config(
            incremental=True,
            reuse_spool=True,
            cache_dir=str(tmp_path / "cache"),
            spool_compression=compression,
            trace=True,
        )
        self.cache = SpoolCache(tmp_path / "cache")
        self.session = DiscoverySession(self.config)
        self.prior = None
        self.fresh = 0
        self.rewrites = 0

    def db(self):
        return stress._materialise(self.model, self.name)

    def round(self, label: str):
        """Run one round and check it against a fresh full run."""
        db = self.db()
        prior = self.prior
        result = self.session.discover(db)
        context = f"{self.name} {label}"
        full = discover_inds(
            self.db(),
            stress._stress_config(
                spool_compression=self.config.spool_compression
            ),
        )
        assert stress._delta_view(result.to_dict()) == stress._delta_view(
            full.to_dict()
        ), context
        if prior is None:
            assert result.delta == {"mode": "full", "reason": "no-prior"}
        else:
            assert result.delta == _expected_delta(
                db, prior, self.config
            ), context
        self.fresh += 1
        cold = discover_inds(
            self.db(),
            stress._stress_config(
                reuse_spool=True,
                cache_dir=str(self.tmp_path / f"fresh{self.fresh}"),
                spool_compression=self.config.spool_compression,
            ),
        )
        assert _tree(result.spool_path) == _tree(cold.spool_path), context
        assert self.cache.list_orphans() == [], context
        self.prior = result
        return result

    # ------------------------------------------------------------ edits
    def _payload_column(self):
        table = self.rng.choice(sorted(self.model))
        spec = self.model[table]
        names = [name for name, _ in spec["columns"] if name != "id"]
        return spec, self.rng.choice(names)

    def rewrite(self):
        spec, name = self._payload_column()
        dtype = dict(spec["columns"])[name]
        for row in spec["rows"]:
            row[name] = stress._random_value(self.rng, dtype)
        # One certain change, whatever the draw.
        self.rewrites += 1
        fresh = 1000 + self.rewrites
        spec["rows"][0][name] = fresh if dtype == "integer" else f"new{fresh}"

    def append(self):
        table = self.rng.choice(sorted(self.model))
        spec = self.model[table]
        for _ in range(3):
            row = {"id": spec["next_id"]}
            spec["next_id"] += 1
            for name, dtype in spec["columns"][1:]:
                row[name] = stress._random_value(self.rng, dtype)
            spec["rows"].append(row)

    def add_columns(self):
        """Add two integer columns to one table, the first holding another
        table's ids, so it is included in that ``id``; returns the table
        and the first column's name."""
        table, other = self.rng.sample(sorted(self.model), 2)
        spec = self.model[table]
        ids = [row["id"] for row in self.model[other]["rows"]]
        names = []
        for draw in (
            lambda: self.rng.choice(ids),
            lambda: self.rng.randint(0, 9),
        ):
            name = f"x{spec['next_col']}"
            spec["next_col"] += 1
            spec["columns"].append((name, "integer"))
            for row in spec["rows"]:
                row[name] = draw()
            names.append(name)
        return table, names[0]

    def drop_column(self, table, name):
        spec = self.model[table]
        spec["columns"] = [c for c in spec["columns"] if c[0] != name]
        for row in spec["rows"]:
            row.pop(name, None)

    def snapshot(self):
        return copy.deepcopy(self.model)


def _round_taking_prior(chain, label: str):
    """Run a round that must take its prior's entry whole: the new entry
    is the prior's directory renamed, and the prior's name is gone."""
    before = Path(chain.prior.spool_path)
    directory = os.stat(before).st_ino
    result = chain.round(label)
    donor = _span(result, "donor-lookup")
    assert donor["donor"] == "prior", label
    assert donor["files_reused"] > 0, label
    assert _span(result, "cache-publish")["retired"] is True, label
    assert not before.exists(), label
    assert os.stat(result.spool_path).st_ino == directory, label
    return result


@pytest.mark.parametrize("compression", ["none", "zlib"])
@pytest.mark.parametrize("seed", SEEDS)
def test_delta_chain_equals_fresh_runs(
    seed, compression, tmp_path, monkeypatch
):
    chain = _Chain(seed, compression, tmp_path)
    with chain.session:
        chain.round("initial")
        for label, edit in (
            ("rewrite", chain.rewrite),
            ("append", chain.append),
        ):
            edit()
            _round_taking_prior(chain, label)
            assert chain.cache.entries() == [Path(chain.prior.spool_path)]
        # The lookup memo keeps the live entry of this cache only.
        root = os.fspath(chain.cache.root)
        assert [
            Path(key) for key in spool_cache._OPENED if key.startswith(root)
        ] == chain.cache.entries()

        # A held prior is not taken: its files are hardlinked, it stays.
        appended = chain.snapshot()
        held = Path(chain.prior.spool_path)
        key = SpoolCache.hold(held)
        try:
            added = chain.add_columns()
            result = chain.round("add-columns, prior held")
        finally:
            SpoolCache.release(key)
        assert _span(result, "donor-lookup")["files_reused"] > 0
        assert _span(result, "cache-publish")["retired"] is False
        assert held.is_dir()
        assert os.stat(result.spool_path).st_ino != os.stat(held).st_ino
        shared = set(os.listdir(held)) & set(os.listdir(result.spool_path))
        assert any(
            os.stat(held / name).st_ino
            == os.stat(Path(result.spool_path) / name).st_ino
            for name in shared - {"index.json"}
        )

        # The added column is in a satisfied IND, which the drop makes
        # stale under a renumbered plan; the take removes its file.
        column = AttributeRef(*added)
        assert any(ind.dependent == column for ind in result.satisfied)
        chain.drop_column(*added)
        _round_taking_prior(chain, "drop-column")

        # The undo returns to the held state, whose entry is still there.
        chain.model = appended
        result = chain.round("undo to an older entry")
        assert result.spool_cache_hit
        assert Path(result.spool_path) == held

        # A round that raises after taking its prior leaves no staging
        # directory behind; the prior's entry went with the take.
        chain.rewrite()
        export_into = runner.export_into
        calls = []

        def failing_export(db, spool, **kwargs):
            calls.append(Path(spool.root).name)
            raise RuntimeError("injected export failure")

        monkeypatch.setattr(runner, "export_into", failing_export)
        with pytest.raises(RuntimeError, match="injected"):
            chain.session.discover(chain.db())
        monkeypatch.setattr(runner, "export_into", export_into)
        assert calls and calls[0].startswith(".staging-")
        assert not held.exists()
        assert chain.cache.list_orphans() == []
        # The same round again: the prior is unchanged, its entry is gone,
        # so the round rebuilds from what the cache still holds.
        result = chain.round("rewrite after a failed take")
        assert result.delta["mode"] == "delta"
        assert _span(result, "donor-lookup")["donor"] == "scan"
