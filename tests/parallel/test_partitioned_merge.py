"""The read-only ``PartitionedMergeValidator`` shim over the in-process merge.

The merge always runs in the calling process; the shim keeps the old pooled
signature for the benchmark's layer passes.  It must return the sequential
merge's decisions and counters, check ``workers`` and never touch a lent
pool.
"""

from __future__ import annotations

import pytest

from seeded_dbs import build_random_db
from test_validator_agreement import _candidates

from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.errors import DiscoveryError
from repro.parallel.merge import PartitionedMergeValidator
from repro.parallel.pool import WorkerPool
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory

#: Counters that must equal the sequential pass exactly.
COUNTERS = (
    "candidates_total",
    "satisfied_count",
    "refuted_count",
    "items_read",
    "comparisons",
    "files_opened",
    "blocks_skipped",
)


def _counters(stats) -> dict:
    return {name: getattr(stats, name) for name in COUNTERS}


@pytest.mark.parametrize("skip_scan", (False, True))
@pytest.mark.parametrize("seed", (1, 5))
def test_shim_is_the_sequential_merge_and_leaves_the_pool_alone(
    seed, skip_scan, tmp_path
):
    db = build_random_db(seed)
    _, candidates = _candidates(db)
    assert candidates
    spool, _ = export_database(db, str(tmp_path / "spool"), block_size=3)
    doubled = candidates + candidates[::2]
    sequential = MergeSinglePassValidator(
        spool, skip_scan=skip_scan
    ).validate(doubled)
    with WorkerPool(2) as fleet:
        got = PartitionedMergeValidator(
            spool, workers=2, pool=fleet, skip_scan=skip_scan
        ).validate(doubled)
        assert fleet.stats.jobs == 0
        assert not fleet.started
    assert got.pool is None
    assert got.decisions == sequential.decisions
    assert got.satisfied == sequential.satisfied
    assert _counters(got.stats) == _counters(sequential.stats)


def test_shim_rejects_nonpositive_workers(tmp_path):
    spool = SpoolDirectory.create(tmp_path / "s")
    with pytest.raises(DiscoveryError, match="workers must be >= 1"):
        PartitionedMergeValidator(spool, workers=0)
