"""Skip-scans: seeking past blocks whose recorded max is below a sought value."""

from __future__ import annotations

import json

import pytest

from repro.core.brute_force import BruteForceValidator
from repro.core.candidates import Candidate
from repro.db.schema import AttributeRef
from repro.errors import SpoolError
from repro.storage.cursors import BlockValueCursor, IOStats
from repro.storage.sorted_sets import SpoolDirectory

REF = AttributeRef("t", "a")


def _spool(tmp_path, values, block_size=4) -> SpoolDirectory:
    spool = SpoolDirectory.create(tmp_path / "spool", block_size=block_size)
    spool.add_values(REF, values)
    spool.save_index()
    return spool


def _without_block_metadata(spool: SpoolDirectory) -> SpoolDirectory:
    """Reopen ``spool`` after dropping every entry's ``blocks`` list.

    The value files keep their frames; only the index loses the per-block
    counts and min/max that skip-scans seek by.
    """
    index = spool.root / "index.json"
    doc = json.loads(index.read_text())
    for entry in doc["attributes"]:
        del entry["blocks"]
    index.write_text(json.dumps(doc))
    return SpoolDirectory.open(spool.root)


class TestSkipBlocksBelow:
    def test_skips_whole_blocks_and_counts_them(self, tmp_path):
        values = [f"{i:04d}" for i in range(20)]  # 5 blocks of 4
        spool = _spool(tmp_path, values)
        io = IOStats()
        cursor = spool.open_cursor(REF, io)
        skipped = cursor.skip_blocks_below("0013")
        # Blocks 0-2 end at 0003/0007/0011 < 0013; block 3 ends at 0015.
        assert skipped == 3
        assert io.blocks_skipped == 3
        assert io.values_skipped == 12
        assert cursor.read_batch(3) == ["0012", "0013", "0014"]
        assert io.items_read == 3
        cursor.close()

    def test_noop_when_nothing_qualifies(self, tmp_path):
        spool = _spool(tmp_path, [f"{i:04d}" for i in range(8)])
        io = IOStats()
        cursor = spool.open_cursor(REF, io)
        assert cursor.skip_blocks_below("0000") == 0
        assert cursor.skip_blocks_below("") == 0
        assert io.blocks_skipped == 0
        cursor.close()

    def test_buffered_values_survive_a_skip(self, tmp_path):
        spool = _spool(tmp_path, [f"{i:04d}" for i in range(20)])
        cursor = spool.open_cursor(REF)
        assert cursor.read_batch(2) == ["0000", "0001"]  # block 0 buffered
        cursor.skip_blocks_below("0013")
        # 0002/0003 were already decoded into the buffer; the skip only
        # affects frames still on disk.
        assert cursor.read_batch(4) == ["0002", "0003", "0012", "0013"]
        cursor.close()

    def test_cursor_without_block_metadata_is_a_noop(self, tmp_path):
        values = [f"{i:04d}" for i in range(20)]
        spool = _spool(tmp_path, values)
        io = IOStats()
        cursor = BlockValueCursor(spool.get(REF).path, io)
        assert cursor.skip_blocks_below("0015") == 0
        assert cursor.read_batch(1) == ["0000"]
        assert io.blocks_skipped == 0
        cursor.close()

    def test_closed_cursor_raises(self, tmp_path):
        spool = _spool(tmp_path, ["a", "b"])
        cursor = spool.open_cursor(REF)
        cursor.close()
        with pytest.raises(SpoolError, match="after close"):
            cursor.skip_blocks_below("z")


class TestBruteForceSkipScan:
    def _setup(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "spool", block_size=4)
        dep = AttributeRef("t", "dep")
        ref = AttributeRef("t", "ref")
        # Sparse dependent against a dense reference: between consecutive
        # dependent values lie whole reference blocks worth skipping.
        spool.add_values(dep, [f"{i:05d}" for i in range(0, 400, 100)])
        spool.add_values(ref, [f"{i:05d}" for i in range(0, 401)])
        spool.save_index()
        return spool, [Candidate(dep, ref)]

    def test_same_decisions_fewer_items(self, tmp_path):
        # Small batches so the scan hits refill points (the only places a
        # skip can trigger) many times between the sparse dependent values.
        spool, candidates = self._setup(tmp_path)
        plain = BruteForceValidator(spool, batch_size=8).validate(candidates)
        skipping = BruteForceValidator(
            spool, skip_scan=True, batch_size=8
        ).validate(candidates)
        assert skipping.decisions == plain.decisions
        assert skipping.stats.satisfied_count == 1
        assert skipping.stats.blocks_skipped > 0
        assert (
            skipping.stats.items_read + skipping.stats.values_skipped
            <= plain.stats.items_read
        )
        assert skipping.stats.items_read < plain.stats.items_read
        assert plain.stats.blocks_skipped == 0

    def test_refuted_candidates_unchanged(self, tmp_path):
        spool = SpoolDirectory.create(tmp_path / "r", block_size=4)
        dep = AttributeRef("t", "dep")
        ref = AttributeRef("t", "ref")
        spool.add_values(dep, ["00050", "99999"])  # second value missing
        spool.add_values(ref, [f"{i:05d}" for i in range(0, 400)])
        spool.save_index()
        candidates = [Candidate(dep, ref)]
        plain = BruteForceValidator(spool, batch_size=8).validate(candidates)
        skipping = BruteForceValidator(
            spool, skip_scan=True, batch_size=8
        ).validate(candidates)
        assert plain.decisions == skipping.decisions
        assert skipping.stats.refuted_count == 1
        assert skipping.stats.blocks_skipped > 0

    def test_index_without_block_metadata_falls_back_to_plain_scans(
        self, tmp_path
    ):
        spool, candidates = self._setup(tmp_path)
        spool = _without_block_metadata(spool)
        plain = BruteForceValidator(spool, batch_size=8).validate(candidates)
        skipping = BruteForceValidator(
            spool, skip_scan=True, batch_size=8
        ).validate(candidates)
        assert skipping.decisions == plain.decisions
        assert skipping.stats.items_read == plain.stats.items_read
        assert skipping.stats.blocks_skipped == 0


class TestMergeFrontierSkipScan:
    """The merge validator's frontier skips: purely referenced sides only.

    A sparse dependent against a dense reference is the paying shape: when
    the dependent jumps from 00100 to 00200, the reference side holds whole
    blocks of values in between that can never match anything — the frontier
    seeks past them.  Decisions, comparisons and the satisfied set must be
    identical to the plain merge; only the I/O counters may improve.
    """

    def _setup(self, tmp_path):
        from repro.core.merge_single_pass import MergeSinglePassValidator

        spool = SpoolDirectory.create(tmp_path / "spool", block_size=4)
        dep = AttributeRef("t", "dep")
        ref = AttributeRef("t", "ref")
        spool.add_values(dep, [f"{i:05d}" for i in range(0, 400, 100)])
        spool.add_values(ref, [f"{i:05d}" for i in range(0, 401)])
        spool.save_index()
        return spool, [Candidate(dep, ref)], MergeSinglePassValidator

    def test_same_decisions_fewer_items_and_bytes(self, tmp_path):
        # Small batches so refills (the only places a frontier seek can
        # trigger) happen many times between the sparse dependent values.
        spool, candidates, validator_cls = self._setup(tmp_path)
        plain = validator_cls(spool, batch_size=8).validate(candidates)
        skipping = validator_cls(
            spool, skip_scan=True, batch_size=8
        ).validate(candidates)
        assert skipping.decisions == plain.decisions
        assert skipping.stats.satisfied_count == 1
        assert skipping.stats.comparisons == plain.stats.comparisons
        assert skipping.stats.blocks_skipped > 0
        assert skipping.stats.items_read < plain.stats.items_read
        assert (
            skipping.stats.items_read + skipping.stats.values_skipped
            <= plain.stats.items_read
        )
        assert skipping.stats.bytes_read < plain.stats.bytes_read
        assert plain.stats.blocks_skipped == 0

    def test_refuted_candidates_unchanged(self, tmp_path):
        from repro.core.merge_single_pass import MergeSinglePassValidator

        spool = SpoolDirectory.create(tmp_path / "r", block_size=4)
        dep = AttributeRef("t", "dep")
        ref = AttributeRef("t", "ref")
        spool.add_values(dep, ["00050", "99999"])  # second value missing
        spool.add_values(ref, [f"{i:05d}" for i in range(0, 400)])
        spool.save_index()
        candidates = [Candidate(dep, ref)]
        plain = MergeSinglePassValidator(spool, batch_size=8).validate(
            candidates
        )
        skipping = MergeSinglePassValidator(
            spool, skip_scan=True, batch_size=8
        ).validate(candidates)
        assert plain.decisions == skipping.decisions
        assert skipping.stats.refuted_count == 1
        assert skipping.stats.blocks_skipped > 0

    def test_attribute_on_both_sides_never_skipped(self, tmp_path):
        """A live dependent side pins its attribute: no frontier seeks.

        With a [= b and b [= c, attribute b is referenced *and* dependent,
        so the frontier must leave it alone — its own containment test
        needs every value.  Only c, purely referenced, may skip.
        """
        from repro.core.merge_single_pass import MergeSinglePassValidator

        spool = SpoolDirectory.create(tmp_path / "chain", block_size=4)
        a = AttributeRef("t", "a")
        b = AttributeRef("t", "b")
        c = AttributeRef("t", "c")
        spool.add_values(a, [f"{i:05d}" for i in range(0, 300, 150)])
        spool.add_values(b, [f"{i:05d}" for i in range(0, 301, 3)])
        spool.add_values(c, [f"{i:05d}" for i in range(0, 302)])
        spool.save_index()
        candidates = [Candidate(a, b), Candidate(b, c)]
        plain = MergeSinglePassValidator(spool, batch_size=8).validate(
            candidates
        )
        skipping = MergeSinglePassValidator(
            spool, skip_scan=True, batch_size=8
        ).validate(candidates)
        assert skipping.decisions == plain.decisions
        assert skipping.stats.satisfied_count == plain.stats.satisfied_count

    def test_index_without_block_metadata_falls_back_to_plain_scans(
        self, tmp_path
    ):
        spool, candidates, validator_cls = self._setup(tmp_path)
        spool = _without_block_metadata(spool)
        plain = validator_cls(spool, batch_size=8).validate(candidates)
        skipping = validator_cls(
            spool, skip_scan=True, batch_size=8
        ).validate(candidates)
        assert skipping.decisions == plain.decisions
        assert skipping.stats.items_read == plain.stats.items_read
        assert skipping.stats.blocks_skipped == 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_partitioned_merge_propagates_skip_scan(self, tmp_path, workers):
        """Workers run default batch sizes, so the spread must exceed one batch."""
        from repro.core.merge_single_pass import MergeSinglePassValidator
        from repro.parallel import PartitionedMergeValidator

        spool = SpoolDirectory.create(tmp_path / "wide", block_size=16)
        dep = AttributeRef("t", "dep")
        ref = AttributeRef("t", "ref")
        spool.add_values(dep, ["00000", "08999"])
        spool.add_values(ref, [f"{i:05d}" for i in range(0, 9000)])
        spool.save_index()
        candidates = [Candidate(dep, ref)]
        sequential = MergeSinglePassValidator(
            spool, skip_scan=True
        ).validate(candidates)
        assert sequential.stats.blocks_skipped > 0
        pooled = PartitionedMergeValidator(
            spool, workers=workers, skip_scan=True
        ).validate(candidates)
        assert pooled.decisions == sequential.decisions
        assert pooled.stats.blocks_skipped == sequential.stats.blocks_skipped
        assert pooled.stats.items_read == sequential.stats.items_read
        assert pooled.stats.bytes_read == sequential.stats.bytes_read

    def test_discover_inds_merge_skip_scans_end_to_end(self, tmp_path):
        """The config flag reaches the merge engine through the runner."""
        from repro.core.runner import DiscoveryConfig, discover_inds
        from repro.db.database import Database
        from repro.db.schema import Column, TableSchema
        from repro.db.types import DataType

        db = Database("skippy")
        table = db.create_table(
            TableSchema(
                "t",
                [Column("dep", DataType.VARCHAR),
                 Column("ref", DataType.VARCHAR)],
            )
        )
        # The runner's merge validator reads default-sized batches, so the
        # reference spread must exceed one batch for any frontier seek.
        for r in range(6000):
            table.insert(
                {"dep": "00000" if r % 2 else "05999", "ref": f"{r:05d}"}
            )
        plain = discover_inds(
            db,
            DiscoveryConfig(strategy="merge-single-pass", spool_block_size=16),
        )
        skipping = discover_inds(
            db,
            DiscoveryConfig(
                strategy="merge-single-pass",
                spool_block_size=16,
                skip_scans=True,
            ),
        )
        assert {str(i) for i in skipping.satisfied} == {
            str(i) for i in plain.satisfied
        }
        assert skipping.validator_stats.blocks_skipped > 0
        assert (
            skipping.validator_stats.bytes_read
            < plain.validator_stats.bytes_read
        )
