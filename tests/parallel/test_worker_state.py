"""Regression tests: what a worker process holds must come from its own opens.

Worker processes must never operate on inherited file handles (a shared file
offset corrupts both sides), and must never trust another process's salted
hashes.  A task carries its spool's root as a string and the worker opens it
through a warm-handle cache, which must notice every index rewrite and
must rebuild the spool's layout from the index alone; these tests pin that
cache, that reopen, and the pickling contract of :class:`AttributeRef`.
"""

from __future__ import annotations

import pickle

import pytest

from repro.db.schema import AttributeRef
from repro.storage.sorted_sets import SpoolDirectory

VALUES = [f"v{i:05d}" for i in range(100)]


def _make_spool(tmp_path) -> SpoolDirectory:
    spool = SpoolDirectory.create(tmp_path / "spool", block_size=7)
    spool.add_values(AttributeRef("t", "a"), VALUES)
    spool.save_index()
    return spool


class TestWarmHandleStaleness:
    """The warm-handle LRU must notice every index rewrite — even sneaky ones.

    A delta re-export rewrites ``index.json`` at the *same path* with
    possibly the same byte size, and back-to-back incremental rounds can
    land inside one filesystem timestamp tick.  The identity includes the
    inode: ``save_index`` publishes via ``os.replace`` of a fresh temp
    file, so the inode always moves even when size and mtime collide.
    """

    def test_same_size_same_mtime_rewrite_is_not_warm(self, tmp_path):
        import os
        from collections import OrderedDict

        from repro.parallel.pool import _open_warm

        spool = _make_spool(tmp_path)
        index = os.path.join(str(spool.root), "index.json")
        handles: OrderedDict = OrderedDict()
        _, warm = _open_warm(handles, str(spool.root))
        assert warm is False
        _, warm = _open_warm(handles, str(spool.root))
        assert warm is True

        before = os.stat(index)
        spool.save_index()  # byte-identical rewrite: same size, new inode
        # Force the worst case: pin mtime (and atime) back to the original
        # rewrite-within-one-clock-tick values.
        os.utime(index, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(index)
        assert after.st_size == before.st_size
        assert after.st_mtime_ns == before.st_mtime_ns
        assert after.st_ino != before.st_ino, (
            "save_index must publish a fresh inode via os.replace"
        )

        reopened, warm = _open_warm(handles, str(spool.root))
        assert warm is False, (
            "stale parsed index served as warm despite the rewrite"
        )
        # The replacement handle is cached under the new stamp.
        _, warm = _open_warm(handles, str(spool.root))
        assert warm is True


class TestWorkerReopen:
    """A worker rebuilds its spool from ``index.json`` alone.

    Pool tasks carry the spool root as a string, so whatever the parent's
    spool was created with must come back from the index: block size,
    compression and every file's block metadata.  The parent's reader-side
    ``mmap_reads`` toggle is not in the index; workers read buffered.
    """

    @pytest.mark.parametrize(
        "compression, mmap_reads",
        [("none", False), ("none", True), ("zlib", False), ("zlib", True)],
    )
    def test_layout_comes_back_from_the_index(
        self, tmp_path, compression, mmap_reads
    ):
        from collections import OrderedDict

        from repro.parallel.pool import _open_warm

        spool = SpoolDirectory.create(
            tmp_path / "spool",
            block_size=7,
            compression=compression,
            mmap_reads=mmap_reads,
        )
        spool.add_values(AttributeRef("t", "a"), VALUES)
        spool.add_values(AttributeRef("t", "b"), VALUES[::3])
        spool.save_index()

        reopened, warm = _open_warm(OrderedDict(), str(spool.root))
        assert warm is False
        assert reopened.block_size == 7
        assert reopened.compression == compression
        assert reopened.mmap_reads is False
        assert reopened.attributes() == spool.attributes()
        for ref in spool.attributes():
            assert reopened.get(ref) == spool.get(ref)
            assert reopened.get(ref).values() == spool.get(ref).values()


class TestAttributeRefPickling:
    def test_cached_hash_never_crosses_the_boundary(self):
        ref = AttributeRef("table", "column")
        hash(ref)  # populate the per-process cache
        assert "_hash" in ref.__dict__
        clone = pickle.loads(pickle.dumps(ref))
        assert "_hash" not in clone.__dict__
        assert clone == ref
        assert hash(clone) == hash(ref)  # same process, same salt

    def test_candidate_and_nested_refs_roundtrip(self):
        from repro.core.candidates import Candidate

        candidate = Candidate(AttributeRef("a", "b"), AttributeRef("c", "d"))
        hash(candidate.dependent)
        clone = pickle.loads(pickle.dumps(candidate))
        assert clone == candidate
        assert "_hash" not in clone.dependent.__dict__
