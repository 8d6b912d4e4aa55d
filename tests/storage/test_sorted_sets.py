"""Tests for sorted value files and the spool directory."""

import os

import pytest

from repro.db.schema import AttributeRef
from repro.errors import SpoolError
from repro.storage.sorted_sets import SpoolDirectory


@pytest.fixture()
def spool(tmp_path) -> SpoolDirectory:
    return SpoolDirectory.create(tmp_path / "spool")


A = AttributeRef("t", "a")
B = AttributeRef("t", "b")


class TestAddValues:
    def test_add_and_read(self, spool):
        svf = spool.add_values(A, ["a", "b", "c"])
        assert svf.count == 3
        assert svf.min_value == "a"
        assert svf.max_value == "c"
        assert svf.values() == ["a", "b", "c"]

    def test_empty_attribute(self, spool):
        svf = spool.add_values(A, [])
        assert svf.is_empty
        assert svf.min_value is None

    def test_rejects_unsorted(self, spool):
        with pytest.raises(SpoolError, match="strictly ascending"):
            spool.add_values(A, ["b", "a"])

    def test_rejects_duplicates(self, spool):
        with pytest.raises(SpoolError, match="strictly ascending"):
            spool.add_values(A, ["a", "a"])

    def test_rejects_double_spool(self, spool):
        spool.add_values(A, ["a"])
        with pytest.raises(SpoolError, match="already spooled"):
            spool.add_values(A, ["b"])

    def test_values_with_special_characters(self, spool):
        values = sorted(["x\ny", "plain", "back\\slash"])
        spool.add_values(A, values)
        assert spool.get(A).values() == values

    def test_unsafe_names_sanitised(self, spool):
        weird = AttributeRef("ta ble", "col/umn")
        spool.add_values(weird, ["v"])
        assert spool.get(weird).values() == ["v"]

    def test_name_collisions_get_suffixes(self, spool):
        # Two attributes that sanitise to the same file name must coexist.
        first = AttributeRef("t", "a/b")
        second = AttributeRef("t", "a_b")
        spool.add_values(first, ["1"])
        spool.add_values(second, ["2"])
        assert spool.get(first).values() == ["1"]
        assert spool.get(second).values() == ["2"]


class TestLookups:
    def test_contains_and_len(self, spool):
        assert A not in spool
        spool.add_values(A, ["a"])
        assert A in spool
        assert len(spool) == 1

    def test_get_missing(self, spool):
        with pytest.raises(SpoolError, match="not in the spool"):
            spool.get(A)

    def test_attributes_sorted(self, spool):
        spool.add_values(B, ["b"])
        spool.add_values(A, ["a"])
        assert spool.attributes() == [A, B]

    def test_total_values(self, spool):
        spool.add_values(A, ["a", "b"])
        spool.add_values(B, ["c"])
        assert spool.total_values() == 3

    def test_discard(self, spool):
        spool.add_values(A, ["a"])
        spool.discard(A)
        assert A not in spool
        spool.discard(A)  # idempotent


class TestPersistence:
    def test_save_and_reopen(self, spool, tmp_path):
        spool.add_values(A, ["a", "b"])
        spool.add_values(B, ["z"])
        spool.save_index()
        reopened = SpoolDirectory.open(spool.root)
        assert reopened.attributes() == [A, B]
        assert reopened.get(A).count == 2
        assert reopened.get(A).values() == ["a", "b"]
        assert reopened.get(B).max_value == "z"

    def test_open_requires_index(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(SpoolError, match="not a spool directory"):
            SpoolDirectory.open(tmp_path / "d")

    def test_open_detects_missing_file(self, spool):
        spool.add_values(A, ["a"])
        spool.save_index()
        import os

        os.unlink(spool.get(A).path)
        with pytest.raises(SpoolError, match="missing file"):
            SpoolDirectory.open(spool.root)


class TestIndexIdentity:
    def test_the_identity_follows_the_last_read_or_write(self, spool):
        assert not spool.index_is_current()  # never saved
        spool.add_values(A, ["a"])
        spool.save_index()
        assert spool.index_is_current()
        reopened = SpoolDirectory.open(spool.root)
        assert reopened.index_is_current()
        spool.add_values(B, ["z"])
        assert not spool.index_is_current()  # the index lacks B
        spool.save_index()
        assert spool.index_is_current()
        assert not reopened.index_is_current()  # a newer index replaced it

    def test_an_index_gone_is_not_current(self, spool):
        spool.add_values(A, ["a"])
        spool.save_index()
        os.unlink(os.path.join(spool.root, "index.json"))
        assert not spool.index_is_current()

    def test_moved_to_reads_like_an_open_of_the_renamed_directory(
        self, spool, tmp_path
    ):
        unsafe = AttributeRef("t", "c/d")
        spool.add_values(B, ["x", "y"])
        spool.add_values(A, ["a"])
        spool.add_values(unsafe, ["q"])
        spool.catalog_hash = "f" * 64
        spool.database_name = "db"
        spool.attribute_fingerprints = {"t.a": "1", "t.b": "2"}
        spool.save_index()
        moved_root = tmp_path / "moved"
        os.rename(spool.root, moved_root)
        moved = spool.moved_to(moved_root)
        reopened = SpoolDirectory.open(moved_root)
        assert moved.root == reopened.root
        assert moved.attributes() == reopened.attributes() == [A, B, unsafe]
        for ref in (A, B, unsafe):
            assert moved.get(ref) == reopened.get(ref)
            assert moved.get(ref).values() == reopened.get(ref).values()
        for name in ("catalog_hash", "database_name", "attribute_fingerprints"):
            assert getattr(moved, name) == getattr(reopened, name)
        assert moved.index_is_current()
        # File names stay taken: a new attribute whose name sanitises to a
        # held one gets the suffix an opened directory would give it.
        clash = AttributeRef("t", "c_d")
        assert moved.reserve_name(clash) == reopened.reserve_name(clash)


class TestCursorIntegration:
    def test_open_cursor_counts(self, spool):
        from repro.storage.cursors import IOStats

        spool.add_values(A, ["a", "b"])
        stats = IOStats()
        cursor = spool.open_cursor(A, stats)
        while cursor.read_batch(1):
            pass
        cursor.close()
        assert stats.items_read == 2
        assert stats.reads_per_attribute == {"t.a": 2}
