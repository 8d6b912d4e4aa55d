"""A full disk while spooling: named errors, and nothing left behind.

A write that fails with ``ENOSPC`` must surface as a
:class:`~repro.errors.SpoolError` that names what was being written (the
attribute and its value file, or the index path), with its temporary file
removed.  A run that fails before it publishes its cache staging directory
removes that directory, in process and with ``overlap=True``; a run that
fails after the publish keeps the published entry.
"""

from __future__ import annotations

import errno
import os
import re

import pytest
from seeded_dbs import build_db

from repro.core import runner
from repro.core.candidates import PretestConfig
from repro.core.runner import DiscoveryConfig, discover_inds
from repro.errors import DiscoveryError, SpoolError
from repro.storage import sorted_sets
from repro.storage.blockio import BlockFileWriter
from repro.storage.sorted_sets import SpoolDirectory
from repro.storage.spool_cache import SpoolCache


def _disk_full() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture()
def full_value_files(monkeypatch):
    """Every value-file block write fails; returns the paths it was given."""
    paths = []

    def write_block(writer, values):
        paths.append(writer.path)
        raise _disk_full()

    monkeypatch.setattr(BlockFileWriter, "write_block", write_block)
    return paths


def _config(tmp_path, **overrides) -> DiscoveryConfig:
    defaults = dict(
        strategy="brute-force",
        sampling_size=2,
        pretests=PretestConfig(cardinality=True, max_value=False),
        reuse_spool=True,
        cache_dir=str(tmp_path / "cache"),
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


class TestNamedErrors:
    def test_a_value_file_write_names_the_attribute_and_the_file(
        self, tmp_path, full_value_files
    ):
        db = build_db()
        root = tmp_path / "spool"
        with pytest.raises(SpoolError) as excinfo:
            discover_inds(db, DiscoveryConfig(spool_dir=str(root)))
        message = str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, OSError)
        assert os.strerror(errno.ENOSPC) in message
        named = re.search(r"value file of (\S+) to (\S+):", message)
        assert named is not None, message
        attribute, path = named.groups()
        assert attribute in {ref.qualified for ref in db.attributes()}
        (tmp,) = full_value_files
        assert path == tmp.rsplit(".tmp-", 1)[0]
        assert os.path.dirname(path) == str(root)
        assert not list(root.glob("*.tmp-*"))
        assert not os.path.exists(path)

    def test_an_index_write_names_the_index(self, tmp_path, monkeypatch):
        spool = SpoolDirectory.create(tmp_path / "spool")

        class HalfWritten:
            """A file that takes half of what it is given, then is full."""

            def __init__(self, *args, **kwargs):
                self._fh = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._fh.close()

            def write(self, text):
                self._fh.write(text[: len(text) // 2])
                raise _disk_full()

        monkeypatch.setattr(sorted_sets, "open", HalfWritten, raising=False)
        index = os.path.join(spool.root, "index.json")
        with pytest.raises(SpoolError, match=re.escape(index)) as excinfo:
            spool.save_index()
        assert isinstance(excinfo.value.__cause__, OSError)
        assert os.listdir(spool.root) == []


class TestFailedRunCleanup:
    def test_in_process_failure_before_publish_removes_staging(
        self, tmp_path, full_value_files
    ):
        with pytest.raises(SpoolError):
            discover_inds(build_db(), _config(tmp_path))
        assert full_value_files
        assert list((tmp_path / "cache").iterdir()) == []

    def test_overlapped_failure_before_publish_removes_staging(
        self, tmp_path, monkeypatch
    ):
        """The index save after the export job fails on a full disk."""
        saves = []
        real = SpoolDirectory.save_index

        def save_index(spool):
            saves.append(spool.root)
            if len(saves) == 2:  # the bare index went through; this one not
                raise _disk_full()
            return real(spool)

        monkeypatch.setattr(SpoolDirectory, "save_index", save_index)
        config = _config(tmp_path, validation_workers=2, overlap=True)
        with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            discover_inds(build_db(), config)
        assert saves[0].name.startswith(".staging-")
        assert list((tmp_path / "cache").iterdir()) == []

    @pytest.mark.parametrize("overlap", (False, True))
    def test_failure_after_publish_keeps_the_entry(
        self, tmp_path, monkeypatch, overlap
    ):
        def no_validator(*args, **kwargs):
            raise DiscoveryError("validation failed")

        config = _config(tmp_path, validation_workers=2, overlap=overlap)
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_build_validator", no_validator)
            with pytest.raises(DiscoveryError, match="validation failed"):
                discover_inds(build_db(), config)
        cache = SpoolCache(tmp_path / "cache")
        assert len(cache.list_entries()) == 1
        assert cache.list_orphans() == []
        assert discover_inds(build_db(), config).spool_cache_hit
