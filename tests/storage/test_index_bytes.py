"""``index.json`` bytes: assembled from memoised entry texts, unchanged.

:meth:`SpoolDirectory.save_index` writes the index from each attribute's
indented entry text, memoised on its registry record, instead of running
json's indented encoder over the whole document.  The bytes must stay
those of ``json.dumps(doc, indent=2)``, which every earlier build wrote and
``tests/storage/test_spool_compat.py`` pins.  The document builder before
the memo is vendored below as the oracle.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seeded_dbs import build_random_db

from repro.db.schema import AttributeRef
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory


def _legacy_index_text(spool: SpoolDirectory) -> str:
    """The document ``save_index`` built before the memo, vendored."""
    compressed = spool.compression != "none"
    doc: dict = {"version": 3 if compressed else 2, "format": "binary"}
    if compressed:
        doc["compression"] = spool.compression
    doc["block_size"] = spool.block_size
    if spool.catalog_hash is not None:
        doc["catalog_hash"] = spool.catalog_hash
    if spool.database_name is not None:
        doc["database"] = spool.database_name
    if spool.attribute_fingerprints is not None:
        doc["attribute_fingerprints"] = {
            k: spool.attribute_fingerprints[k]
            for k in sorted(spool.attribute_fingerprints)
        }
    doc["attributes"] = [
        {
            "table": ref.table,
            "column": ref.column,
            "file": os.path.basename(svf.path),
            "count": svf.count,
            "min": svf.min_value,
            "max": svf.max_value,
            "dtype": svf.dtype,
            "blocks": [block.to_doc() for block in svf.blocks],
        }
        for ref, svf in sorted(
            (ref, spool.get(ref)) for ref in spool.attributes()
        )
    ]
    return json.dumps(doc, indent=2)


def _saved(spool: SpoolDirectory) -> str:
    spool.save_index()
    with open(os.path.join(spool.root, "index.json"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("compression", ["none", "zlib"])
@pytest.mark.parametrize("stamps", ["none", "empty", "full"])
@pytest.mark.parametrize("seed", range(3))
def test_index_bytes_equal_the_legacy_document(
    tmp_path, seed, stamps, compression
):
    spool, _ = export_database(
        build_random_db(seed),
        str(tmp_path / "s"),
        block_size=3,
        compression=compression,
    )
    if stamps != "none":
        spool.catalog_hash = "c" * 64
        spool.database_name = "dätabase \U0001F600"
        refs = spool.attributes() if stamps == "full" else []
        spool.attribute_fingerprints = {
            ref.qualified: f"{i:064x}" for i, ref in enumerate(refs)
        }
    assert _saved(spool) == _legacy_index_text(spool)
    # A second save serves every entry from its memo, byte for byte.
    assert _saved(spool) == _legacy_index_text(spool)


def test_awkward_values_and_empty_registries(tmp_path):
    spool = SpoolDirectory.create(tmp_path / "s", block_size=2)
    assert _saved(spool) == _legacy_index_text(spool)
    spool.add_values(AttributeRef("t é", "nothing"), [])
    spool.add_values(
        AttributeRef("t é", "odd\nname"),
        sorted(["", "a\\b", "x\ny", "\r", "é", "\U0001F600", 'q"uote']),
    )
    assert _saved(spool) == _legacy_index_text(spool)


def test_moved_and_adopted_records_keep_their_text(tmp_path):
    spool, _ = export_database(build_random_db(0), str(tmp_path / "s"))
    _saved(spool)
    os.rename(tmp_path / "s", tmp_path / "moved")
    moved = spool.moved_to(tmp_path / "moved")
    ref = moved.attributes()[0]
    assert "_index_text" in vars(moved.get(ref))
    assert _saved(moved) == _legacy_index_text(moved)
    # A record whose file is renamed drops the text it can no longer use.
    renamed = moved.get(ref).relocated(str(tmp_path / "other.valsb"))
    assert "_index_text" not in vars(renamed)
    assert '"file": "other.valsb"' in renamed.index_text()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.text(), max_size=6, unique=True),
    st.text(min_size=1, max_size=8),
)
def test_entry_texts_indent_only_line_breaks(values, column):
    """An entry text indents every newline json writes, and json writes a
    newline inside a string as ``\\n``: names and values holding newlines,
    backslashes and non-BMP characters give the legacy bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        spool = SpoolDirectory.create(os.path.join(tmp, "s"), block_size=2)
        spool.add_values(AttributeRef("t\n", column), sorted(values))
        spool.add_values(AttributeRef("u", "c"), ["a\r\nb"])
        assert _saved(spool) == _legacy_index_text(spool)
