"""Render once: the sorted kernel, the profile → export hand-off, and the
fingerprint-only statistics.

A cold run renders and sorts each column once.  Profiling builds every
column's sorted list with :func:`render_distinct_sorted`, and export
writes the kept list instead of rendering the column again.  The checks
here pin that down against independent oracles:

* the kernel equals ``sorted(render_distinct(v))`` and
  ``sorted({render_value(x) for x in v})`` on every input, and raises the
  same error on the same value;
* a cold ``discover_inds`` spool is byte-identical to
  ``export_database`` of the same attributes, with the same export
  counters, in every spool compression, with every value file written on the
  calling thread, and with a small ``max_items_in_memory`` that sends
  large columns through ``external_sort``;
* a cold call renders each profiled column exactly once;
* statistics profiled without the fingerprint-only fields are refused by
  the fingerprint functions.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seeded_dbs import build_random_db
from test_column_kernels import _exact, _tree, hostile_db

import repro.db.stats as stats_module
import repro.storage.exporter as exporter_module
from repro.core.candidates import apply_pretests, generate_unique_ref_candidates
from repro.core.runner import DiscoveryConfig, discover_inds
from repro.db import Column, Database, DataType, TableSchema
from repro.db.schema import AttributeRef
from repro.db.stats import RenderedLists, collect_column_stats, profile_column
from repro.errors import FingerprintError, SpoolError
from repro.storage.codec import (
    SPOOL_COMPRESSIONS,
    render_distinct,
    render_distinct_sorted,
    render_value,
)
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory
from repro.storage.spool_cache import (
    attribute_fingerprint,
    attribute_fingerprints,
    catalog_fingerprint,
)


class Color(enum.IntEnum):
    RED = 1
    BLUE = 12


class Tag(str):
    pass


NAN_A, NAN_B = float("nan"), float("nan")

#: Hand-picked columns: every type mix the kernel specialises or falls
#: back on.
KERNEL_CASES = {
    "empty": [],
    "strings": ["b", "a", "b", "", "é", "é", "\U0001F600", "\U0010FFFF"],
    "combining": ["é", "é", "ä", "ä", "é"],
    "non_bmp": ["\U0001F600z", "\U0001F600", "￿", "\U00010000"],
    "ints": [3, -7, 0, 10**30, -(10**30), 2**53 + 1, 3, 144, 9, 10, 100],
    "negative_ints": [-1, -10, -2, -1, -100],
    "int_float_mix": [1, 1.0, 2.5, 2, 2**53 + 1, float(2**53), 0, -0.0],
    "floats": [NAN_A, NAN_B, float("nan"), 0.0, -0.0, float("inf"),
               float("-inf"), 1e16, 0.1, 1e-7, 2.5, 2.5],
    "signed_zeros": [0.0, -0.0, -0.0],
    "nan_objects": [NAN_A, NAN_B, NAN_A],
    "int_enum": [Color.RED, Color.BLUE, 1, 12, 7],
    "str_subclass": [Tag("x"), "x", Tag("y")],
    "bytes": [b"\x00\xff", b"ab", b"ab"],
    "int_and_str": [1, "1", 2, "b"],
}


def _oracle(values):
    return sorted({render_value(value) for value in values})


def _error_of(call, values):
    with pytest.raises(SpoolError) as caught:
        call(values)
    return str(caught.value)


# -------------------------------------------------------------------- kernel
class TestSortedKernel:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_equals_both_oracles(self, case):
        values = KERNEL_CASES[case]
        got = render_distinct_sorted(values)
        assert got == sorted(render_distinct(values)) == _oracle(values)
        assert got == render_distinct_sorted(values, set(map(type, values)))

    @pytest.mark.parametrize(
        "bad", [True, False, object(), ["list"], None, 1 + 2j]
    )
    @pytest.mark.parametrize("column", ["ints", "strings", "floats", "empty"])
    def test_raises_the_same_error_on_the_same_value(self, bad, column):
        values = KERNEL_CASES[column] + [bad, "after"]
        expected = _error_of(
            lambda v: {render_value(value) for value in v}, values
        )
        assert _error_of(render_distinct_sorted, values) == expected
        assert _error_of(render_distinct, values) == expected

    def test_bool_is_not_taken_for_an_int(self):
        with pytest.raises(SpoolError, match="boolean"):
            render_distinct_sorted([1, 2, True])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(max_size=6),
                st.integers(),
                st.integers(min_value=-(10**30), max_value=10**30),
                st.floats(allow_nan=True, allow_infinity=True),
                st.binary(max_size=4),
            ),
            max_size=40,
        )
    )
    def test_mixed_columns_equal_the_oracle(self, values):
        assert render_distinct_sorted(values) == _oracle(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(), max_size=60))
    def test_int_columns_equal_the_oracle(self, values):
        assert render_distinct_sorted(values) == _oracle(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=8), max_size=60))
    def test_str_columns_equal_the_oracle(self, values):
        assert render_distinct_sorted(values) == _oracle(values)


# ------------------------------------------------------------------- profile
PROFILE_DBS = [
    *(lambda seed=seed: build_random_db(seed) for seed in range(6)),
    hostile_db,
]


class TestColdProfile:
    @pytest.mark.parametrize("build", PROFILE_DBS)
    def test_cold_stats_drop_only_the_fingerprint_fields(self, build):
        db = build()
        for ref in db.attributes(include_empty_tables=True):
            full = profile_column(db, ref)
            cold = profile_column(db, ref, fingerprint=False)
            assert _exact(cold) == _exact(
                replace(
                    full, min_length=None, max_length=None, value_checksum=None
                )
            ), ref

    @pytest.mark.parametrize("build", PROFILE_DBS)
    def test_kept_lists_are_what_export_would_build(self, build):
        db = build()
        kept = RenderedLists(max_items=10)
        stats = collect_column_stats(
            db, include_empty_tables=True, fingerprint=False, rendered=kept
        )
        for ref, st_ in stats.items():
            values = db.attribute_values(ref)
            usable = 0 < len(values) < 10 and not st_.dtype.is_lob
            assert (ref in kept) is usable, ref
            if usable:
                assert kept[ref] == (len(values), _oracle(values))

    def test_no_list_for_lob_empty_or_large_columns(self):
        db = hostile_db()
        kept = RenderedLists(max_items=20)
        collect_column_stats(
            db, include_empty_tables=True, fingerprint=False, rendered=kept
        )
        columns = {ref.column for ref in kept}
        assert "blob" not in columns  # LOB
        assert not {"nulls", "e", "f"} & columns  # empty
        assert "single" not in columns  # 40 non-NULL values >= 20
        assert "one_int" in columns and "m" in columns

    def test_no_list_for_a_short_lob_column(self):
        db = Database("short_lob")
        table = db.create_table(
            TableSchema(
                "t",
                [Column("b", DataType.BLOB), Column("s", DataType.VARCHAR)],
            )
        )
        for i in range(3):
            table.insert({"b": bytes([i]), "s": f"s{i}"})
        kept = RenderedLists(max_items=1000)
        collect_column_stats(db, fingerprint=False, rendered=kept)
        assert list(kept) == [AttributeRef("t", "s")]

    def test_retain_drops_everything_else(self):
        db = build_random_db(1)
        kept = RenderedLists(max_items=1000)
        collect_column_stats(db, fingerprint=False, rendered=kept)
        first = sorted(kept)[0]
        kept.retain([first])
        assert list(kept) == [first]


# ---------------------------------------------------------- cold run spools
def _needed(db, cfg):
    """The attributes a run spools, through the public Candidate API."""
    stats = collect_column_stats(db)
    surviving, _ = apply_pretests(
        generate_unique_ref_candidates(stats), stats, cfg.pretests
    )
    return sorted(
        {c.dependent for c in surviving} | {c.referenced for c in surviving}
    )


#: Seeds whose candidates survive the pretests, so the run spools.
SPOOL_DBS = [
    *(lambda seed=seed: build_random_db(seed) for seed in (0, 2, 3, 5, 6, 9)),
    hostile_db,
]


def _assert_cold_spool_equals_export(tmp_path, db, cfg):
    result = discover_inds(db, cfg)
    assert result.spool_path == str(tmp_path / "cold")
    _, stats = export_database(
        db,
        str(tmp_path / "export"),
        attributes=_needed(db, cfg),
        max_items_in_memory=cfg.max_items_in_memory,
        block_size=cfg.spool_block_size,
        compression=cfg.spool_compression,
    )
    assert _tree(tmp_path / "cold") == _tree(tmp_path / "export")
    assert result.export_values_scanned == stats.values_scanned
    assert result.export_values_written == stats.values_written


class TestColdSpools:
    @pytest.mark.parametrize("build", SPOOL_DBS)
    @pytest.mark.parametrize("compression", SPOOL_COMPRESSIONS)
    def test_byte_identical_to_export_database(
        self, tmp_path, compression, build
    ):
        cfg = DiscoveryConfig(
            spool_dir=str(tmp_path / "cold"),
            keep_spool=True,
            spool_compression=compression,
            spool_block_size=4,
        )
        _assert_cold_spool_equals_export(tmp_path, build(), cfg)

    @pytest.mark.parametrize("build", SPOOL_DBS)
    def test_export_threads(self, tmp_path, monkeypatch, build):
        """Export writes every value file on the calling thread."""
        db = build()
        writers = []
        real = SpoolDirectory.add_values

        def spy(self, *args, **kwargs):
            writers.append(threading.current_thread())
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SpoolDirectory, "add_values", spy)
        cfg = DiscoveryConfig(spool_dir=str(tmp_path / "cold"), keep_spool=True)
        _assert_cold_spool_equals_export(tmp_path, db, cfg)
        # Once in the cold run and once in export_database.
        assert len(writers) == 2 * len(_needed(db, cfg)) > 0
        assert set(writers) == {threading.current_thread()}

    @pytest.mark.parametrize("build", SPOOL_DBS)
    def test_large_columns_still_go_through_external_sort(
        self, tmp_path, monkeypatch, build
    ):
        db = build()
        cfg = DiscoveryConfig(
            spool_dir=str(tmp_path / "cold"),
            keep_spool=True,
            max_items_in_memory=15,
        )
        sorted_externally = []
        real = exporter_module.external_sort

        def spy(values, *args, **kwargs):
            sorted_externally.append(1)
            return real(values, *args, **kwargs)

        monkeypatch.setattr(exporter_module, "external_sort", spy)
        large = [
            ref
            for ref in _needed(db, cfg)
            if len(db.attribute_values(ref)) >= 15
        ]
        _assert_cold_spool_equals_export(tmp_path, db, cfg)
        # Once in the cold run and once in export_database: the hand-off
        # keeps no list for a column of max_items or more values.
        assert len(sorted_externally) == 2 * len(large) > 0


# ------------------------------------------------------------- render count
def _count_kernel_calls(monkeypatch) -> list:
    calls = []
    real = render_distinct_sorted

    def spy(values, *args, **kwargs):
        calls.append(len(values))
        return real(values, *args, **kwargs)

    monkeypatch.setattr(stats_module, "render_distinct_sorted", spy)
    monkeypatch.setattr(exporter_module, "render_distinct_sorted", spy)
    return calls


class TestRenderedOnce:
    @pytest.mark.parametrize("build", SPOOL_DBS)
    def test_cold_call_renders_each_profiled_column_once(
        self, monkeypatch, build
    ):
        db = build()
        calls = _count_kernel_calls(monkeypatch)
        result = discover_inds(db, DiscoveryConfig())
        assert result.export_values_written > 0
        assert len(calls) == len(db.attributes())

    def test_only_fingerprinted_runs_compute_checksums(
        self, monkeypatch, tmp_path
    ):
        checksums = []
        real = stats_module.crc32

        def spy(data, *args):
            checksums.append(data)
            return real(data, *args)

        monkeypatch.setattr(stats_module, "crc32", spy)
        db = build_random_db(0)
        discover_inds(db, DiscoveryConfig())
        discover_inds(db, DiscoveryConfig(strategy="sql-minus"))
        assert checksums == []
        discover_inds(
            db, DiscoveryConfig(reuse_spool=True, cache_dir=str(tmp_path))
        )
        assert checksums

    def test_overlap_and_sql_runs_keep_no_lists(self, monkeypatch):
        offered = []
        real = RenderedLists.offer

        def spy(self, stats, values):
            offered.append(stats.ref)
            return real(self, stats, values)

        monkeypatch.setattr(RenderedLists, "offer", spy)
        db = build_random_db(0)
        discover_inds(db, DiscoveryConfig(strategy="sql-minus"))
        discover_inds(db, DiscoveryConfig(strategy="brute-force", overlap=True))
        discover_inds(db, DiscoveryConfig(strategy="reference"))
        assert offered == []
        discover_inds(db, DiscoveryConfig())
        assert len(offered) == len(db.attributes())


# --------------------------------------------------------------- fingerprints
class TestFingerprintsRefuseColdStats:
    def test_attribute_fingerprint_names_the_attribute(self):
        db = build_random_db(3)
        cold = collect_column_stats(db, fingerprint=False)
        for ref, stats in cold.items():
            with pytest.raises(FingerprintError) as caught:
                attribute_fingerprint(stats)
            assert str(ref) in str(caught.value)

    def test_maps_and_catalog_hash_refuse(self):
        db = build_random_db(3)
        cold = collect_column_stats(db, fingerprint=False)
        with pytest.raises(FingerprintError):
            attribute_fingerprints(cold)
        with pytest.raises(FingerprintError):
            catalog_fingerprint(db.name, cold)

    def test_one_cold_column_spoils_the_catalog_hash(self):
        db = Database("mixed_profile")
        table = db.create_table(
            TableSchema(
                "t",
                [Column("a", DataType.INTEGER), Column("b", DataType.VARCHAR)],
            )
        )
        table.insert({"a": 1, "b": "x"})
        stats = collect_column_stats(db)
        ref = AttributeRef("t", "b")
        stats[ref] = profile_column(db, ref, fingerprint=False)
        with pytest.raises(FingerprintError, match=r"t\.b"):
            catalog_fingerprint(db.name, stats)
