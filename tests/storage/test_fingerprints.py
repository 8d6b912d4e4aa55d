"""Property tests for the per-attribute fingerprint map.

The map is the incremental pipeline's change detector, so its two defining
properties get pinned directly:

* **content-only** — a column's fingerprint is a pure function of its value
  multiset and profiled shape: renames, row reorderings and the same values
  living in a differently-named column all fingerprint identically, while
  any multiset change (append, update, delete) moves the digest;
* **derivation** — the whole-catalog ``catalog_fingerprint`` is composed
  from the *same* per-attribute entries plus identity, and stays
  byte-identical to the pre-per-column implementation (vendored below), so
  every existing cache entry keeps hitting.

Each statistics object is digested once: the unmemoised per-attribute
formula is vendored below too, and a second map over profile-memo-served
statistics must not digest again.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from seeded_dbs import build_random_db

from repro.db import Column, Database, DataType, TableSchema
from repro.db.schema import AttributeRef
import repro.storage.spool_cache as spool_cache
from repro.db.stats import ProfileMemo, collect_column_stats
from repro.storage.spool_cache import (
    attribute_fingerprint,
    attribute_fingerprints,
    catalog_fingerprint,
)


def _single_column_db(name, table, column, values, dtype=DataType.VARCHAR):
    db = Database(name)
    t = db.create_table(TableSchema(table, [Column(column, dtype)]))
    for value in values:
        t.insert({column: value})
    return db


def _fingerprint_of(db, table, column):
    stats = collect_column_stats(db)
    return attribute_fingerprint(stats[AttributeRef(table, column)])


VALUES = ["a", "b", "ab", "", "x\ny", "nul\x00byte", "b"]


class TestContentOnly:
    def test_rename_keeps_the_fingerprint_moves_the_key(self):
        original = _single_column_db("d", "t", "old", VALUES)
        renamed = _single_column_db("d", "t", "new", VALUES)
        assert _fingerprint_of(original, "t", "old") == _fingerprint_of(
            renamed, "t", "new"
        )
        before = attribute_fingerprints(collect_column_stats(original))
        after = attribute_fingerprints(collect_column_stats(renamed))
        assert set(before) == {AttributeRef("t", "old")}
        assert set(after) == {AttributeRef("t", "new")}
        assert list(before.values()) == list(after.values())

    def test_row_reordering_is_invisible(self):
        forward = _single_column_db("d", "t", "c", VALUES)
        backward = _single_column_db("d", "t", "c", list(reversed(VALUES)))
        assert _fingerprint_of(forward, "t", "c") == _fingerprint_of(
            backward, "t", "c"
        )

    def test_same_values_in_a_different_table_and_column_agree(self):
        here = _single_column_db("d", "t0", "c0", VALUES)
        there = _single_column_db("other", "t9", "z", VALUES)
        assert _fingerprint_of(here, "t0", "c0") == _fingerprint_of(
            there, "t9", "z"
        )

    @pytest.mark.parametrize(
        "mutation",
        [
            ("append", VALUES + ["extra"]),
            ("update", ["CHANGED"] + VALUES[1:]),
            ("delete", VALUES[1:]),
            ("null-out", [None] + VALUES[1:]),
            ("duplicate", VALUES + [VALUES[0]]),
        ],
    )
    def test_any_multiset_change_moves_the_digest(self, mutation):
        label, mutated = mutation
        base = _fingerprint_of(
            _single_column_db("d", "t", "c", VALUES), "t", "c"
        )
        changed = _fingerprint_of(
            _single_column_db("d", "t", "c", mutated), "t", "c"
        )
        assert base != changed, f"{label} mutation went undetected"

    def test_equal_length_mid_range_swap_is_caught_by_the_checksum(self):
        """The edit that counts and extrema alone cannot see."""
        base = ["aa", "mm", "zz"]
        swapped = ["aa", "nn", "zz"]  # same count, extrema, lengths
        assert _fingerprint_of(
            _single_column_db("d", "t", "c", base), "t", "c"
        ) != _fingerprint_of(
            _single_column_db("d", "t", "c", swapped), "t", "c"
        )

    def test_dtype_is_part_of_the_content(self):
        as_int = _single_column_db(
            "d", "t", "c", [1, 2, 3], dtype=DataType.INTEGER
        )
        as_str = _single_column_db(
            "d", "t", "c", ["1", "2", "3"], dtype=DataType.VARCHAR
        )
        # Rendered values collide (TO_CHAR semantics) but the declared
        # type differs, and type shapes validator candidates.
        assert _fingerprint_of(as_int, "t", "c") != _fingerprint_of(
            as_str, "t", "c"
        )


def _legacy_catalog_fingerprint(database_name, column_stats):
    """The pre-per-column implementation, vendored verbatim as the oracle."""
    payload = {
        "database": database_name,
        "attributes": [
            {
                "table": ref.table,
                "column": ref.column,
                "dtype": st.dtype.value,
                "rows": st.row_count,
                "nulls": st.null_count,
                "distinct": st.distinct_count,
                "min": st.min_value,
                "max": st.max_value,
                "min_length": st.min_length,
                "max_length": st.max_length,
                "checksum": st.value_checksum,
            }
            for ref, st in sorted(column_stats.items())
        ],
    }
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestDerivedCatalogHash:
    @pytest.mark.parametrize("seed", range(6))
    def test_byte_identical_to_legacy_implementation(self, seed):
        """Existing cache entries must keep hitting across the refactor."""
        db = build_random_db(seed)
        stats = collect_column_stats(db)
        assert catalog_fingerprint(db.name, stats) == (
            _legacy_catalog_fingerprint(db.name, stats)
        )

    def test_stable_across_repeated_profiling(self):
        db = build_random_db(2)
        first = catalog_fingerprint(db.name, collect_column_stats(db))
        second = catalog_fingerprint(db.name, collect_column_stats(db))
        assert first == second

    def test_catalog_hash_moves_exactly_with_the_map_or_identity(self):
        values = list(VALUES)
        base_db = _single_column_db("d", "t", "c", values)
        base_stats = collect_column_stats(base_db)
        base_map = attribute_fingerprints(base_stats)
        base_hash = catalog_fingerprint("d", base_stats)
        # Content change: map value moves, catalog hash moves.
        edited = _single_column_db("d", "t", "c", values + ["tail"])
        edited_stats = collect_column_stats(edited)
        assert attribute_fingerprints(edited_stats) != base_map
        assert catalog_fingerprint("d", edited_stats) != base_hash
        # Rename: map *keys* move while values stay — identity is the
        # catalog hash's business, so it moves too.
        renamed = _single_column_db("d", "t", "c2", values)
        renamed_stats = collect_column_stats(renamed)
        assert list(
            attribute_fingerprints(renamed_stats).values()
        ) == list(base_map.values())
        assert catalog_fingerprint("d", renamed_stats) != base_hash
        # Database name is catalog identity as well.
        assert catalog_fingerprint("e", base_stats) != base_hash


def _unmemoised_attribute_fingerprint(st):
    """The per-attribute digest as computed before the memo, vendored."""
    payload = {
        "dtype": st.dtype.value,
        "rows": st.row_count,
        "nulls": st.null_count,
        "distinct": st.distinct_count,
        "min": st.min_value,
        "max": st.max_value,
        "min_length": st.min_length,
        "max_length": st.max_length,
        "checksum": st.value_checksum,
    }
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestDigestMemo:
    @pytest.mark.parametrize("seed", range(6))
    def test_digests_equal_the_unmemoised_formula(self, seed):
        stats = collect_column_stats(build_random_db(seed))
        expected = {
            ref: _unmemoised_attribute_fingerprint(st)
            for ref, st in stats.items()
        }
        # The first map digests, the second is served from the memo.
        assert attribute_fingerprints(stats) == expected
        assert attribute_fingerprints(stats) == expected

    def test_memo_served_stats_are_not_digested_again(self, monkeypatch):
        # Table names no other test uses, so no equal statistics object
        # elsewhere in the process can have filled the memo.
        db = Database("memo_probe")
        edited = db.create_table(
            TableSchema(
                "memo_probe_a",
                [Column("k", DataType.INTEGER), Column("v", DataType.VARCHAR)],
            )
        )
        still = db.create_table(
            TableSchema("memo_probe_b", [Column("w", DataType.VARCHAR)])
        )
        for i in range(5):
            edited.insert({"k": i, "v": f"v{i}"})
            still.insert({"w": f"w{i}"})
        digests = []
        real = spool_cache._canonical_digest

        def spy(payload):
            digests.append(payload)
            return real(payload)

        monkeypatch.setattr(spool_cache, "_canonical_digest", spy)
        memo = ProfileMemo()
        first, _ = memo.collect(db)
        before = attribute_fingerprints(first)
        assert len(digests) == 3
        second, profiled = memo.collect(db)
        assert profiled == 0
        assert attribute_fingerprints(second) == before
        assert len(digests) == 3  # memo-served stats: no new digest
        edited.insert({"k": 9, "v": "v9"})
        third, profiled = memo.collect(db)
        assert profiled == 1
        after = attribute_fingerprints(third)
        assert len(digests) == 5  # only the edited table's two columns
        ref = AttributeRef("memo_probe_b", "w")
        assert after[ref] == before[ref]
        assert after != before


class TestCatalogTextMemo:
    """The catalog hash is assembled from per-statistics canonical texts."""

    @pytest.mark.parametrize("seed", range(3))
    def test_equal_to_the_legacy_hash_under_any_key(self, seed):
        stats = collect_column_stats(build_random_db(seed))
        name = "datenbank-ü-\U0001F600"
        assert catalog_fingerprint(name, stats) == (
            _legacy_catalog_fingerprint(name, stats)
        )
        # Keys that are not the statistics' own refs take the unmemoised
        # path and still give the legacy hash of the map as keyed.
        renamed = {
            AttributeRef(f"x_{ref.table}", ref.column): st
            for ref, st in stats.items()
        }
        assert catalog_fingerprint(name, renamed) == (
            _legacy_catalog_fingerprint(name, renamed)
        )
        assert catalog_fingerprint(name, renamed) != catalog_fingerprint(
            name, stats
        )

    def test_a_second_hash_encodes_only_the_database_name(self, monkeypatch):
        db = _single_column_db("memo_text", "memo_text_t", "c", VALUES)
        stats = collect_column_stats(db)
        encoded = []
        real = spool_cache._canonical_text

        def spy(payload):
            encoded.append(payload)
            return real(payload)

        monkeypatch.setattr(spool_cache, "_canonical_text", spy)
        first = catalog_fingerprint(db.name, stats)
        assert len(encoded) == 2  # the attribute and the name
        assert catalog_fingerprint(db.name, stats) == first
        assert encoded[2:] == [db.name]
