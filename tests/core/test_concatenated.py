"""Tests for prefix-tolerant (concatenated-value) IND detection."""

from functools import partial
from itertools import permutations

import pytest

from seeded_dbs import build_random_db, prefixed_db, value_at_a_time

from repro.core.candidates import Candidate
from repro.core.concatenated import (
    SEPARATORS,
    PrefixedINDFinder,
    detect_common_prefix,
)
from repro.db.schema import AttributeRef
from repro.errors import ValidatorError
from repro.storage.cursors import IOStats, MemoryValueCursor
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory

DEP = AttributeRef("t", "dep")
REF = AttributeRef("t", "ref")


def prefix_of(values: list[str], max_scan=None) -> str | None:
    return detect_common_prefix(MemoryValueCursor(values), max_scan)


class TestDetectCommonPrefix:
    def test_separator_terminated(self):
        assert prefix_of(["PDB-1abc", "PDB-2xyz"]) == "PDB-"

    def test_no_separator_means_no_prefix(self):
        assert prefix_of(["PDBA1abc", "PDBA2xyz"]) is None

    def test_prefix_cut_at_last_separator(self):
        assert prefix_of(["GO:A:1", "GO:A:2"]) == "GO:A:"

    def test_empty_common_prefix(self):
        assert prefix_of(["abc", "xyz"]) is None

    def test_empty_input(self):
        assert prefix_of([]) is None

    def test_single_value(self):
        # A single value's prefix up to its last separator.
        assert prefix_of(["PDB-1abc"]) == "PDB-"

    def test_scan_limit(self):
        values = ["P-1", "P-2", "X9"]
        assert prefix_of(values, max_scan=2) == "P-"
        assert prefix_of(values) is None

    @pytest.mark.parametrize("sep", list("-_:/| "))
    def test_all_separators(self, sep):
        assert prefix_of([f"AB{sep}1", f"AB{sep}2"]) == f"AB{sep}"


class TestPrefixedINDFinder:
    @pytest.fixture()
    def spool(self, tmp_path) -> SpoolDirectory:
        s = SpoolDirectory.create(tmp_path / "s")
        codes = [f"{i}abc"[:4] for i in range(1, 6)]
        codes = sorted({f"{i}ab{i}" for i in range(1, 6)})
        s.add_values(REF, codes)
        s.add_values(DEP, sorted(f"PDB-{c}" for c in codes))
        s.add_values(AttributeRef("t", "other"), ["zzz"])
        return s

    def test_strip_dependent_prefix(self, spool):
        finder = PrefixedINDFinder(spool)
        hit = finder.check(Candidate(DEP, REF))
        assert hit is not None
        assert hit.prefix == "PDB-"
        assert hit.stripped_side == "dependent"
        assert "strip" in str(hit)

    def test_strip_referenced_prefix(self, spool):
        finder = PrefixedINDFinder(spool)
        hit = finder.check(Candidate(REF, DEP))
        assert hit is not None
        assert hit.stripped_side == "referenced"

    def test_no_match_returns_none(self, spool):
        finder = PrefixedINDFinder(spool)
        assert finder.check(
            Candidate(AttributeRef("t", "other"), REF)
        ) is None

    def test_find_all(self, spool):
        finder = PrefixedINDFinder(spool)
        hits = finder.find_all(
            [
                Candidate(DEP, REF),
                Candidate(AttributeRef("t", "other"), REF),
            ]
        )
        assert len(hits) == 1

    def test_prefix_cache(self, spool):
        finder = PrefixedINDFinder(spool)
        finder.check(Candidate(DEP, REF))
        assert finder._prefix_cache[DEP] == "PDB-"

    def test_partial_prefixed_set_refuted(self, tmp_path):
        # Stripped values must ALL be present; one miss refutes.
        s = SpoolDirectory.create(tmp_path / "s2")
        s.add_values(REF, ["1aaa"])
        s.add_values(DEP, ["PDB-1aaa", "PDB-9zzz"])
        finder = PrefixedINDFinder(s)
        assert finder.check(Candidate(DEP, REF)) is None

    def test_nonconforming_value_beyond_scan_limit(self, tmp_path):
        """Regression: batched lookahead must not choke on unscanned values.

        The prefix is detected from a bounded scan, so a value past the scan
        horizon may lack it.  When the candidate is decided before that
        value is ever consumed, the check must complete normally — the
        batched cursor protocol peeks far ahead but only *consumed* values
        may be prefix-checked.
        """
        s = SpoolDirectory.create(tmp_path / "s3")
        # Prefix "PDB-" detected from the first 3 values; "ZZZ-x" (beyond the
        # scan limit) does not conform.  The candidate is refuted on the very
        # first stripped value ("1aaa" not in REF), long before "ZZZ-x".
        s.add_values(DEP, ["PDB-1aaa", "PDB-2bbb", "PDB-3ccc", "ZZZ-x"])
        s.add_values(REF, ["0zzz"])
        finder = PrefixedINDFinder(s, prefix_scan_limit=3)
        assert finder.check(Candidate(DEP, REF)) is None  # refuted, no crash

    def test_nonconforming_value_that_is_consumed_still_raises(self, tmp_path):
        from repro.errors import ValidatorError

        s = SpoolDirectory.create(tmp_path / "s4")
        s.add_values(DEP, ["PDB-1aaa", "PDB-2bbb", "ZZZ-x"])
        # Both stripped values present, so the scan must consume "ZZZ-x".
        s.add_values(REF, ["1aaa", "2bbb", "3ccc"])
        finder = PrefixedINDFinder(s, prefix_scan_limit=2)
        with pytest.raises(ValidatorError, match="lacks the expected prefix"):
            finder.check(Candidate(DEP, REF))


# ---------------------------------------------------------- per-value oracle
#: The seeded random databases and the one with prefixed values.
DATABASES = {
    "prefixed": prefixed_db,
    **{f"seed{seed}": partial(build_random_db, seed) for seed in range(6)},
}


def oracle_prefix(cursor, max_scan=None) -> str | None:
    """:func:`detect_common_prefix`, reading one value at a time."""
    prefix = None
    for scanned, value in enumerate(value_at_a_time(cursor), start=1):
        if prefix is None:
            prefix = value
        else:
            i = 0
            while i < min(len(prefix), len(value)) and prefix[i] == value[i]:
                i += 1
            prefix = prefix[:i]
        if not prefix:
            return None
        if max_scan is not None and scanned >= max_scan:
            break
    if prefix is None:
        return None
    cut = max((i for i, ch in enumerate(prefix) if ch in SEPARATORS), default=-1)
    return prefix[: cut + 1] if cut >= 0 else None


def stripped(values, prefix):
    """``values`` without ``prefix``, raising on the first that lacks it."""
    for value in values:
        if not value.startswith(prefix):
            raise ValidatorError(f"{value!r} lacks {prefix!r}")
        yield value[len(prefix) :]


def oracle_inclusion(dep_values, ref_values) -> bool:
    """Algorithm 1 over two value-at-a-time streams."""
    for dep in dep_values:
        for ref in ref_values:
            if ref == dep:
                break
            if dep < ref:
                return False
        else:
            return False
    return True


def oracle_find_all(spool, candidates, io, scan_limit):
    """:meth:`PrefixedINDFinder.find_all`, reading one value at a time."""
    prefixes = {}

    def prefix_of(ref):
        if ref not in prefixes:
            cursor = spool.open_cursor(ref, io)
            prefixes[ref] = oracle_prefix(cursor, scan_limit)
            cursor.close()
        return prefixes[ref]

    def holds(candidate, prefix, side):
        dep = spool.open_cursor(candidate.dependent, io)
        ref = spool.open_cursor(candidate.referenced, io)
        dep_values, ref_values = value_at_a_time(dep), value_at_a_time(ref)
        if side == "dependent":
            dep_values = stripped(dep_values, prefix)
        else:
            ref_values = stripped(ref_values, prefix)
        try:
            return oracle_inclusion(dep_values, ref_values)
        finally:
            dep.close()
            ref.close()

    found = []
    for candidate in candidates:
        for side, attribute in (
            ("dependent", candidate.dependent),
            ("referenced", candidate.referenced),
        ):
            prefix = prefix_of(attribute)
            if prefix and holds(candidate, prefix, side):
                found.append((candidate, prefix, side))
                break
    return found


def consumed(io: IOStats) -> dict:
    """The counters of the values ``io`` charged and the files it opened.

    The bytes of decoded blocks are left out: the Algorithm-1 merge the
    finder calls peeks a batch ahead, which a value-at-a-time read does not.
    """
    return {
        "items_read": io.items_read,
        "reads_per_attribute": io.reads_per_attribute,
        "files_opened": io.files_opened,
        "open_files": io.open_files,
        "peak_open_files": io.peak_open_files,
    }


class TestSec7HelpersAgainstPerValueOracle:
    """Prefix detection and the finder read what value-at-a-time loops read.

    Over seeded random databases and one with prefixed values, at block
    sizes that put block boundaries everywhere: the same prefixes and hits,
    and the same values charged per attribute to the given :class:`IOStats`.
    """

    @pytest.mark.parametrize("block_size", [1, 3, 1024])
    @pytest.mark.parametrize("max_scan", [None, 1, 4, 25])
    @pytest.mark.parametrize("source", sorted(DATABASES))
    def test_detect_common_prefix(self, tmp_path, source, max_scan, block_size):
        db = DATABASES[source]()
        spool, _ = export_database(
            db, str(tmp_path / "s"), block_size=block_size
        )
        for attribute in spool.attributes():
            got_io, want_io = IOStats(), IOStats()
            cursor = spool.open_cursor(attribute, got_io)
            got = detect_common_prefix(cursor, max_scan)
            cursor.close()
            cursor = spool.open_cursor(attribute, want_io)
            want = oracle_prefix(cursor, max_scan)
            cursor.close()
            assert got == want, attribute
            assert consumed(got_io) == consumed(want_io), attribute

    @pytest.mark.parametrize("block_size", [1, 3, 1024])
    @pytest.mark.parametrize("scan_limit", [2, 1000])
    @pytest.mark.parametrize("source", sorted(DATABASES))
    def test_find_all(self, tmp_path, source, scan_limit, block_size):
        db = DATABASES[source]()
        spool, _ = export_database(
            db, str(tmp_path / "s"), block_size=block_size
        )
        candidates = [
            Candidate(dep, ref)
            for dep, ref in permutations(spool.attributes(), 2)
        ]
        want_io = IOStats()
        want = oracle_find_all(spool, candidates, want_io, scan_limit)
        got_io = IOStats()
        hits = PrefixedINDFinder(spool, scan_limit).find_all(candidates, got_io)
        assert [(h.candidate, h.prefix, h.stripped_side) for h in hits] == want
        assert consumed(got_io) == consumed(want_io)
        # The prefix scans are charged too: one open per attribute at least.
        assert got_io.files_opened >= len(spool.attributes())
        assert got_io.items_read > 0
        if source == "prefixed":
            assert hits
