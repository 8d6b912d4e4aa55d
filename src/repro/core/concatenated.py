"""INDs between concatenated/prefixed values (Sec. 7 future work).

The paper's closing example: one database stores PDB codes as ``144f``,
another as ``PDB-144f`` — set inclusion fails although the link is real.
This module detects such INDs *modulo a constant prefix*:

* :func:`detect_common_prefix` finds the longest constant prefix shared by
  every value of an attribute, provided it ends at a separator character
  (``-``, ``_``, ``:``, ``/``, ``|``, space) — a bare common first letter is
  not evidence of concatenation;
* :class:`PrefixedINDFinder` tests ``strip(dep) ⊆ ref`` and
  ``dep ⊆ strip(ref)`` for candidates that fail as exact INDs.

Stripping a *constant* prefix preserves lexicographic order, so the stripped
stream can be fed straight into the Algorithm-1 merge — no re-sort needed.
(That is exactly why detection insists on a constant prefix.)
"""

from __future__ import annotations

from dataclasses import dataclass
from os.path import commonprefix

from repro.core.brute_force import check_inclusion
from repro.core.candidates import Candidate
from repro.errors import ValidatorError
from repro.storage.cursors import (
    DEFAULT_BATCH_SIZE,
    BatchReader,
    IOStats,
    ValueCursor,
)
from repro.storage.sorted_sets import SpoolDirectory

SEPARATORS = "-_:/| "


@dataclass(frozen=True)
class PrefixedIND:
    """An IND that holds after stripping a constant prefix from one side."""

    candidate: Candidate
    prefix: str
    stripped_side: str  # "dependent" or "referenced"

    def __str__(self) -> str:
        if self.stripped_side == "dependent":
            return (
                f"strip({self.candidate.dependent.qualified}, {self.prefix!r}) "
                f"[= {self.candidate.referenced.qualified}"
            )
        return (
            f"{self.candidate.dependent.qualified} [= "
            f"strip({self.candidate.referenced.qualified}, {self.prefix!r})"
        )


class _StrippingCursor:
    """Wraps a cursor, removing a constant prefix from every value."""

    def __init__(self, inner: ValueCursor, prefix: str) -> None:
        self._inner = inner
        self._prefix = prefix

    def peek_batch(self, max_items: int) -> list[str]:
        """Strip the peeked lookahead, truncating at a non-conforming value.

        Lookahead must never raise for values the caller may not consume:
        the prefix is detected from a bounded scan, so a value past the scan
        horizon can legitimately lack it.  The batch is cut just before the
        first such value; only when it is the *next* value to be consumed
        (batch would be empty while the cursor has values) does the error
        fire.
        """
        raw = self._inner.peek_batch(max_items)
        out: list[str] = []
        prefix = self._prefix
        for value in raw:
            if not value.startswith(prefix):
                if not out:
                    raise ValidatorError(
                        f"value {value!r} lacks the expected prefix {prefix!r}"
                    )
                break
            out.append(value[len(prefix):])
        return out

    def advance(self, count: int) -> None:
        self._inner.advance(count)

    def read_batch(self, max_items: int) -> list[str]:
        batch = self.peek_batch(max_items)
        self.advance(len(batch))
        return batch

    def close(self) -> None:
        self._inner.close()


def detect_common_prefix(
    values: ValueCursor, max_scan: int | None = None
) -> str | None:
    """Longest constant prefix (ending at a separator) shared by all values.

    Scans up to ``max_scan`` values (all when ``None``), reading ahead no
    further than that, and consumes only the values it scanned.  Returns
    ``None`` when no separator-terminated constant prefix exists or the
    set is empty.
    """
    reader = BatchReader(
        values, min(max_scan or DEFAULT_BATCH_SIZE, DEFAULT_BATCH_SIZE)
    )
    prefix: str | None = None
    scanned = 0
    while reader.has_more():
        value = reader.next()
        scanned += 1
        prefix = value if prefix is None else commonprefix((prefix, value))
        if not prefix or (max_scan is not None and scanned >= max_scan):
            break
    reader.flush()
    if not prefix:
        return None
    # Trim back to the last separator so "PDB-1abc" / "PDB-2xyz" yields
    # "PDB-" rather than the meaningless "PDB-…common letters…".
    cut = -1
    for i, ch in enumerate(prefix):
        if ch in SEPARATORS:
            cut = i
    if cut == -1:
        return None
    return prefix[: cut + 1]


class PrefixedINDFinder:
    """Finds prefix-tolerant INDs among otherwise-refuted candidates."""

    name = "prefixed-ind"

    def __init__(self, spool: SpoolDirectory, prefix_scan_limit: int = 1000) -> None:
        self._spool = spool
        self._prefix_scan_limit = prefix_scan_limit
        self._prefix_cache: dict = {}

    def _prefix_of(self, ref, io: IOStats | None = None) -> str | None:
        """``ref``'s constant prefix, detected once; ``io`` is charged for
        the detecting scan, the one time it runs."""
        if ref not in self._prefix_cache:
            cursor = self._spool.open_cursor(ref, io)
            try:
                self._prefix_cache[ref] = detect_common_prefix(
                    cursor, self._prefix_scan_limit
                )
            finally:
                cursor.close()
        return self._prefix_cache[ref]

    def check(self, candidate: Candidate, io: IOStats | None = None) -> PrefixedIND | None:
        """Test both stripping directions; returns the first match or None.

        ``io`` is charged for every value read: the prefix scans and the
        merges."""
        dep_prefix = self._prefix_of(candidate.dependent, io)
        if dep_prefix:
            if self._holds_with_strip(candidate, dep_prefix, "dependent", io):
                return PrefixedIND(candidate, dep_prefix, "dependent")
        ref_prefix = self._prefix_of(candidate.referenced, io)
        if ref_prefix:
            if self._holds_with_strip(candidate, ref_prefix, "referenced", io):
                return PrefixedIND(candidate, ref_prefix, "referenced")
        return None

    def _holds_with_strip(
        self, candidate: Candidate, prefix: str, side: str, io: IOStats | None
    ) -> bool:
        dep_cursor: ValueCursor = self._spool.open_cursor(candidate.dependent, io)
        ref_cursor: ValueCursor = self._spool.open_cursor(candidate.referenced, io)
        if side == "dependent":
            dep_cursor = _StrippingCursor(dep_cursor, prefix)
        else:
            ref_cursor = _StrippingCursor(ref_cursor, prefix)
        try:
            return check_inclusion(dep_cursor, ref_cursor)
        finally:
            dep_cursor.close()
            ref_cursor.close()

    def find_all(
        self, candidates: list[Candidate], io: IOStats | None = None
    ) -> list[PrefixedIND]:
        found: list[PrefixedIND] = []
        for candidate in candidates:
            hit = self.check(candidate, io)
            if hit is not None:
                found.append(hit)
        return found
