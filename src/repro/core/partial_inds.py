"""Partial inclusion dependencies on dirty data (Sec. 7 future work).

A partial IND quantifies *how much* of the dependent value set is contained
in the referenced attribute: ``strength = |s(dep) ∩ s(ref)| / |s(dep)|``.
Real-world dumps are dirty — a broken import, a few orphaned rows — and a
strict IND check throws the whole relationship away over one bad value.  The
calculator performs the same sorted-merge as Algorithm 1 but *without* the
early stop, counting matches instead of failing on the first miss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import Stopwatch
from repro.core.candidates import Candidate
from repro.core.stats import ValidatorStats
from repro.errors import ValidatorError
from repro.storage.cursors import (
    DEFAULT_BATCH_SIZE,
    BatchReader,
    IOStats,
    ValueCursor,
)
from repro.storage.sorted_sets import SpoolDirectory


@dataclass(frozen=True)
class PartialIND:
    """A candidate with its measured containment strength."""

    candidate: Candidate
    dependent_count: int
    contained_count: int

    @property
    def strength(self) -> float:
        """Fraction of dependent values found in the referenced attribute.

        An empty dependent set is vacuously fully contained.
        """
        if self.dependent_count == 0:
            return 1.0
        return self.contained_count / self.dependent_count

    @property
    def is_exact(self) -> bool:
        return self.contained_count == self.dependent_count

    def __str__(self) -> str:
        return (
            f"{self.candidate.dependent.qualified} [={self.strength:.3f} "
            f"{self.candidate.referenced.qualified}"
        )


def count_containment(
    dep_cursor: ValueCursor,
    ref_cursor: ValueCursor,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> tuple[int, int]:
    """Merge two sorted distinct streams; returns (dep values, matched values).

    Every dependent value is read; referenced values are read only up to
    the last dependent one.  Both sides refill ``batch_size`` values at a
    time, so at the spool's block size only blocks holding read values are
    decoded.
    """
    dep_count = 0
    matched = 0
    refs = BatchReader(ref_cursor, batch_size)
    ref_value = refs.next() if refs.has_more() else None
    while batch := dep_cursor.read_batch(batch_size):
        dep_count += len(batch)
        for dep_value in batch:
            while ref_value is not None and ref_value < dep_value:
                ref_value = refs.next() if refs.has_more() else None
            if ref_value == dep_value:
                matched += 1
    refs.flush()
    return dep_count, matched


class PartialINDCalculator:
    """Computes containment strengths for candidates over a spool directory."""

    name = "partial-ind"

    def __init__(self, spool: SpoolDirectory) -> None:
        self._spool = spool

    def measure(self, candidate: Candidate, io: IOStats | None = None) -> PartialIND:
        if candidate.dependent == candidate.referenced:
            raise ValidatorError(
                f"trivial candidate {candidate} must not reach the calculator"
            )
        dep_cursor = self._spool.open_cursor(candidate.dependent, io)
        ref_cursor = self._spool.open_cursor(candidate.referenced, io)
        try:
            dep_count, matched = count_containment(
                dep_cursor, ref_cursor, self._spool.block_size
            )
        finally:
            dep_cursor.close()
            ref_cursor.close()
        return PartialIND(candidate, dep_count, matched)

    def measure_all(
        self, candidates: list[Candidate], threshold: float = 0.0
    ) -> tuple[list[PartialIND], ValidatorStats]:
        """Measure every candidate; keep those with strength >= threshold."""
        if not 0.0 <= threshold <= 1.0:
            raise ValidatorError(
                f"threshold must be within [0, 1], got {threshold}"
            )
        io = IOStats()
        stats = ValidatorStats(
            validator=self.name, candidates_total=len(candidates)
        )
        kept: list[PartialIND] = []
        with Stopwatch() as clock:
            for candidate in candidates:
                partial = self.measure(candidate, io)
                stats.candidates_tested += 1
                if partial.strength >= threshold:
                    kept.append(partial)
                    stats.satisfied_count += 1
                else:
                    stats.refuted_count += 1
        stats.elapsed_seconds = clock.elapsed
        stats.absorb_io(io)
        return kept, stats
