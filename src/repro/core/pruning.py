"""Candidate pruning beyond the metadata pretests.

Two techniques the paper points to (Sec. 4.1 / Sec. 6) without implementing:

* **Transitivity pruning** (Bell & Brockhausen [2]): already-decided INDs
  imply decisions about untested candidates.  ``A ⊆ B`` and ``B ⊆ C`` imply
  ``A ⊆ C`` (satisfied without testing); conversely, if ``X ⊆ Y`` is refuted
  and the satisfied closure contains ``X ⊆* D`` and ``R ⊆* Y``, then ``D ⊆ R``
  must be refuted (it would complete the chain ``X ⊆ D ⊆ R ⊆ Y``).
  :class:`TransitivityPruner` applies both rules online while a sequential
  validator works through the candidate list.

* **Sampling pretest** (Sec. 4.1 "Another idea is to pretest the IND
  candidates using random samples of the dependent data", left as further
  work): draw a fixed-size random sample of each dependent value set once,
  decode each referenced value set once, and test the sample by set
  containment.  A missing sample value refutes the candidate outright; a
  surviving candidate still needs the full test.
"""

from __future__ import annotations

import random

from repro.core.candidates import Candidate
from repro.db.schema import AttributeRef
from repro.storage.cursors import IOStats
from repro.storage.sorted_sets import SpoolDirectory


class TransitivityPruner:
    """Online inference over already-decided candidates.

    ``infer`` returns ``True`` / ``False`` when the candidate's outcome
    follows from recorded decisions, ``None`` when it must be tested.
    ``record`` feeds each fresh decision back in.
    """

    def __init__(self) -> None:
        # reach[a] = attributes reachable from a via satisfied INDs (a itself
        # excluded); ancestors[a] = attributes that reach a.
        self._reach: dict[AttributeRef, set[AttributeRef]] = {}
        self._ancestors: dict[AttributeRef, set[AttributeRef]] = {}
        # unsat_from[x] = {y : x ⊆ y was refuted}
        self._unsat_from: dict[AttributeRef, set[AttributeRef]] = {}
        self.inferred_satisfied = 0
        self.inferred_refuted = 0

    # -------------------------------------------------------------- queries
    def infer(self, candidate: Candidate) -> bool | None:
        dep, ref = candidate.dependent, candidate.referenced
        if ref in self._reach.get(dep, ()):
            self.inferred_satisfied += 1
            return True
        if self._refutes(dep, ref):
            self.inferred_refuted += 1
            return False
        return None

    def _refutes(self, dep: AttributeRef, ref: AttributeRef) -> bool:
        """Does some refuted ``X ⊆ Y`` contradict ``dep ⊆ ref``?

        Needs ``X ⊆* dep`` and ``ref ⊆* Y`` in the satisfied closure
        (both reflexively): then ``dep ⊆ ref`` would imply ``X ⊆ Y``.
        """
        sources = self._ancestors.get(dep, set()) | {dep}
        targets = self._reach.get(ref, set()) | {ref}
        for source in sources:
            refuted = self._unsat_from.get(source)
            if refuted and not refuted.isdisjoint(targets):
                return True
        return False

    # ------------------------------------------------------------ recording
    def record(self, candidate: Candidate, satisfied: bool) -> None:
        dep, ref = candidate.dependent, candidate.referenced
        if satisfied:
            self._add_satisfied(dep, ref)
        else:
            self._unsat_from.setdefault(dep, set()).add(ref)

    def _add_satisfied(self, dep: AttributeRef, ref: AttributeRef) -> None:
        """Incremental transitive closure update for a new edge dep → ref."""
        reach = self._reach
        ancestors = self._ancestors
        new_targets = reach.get(ref, set()) | {ref}
        new_sources = ancestors.get(dep, set()) | {dep}
        for source in new_sources:
            grown = new_targets - reach.setdefault(source, set()) - {source}
            reach[source] |= grown
            for target in grown:
                ancestors.setdefault(target, set()).add(source)
        for target in new_targets:
            ancestors.setdefault(target, set()).update(
                new_sources - {target}
            )


class SamplingPretest:
    """Refute candidates cheaply from a random sample of dependent values.

    Both sides are read at most once per instance: the sorted reservoir
    sample of each dependent attribute, and the full value set of each
    referenced attribute.  Many candidates share few referenced attributes,
    so a verdict is one ``issuperset`` call rather than a file scan; it is
    the same verdict as the Algorithm-1 merge of the sample against the
    referenced file, because both sides are sets of distinct values.

    A reservoir is a pure function of the seed, the sample size, the
    attribute's name and its value file.  ``samples`` seeds the instance
    with reservoirs an earlier instance drew with the same seed and size
    from files with the same values, and those attributes' files are
    never scanned; :attr:`samples` hands every reservoir on.
    """

    def __init__(
        self,
        spool: SpoolDirectory,
        sample_size: int = 10,
        seed: int = 0,
        samples: dict[AttributeRef, list[str]] | None = None,
    ) -> None:
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        self._spool = spool
        self._sample_size = sample_size
        self._seed = seed
        self._samples: dict[AttributeRef, list[str]] = dict(samples or {})
        self._referenced: dict[AttributeRef, set[str]] = {}
        self.refuted = 0
        self.passed = 0

    def sample(self, ref: AttributeRef) -> list[str]:
        """Sorted reservoir sample of the attribute's value file (cached)."""
        if ref not in self._samples:
            rng = random.Random(f"{self._seed}-{ref.qualified}")
            cursor = self._spool.open_cursor(ref)
            try:
                reservoir: list[str] = []
                seen = 0
                while True:
                    # The reservoir scan consumes the whole file, so the
                    # batched read path is safe and an order of magnitude
                    # cheaper than per-value cursor calls.
                    batch = cursor.read_batch(1024)
                    if not batch:
                        break
                    for value in batch:
                        seen += 1
                        if len(reservoir) < self._sample_size:
                            reservoir.append(value)
                        else:
                            slot = rng.randrange(seen)
                            if slot < self._sample_size:
                                reservoir[slot] = value
            finally:
                cursor.close()
            self._samples[ref] = sorted(reservoir)
        return self._samples[ref]

    @property
    def samples(self) -> dict[AttributeRef, list[str]]:
        """Every reservoir this instance holds, seeded or drawn."""
        return self._samples

    def _referenced_values(
        self, ref: AttributeRef, io: IOStats | None = None
    ) -> set[str]:
        """The attribute's whole value set, decoded once (cached).

        ``io`` is charged for the one load — a file open and every value
        read; later calls for the same attribute are free.
        """
        values = self._referenced.get(ref)
        if values is None:
            values = set()
            cursor = self._spool.open_cursor(ref, io)
            try:
                while batch := cursor.read_batch(4096):
                    values.update(batch)
            finally:
                cursor.close()
            self._referenced[ref] = values
        return values

    def pretest(self, candidate: Candidate, io: IOStats | None = None) -> bool:
        """False = refuted by the sample; True = candidate survives."""
        sample = self.sample(candidate.dependent)
        if not sample:
            self.passed += 1
            return True
        ok = self._referenced_values(candidate.referenced, io).issuperset(sample)
        if ok:
            self.passed += 1
        else:
            self.refuted += 1
        return ok
