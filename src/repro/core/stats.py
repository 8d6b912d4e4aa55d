"""Validator instrumentation: the counters behind Figure 5 and Sec. 4.2.

Also the decision records: :class:`DecisionCollector` for validators that
take :class:`~repro.core.candidates.Candidate` objects, and
:class:`PairCollector` for the merge kernel, which decides packed pairs
(see :class:`~repro.core.candidates.AttributeIds`) and returns a
:class:`PairValidation`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.candidates import Candidate, decode_pairs
from repro.core.ind import IND, INDSet
from repro.db.schema import AttributeRef
from repro.storage.cursors import IOStats


@dataclass
class ValidatorStats:
    """Everything a validation run measured.

    ``items_read`` counts values read from spool files (external approaches);
    ``sql_rows_scanned`` counts base-table rows read by the SQL substrate
    (SQL approaches).  Exactly one of the two is non-zero for any validator,
    and the benchmarks report them side by side.
    """

    validator: str = ""
    candidates_total: int = 0
    candidates_tested: int = 0
    satisfied_count: int = 0
    refuted_count: int = 0
    vacuous_count: int = 0  # candidates decided without data access
    comparisons: int = 0
    items_read: int = 0
    files_opened: int = 0
    peak_open_files: int = 0
    blocks_skipped: int = 0  # skip-scan: frames seeked past without decoding
    values_skipped: int = 0  # skip-scan: values inside those frames
    bytes_read: int = 0  # uncompressed payload bytes decoded from spool files
    bytes_stored: int = 0  # on-disk payload bytes fetched (smaller when zlib)
    sql_rows_scanned: int = 0
    sql_statements: int = 0
    elapsed_seconds: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    def absorb_io(self, io: IOStats) -> None:
        """Fold a cursor-level I/O tally into these validator counters."""
        self.items_read += io.items_read
        self.files_opened += io.files_opened
        self.peak_open_files = max(self.peak_open_files, io.peak_open_files)
        self.blocks_skipped += io.blocks_skipped
        self.values_skipped += io.values_skipped
        self.bytes_read += io.bytes_read
        self.bytes_stored += io.bytes_stored

    def count_decision(self, satisfied: bool, vacuous: bool) -> None:
        """Count one first-time decision."""
        if satisfied:
            self.satisfied_count += 1
        else:
            self.refuted_count += 1
        if vacuous:
            self.vacuous_count += 1
        else:
            self.candidates_tested += 1


@dataclass
class ValidationResult:
    """Outcome of validating a list of candidates."""

    satisfied: INDSet
    decisions: dict[Candidate, bool]
    stats: ValidatorStats
    #: Candidates decided without touching their data (empty dependent side).
    #: Parallel shard merging needs this per candidate, not just the count.
    vacuous: set[Candidate] = field(default_factory=set)
    #: Per-job :class:`repro.parallel.pool.PoolStats` snapshot (as a plain
    #: dict) when a worker pool ran this validation; ``None`` for
    #: sequential and SQL validators.
    pool: dict[str, object] | None = None
    #: Worker-stamped per-task span dicts (:func:`repro.obs.trace.stamp`)
    #: when a worker pool ran this validation; the runner adopts them under
    #: its validate phase span when tracing is on.  ``None`` otherwise.
    task_spans: list[dict] | None = None

    @property
    def satisfied_inds(self) -> list[IND]:
        """The satisfied INDs as a plain list."""
        return list(self.satisfied)

    def is_satisfied(self, candidate: Candidate) -> bool:
        """Whether ``candidate`` was decided satisfied (False if undecided)."""
        return self.decisions.get(candidate, False)


class DecisionCollector:
    """Shared bookkeeping for validators: records decisions exactly once."""

    def __init__(self, candidates: list[Candidate], validator_name: str) -> None:
        self.candidates = list(dict.fromkeys(candidates))  # de-dupe, keep order
        self.decisions: dict[Candidate, bool] = {}
        self.satisfied = INDSet()
        self.vacuous: set[Candidate] = set()
        self.stats = ValidatorStats(
            validator=validator_name, candidates_total=len(self.candidates)
        )

    def record(self, candidate: Candidate, satisfied: bool, vacuous: bool = False) -> None:
        """Record one decision (first write wins; duplicates are ignored)."""
        if candidate in self.decisions:
            return
        self.decisions[candidate] = satisfied
        if satisfied:
            self.satisfied.add(candidate.as_ind())
        if vacuous:
            self.vacuous.add(candidate)
        self.stats.count_decision(satisfied, vacuous)

    @property
    def all_decided(self) -> bool:
        """Whether every candidate is recorded — O(1), by count.

        Exact because validators only record candidates they were handed;
        list :attr:`undecided` only when this is false.
        """
        return len(self.decisions) == len(self.candidates)

    @property
    def undecided(self) -> list[Candidate]:
        """Candidates not yet recorded, in their original order."""
        return [c for c in self.candidates if c not in self.decisions]

    def result(self) -> ValidationResult:
        """Package the recorded decisions and counters as the final result."""
        return ValidationResult(
            satisfied=self.satisfied,
            decisions=self.decisions,
            stats=self.stats,
            vacuous=self.vacuous,
        )


@dataclass
class PairValidation:
    """A :class:`ValidationResult` over packed pairs.

    What the merge validator's pair entry returns.  The fields mean what
    :class:`ValidationResult`'s do, but ``decisions`` (in record order) and
    ``vacuous`` hold pairs over the numbering ``refs``, so a caller that
    reads only ``satisfied`` and the counters never builds a
    :class:`Candidate`.  :meth:`result` builds the Candidate-keyed result.
    """

    refs: Sequence[AttributeRef]
    satisfied: INDSet
    decisions: dict[int, bool]
    stats: ValidatorStats
    vacuous: set[int] = field(default_factory=set)
    _result: ValidationResult | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def result(self) -> ValidationResult:
        """The same result keyed by :class:`Candidate` (built once)."""
        if self._result is None:
            candidates = decode_pairs(self.refs, self.decisions)
            self._result = ValidationResult(
                satisfied=self.satisfied,
                decisions=dict(zip(candidates, self.decisions.values())),
                stats=self.stats,
                vacuous=set(decode_pairs(self.refs, self.vacuous)),
            )
        return self._result


class PairCollector:
    """:class:`DecisionCollector` over packed pairs: the merge kernel's record.

    ``refs`` is the numbering the pairs pack (see
    :class:`~repro.core.candidates.AttributeIds`).  Decisions are kept as
    pairs; :meth:`result` builds :class:`IND` objects for the satisfied
    ones only.
    """

    def __init__(
        self, refs: Sequence[AttributeRef], pairs: Sequence[int], validator_name: str
    ) -> None:
        self.refs = refs
        self.pairs = list(dict.fromkeys(pairs))  # de-dupe, keep order
        self.decisions: dict[int, bool] = {}
        self.vacuous: set[int] = set()
        self.stats = ValidatorStats(
            validator=validator_name, candidates_total=len(self.pairs)
        )
        self._satisfied: list[int] = []

    def record(self, pair: int, satisfied: bool, vacuous: bool = False) -> None:
        """Record one decision (first write wins; duplicates are ignored)."""
        if pair in self.decisions:
            return
        self.decisions[pair] = satisfied
        if satisfied:
            self._satisfied.append(pair)
        if vacuous:
            self.vacuous.add(pair)
        self.stats.count_decision(satisfied, vacuous)

    @property
    def all_decided(self) -> bool:
        """Whether every pair is recorded — O(1), by count."""
        return len(self.decisions) == len(self.pairs)

    @property
    def undecided(self) -> list[Candidate]:
        """Candidates not yet recorded, in their original order."""
        return decode_pairs(
            self.refs, [p for p in self.pairs if p not in self.decisions]
        )

    def result(self) -> PairValidation:
        """Package the recorded decisions and counters as the final result."""
        refs = self.refs
        n = len(refs)
        return PairValidation(
            refs=refs,
            satisfied=INDSet(
                IND(refs[pair // n], refs[pair % n]) for pair in self._satisfied
            ),
            decisions=self.decisions,
            stats=self.stats,
            vacuous=self.vacuous,
        )
