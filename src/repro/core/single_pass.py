"""The single-pass validator (Sec. 3.2, Algorithms 2 and 3).

All value files are opened at once and **all IND candidates are tested in
parallel** while each file is read at most once.  The implementation follows
the paper's subject–observer design faithfully:

* every attribute is a self-acting object — *referenced objects* own a cursor
  and a list of attached *dependent objects*; dependent objects own a cursor
  and drive the protocol;
* a referenced object delivers its next value only once **every** attached
  dependent object has requested a move (``wantNextValue``);
* each dependent object keeps the three lists of Algorithm 3 —
  ``currentWaiting`` (referenced objects whose next value must be compared
  with the *current* dependent value), ``nextWaiting`` (requested for the
  *next* dependent value, not yet delivered) and ``next`` (delivered early,
  parked until the dependent value advances);
* a monitor serialises deliveries through a FIFO queue.

Theorem 3.1 (deadlock freedom) guarantees the monitor queue only drains once
every candidate is decided; the validator still verifies this and raises
:class:`~repro.errors.ValidatorError` if the protocol ever stalled, so a
regression would be loud rather than silently wrong.

The paper measures this implementation as *slower* in wall-clock time than
brute force (Tab. 2) despite reading far fewer items (Fig. 5) — it attributes
that to the synchronisation overhead of the object-oriented design.  Both
effects reproduce here, and the heap-based reformulation in
:mod:`repro.core.merge_single_pass` removes the overhead.
"""

from __future__ import annotations

from collections import deque

from repro._util import Stopwatch
from repro.core.candidates import Candidate
from repro.core.stats import DecisionCollector, ValidationResult
from repro.db.schema import AttributeRef
from repro.errors import ValidatorError
from repro.storage.cursors import BatchReader, IOStats
from repro.storage.sorted_sets import SpoolDirectory


class _Monitor:
    """FIFO queue serialising referenced-object deliveries."""

    def __init__(self) -> None:
        self._queue: deque[_ReferencedObject] = deque()

    def enqueue(self, ref_obj: "_ReferencedObject") -> None:
        if not ref_obj.in_queue:
            ref_obj.in_queue = True
            self._queue.append(ref_obj)

    def run(self) -> None:
        while self._queue:
            ref_obj = self._queue.popleft()
            ref_obj.in_queue = False
            ref_obj.deliver()


class _ReferencedObject:
    """A referenced attribute: delivers values when all observers asked."""

    def __init__(
        self, ref: AttributeRef, spool: SpoolDirectory, io: IOStats, monitor: _Monitor
    ) -> None:
        self.ref = ref
        self._reader = BatchReader(spool.open_cursor(ref, io))
        self._monitor = monitor
        self.attached: set["_DependentObject"] = set()
        self._pending: set["_DependentObject"] = set()
        self.in_queue = False
        self._closed = False

    def attach(self, dep_obj: "_DependentObject") -> None:
        self.attached.add(dep_obj)

    def want_next_value(self, dep_obj: "_DependentObject") -> bool:
        """Algorithm 2's ``wantNextValue``: request a move; False = exhausted."""
        if self._closed or not self._reader.has_more():
            return False
        self._pending.add(dep_obj)
        self._maybe_ready()
        return True

    def detach(self, dep_obj: "_DependentObject") -> None:
        self.attached.discard(dep_obj)
        self._pending.discard(dep_obj)
        if not self.attached:
            self.close()
        else:
            self._maybe_ready()

    def deliver(self) -> None:
        """Read the next value and push it to every attached dependent."""
        if self._closed or not self._ready():
            return
        value = self._reader.next()
        self._pending.clear()
        # Snapshot: updates may detach receivers from *this* object, but each
        # receiver must still see the value it requested.
        for dep_obj in sorted(self.attached, key=lambda d: d.dep):
            dep_obj.receive(self, value)
        self._maybe_ready()

    def _ready(self) -> bool:
        return bool(self.attached) and self.attached.issubset(self._pending)

    def _maybe_ready(self) -> None:
        if not self._closed and self._ready():
            self._monitor.enqueue(self)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._reader.close()


class _DependentObject:
    """A dependent attribute: drives comparisons against its referenced objects."""

    def __init__(
        self,
        dep: AttributeRef,
        spool: SpoolDirectory,
        io: IOStats,
        collector: DecisionCollector,
    ) -> None:
        self.dep = dep
        self._reader = BatchReader(spool.open_cursor(dep, io))
        self._collector = collector
        self._current_value: str | None = None
        self._current_waiting: set[_ReferencedObject] = set()
        self._next_waiting: set[_ReferencedObject] = set()
        self._next_delivered: dict[_ReferencedObject, str] = {}
        self._finished = False

    # ----------------------------------------------------------- lifecycle
    def start(self, ref_objects: list[_ReferencedObject]) -> None:
        """Issue the initial requests: compare first dep value with each ref."""
        if not self._reader.has_more():
            # Empty dependent set: every candidate is vacuously satisfied.
            for ref_obj in ref_objects:
                ref_obj.detach(self)
                self._collector.record(
                    Candidate(self.dep, ref_obj.ref), True, vacuous=True
                )
            self._finish()
            return
        self._current_value = self._reader.next()
        for ref_obj in ref_objects:
            if ref_obj.want_next_value(self):
                self._current_waiting.add(ref_obj)
            else:
                # Referenced set is empty: candidate refuted outright.
                self._refute(ref_obj)
        # If every reference was empty there is nothing left to wait for.
        self._maybe_advance()

    def _finish(self) -> None:
        if not self._finished:
            self._finished = True
            self._reader.close()

    # ------------------------------------------------------------ protocol
    def receive(self, ref_obj: _ReferencedObject, value: str) -> None:
        """Algorithm 3: a referenced value was delivered to this object."""
        if ref_obj in self._next_waiting:
            # To be compared with the *next* dependent value; park it.
            self._next_waiting.discard(ref_obj)
            self._next_delivered[ref_obj] = value
            return
        self._current_waiting.discard(ref_obj)
        self._process_comparison(ref_obj, value)
        self._maybe_advance()

    def _maybe_advance(self) -> None:
        """Advance the dependent value while no comparison is outstanding."""
        if self._finished or self._current_waiting:
            return
        while not self._current_waiting:
            if not self._next_delivered and not self._next_waiting:
                # Every candidate of this dependent object is decided.
                self._finish()
                return
            # Invariant (from Algorithm 2): entries only reach nextWaiting /
            # next when a next dependent value exists.
            if not self._reader.has_more():
                raise ValidatorError(
                    f"single-pass protocol error: {self.dep} must advance "
                    "but its cursor is exhausted"
                )
            self._current_value = self._reader.next()
            self._current_waiting = self._next_waiting
            self._next_waiting = set()
            delivered = self._next_delivered
            self._next_delivered = {}
            for ref_obj, value in sorted(
                delivered.items(), key=lambda item: item[0].ref
            ):
                self._process_comparison(ref_obj, value)

    def _process_comparison(self, ref_obj: _ReferencedObject, ref_value: str) -> None:
        """Algorithm 2: compare the current dependent value with a delivery."""
        self._collector.stats.comparisons += 1
        dep_value = self._current_value
        assert dep_value is not None
        if dep_value == ref_value:
            if self._reader.has_more():
                if ref_obj.want_next_value(self):
                    self._next_waiting.add(ref_obj)
                else:
                    # Referenced values exhausted but dependent has more.
                    self._refute(ref_obj)
            else:
                # All dependent values were matched: IND satisfied.
                self._satisfy(ref_obj)
        elif dep_value > ref_value:
            if ref_obj.want_next_value(self):
                self._current_waiting.add(ref_obj)
            else:
                # Referenced values exhausted below the current dep value.
                self._refute(ref_obj)
        else:
            # dep_value < ref_value: the current dependent value can no
            # longer occur among the referenced values.
            self._refute(ref_obj)

    def _refute(self, ref_obj: _ReferencedObject) -> None:
        ref_obj.detach(self)
        self._collector.record(Candidate(self.dep, ref_obj.ref), False)

    def _satisfy(self, ref_obj: _ReferencedObject) -> None:
        ref_obj.detach(self)
        self._collector.record(Candidate(self.dep, ref_obj.ref), True)


class SinglePassValidator:
    """Validates all candidates in one pass over every value file."""

    name = "single-pass"

    def __init__(self, spool: SpoolDirectory) -> None:
        self._spool = spool

    def validate(self, candidates: list[Candidate]) -> ValidationResult:
        collector = DecisionCollector(candidates, self.name)
        io = IOStats()
        with Stopwatch() as clock:
            self._run(collector, io)
        collector.stats.elapsed_seconds = clock.elapsed
        collector.stats.absorb_io(io)
        return collector.result()

    def _run(self, collector: DecisionCollector, io: IOStats) -> None:
        monitor = _Monitor()
        ref_objects: dict[AttributeRef, _ReferencedObject] = {}
        dep_objects: dict[AttributeRef, _DependentObject] = {}
        refs_per_dep: dict[AttributeRef, list[_ReferencedObject]] = {}
        for candidate in collector.candidates:
            if candidate.dependent == candidate.referenced:
                raise ValidatorError(
                    f"trivial candidate {candidate} must not reach the validator"
                )
            if candidate.referenced not in ref_objects:
                ref_objects[candidate.referenced] = _ReferencedObject(
                    candidate.referenced, self._spool, io, monitor
                )
            if candidate.dependent not in dep_objects:
                dep_objects[candidate.dependent] = _DependentObject(
                    candidate.dependent, self._spool, io, collector
                )
            refs_per_dep.setdefault(candidate.dependent, []).append(
                ref_objects[candidate.referenced]
            )
        # Phase 1: attach every dependent to every candidate reference before
        # any value can flow — a reference must never deliver to a partial
        # audience.
        for dep, refs in refs_per_dep.items():
            for ref_obj in refs:
                ref_obj.attach(dep_objects[dep])
        # Phase 2: initial requests (first value of each referenced object).
        for dep in sorted(refs_per_dep):
            dep_objects[dep].start(refs_per_dep[dep])
        # Phase 3: let the monitor drain the delivery queue.
        monitor.run()
        if not collector.all_decided:
            raise ValidatorError(
                "single-pass protocol stalled with undecided candidates: "
                + ", ".join(str(c) for c in collector.undecided[:5])
            )
        # All cursors are closed by the protocol itself (refuted/satisfied
        # candidates detach; finished dependents close), but double-check so
        # file handles cannot leak on any code path.
        for ref_obj in ref_objects.values():
            ref_obj.close()
        for dep_obj in dep_objects.values():
            dep_obj._finish()
