"""Heap-based single-pass validation — the paper's "current work" direction.

Sec. 7 closes with "in our current work we concentrate on improving the
performance of the single-pass algorithm"; the synchronisation overhead of the
subject–observer design is what made it lose to brute force in Tab. 2 despite
its better I/O profile (Fig. 5).  This module implements the natural
reformulation (which the authors later published as SPIDER): a k-way merge
over all attribute cursors driven by a min-heap.

Each attribute contributes one cursor.  The loop repeatedly pops the globally
smallest value ``v`` and the set ``S`` of attributes whose cursors currently
hold ``v``.  For every dependent attribute ``a ∈ S`` the surviving reference
set shrinks to ``refs(a) ∩ S`` — any reference not positioned at ``v`` cannot
contain it.  A dependent whose cursor exhausts with a non-empty reference set
has every one of its values matched: those candidates are satisfied.

The semantics and decisions are *identical* to the observer implementation
(property tests assert agreement); only the synchronisation differs — there
is none.  Attributes whose candidates are all decided close their cursors
early, matching the observer protocol's I/O behaviour.

The kernel does the same per-group work without per-value interpreter
overhead:

* **Bucket queue.**  The heap holds each distinct head value once; a dict
  maps it to the ids of the attributes positioned there.  A group's members
  are sorted by id, so decisions are recorded in the order a heap of
  ``(value, id)`` entries gives.
* **Inlined reader.**  Each attribute keeps a buffer and an index.
  Consumption is committed to the cursor exactly where
  :class:`~repro.storage.cursors.BatchReader` commits it — ``advance`` plus
  ``peek_batch`` when a buffer runs dry, a flush before a skip-scan and on
  close — so ``items_read``, ``bytes_read`` and ``bytes_stored`` equal the
  per-value loop's.
* **No-op singleton runs.**  A one-member group whose attribute has no live
  references decides nothing, and neither do its following values below the
  next head: they are consumed with one ``bisect_left`` per buffer.
* **Same-membership runs.**  When every member of a group continues and all
  fetch the same value below every other head, the next group has the same
  members and decides nothing (every live reference is a member).  Such
  groups are skipped while the members' buffered slices are equal, stay
  below the next head and end inside every buffer; ``comparisons`` grows by
  the skipped groups × the members' live references.

No-op runs skip most groups on OpenMMS, where many key columns are only
referenced; same-membership runs skip most groups on BioSQL and SCOP, where
a foreign key and its key hold the same long stretches of values.

``tests/core/test_merge_kernel_oracle.py`` checks decisions, their order and
every counter against the per-value heap loop this kernel replaced.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from itertools import compress, count
from operator import ne

from repro._util import Stopwatch
from repro.core.candidates import Candidate, decode_pairs, encode_candidates
from repro.core.stats import PairCollector, PairValidation, ValidationResult
from repro.db.schema import AttributeRef
from repro.errors import SpoolError, ValidatorError
from repro.storage.cursors import DEFAULT_BATCH_SIZE, IOStats
from repro.storage.sorted_sets import SpoolDirectory


class MergeSinglePassValidator:
    """All candidates in one synchronisation-free pass over every file.

    ``skip_scan=True`` enables the merge-side frontier skip: a *purely
    referenced* attribute (one that is no candidate's dependent side) only
    matters where some dependent still holding it could match, and every such
    dependent's future values are at or above its current head value.  Before
    refilling a purely referenced cursor, the validator therefore seeks it
    past whole on-disk blocks whose recorded ``max`` is below the minimum
    current value of its live dependents (the *frontier*).  Decisions,
    ``satisfied`` and ``comparisons`` are unchanged — skipped values could
    only ever have formed matchless singleton groups — but ``items_read``
    legitimately drops (skipped values are tallied as ``blocks_skipped`` /
    ``values_skipped`` instead), which is why the flag defaults off.
    """

    name = "merge-single-pass"

    def __init__(
        self,
        spool: SpoolDirectory,
        skip_scan: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if batch_size < 1:
            raise SpoolError(f"batch_size must be >= 1, got {batch_size!r}")
        self._spool = spool
        self._skip_scan = bool(skip_scan)
        self._batch_size = batch_size

    def validate(self, candidates: list[Candidate]) -> ValidationResult:
        """Validate ``candidates``: :meth:`validate_pairs` over their own
        attribute numbering."""
        return self.validate_pairs(*encode_candidates(candidates)).result()

    def validate_pairs(
        self, refs: list[AttributeRef], pairs: list[int]
    ) -> PairValidation:
        """Validate packed ``pairs`` over the sorted numbering ``refs``.

        The kernel's entry: pairs as
        :class:`~repro.core.candidates.AttributeIds` packs them, so the
        runner hands its survivors over without building a
        :class:`Candidate` per pair.
        """
        collector = PairCollector(refs, pairs, self.name)
        io = IOStats()
        with Stopwatch() as clock:
            self._run(collector, io)
        collector.stats.elapsed_seconds = clock.elapsed
        collector.stats.absorb_io(io)
        return collector.result()

    def _run(self, collector: PairCollector, io: IOStats) -> None:
        # The pass renumbers the attributes it touches densely, keeping the
        # numbering's order, which is sorted attribute order.
        refs = collector.refs
        n = len(refs)
        involved = {pair // n for pair in collector.pairs}
        involved.update(pair % n for pair in collector.pairs)
        order = sorted(involved)
        index = {attr: aid for aid, attr in enumerate(order)}
        # live[dep] = ids of dep's surviving referenced attributes;
        # holders[rid] = the dependents whose live set holds rid (its
        # reverse).  An attribute is needed while either is non-empty.
        live: list[set[int]] = [set() for _ in order]
        holders: list[set[int]] = [set() for _ in order]
        pairs: list[dict[int, int]] = [{} for _ in order]
        for pair in collector.pairs:
            dep = index[pair // n]
            rid = index[pair % n]
            if dep == rid:
                raise ValidatorError(
                    f"trivial candidate {decode_pairs(refs, [pair])[0]} "
                    "must not reach the validator"
                )
            live[dep].add(rid)
            holders[rid].add(dep)
            pairs[dep][rid] = pair
        cursors = [self._spool.open_cursor(refs[attr], io) for attr in order]
        batch_size = self._batch_size
        bufs: list[list[str]] = [[] for _ in order]
        idxs = [0] * len(order)  # values of bufs[aid] handed out so far
        closed = [False] * len(order)
        record = collector.record
        # The bucket queue: each distinct head value once in the heap, and
        # the attributes positioned at it.  current[] holds every
        # attribute's head — a dependent's future values are always >= it,
        # which is what makes the frontier a sound skip bound.
        heap: list[str] = []
        at: dict[str, list[int]] = {}
        current = [""] * len(order)

        def refill(aid: int) -> list[str]:
            if idxs[aid]:
                cursors[aid].advance(idxs[aid])
                idxs[aid] = 0
            buf = bufs[aid] = cursors[aid].peek_batch(batch_size)
            return buf

        def flush(aid: int) -> None:
            if idxs[aid]:
                cursors[aid].advance(idxs[aid])
                bufs[aid] = bufs[aid][idxs[aid] :]
                idxs[aid] = 0

        def close(aid: int) -> None:
            if not closed[aid]:
                closed[aid] = True
                flush(aid)
                cursors[aid].close()

        def release(rid: int) -> None:
            if not holders[rid] and not live[rid]:
                close(rid)

        def exhaust(aid: int) -> None:
            """A dependent ran out of values: its surviving candidates hold."""
            row = pairs[aid]
            for rid in sorted(live[aid]):
                record(row[rid], True)
                holders[rid].discard(aid)
                release(rid)
            live[aid].clear()
            release(aid)

        # Decide empty-dependent candidates up front (vacuously satisfied),
        # exactly as the observer implementation does.
        for aid in range(len(order)):
            if live[aid] and not refill(aid):
                for rid in sorted(live[aid]):
                    record(pairs[aid][rid], True, vacuous=True)
                    holders[rid].discard(aid)
                live[aid].clear()
        for aid in range(len(order)):
            release(aid)

        # Seed the queue with each needed attribute's first value.
        for aid in range(len(order)):
            if closed[aid]:
                continue
            # As BatchReader.has_more: an untouched buffer holds the first
            # batch already; only an empty one is refilled.
            buf = bufs[aid] or refill(aid)
            if buf:
                idxs[aid] = 1
                current[aid] = buf[0]
                at.setdefault(buf[0], []).append(aid)
                continue
            # Empty attribute that is only referenced: every candidate into
            # it is refuted.
            for dep in sorted(holders[aid]):
                live[dep].discard(aid)
                record(pairs[dep][aid], False)
                holders[aid].discard(dep)
                release(dep)
            close(aid)
        heap.extend(at)
        heapify(heap)

        skip = self._skip_scan

        def skip_below_frontier(aid: int, value: str) -> None:
            # Purely referenced here: seek past whole blocks no live
            # dependent can reach any more.  Conservative by design — a
            # dependent in this very group may still show its old (= this
            # group's) value, which only lowers the frontier.
            frontier = min(current[dep] for dep in holders[aid])
            if frontier > value:
                flush(aid)
                cursors[aid].skip_blocks_below(frontier)

        def noop_run(aid: int, value: str) -> bool:
            """Consume a purely referenced attribute's values below the next head.

            Each such value would form a one-member group that decides
            nothing.  No other attribute moves during the run, so the
            frontier is fixed: the skip-scan before the first value is the
            only one that can seek, and the per-value loop's later skips
            find nothing left to skip.  Returns whether the attribute holds
            a new head; ``False`` once it ran out of values.
            """
            if skip:
                skip_below_frontier(aid, value)
            bound = heap[0] if heap else None
            buf = bufs[aid]
            i = idxs[aid]
            while True:
                if i == len(buf):
                    buf = refill(aid)
                    if not buf:
                        exhaust(aid)
                        return False
                    i = 0
                i = len(buf) if bound is None else bisect_left(buf, bound, i)
                if i < len(buf):
                    break
                idxs[aid] = i
            idxs[aid] = i + 1
            current[aid] = buf[i]
            return True

        def same_run(group: list[int]) -> int:
            """Skip the decision-free groups a same-membership run would form.

            Every member continued and sits at its new head.  If all heads
            are one value below every other head, that value's group is this
            group again, and so is each following value the members' buffers
            share.  Advances the members past those groups — stopping inside
            every buffer, with the last shared value as the new head — and
            returns the comparisons the skipped groups make.
            """
            head = current[group[0]]
            if heap and not head < heap[0]:
                return 0
            for member in group:
                if current[member] != head:
                    return 0
            lead_buf = bufs[group[0]]
            start = idxs[group[0]]
            room = min(len(bufs[member]) - idxs[member] for member in group)
            if heap and room:
                # Values skipped past stay below the next head; the new head
                # may reach it.
                below = bisect_left(lead_buf, heap[0], start, start + room)
                room = min(room, below - start + 1)
            lead = lead_buf[start : start + room]
            run = room
            for member in group[1:]:
                if not run:
                    return 0
                pos = idxs[member]
                run = next(
                    compress(count(), map(ne, lead, bufs[member][pos : pos + run])),
                    run,
                )
            if not run:
                return 0
            for member in group:
                idxs[member] += run
                current[member] = lead[run - 1]
            return run * sum(len(live[member]) for member in group)

        comparisons = 0
        while heap:
            value = heappop(heap)
            group = at.pop(value)
            if len(group) == 1 and not live[group[0]]:
                if closed[group[0]] or not noop_run(group[0], value):
                    continue
                moved = group
            else:
                group.sort()

                # Intersect every dependent's surviving references with the
                # group.
                present = None
                for member in group:
                    refs = live[member]
                    if not refs:
                        continue
                    comparisons += len(refs)
                    if present is None:
                        present = set(group)
                    if refs <= present:
                        continue
                    row = pairs[member]
                    for rid in sorted(refs - present):
                        refs.discard(rid)
                        holders[rid].discard(member)
                        record(row[rid], False)
                        release(rid)

                # Move every member that is still needed to its next value.
                moved = []
                for member in group:
                    if closed[member] or not (live[member] or holders[member]):
                        close(member)
                        continue
                    if skip and not live[member]:
                        skip_below_frontier(member, value)
                    buf = bufs[member]
                    i = idxs[member]
                    if i == len(buf):
                        buf = refill(member)
                        if not buf:
                            exhaust(member)
                            continue
                        i = 0
                    idxs[member] = i + 1
                    current[member] = buf[i]
                    moved.append(member)

                if len(moved) == len(group) > 1 and (
                    not skip or all(live[member] for member in group)
                ):
                    comparisons += same_run(group)

            # Queue the moved attributes at their new heads.
            for member in moved:
                head = current[member]
                if head in at:
                    at[head].append(member)
                else:
                    at[head] = [member]
                    heappush(heap, head)

        collector.stats.comparisons += comparisons
        if not collector.all_decided:
            raise ValidatorError(
                "merge single-pass finished with undecided candidates: "
                + ", ".join(str(c) for c in collector.undecided[:5])
            )
        for aid in range(len(order)):
            close(aid)
