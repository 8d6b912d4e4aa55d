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

The kernel makes the heap loop's decisions a window of values at a time
rather than a heap group at a time:

* **Windows.**  Each open attribute holds the batch its cursor's last
  ``peek_batch(batch_size)`` returned.  A window ends at ``W``, the smallest
  last value of any full batch, so every value up to ``W`` is already
  buffered where the heap loop would hold it and nothing is read further
  ahead.  A short batch means end of file and bounds nothing.
* **Containment.**  In a window, a candidate survives when the reference's
  slice holds every value of the dependent's slice.  Otherwise its witness
  is the dependent's first value the reference lacks, and ``comparisons``
  counts the dependent's values up to and including it: one per heap group,
  as the heap loop counts.  A dependent with fewer than :data:`DENSE_REFS`
  live references checks each with ``set.issuperset``; one with more folds
  per-value reference bitmasks over its slice once.  Either runs in C.
* **Order.**  A window's decisions are recorded sorted by value, refutations
  before the group moves, then dependent id and reference id: the heap
  loop's order.  A dependent whose file ends inside the window satisfies
  what survives at its last value, in the move phase.
* **Commits.**  An attribute a decision closes commits exactly the values
  the heap loop had handed out to it: those below the decision's value,
  its head, and one more if it holds the value and moved before the
  deciding dependent.  Only ``W``'s own group is walked member by member,
  in id order, because only there do cursors refill, seek and reach the
  end of a full batch.

``tests/core/test_merge_kernel_oracle.py`` checks decisions, their order and
every ``ValidatorStats`` and ``IOStats`` counter against the per-value heap
loop this kernel replaced.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import (
    accumulate,
    compress,
    count,
    filterfalse,
    islice,
    repeat,
    takewhile,
)
from operator import and_, ne, truth

from repro._util import Stopwatch
from repro.core.candidates import Candidate, decode_pairs, encode_candidates
from repro.core.stats import PairCollector, PairValidation, ValidationResult
from repro.db.schema import AttributeRef
from repro.errors import SpoolError, ValidatorError
from repro.storage.cursors import DEFAULT_BATCH_SIZE, IOStats
from repro.storage.sorted_sets import SpoolDirectory

#: A dependent with at least this many live references decides them by one
#: fold of per-value reference bitmasks over its slice; below it, by one set
#: check per reference.
DENSE_REFS = 16


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
        # bufs[aid] is the batch the last peek_batch returned; idxs[aid]
        # counts its values handed out, committed to the cursor when the
        # batch is replaced and on close.  current[aid] is the last value
        # handed out: the attribute's head.  An open attribute with an
        # empty batch ran out of values and is only referenced.
        bufs: list[list[str]] = [[] for _ in order]
        idxs = [0] * len(order)
        current = [""] * len(order)
        closed = [False] * len(order)
        record = collector.record

        def refill(aid: int) -> list[str]:
            if idxs[aid]:
                cursors[aid].advance(idxs[aid])
                idxs[aid] = 0
            buf = bufs[aid] = cursors[aid].peek_batch(batch_size)
            return buf

        def close(aid: int) -> None:
            if not closed[aid]:
                closed[aid] = True
                if idxs[aid]:
                    cursors[aid].advance(idxs[aid])
                    idxs[aid] = 0
                cursors[aid].close()

        # span[aid] = (first, stop): the slice of bufs[aid] a window covers,
        # from the attribute's head to its last value at or below the bound.
        span: dict[int, tuple[int, int]] = {}

        def release(aid: int, value: str | None = None, mover: int = -1) -> None:
            """Close ``aid`` once nothing needs it any more.

            Inside a window, ``value`` is the decision's value and ``mover``
            the dependent that made it in the move phase (``-1`` for a
            refutation, made before the group moves).  ``aid`` then commits
            what the heap loop had handed out by that time: its values below
            ``value``, its head, and one more if it holds ``value`` and moved
            before ``mover``.
            """
            if holders[aid] or live[aid]:
                return
            if value is not None and aid in span:
                buf = bufs[aid]
                at = bisect_left(buf, value, span[aid][0])
                if aid < mover and at < len(buf) and buf[at] == value:
                    at += 1
                idxs[aid] = min(at + 1, len(buf))
            close(aid)

        def exhaust(aid: int, value: str | None = None) -> None:
            """A dependent ran out of values: its surviving candidates hold.

            Inside a window, ``value`` is its last value (see :func:`release`).
            """
            row = pairs[aid]
            for rid in sorted(live[aid]):
                record(row[rid], True)
                holders[rid].discard(aid)
                release(rid, value, aid)
            live[aid].clear()
            release(aid, value, aid)

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

        # Hand out each needed attribute's first value.
        for aid in range(len(order)):
            if closed[aid]:
                continue
            # As BatchReader.has_more: an untouched buffer holds the first
            # batch already; only an empty one is refilled.
            buf = bufs[aid] or refill(aid)
            if buf:
                idxs[aid] = 1
                current[aid] = buf[0]
                continue
            # Empty attribute that is only referenced: every candidate into
            # it is refuted.
            for dep in sorted(holders[aid]):
                live[dep].discard(aid)
                record(pairs[dep][aid], False)
                holders[aid].discard(dep)
                release(dep)
            close(aid)

        # heads holds (head, aid) for every open attribute with values left;
        # ends holds (last value, aid) for every full batch, stale entries
        # included until they reach the top.
        heads = [(current[aid], aid) for aid in range(len(order)) if not closed[aid]]
        ends = [
            (bufs[aid][-1], aid)
            for aid in range(len(order))
            if not closed[aid] and len(bufs[aid]) == batch_size
        ]
        heapify(heads)
        heapify(ends)
        skip = self._skip_scan
        comparisons = 0

        while heads:
            # The window ends at the smallest last value of a full batch:
            # every value up to it is buffered, and nothing further ahead.
            while ends:
                last, aid = ends[0]
                if not closed[aid] and bufs[aid] and bufs[aid][-1] == last:
                    break
                heappop(ends)
            bound = ends[0][0] if ends else None
            span = {}
            while heads and (bound is None or heads[0][0] <= bound):
                aid = heappop(heads)[1]
                if not closed[aid]:
                    buf = bufs[aid]
                    first = idxs[aid] - 1
                    span[aid] = (
                        first,
                        len(buf) if bound is None else bisect_right(buf, bound, first),
                    )
            if not span:
                break

            events, compared = _decide_window(span, bufs, live, bound, batch_size)
            comparisons += compared

            # Record in the heap loop's order: by value, refutations before
            # the group moves, then by dependent and reference.
            events.sort()
            for value, phase, dep, rid in events:
                if phase:
                    exhaust(dep, value)
                    continue
                live[dep].discard(rid)
                holders[rid].discard(dep)
                record(pairs[dep][rid], False)
                release(rid, value)
                release(dep, value)

            # Move every open attribute to its first value past the window;
            # the bound's own group moves member by member below.
            members = []
            for aid, (first, stop) in span.items():
                if closed[aid]:
                    continue
                buf = bufs[aid]
                if buf[stop - 1] == bound:
                    idxs[aid] = stop
                    current[aid] = bound
                    members.append(aid)
                elif stop < len(buf):
                    idxs[aid] = stop + 1
                    current[aid] = buf[stop]
                    heappush(heads, (buf[stop], aid))
                else:
                    # Its last batch ran out inside the window; the heap
                    # loop's refill finds the end of the file, and the
                    # attribute is only referenced now.
                    idxs[aid] = len(buf)
                    refill(aid)

            # The bound's group moves in id order, as the heap loop moves
            # it: next value, or skip-scan, refill and end of file.
            members.sort()
            for aid in members:
                if closed[aid]:
                    continue
                buf = bufs[aid]
                at = idxs[aid]
                if at == len(buf):
                    # The heap loop also seeks at the moves since the last
                    # refill, but a frontier only rises and the cursor reads
                    # nothing until it refills: this one seek covers them.
                    if skip and not live[aid]:
                        frontier = min(current[dep] for dep in holders[aid])
                        if frontier > bound:
                            cursors[aid].skip_blocks_below(frontier)
                    buf = refill(aid)
                    if not buf:
                        exhaust(aid)
                        continue
                    at = 0
                    if len(buf) == batch_size:
                        heappush(ends, (buf[-1], aid))
                idxs[aid] = at + 1
                current[aid] = buf[at]
                heappush(heads, (buf[at], aid))

        collector.stats.comparisons += comparisons
        if not collector.all_decided:
            raise ValidatorError(
                "merge single-pass finished with undecided candidates: "
                + ", ".join(str(c) for c in collector.undecided[:5])
            )
        for aid in range(len(order)):
            close(aid)


def _decide_window(
    span: dict[int, tuple[int, int]],
    bufs: list[list[str]],
    live: list[set[int]],
    bound: str | None,
    batch_size: int,
) -> tuple[list[tuple[str, int, int, int]], int]:
    """Decide every live pair of one window; returns ``(events, comparisons)``.

    ``span[aid] = (first, stop)`` is the slice of ``bufs[aid]`` the window
    covers: from the attribute's head to its last value at or below
    ``bound`` (all of it when ``bound`` is ``None``).  An event is
    ``(value, 0, dep, rid)`` for a pair refuted at ``value`` and
    ``(value, 1, dep, -1)`` for a dependent whose last batch ends at
    ``value`` below the bound.  Events are not sorted.
    """
    events: list[tuple[str, int, int, int]] = []
    comparisons = 0
    slices: dict[int, set[str] | frozenset[str]] = {}
    # masks[value] has bit bits[rid] set when rid's slice holds value;
    # owners[i] is the reference bit i stands for.
    masks: dict[str, int] = {}
    mask_of = masks.get
    bits: dict[int, int] = {}
    owners: list[int] = []
    for dep, (first, stop) in span.items():
        targets = live[dep]
        if not targets:
            continue
        buf = bufs[dep]
        values = buf[first:stop]
        comparisons += len(targets) * len(values)
        if len(targets) >= DENSE_REFS:
            for rid in targets.difference(bits):
                bit = bits[rid] = 1 << len(owners)
                owners.append(rid)
                if rid in span:
                    lo, hi = span[rid]
                    for value in bufs[rid][lo:hi]:
                        masks[value] = mask_of(value, 0) | bit
            held = sum(map(bits.__getitem__, targets))
            if reduce(and_, map(mask_of, values, repeat(0)), held) != held:
                # steps[i] = the references still live before values[i].
                steps = list(
                    takewhile(
                        truth,
                        accumulate(map(mask_of, values, repeat(0)), and_, initial=held),
                    )
                )
                if len(steps) <= len(values):
                    steps.append(0)
                for at in compress(count(), map(ne, steps, islice(steps, 1, None))):
                    lost = steps[at] & ~steps[at + 1]
                    while lost:
                        bit = lost & -lost
                        lost ^= bit
                        comparisons -= len(values) - at - 1
                        rid = owners[bit.bit_length() - 1]
                        events.append((values[at], 0, dep, rid))
        else:
            for rid in targets:
                window = slices.get(rid)
                if window is None:
                    if rid in span:
                        lo, hi = span[rid]
                        window = slices[rid] = set(bufs[rid][lo:hi])
                    else:
                        window = slices[rid] = frozenset()
                if not window.issuperset(values):
                    witness = next(filterfalse(window.__contains__, values))
                    at = bisect_left(values, witness)
                    comparisons -= len(values) - at - 1
                    events.append((witness, 0, dep, rid))
        if stop == len(buf) < batch_size and (bound is None or buf[-1] < bound):
            events.append((buf[-1], 1, dep, -1))
    return events, comparisons
