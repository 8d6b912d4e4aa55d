"""Shard and chunk planning over the pretested candidate set.

Brute-force validation is embarrassingly parallel per candidate — each test
opens its own cursors and shares nothing — so the only scheduling question is
*balance*: workers should finish together, or the slowest slice sets the wall
clock.  Candidate costs are wildly skewed (a candidate referencing the
largest spooled attribute can cost thousands of times one referencing a tiny
lookup table), so round-robin dealing is not good enough.

The planner estimates each candidate's cost from the spool index — the
distinct-value counts of the attributes the test scans, dominated by the
referenced side, at zero I/O since the index is already in memory — and
offers these plans:

* :meth:`ShardPlanner.plan_chunks` — many small cost-bounded chunks for the
  work-stealing queue of :class:`repro.parallel.pool.WorkerPool`.  The cost
  *estimates* ignore early stops, which can shrink a candidate's real cost
  by up to its full size, so any static plan is wrong in practice; small
  chunks handed out one at a time absorb the misestimates because a
  worker whose chunks turned out cheap simply receives more.

* :meth:`ShardPlanner.plan_pair_groups` — cost-budgeted groups of whole
  candidate-graph *components* for the pool-backed partitioned merge, over
  packed attribute-id pairs (:meth:`ShardPlanner.plan_merge_groups` is its
  :class:`~repro.core.candidates.Candidate` adapter).  Component
  boundaries are the one cut that keeps the parallel merge's decisions
  **and** I/O accounting byte-identical to the sequential pass.

* :meth:`ShardPlanner.plan_pretest_chunks` — chunks of the sampling
  pretest, grouped by dependent attribute so each attribute's reservoir
  sample is drawn once per chunk instead of once per candidate.

* :func:`pack_cost_groups` — the shared heaviest-first budget packer the
  chunk-shaped plans (and the export planner in
  :mod:`repro.parallel.export`) are built on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.candidates import Candidate, encode_candidates
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError
from repro.storage.sorted_sets import SpoolDirectory

#: Work-stealing granularity: aim for this many chunks per worker, so the
#: tail of a job — when some workers are already idle — is at most ~1/4 of
#: one worker's share even if every estimate was maximally wrong.
DEFAULT_CHUNKS_PER_WORKER = 4

#: Upper bound on candidates per chunk regardless of cost: a chunk is also
#: the requeue unit after a worker death, and repeating more than this many
#: candidate tests on a replacement worker is wasted work we refuse to risk.
MAX_CHUNK_CANDIDATES = 32


def pack_cost_groups(
    costed_items: list[tuple[int, object]],
    workers: int,
    max_items: int | None = None,
) -> list[list[object]]:
    """Pack ``(cost, item)`` pairs into cost-budgeted groups, heaviest first.

    The one packing rule every chunk-shaped plan shares — candidate chunks,
    merge groups, pretest chunks, export units are all built on this:
    items are walked in descending cost (ties broken by input position, so
    the output is deterministic), a group closes when it reaches the
    budget — total cost divided by ``workers *
    DEFAULT_CHUNKS_PER_WORKER`` — or, when ``max_items`` is given, the
    per-group item cap; within a group items keep their input order.
    Heavy groups come out first so the work-stealing queue dispatches them
    while cheap work remains to backfill idle workers.  Every item lands
    in exactly one group.
    """
    if workers < 1:
        raise DiscoveryError(f"worker count must be >= 1, got {workers!r}")
    if max_items is not None and max_items < 1:
        raise DiscoveryError(f"chunk size must be >= 1, got {max_items!r}")
    if not costed_items:
        return []
    costed = sorted(
        ((cost, seq, item) for seq, (cost, item) in enumerate(costed_items)),
        key=lambda entry: (-entry[0], entry[1]),
    )
    budget = max(
        1,
        sum(cost for cost, _, _ in costed)
        // (workers * DEFAULT_CHUNKS_PER_WORKER),
    )
    groups: list[list[object]] = []
    bucket: list[tuple[int, object]] = []
    bucket_cost = 0
    for cost, seq, item in costed:
        bucket.append((seq, item))
        bucket_cost += cost
        if bucket_cost >= budget or (
            max_items is not None and len(bucket) >= max_items
        ):
            bucket.sort()
            groups.append([item for _, item in bucket])
            bucket, bucket_cost = [], 0
    if bucket:
        bucket.sort()
        groups.append([item for _, item in bucket])
    return groups


@dataclass(frozen=True)
class Chunk:
    """One work-stealing unit: a small slice any worker may pull and run."""

    index: int
    candidates: tuple[Candidate, ...]
    estimated_cost: int


@dataclass(frozen=True)
class MergeGroup:
    """One merge-partition task: whole candidate-graph components.

    A group is the unit the pool-backed merge validator dispatches: a heap
    merge over ``candidates`` runs in one worker.  Groups are unions of
    *connected components* of the candidate–attribute graph, never parts of
    one, which is what keeps the summed ``items_read`` / ``comparisons`` of
    the parallel merge byte-identical to the sequential pass (see
    :meth:`ShardPlanner.plan_merge_groups`).  ``components`` counts how many
    components the group carries; ``estimated_cost`` sums their attributes'
    spooled value counts.
    """

    index: int
    candidates: tuple[Candidate, ...]
    estimated_cost: int
    components: int


@dataclass(frozen=True)
class PairGroup:
    """A :class:`MergeGroup` over packed pairs (see
    :class:`~repro.core.candidates.AttributeIds`)."""

    index: int
    pairs: tuple[int, ...]
    estimated_cost: int
    components: int


class ShardPlanner:
    """Packs candidates into cost-budgeted chunks and merge groups.

    Costs come from the spool index: exact spooled value counts.
    """

    def __init__(self, spool: SpoolDirectory) -> None:
        self._spool = spool

    def _count(self, attr) -> int:
        """Spooled value count of ``attr``."""
        return self._spool.get(attr).count

    def candidate_cost(self, candidate: Candidate) -> int:
        """Worst-case items a brute-force test of this candidate reads.

        The referenced spool size dominates (the scan walks it looking for
        each dependent value); the dependent side contributes its own full
        size in the satisfied case.  ``+1`` keeps empty attributes from
        producing zero-cost candidates, which would never fill a chunk's
        cost budget.
        """
        dep = self._count(candidate.dependent)
        ref = self._count(candidate.referenced)
        return dep + ref + 1

    def plan_chunks(
        self,
        candidates: list[Candidate],
        workers: int,
        chunk_size: int | None = None,
    ) -> list[Chunk]:
        """Cost-bounded chunks for the work-stealing queue, heaviest first.

        Candidates are walked in descending estimated cost and grouped until
        a chunk reaches the cost budget — the total estimated cost divided by
        ``workers * DEFAULT_CHUNKS_PER_WORKER`` — or the per-chunk candidate
        cap (``chunk_size``, default the smaller of
        :data:`MAX_CHUNK_CANDIDATES` and an even split into
        ``workers * DEFAULT_CHUNKS_PER_WORKER`` chunks).  Heavy chunks come
        out first, so the queue dispatches them while cheap work remains to
        backfill idle workers; within a chunk candidates keep their original
        order, so a one-chunk plan replays the sequential run exactly.

        Every candidate lands in exactly one chunk; the output is
        deterministic for a given spool, candidate list, and parameters.
        """
        if workers < 1:
            raise DiscoveryError(f"worker count must be >= 1, got {workers!r}")
        if chunk_size is not None and chunk_size < 1:
            raise DiscoveryError(f"chunk size must be >= 1, got {chunk_size!r}")
        if not candidates:
            return []
        cap = chunk_size or max(
            1,
            min(
                MAX_CHUNK_CANDIDATES,
                # Ceil division into the target chunk count.
                -(-len(candidates) // (workers * DEFAULT_CHUNKS_PER_WORKER)),
            ),
        )
        costed = [(self.candidate_cost(c), c) for c in candidates]
        packed = pack_cost_groups(
            [(cost, (cost, c)) for cost, c in costed], workers, max_items=cap
        )
        return [
            Chunk(
                index=index,
                candidates=tuple(c for _, c in group),
                estimated_cost=sum(cost for cost, _ in group),
            )
            for index, group in enumerate(packed)
        ]

    def plan_pretest_chunks(
        self, candidates: list[Candidate], workers: int
    ) -> list[Chunk]:
        """Sampling-pretest chunks: grouped by dependent attribute, budgeted.

        A pretest of ``dep ⊆ ref`` draws a reservoir sample of ``dep``'s
        spool file and decodes ``ref``'s file into a set, each once per
        sampler, then tests the sample by set containment.  Keeping every
        candidate of one dependent attribute in the same chunk lets the
        chunk's worker-side sampler reuse the sample across all of them —
        splitting a dependent group would only duplicate the sampling
        scan, never change a decision, because each candidate's pretest is
        a pure function of the spool and the seed.  Groups are costed by
        the dependent's spooled value count (the sample scan) plus the
        count of each *distinct* referenced attribute of its candidates
        (the set loads) and packed with :func:`pack_cost_groups`; within a
        chunk candidates keep their original order.  Every candidate lands
        in exactly one chunk; output is deterministic.
        """
        ordered = list(dict.fromkeys(candidates))
        if not ordered:
            return []
        by_dependent: dict = {}
        for candidate in ordered:
            by_dependent.setdefault(candidate.dependent, []).append(candidate)
        costed_groups = []
        for dependent, members in by_dependent.items():
            cost = self._count(dependent) + 1
            # Members share the dependent, so their referenced attributes
            # are distinct: each is counted (and loaded) once per group.
            cost += sum(self._count(c.referenced) for c in members)
            costed_groups.append((cost, (cost, members)))
        packed = pack_cost_groups(costed_groups, workers)
        position = {candidate: seq for seq, candidate in enumerate(ordered)}
        chunks: list[Chunk] = []
        for group in packed:
            members = sorted(
                (c for _, part in group for c in part), key=position.__getitem__
            )
            chunks.append(
                Chunk(
                    index=len(chunks),
                    candidates=tuple(members),
                    estimated_cost=sum(cost for cost, _ in group),
                )
            )
        return chunks

    def plan_merge_groups(
        self, candidates: list[Candidate], workers: int
    ) -> list[MergeGroup]:
        """Cost-budgeted merge groups made of whole candidate-graph components.

        :meth:`plan_pair_groups` over the candidates' own attribute
        numbering; each group holds the caller's candidate objects.
        """
        refs, pairs = encode_candidates(candidates)
        objects = dict(zip(pairs, candidates))
        return [
            MergeGroup(
                index=group.index,
                candidates=tuple(objects[pair] for pair in group.pairs),
                estimated_cost=group.estimated_cost,
                components=group.components,
            )
            for group in self.plan_pair_groups(refs, pairs, workers)
        ]

    def plan_pair_groups(
        self, refs: list[AttributeRef], pairs: list[int], workers: int
    ) -> list[PairGroup]:
        """Merge groups over packed ``pairs`` of the sorted numbering ``refs``.

        The heap merge reads an attribute until all candidates *touching*
        that attribute are decided, so the set of values it consumes from an
        attribute depends only on the attribute's connected component in the
        candidate graph (candidates are edges between their dependent and
        referenced attributes).  Splitting the candidate set along component
        boundaries therefore preserves the sequential pass **exactly**: each
        group's merge makes the same decisions, reads the same values and
        performs the same comparisons the global pass spends on that
        group's attributes — summed across groups, ``items_read`` and
        ``comparisons`` are byte-identical to one sequential merge.  (A
        split *through* a component would break this: the fragment that
        refutes a candidate cannot tell the other fragment to stop
        reading.)

        Components are costed by their attributes' spooled value counts and
        packed heaviest-first into cost-budgeted groups — the total cost
        divided by ``workers * DEFAULT_CHUNKS_PER_WORKER`` — for the pool's
        work-stealing queue, like :meth:`plan_chunks` but at component
        granularity.  Pairs keep their original order within a group, so a
        one-group plan replays the sequential run exactly.  Output is
        deterministic for a given spool and pair list; every distinct pair
        lands in exactly one group.
        """
        if workers < 1:
            raise DiscoveryError(f"worker count must be >= 1, got {workers!r}")
        ordered = list(dict.fromkeys(pairs))
        if not ordered:
            return []
        n = len(refs)
        # Union-find over attribute ids; each pair is an edge.
        parent = list(range(n))

        def find(attr: int) -> int:
            root = attr
            while parent[root] != root:
                root = parent[root]
            while parent[attr] != root:  # path compression
                parent[attr], attr = root, parent[attr]
            return root

        for pair in ordered:
            a, b = find(pair // n), find(pair % n)
            if a != b:
                parent[b] = a
        components: dict[int, list[int]] = {}
        for seq, pair in enumerate(ordered):
            components.setdefault(find(pair // n), []).append(seq)
        costed = []
        for members in components.values():
            attrs = {ordered[seq] // n for seq in members}
            attrs.update(ordered[seq] % n for seq in members)
            cost = sum(self._count(refs[attr]) for attr in attrs) + 1
            costed.append((cost, (cost, members)))
        # Components are discovered in first-pair order, so the packer's
        # input-position tie-break orders equal-cost components by their
        # first pair.
        packed = pack_cost_groups(costed, workers)
        groups: list[PairGroup] = []
        for group in packed:
            seqs = sorted(seq for _, members in group for seq in members)
            groups.append(
                PairGroup(
                    index=len(groups),
                    pairs=tuple(ordered[seq] for seq in seqs),
                    estimated_cost=sum(cost for cost, _ in group),
                    components=len(group),
                )
            )
        return groups

