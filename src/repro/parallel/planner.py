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

The same spool statistics also feed the **adaptive cost model**
(:func:`choose_engine`): given the candidate set, the worker count and a
:class:`CalibrationProfile` of machine constants, it predicts the
wall-clock cost of every execution engine the configured strategy allows —
sequential, pooled chunks, component-planned pooled merge — and returns the
cheapest as an :class:`EngineDecision`.
:func:`repro.core.runner.discover_inds` consults it under
``strategy="adaptive"`` so small requests stop paying the pool tax the
benchmarks documented.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.candidates import Candidate, encode_candidates
from repro.db.schema import AttributeRef
from repro.errors import DiscoveryError
from repro.storage.sorted_sets import FORMAT_BINARY, SpoolDirectory

#: Work-stealing granularity: aim for this many chunks per worker, so the
#: tail of a job — when some workers are already idle — is at most ~1/4 of
#: one worker's share even if every estimate was maximally wrong.
DEFAULT_CHUNKS_PER_WORKER = 4

#: Upper bound on candidates per chunk regardless of cost: a chunk is also
#: the requeue unit after a worker death, and repeating more than this many
#: candidate tests on a replacement worker is wasted work we refuse to risk.
MAX_CHUNK_CANDIDATES = 32

#: Predicted fraction of merge work that remains when the merge-side
#: frontier skip (``skip_scans`` on a block-indexed spool) is enabled: the
#: purely referenced side seeks past whole blocks below the dependent
#: frontier instead of decoding them.  Deliberately conservative — skewed
#: sparse-dependent/dense-referenced workloads skip far more — so the model
#: never routes *to* merge on the strength of a skip it cannot verify.
MERGE_SKIP_FACTOR = 0.75

#: File name of the persisted calibration profile, stored next to the spool
#: cache (``<cache_dir>/calibration.json``) by ``repro-ind calibrate``.
CALIBRATION_FILENAME = "calibration.json"


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

    Costs normally come from the spool index: exact spooled value counts.

    A ``counts`` override maps attributes to counts known *before* the
    export lands.  The overlapped pipeline uses it to plan its pretest
    chunks from the column profile's distinct counts while export tasks
    are still running.  For a non-LOB attribute the profile's
    rendered-distinct count equals the spooled count, so the override
    changes nothing.  Chunk and group composition never changes the summed
    validator counters either, because a task is per-candidate independent
    or whole-component.  An approximate count can therefore only change
    load balance, never a result.
    """

    def __init__(
        self, spool: SpoolDirectory, counts: dict | None = None
    ) -> None:
        self._spool = spool
        self._counts = counts

    def _count(self, attr) -> int:
        """Spooled value count of ``attr``, preferring the override."""
        if self._counts is not None:
            try:
                return self._counts[attr]
            except KeyError:
                pass
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


# --------------------------------------------------------------- cost model
@dataclass(frozen=True)
class CalibrationProfile:
    """Machine constants the adaptive cost model multiplies its work by.

    The defaults are deliberately conservative round numbers measured on
    commodity hardware: they overestimate pool startup slightly, which
    biases the model toward sequential execution in close calls — the
    cheap mistake, since the documented bug is pooled runs *losing* to
    sequential on small workloads, never the reverse by the same margin.
    ``repro-ind calibrate`` replaces them with measured values persisted
    next to the spool cache.
    """

    #: Seconds one in-process brute-force scan spends per spooled value.
    seq_item_seconds: float = 8e-7
    #: Seconds one in-process heap merge spends per spooled value.
    merge_item_seconds: float = 1.0e-6
    #: Seconds to spawn one pool worker process (paid only on cold pools).
    pool_startup_seconds: float = 0.08
    #: Seconds of queue/pickle overhead per dispatched pool task.
    task_overhead_seconds: float = 0.004
    #: Where the constants came from: ``"default"`` or ``"calibrated"``.
    source: str = "default"

    def to_dict(self) -> dict:
        """JSON-serialisable view (what ``save`` writes)."""
        return {
            "seq_item_seconds": self.seq_item_seconds,
            "merge_item_seconds": self.merge_item_seconds,
            "pool_startup_seconds": self.pool_startup_seconds,
            "task_overhead_seconds": self.task_overhead_seconds,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CalibrationProfile":
        """Rebuild a profile from :meth:`to_dict` output (unknown keys ignored)."""
        defaults = cls()
        return cls(
            seq_item_seconds=float(
                doc.get("seq_item_seconds", defaults.seq_item_seconds)
            ),
            merge_item_seconds=float(
                doc.get("merge_item_seconds", defaults.merge_item_seconds)
            ),
            pool_startup_seconds=float(
                doc.get("pool_startup_seconds", defaults.pool_startup_seconds)
            ),
            task_overhead_seconds=float(
                doc.get("task_overhead_seconds", defaults.task_overhead_seconds)
            ),
            source=str(doc.get("source", "calibrated")),
        )

    def save(self, path: str | Path) -> Path:
        """Persist the profile as JSON at ``path`` (parents created)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2), "utf-8")
        return target


def calibration_path(cache_dir: str | Path) -> Path:
    """Where a cache rooted at ``cache_dir`` keeps its calibration profile."""
    return Path(cache_dir) / CALIBRATION_FILENAME


def load_calibration(cache_dir: str | Path) -> CalibrationProfile:
    """Load the persisted profile next to the cache, or the defaults.

    A missing, unreadable or corrupt file silently falls back to the
    built-in defaults — the cost model must never fail a discovery run
    over a stale side file.  A constant that is not a finite number >= 0
    (``null``, a list, ``"nan"``, a negative) makes the file corrupt: it
    would price engines at NaN or below zero.
    """
    try:
        doc = json.loads(calibration_path(cache_dir).read_text("utf-8"))
        if not isinstance(doc, dict):
            return CalibrationProfile()
        profile = CalibrationProfile.from_dict(doc)
    except (OSError, ValueError, TypeError, OverflowError):
        return CalibrationProfile()
    constants = (
        profile.seq_item_seconds,
        profile.merge_item_seconds,
        profile.pool_startup_seconds,
        profile.task_overhead_seconds,
    )
    if not all(math.isfinite(value) and value >= 0 for value in constants):
        return CalibrationProfile()
    return profile


@dataclass(frozen=True)
class EngineDecision:
    """The adaptive router's verdict for one validation request.

    ``engine`` names the winner (one of ``sequential-brute-force``,
    ``pooled-brute-force``, ``sequential-merge``, ``pooled-merge``);
    ``strategy`` is its underlying fixed strategy and ``workers`` how to
    instantiate it.
    ``predicted_seconds`` keeps every considered engine's predicted cost so
    the choice is auditable, and ``calibration`` says whether measured or
    default constants priced it.
    """

    engine: str
    strategy: str
    workers: int
    predicted_seconds: dict[str, float] = field(default_factory=dict)
    calibration: str = "default"

    def as_dict(self) -> dict:
        """JSON view for ``DiscoveryResult.to_dict()`` and serve responses."""
        return {
            "engine": self.engine,
            "strategy": self.strategy,
            "workers": self.workers,
            "predicted_seconds": {
                name: round(cost, 6)
                for name, cost in sorted(self.predicted_seconds.items())
            },
            "calibration": self.calibration,
        }


def choose_engine(
    spool: SpoolDirectory,
    candidates: list[Candidate],
    strategies: tuple[str, ...],
    workers: int,
    calibration: CalibrationProfile | None = None,
    warm_pool: bool = False,
    cpu_count: int | None = None,
    skip_scan: bool = False,
) -> EngineDecision:
    """Predict the cheapest execution engine for this validation request.

    Inputs are exactly what the planner already holds: per-attribute
    spooled value counts (via :meth:`ShardPlanner.candidate_cost` and the
    merge component plan), the candidate count, the worker budget, and the
    machine constants of ``calibration``.  ``strategies`` restricts the
    engines considered (``("brute-force",)``, ``("merge-single-pass",)``
    or both for ``strategy="adaptive"``); ``warm_pool`` drops the pool
    startup term (a session fleet is already running); ``cpu_count``
    overrides :func:`os.cpu_count` (tests); ``skip_scan`` discounts the merge
    engines by :data:`MERGE_SKIP_FACTOR` on block-indexed spools, where
    the frontier skip seeks purely referenced cursors past whole blocks.

    Deterministic: ties break toward the engine listed first, and
    sequential engines are priced before pooled ones — when the model
    cannot tell them apart, not paying the pool tax wins.  A merge graph
    that is one candidate-graph component prices ``sequential-merge``
    only: the component plan cannot split it, and a one-group pooled
    merge is the sequential pass plus dispatch, which is why
    :class:`~repro.parallel.merge.PartitionedMergeValidator` itself runs
    such a plan in process on fixed runs too.
    """
    if workers < 1:
        raise DiscoveryError(f"workers must be >= 1, got {workers!r}")
    if not strategies:
        raise DiscoveryError("choose_engine needs at least one strategy")
    cal = calibration or CalibrationProfile()
    cpus = max(1, cpu_count if cpu_count is not None else (os.cpu_count() or 1))
    planner = ShardPlanner(spool)
    ordered = list(dict.fromkeys(candidates))
    predicted: dict[str, float] = {}
    builders: dict[str, tuple[str, int]] = {}

    def consider(engine: str, strategy: str, n: int, cost: float):
        predicted[engine] = cost
        builders[engine] = (strategy, n)

    def startup(units: int) -> float:
        if warm_pool:
            return 0.0
        return cal.pool_startup_seconds * min(workers, max(units, 1))

    if "brute-force" in strategies:
        bf_work = sum(planner.candidate_cost(c) for c in ordered)
        consider(
            "sequential-brute-force",
            "brute-force",
            1,
            bf_work * cal.seq_item_seconds,
        )
        if workers > 1 and len(ordered) > 1:
            chunks = planner.plan_chunks(ordered, workers)
            lanes = max(1, min(workers, cpus, len(chunks)))
            heaviest = max(chunk.estimated_cost for chunk in chunks)
            makespan = max(bf_work / lanes, heaviest) * cal.seq_item_seconds
            consider(
                "pooled-brute-force",
                "brute-force",
                workers,
                startup(len(chunks))
                + cal.task_overhead_seconds * len(chunks)
                + makespan,
            )
    if "merge-single-pass" in strategies:
        attrs = {c.dependent for c in ordered} | {c.referenced for c in ordered}
        merge_work = sum(spool.get(attr).count for attr in attrs) + len(ordered)
        if skip_scan and spool.format == FORMAT_BINARY:
            # Frontier skips need per-block metadata; text spools have none.
            merge_work *= MERGE_SKIP_FACTOR
        consider(
            "sequential-merge",
            "merge-single-pass",
            1,
            merge_work * cal.merge_item_seconds,
        )
        if workers > 1 and ordered:
            groups = planner.plan_merge_groups(ordered, workers)
            if len(groups) > 1:
                lanes = max(1, min(workers, cpus, len(groups)))
                heaviest = max(group.estimated_cost for group in groups)
                makespan = (
                    max(merge_work / lanes, heaviest) * cal.merge_item_seconds
                )
                consider(
                    "pooled-merge",
                    "merge-single-pass",
                    workers,
                    startup(len(groups))
                    + cal.task_overhead_seconds * len(groups)
                    + makespan,
                )
    winner = min(predicted, key=lambda name: (predicted[name], _rank(name)))
    strategy, n = builders[winner]
    return EngineDecision(
        engine=winner,
        strategy=strategy,
        workers=n,
        predicted_seconds=predicted,
        calibration=cal.source,
    )


def _rank(engine: str) -> int:
    """Tie-break order of engines at equal predicted cost (sequential first)."""
    order = (
        "sequential-brute-force",
        "sequential-merge",
        "pooled-brute-force",
        "pooled-merge",
    )
    return order.index(engine) if engine in order else len(order)
