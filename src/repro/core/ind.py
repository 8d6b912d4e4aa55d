"""Inclusion dependencies and sets of them.

An IND ``A ⊆ B`` asserts that every (distinct, non-NULL) value of the
dependent attribute ``A`` also occurs in the referenced attribute ``B``.
:class:`INDSet` adds the closure operations Sec. 5 uses: the transitive
closure (the paper finds 11 INDs in the closure of BioSQL's foreign keys) and
a transitive reduction (the minimal set of INDs implying the rest, the view a
human reviewer wants).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.db.schema import AttributeRef


def _IND_ORDER(ind: "IND") -> tuple[str, str, str, str]:
    """:class:`IND`'s own order as a flat key, so sorting compares in C."""
    dep, ref = ind.dependent, ind.referenced
    return (dep.table, dep.column, ref.table, ref.column)


@dataclass(frozen=True, order=True)
class IND:
    """A unary inclusion dependency ``dependent ⊆ referenced``."""

    dependent: AttributeRef
    referenced: AttributeRef

    def __str__(self) -> str:
        return f"{self.dependent.qualified} [= {self.referenced.qualified}"

    @property
    def is_trivial(self) -> bool:
        """``A ⊆ A`` is always satisfied and never interesting."""
        return self.dependent == self.referenced

    def reversed(self) -> "IND":
        return IND(self.referenced, self.dependent)


class INDSet:
    """A set of INDs with graph-closure operations.

    Iteration order is deterministic (sorted), which keeps every report and
    benchmark output reproducible.  The sorted order is kept until the next
    :meth:`add`, so iterating a set again costs no sort.
    """

    def __init__(self, inds: Iterable[IND] = ()) -> None:
        self._inds: set[IND] = set(inds)
        self._sorted: list[IND] | None = None

    # ------------------------------------------------------------- set-like
    def add(self, ind: IND) -> None:
        self._inds.add(ind)
        self._sorted = None

    def __contains__(self, ind: IND) -> bool:
        return ind in self._inds

    def __len__(self) -> int:
        return len(self._inds)

    def __iter__(self) -> Iterator[IND]:
        if self._sorted is None:
            self._sorted = sorted(self._inds, key=_IND_ORDER)
        return iter(self._sorted)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, INDSet):
            return NotImplemented
        return self._inds == other._inds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"INDSet({len(self._inds)} INDs)"

    def union(self, other: "INDSet") -> "INDSet":
        return INDSet(self._inds | other._inds)

    def difference(self, other: "INDSet") -> "INDSet":
        return INDSet(self._inds - other._inds)

    def intersection(self, other: "INDSet") -> "INDSet":
        return INDSet(self._inds & other._inds)

    # ---------------------------------------------------------------- views
    def attributes(self) -> set[AttributeRef]:
        out: set[AttributeRef] = set()
        for ind in self._inds:
            out.add(ind.dependent)
            out.add(ind.referenced)
        return out

    def referenced_by(self, dependent: AttributeRef) -> list[AttributeRef]:
        """All attributes the given attribute is included in."""
        return sorted(
            ind.referenced for ind in self._inds if ind.dependent == dependent
        )

    def dependents_of(self, referenced: AttributeRef) -> list[AttributeRef]:
        """All attributes included in the given attribute."""
        return sorted(
            ind.dependent for ind in self._inds if ind.referenced == referenced
        )

    def inds_into_table(self, table: str) -> list[IND]:
        """INDs whose referenced attribute belongs to ``table``.

        This is the count behind the paper's primary-relation Heuristic 2.
        """
        return sorted(ind for ind in self._inds if ind.referenced.table == table)

    # ------------------------------------------------------------- closures
    def transitive_closure(self, include_trivial: bool = False) -> "INDSet":
        """All INDs implied by transitivity (Warshall over the IND graph)."""
        nodes = sorted(self.attributes())
        reach: dict[AttributeRef, set[AttributeRef]] = {n: set() for n in nodes}
        for ind in self._inds:
            reach[ind.dependent].add(ind.referenced)
        changed = True
        while changed:
            changed = False
            for node in nodes:
                expansion: set[AttributeRef] = set()
                for mid in reach[node]:
                    expansion |= reach[mid]
                new = expansion - reach[node]
                if new:
                    reach[node] |= new
                    changed = True
        closure = INDSet()
        for node in nodes:
            for target in reach[node]:
                if node == target and not include_trivial:
                    continue
                closure.add(IND(node, target))
        return closure

    def transitive_reduction(self) -> "INDSet":
        """A minimal set of INDs with the same transitive closure.

        IND graphs may contain cycles (mutually included attributes, i.e.
        equal value sets — ubiquitous among the surrogate-key columns of
        Sec. 5), so the reduction works on the strongly-connected-component
        condensation: each SCC keeps one representative cycle, and the DAG
        between SCCs is reduced in the standard way.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.attributes())
        graph.add_edges_from(
            (ind.dependent, ind.referenced)
            for ind in self._inds
            if not ind.is_trivial
        )
        condensation = nx.condensation(graph)
        reduced_dag = nx.transitive_reduction(condensation)
        result = INDSet()
        # One representative edge per DAG edge between SCCs.
        for u, v in reduced_dag.edges:
            source = min(condensation.nodes[u]["members"])
            target = min(condensation.nodes[v]["members"])
            result.add(IND(source, target))
        # One cycle through each non-singleton SCC.
        for node in condensation.nodes:
            members = sorted(condensation.nodes[node]["members"])
            if len(members) > 1:
                for a, b in zip(members, members[1:] + members[:1]):
                    result.add(IND(a, b))
        return result

    def implies(self, ind: IND) -> bool:
        """Whether ``ind`` follows from this set by reflexivity/transitivity."""
        if ind.is_trivial:
            return True
        if ind in self._inds:
            return True
        return ind in self.transitive_closure()
