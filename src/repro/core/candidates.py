"""IND candidate generation and the metadata pretests.

Two generation modes from the paper:

* **unique-ref mode** (Sec. 2, the mode behind all experiments): potentially
  *dependent* attributes are non-empty columns of any type except LOB;
  potentially *referenced* attributes are non-empty **unique** columns.  Every
  dependent is paired with every referenced attribute (except itself).

* **all-pairs mode** (Sec. 1.2): every unordered pair of non-empty non-LOB
  attributes yields one candidate, directed from the smaller distinct set to
  the larger (equal cardinalities test set equivalence via one direction).

The pretests are metadata-only filters, evaluated from
:class:`~repro.db.stats.ColumnStats` without touching the data again:

* cardinality (Sec. 2 "first phase"): ``|s(dep)| <= |s(ref)|``;
* max-value (Sec. 4.1): ``max(s(dep)) <= max(s(ref))``;
* min-value (the complementary Bell & Brockhausen test; extension);
* datatype (mentioned and *rejected* by Sec. 4.1 for life-science data —
  implemented so the ablation benchmark can demonstrate why: it prunes true
  INDs between INTEGER and VARCHAR columns).

Both run on attribute ids.  :class:`AttributeIds` numbers a run's profiled
attributes once, in sorted order, and keeps the statistics the pretests
read as per-id columns.  A candidate is then one int, a *pair* packing
``(dep_id, ref_id)`` as ``dep_id * count + ref_id``: ascending pairs are
ascending candidates, and a pair hashes and compares as an int.  The
runner keeps pairs from generation to the merge;
:func:`generate_unique_ref_candidates`, :func:`generate_all_pairs_candidates`
and :func:`apply_pretests` are thin :class:`Candidate` adapters over the
same id code.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import eq, ge, le

from repro.db.schema import REF_ORDER, AttributeRef
from repro.db.stats import ColumnStats
from repro.db.types import DataType
from repro.core.ind import IND

@dataclass(frozen=True, order=True)
class Candidate:
    """An unverified IND candidate ``dependent ⊆ referenced``."""

    dependent: AttributeRef
    referenced: AttributeRef

    def as_ind(self) -> IND:
        return IND(self.dependent, self.referenced)

    def __str__(self) -> str:
        return f"{self.dependent.qualified} [=? {self.referenced.qualified}"


@dataclass
class PretestReport:
    """How many candidates each pretest removed (Sec. 4.1 reporting)."""

    initial: int = 0
    removed_by_cardinality: int = 0
    removed_by_max_value: int = 0
    removed_by_min_value: int = 0
    removed_by_datatype: int = 0
    remaining: int = 0

    @property
    def removed_total(self) -> int:
        return self.initial - self.remaining


_TYPE_CLASSES: dict[DataType, str] = {
    DataType.INTEGER: "numeric",
    DataType.FLOAT: "numeric",
    DataType.VARCHAR: "string",
    DataType.DATE: "date",
    DataType.CLOB: "lob",
    DataType.BLOB: "lob",
}


# ------------------------------------------------------------------ numbering
def attribute_numbering(refs: Iterable[AttributeRef]) -> list[AttributeRef]:
    """``refs`` in id order: sorted, as :class:`AttributeRef` sorts."""
    return sorted(refs, key=REF_ORDER)


def decode_pairs(
    refs: Sequence[AttributeRef], pairs: Iterable[int]
) -> list[Candidate]:
    """The :class:`Candidate` objects of ``pairs`` over the numbering ``refs``."""
    n = len(refs)
    return [Candidate(refs[pair // n], refs[pair % n]) for pair in pairs]


def encode_candidates(
    candidates: Iterable[Candidate],
) -> tuple[list[AttributeRef], list[int]]:
    """Number the candidates' attributes; return ``(refs, pairs)``.

    ``refs`` is the sorted list of every attribute a candidate touches and
    ``pairs`` holds one pair per candidate, duplicates and order kept.
    This is how the :class:`Candidate` entry points reach the id code.
    """
    candidates = list(candidates)
    involved = {c.dependent for c in candidates}
    involved.update(c.referenced for c in candidates)
    refs = attribute_numbering(involved)
    index = {ref: aid for aid, ref in enumerate(refs)}
    n = len(refs)
    return refs, [
        index[c.dependent] * n + index[c.referenced] for c in candidates
    ]


class AttributeIds:
    """One run's attribute numbering and the columns the pretests read.

    Ids follow sorted :class:`AttributeRef` order, so pairs over them sort
    exactly as :class:`Candidate` objects do.  ``refs`` maps an id to its
    attribute and ``index`` back.  ``distinct``, ``min_value``,
    ``max_value`` and ``type_class`` are per-id columns of the profile;
    ``dependents`` and ``referenced`` are the ids of the potentially
    dependent and referenced attributes, ascending.
    """

    def __init__(self, stats: Mapping[AttributeRef, ColumnStats]) -> None:
        self.refs = attribute_numbering(stats)
        self.count = len(self.refs)
        self.index = {ref: aid for aid, ref in enumerate(self.refs)}
        columns = [stats[ref] for ref in self.refs]
        self.distinct = [st.distinct_count for st in columns]
        self.min_value = [st.min_value for st in columns]
        self.max_value = [st.max_value for st in columns]
        self.type_class = [_TYPE_CLASSES[st.dtype] for st in columns]
        self.dependents = [
            aid
            for aid, st in enumerate(columns)
            if not st.is_empty and not st.dtype.is_lob
        ]
        self.referenced = [
            aid
            for aid, st in enumerate(columns)
            if st.is_unique and not st.dtype.is_lob
        ]

    def candidates(self, pairs: Iterable[int]) -> list[Candidate]:
        """``pairs`` as :class:`Candidate` objects, in order."""
        return decode_pairs(self.refs, pairs)

    def pairs_of(self, candidates: Iterable[Candidate]) -> list[int]:
        """``candidates`` as pairs over this numbering, in order."""
        index, n = self.index, self.count
        return [
            index[c.dependent] * n + index[c.referenced] for c in candidates
        ]

    def attributes(self, pairs: Sequence[int]) -> list[AttributeRef]:
        """The attributes ``pairs`` touch, sorted."""
        n = self.count
        ids = {pair // n for pair in pairs}
        ids.update(pair % n for pair in pairs)
        return [self.refs[aid] for aid in sorted(ids)]


# ----------------------------------------------------------------- generation
def unique_ref_pairs(ids: AttributeIds) -> list[int]:
    """Sec. 2 candidate generation over ids: every dependent × every unique
    referenced attribute but itself."""
    refs, n = ids.referenced, ids.count
    out: list[int] = []
    for dep in ids.dependents:
        base = dep * n
        out.extend([base + ref for ref in refs if ref != dep])
    return out


def all_pairs(ids: AttributeIds) -> list[int]:
    """Sec. 1.2 candidate generation over ids: (n² - n) / 2 directed tests.

    For each unordered pair the test runs from the smaller distinct set into
    the larger one; at equal cardinality one direction suffices (it then tests
    set equivalence), and we pick the lexicographically smaller dependent for
    determinism.
    """
    attrs, distinct, n = ids.dependents, ids.distinct, ids.count
    out: list[int] = []
    for i, a in enumerate(attrs):
        size = distinct[a]
        for b in attrs[i + 1 :]:
            out.append(a * n + b if size <= distinct[b] else b * n + a)
    return out


def generate_unique_ref_candidates(
    stats: dict[AttributeRef, ColumnStats]
) -> list[Candidate]:
    """Sec. 2 candidate generation: every dependent × every unique referenced."""
    ids = AttributeIds(stats)
    return ids.candidates(unique_ref_pairs(ids))


def generate_all_pairs_candidates(
    stats: dict[AttributeRef, ColumnStats]
) -> list[Candidate]:
    """Sec. 1.2 candidate generation: (n² - n) / 2 directed tests (see
    :func:`all_pairs`)."""
    ids = AttributeIds(stats)
    return ids.candidates(all_pairs(ids))


# -------------------------------------------------------------------- pretests
#: The pretests in the order the paper applies them:
#: ``(PretestConfig flag, PretestReport field, AttributeIds column, test)``.
#: A pair survives a rule when ``test(column[dep], column[ref])`` holds;
#: an empty side (a ``None`` extremum) never survives.
#:
#: * cardinality: ``|s(dep)| <= |s(ref)|``;
#: * max-value: ``max(s(dep)) <= max(s(ref))``;
#: * min-value: ``min(s(dep)) >= min(s(ref))``;
#: * datatype: both attributes in the same coarse type class.  Deliberately
#:   strict: Sec. 4.1 observes that this pretest is *unsafe* where numbers
#:   live in string columns, and the ablation shows the resulting false
#:   negatives.
_PRETESTS = (
    ("cardinality", "removed_by_cardinality", "distinct", le),
    ("max_value", "removed_by_max_value", "max_value", le),
    ("min_value", "removed_by_min_value", "min_value", ge),
    ("datatype", "removed_by_datatype", "type_class", eq),
)


@dataclass
class PretestConfig:
    """Which metadata pretests to apply, in the order the paper applies them."""

    cardinality: bool = True
    max_value: bool = False
    min_value: bool = False
    datatype: bool = False


def pretest_pairs(
    ids: AttributeIds,
    pairs: Sequence[int],
    config: PretestConfig | None = None,
) -> tuple[list[int], PretestReport]:
    """Filter ``pairs`` by the configured pretests; returns survivors + report.

    A pair removed by several pretests counts against the first of them in
    paper order, as a candidate-at-a-time filter would count it.
    """
    cfg = config or PretestConfig()
    report = PretestReport(initial=len(pairs))
    survivors = list(pairs)
    n = ids.count
    for flag, removed, column, test in _PRETESTS:
        if getattr(cfg, flag) and survivors:
            values = getattr(ids, column)
            kept = [
                pair
                for pair in survivors
                if (dep := values[pair // n]) is not None
                and (ref := values[pair % n]) is not None
                and test(dep, ref)
            ]
            setattr(report, removed, len(survivors) - len(kept))
            survivors = kept
    report.remaining = len(survivors)
    return survivors, report


def apply_pretests(
    candidates: list[Candidate],
    stats: dict[AttributeRef, ColumnStats],
    config: PretestConfig | None = None,
) -> tuple[list[Candidate], PretestReport]:
    """Filter candidates by the configured pretests; returns survivors + report."""
    ids = AttributeIds(stats)
    pairs = ids.pairs_of(candidates)
    kept, report = pretest_pairs(ids, pairs, config)
    # A verdict is a function of the pair, so duplicates share it.
    survivors = set(kept)
    return [c for c, pair in zip(candidates, pairs) if pair in survivors], report
