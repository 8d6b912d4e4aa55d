"""The paper's results, regenerated at one scale and checked: one report.

Run from the repository root::

    PYTHONPATH=src python benchmarks/report.py [--scale small]

It runs every artefact the paper reports (Tables 1-2, Figure 5, the
Sec. 4 pretest and open-file counts, the Sec. 5 discovery quality), the
ablations of the paper's design choices, and four experiments on this
reproduction's own machinery (parallel brute force, the persistent pool,
storage v3 with frontier skips, incremental discovery).  It then writes
``benchmarks/REPORT.json`` and ``benchmarks/REPORT.md``.

Every claim is one of two kinds:

* ``[asserted]`` — a count or an answer: candidates, satisfied INDs, items
  read, open files, tuples scanned, recall and precision.  These do not
  depend on the machine.  When one does not hold, the run prints it,
  exits 1 and writes nothing.
* ``[measured]`` — a wall-clock figure, or a count that depends on the
  platform or the scheduler (zlib's stored bytes, pool task counters).
  It is reported next to the paper's figure or ordering and never
  asserted: on a two-core box the SQL join beat NOT IN in only half the
  runs at scale ``small``.

``REPORT.json`` keeps the two kinds apart (``"asserted"`` and
``"measured"``, each keyed by section and claim), so a change that moves
a count shows as a diff under ``"asserted"``.  The run prints every
asserted value that differs from the file it replaces.  CI regenerates
the report and fails when ``"asserted"`` differs from the committed file,
so a change that moves a paper count regenerates the report with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro._util import Stopwatch, format_duration
from repro.core.brute_force import BruteForceValidator
from repro.core.candidates import (
    Candidate,
    PretestConfig,
    apply_pretests,
    generate_unique_ref_candidates,
)
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.core.runner import DiscoveryConfig, DiscoverySession, discover_inds
from repro.core.single_pass import SinglePassValidator
from repro.datagen import (
    SCALES,
    generate_biosql,
    generate_openmms,
    generate_scop,
)
from repro.db import Column, Database, DataType, TableSchema
from repro.db.schema import AttributeRef
from repro.db.stats import collect_column_stats
from repro.discovery import (
    AccessionRule,
    evaluate_against_gold,
    filter_surrogate_inds,
    find_accession_candidates,
    identify_primary_relation,
)
from repro.obs import phase_summary
from repro.obs.metrics import get_registry
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory

#: Where the committed ``REPORT.json`` and ``REPORT.md`` live.
OUT_DIR = Path(__file__).resolve().parent

#: The paper's names for the three surrogate datasets, by generator.
DATASETS = {
    "biosql": ("UniProt(BioSQL)", generate_biosql),
    "scop": ("SCOP", generate_scop),
    "openmms": ("PDB(OpenMMS)", generate_openmms),
}

SQL = ("sql-join", "sql-minus", "sql-notin")
EXTERNAL = ("brute-force", "single-pass", "merge-single-pass")


@dataclass
class Claim:
    """One row of a section: a value, how it prints, the paper's figure."""

    name: str
    value: object
    shown: str
    paper: str
    asserted: bool
    holds: bool = True


def _show(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return str(value)
    if isinstance(value, list) and value and all(type(v) is int
                                                 for v in value):
        return " -> ".join(map(_show, value))  # a before -> after pair
    if isinstance(value, list):
        return ", ".join(map(str, value)) or "(none)"
    if isinstance(value, dict):
        return ", ".join(f"{key} {_show(item)}" for key, item in value.items())
    return str(value)


class Section:
    """One artefact of the report: what it ran on and its claims, in order."""

    def __init__(self, key: str, title: str, data: str,
                 note: str = "") -> None:
        self.key, self.title, self.data, self.note = key, title, data, note
        self.claims: list[Claim] = []

    def count(self, name: str, value: object, paper: str = "-",
              holds: bool = True) -> None:
        """An ``[asserted]`` claim; ``holds=False`` fails the run."""
        self._add(name, value, paper, True, holds)

    def check(self, name: str, holds: bool, paper: str = "-") -> None:
        """An ``[asserted]`` yes-or-no answer the run must give."""
        self._add(name, bool(holds), paper, True, holds)

    def measure(self, name: str, value: object, paper: str = "-") -> None:
        """A ``[measured]`` claim: reported, never asserted."""
        self._add(name, value, paper, False)

    def seconds(self, name: str, value: float, paper: str = "-") -> None:
        """A ``[measured]`` wall-clock figure."""
        self._add(name, value, paper, False, shown=format_duration(value))

    def _add(self, name, value, paper, asserted, holds=True, shown=None):
        if isinstance(value, float):
            value = round(value, 4)
        self.claims.append(Claim(name, value, shown or _show(value), paper,
                                 asserted, bool(holds)))

    def values(self, asserted: bool) -> dict:
        """The claims of one kind, as REPORT.json records them."""
        return {c.name: c.value for c in self.claims if c.asserted is asserted}

    def failures(self) -> list[str]:
        """The asserted claims that do not hold."""
        return [
            f"{self.title}: {c.name} = {c.shown}"
            for c in self.claims if c.asserted and not c.holds
        ]


def paper_config(strategy: str, max_value: bool = False,
                 **kwargs) -> DiscoveryConfig:
    """A run with the paper's pretests: Secs. 2-3 apply only cardinality,
    Sec. 4.1 adds the max-value pretest."""
    return DiscoveryConfig(
        strategy=strategy,
        pretests=PretestConfig(cardinality=True, max_value=max_value),
        **kwargs,
    )


class Runs:
    """The three datasets at one scale, and each discovery run made once."""

    def __init__(self, scale: str) -> None:
        self.scale = scale
        self._datasets: dict = {}
        self._results: dict = {}

    def dataset(self, key: str):
        """The generated dataset ``key`` (biosql, scop, openmms)."""
        if key not in self._datasets:
            self._datasets[key] = DATASETS[key][1](self.scale)
        return self._datasets[key]

    def run(self, key: str, strategy: str, max_value: bool = False, **kwargs):
        """One strategy's result on one dataset, traced so that a section
        can split its time by phase."""
        memo = (key, strategy, max_value, tuple(sorted(kwargs.items())))
        if memo not in self._results:
            config = paper_config(strategy, max_value, trace=True, **kwargs)
            self._results[memo] = discover_inds(self.dataset(key).db, config)
        return self._results[memo]

    def described(self, *keys: str) -> str:
        names = ", ".join(DATASETS[key][0] for key in keys)
        return f"{names} surrogates at scale `{self.scale}`"


def _inds(result) -> set[str]:
    return {str(ind) for ind in result.satisfied}


def table1(runs: Runs) -> Section:
    """Table 1: the join, minus and not-in statements of Sec. 2."""
    section = Section(
        "table1", "Table 1 — the three SQL approaches",
        runs.described(*DATASETS),
        "The paper's times come from a commercial RDBMS on the full "
        "databases; here they are wall-clock seconds of this repository's "
        "SQL engine.  Only the ordering is comparable.",
    )
    # Candidates, satisfied INDs, the join, minus and not-in times, and
    # the minus/join and not-in/join time ratios.
    paper = {
        "biosql": ("910", "36", ("15 min 03 s", "29 min 16 s", "1 h 53 min"),
                   ("1.94", "7.51")),
        "scop": ("43", "11", ("7.3 s", "14.3 s", "46 min"), ("1.96", "378")),
        "openmms": ("139,356", "30,753", ("> 7 days", "-", "-"), ("-", "-")),
    }
    for key, (name, _) in DATASETS.items():
        candidates, satisfied, times, ratios = paper[key]
        results = {s: runs.run(key, s) for s in SQL}
        join = results["sql-join"]
        section.count(f"{name} candidates", join.candidates_after_pretests,
                      candidates)
        for strategy, result in results.items():
            section.count(f"{name} {strategy} satisfied INDs",
                          result.satisfied_count, satisfied,
                          result.satisfied_count > 0)
            tuples = result.validator_stats.sql_rows_scanned
            section.count(f"{name} {strategy} tuples scanned", tuples,
                          holds=tuples > 0)
        section.check(f"{name}: join, minus and not-in find the same INDs",
                      _inds(join) == _inds(results["sql-minus"])
                      == _inds(results["sql-notin"]))
        for strategy, paper_time in zip(SQL, times):
            section.seconds(f"{name} {strategy} validate",
                            results[strategy].timings.validate_seconds,
                            paper_time)
        for strategy, ratio in zip(SQL[1:], ratios):
            section.measure(
                f"{name} {strategy} / sql-join validate time",
                results[strategy].timings.validate_seconds
                / join.timings.validate_seconds,
                ratio,
            )
    reference = _inds(runs.run("biosql", "reference"))
    for strategy in SQL:
        section.check(
            f"UniProt(BioSQL) {strategy} with the max-value pretest finds "
            "the reference INDs",
            _inds(runs.run("biosql", strategy, max_value=True)) == reference,
        )
    return section


def table2(runs: Runs) -> Section:
    """Table 2: the database-external algorithms against the SQL join."""
    section = Section(
        "table2", "Table 2 — external algorithms against the SQL join",
        runs.described(*DATASETS),
        "Paper times are for the full databases (PDB: the 2.7 GB fraction).",
    )
    # The SQL join's time, then each external algorithm's time and its
    # ratio to the join's (the heap merge is the paper's future work).
    paper = {
        "biosql": ("15 min 03 s", {"brute-force": ("2 min 38 s", "0.175"),
                                   "single-pass": ("3 min 08 s", "0.208")}),
        "scop": ("7.3 s", {"brute-force": ("10.7 s", "1.47"),
                           "single-pass": ("13.0 s", "1.78")}),
        "openmms": ("> 7 days", {
            "brute-force": ("3 h 13 min", "< 0.02"),
            "single-pass": ("too many open files (Sec. 4.2)", "-"),
        }),
    }
    for key, (name, _) in DATASETS.items():
        join_time, external = paper[key]
        join = runs.run(key, "sql-join")
        section.seconds(f"{name} sql-join validate",
                        join.timings.validate_seconds, join_time)
        for strategy in EXTERNAL:
            paper_time, ratio = external.get(strategy, ("-", "-"))
            result = runs.run(key, strategy)
            stats = result.validator_stats
            section.count(f"{name} {strategy} satisfied INDs",
                          result.satisfied_count,
                          holds=result.satisfied_count > 0)
            section.count(f"{name} {strategy} items read", stats.items_read,
                          holds=stats.items_read > 0)
            section.count(f"{name} {strategy} peak open files",
                          stats.peak_open_files)
            section.seconds(f"{name} {strategy} validate",
                            result.timings.validate_seconds, paper_time)
            section.measure(f"{name} {strategy} / sql-join validate time",
                            result.timings.validate_seconds
                            / join.timings.validate_seconds, ratio)
        section.check(
            f"{name}: the three external algorithms find the SQL join's INDs",
            all(_inds(runs.run(key, s)) == _inds(join) for s in EXTERNAL),
        )
    section.check(
        "UniProt(BioSQL): blockwise finds the SQL join's INDs",
        _inds(runs.run("biosql", "blockwise"))
        == _inds(runs.run("biosql", "sql-join")),
    )
    return section


def overhead(runs: Runs) -> Section:
    """Table 2's surprise: the observer single pass reads fewer items than
    brute force yet runs slower; the heap merge removes that overhead."""
    section = Section(
        "overhead",
        "Table 2 — the observer's overhead against the heap merge",
        runs.described("biosql", "openmms"),
        "The paper's observer single pass (Alg. 2-3) was slower than brute "
        "force on the PDB despite reading fewer items, which it blames on "
        "synchronisation; Sec. 7 announces a heap-merge reformulation.",
    )
    paper = {
        "brute-force": "1 h 29 min (PDB, 2.6 GB)",
        "single-pass": "3 h 06 min (PDB, 2.6 GB)",
        "merge-single-pass": "future work",
    }
    for key in ("biosql", "openmms"):
        name = DATASETS[key][0]
        results = {s: runs.run(key, s) for s in EXTERNAL}
        for strategy, result in results.items():
            stats = result.validator_stats
            section.count(f"{name} {strategy} items read", stats.items_read)
            section.count(f"{name} {strategy} comparisons", stats.comparisons)
        brute = results["brute-force"].validator_stats.items_read
        section.check(
            f"{name}: the observer reads fewer items than brute force",
            results["single-pass"].validator_stats.items_read < brute,
            "yes",
        )
        section.check(
            f"{name}: the merge reads no more items than brute force",
            results["merge-single-pass"].validator_stats.items_read <= brute,
        )
        for strategy, result in results.items():
            section.seconds(f"{name} {strategy} validate",
                            result.timings.validate_seconds, paper[strategy])
        section.measure(
            f"{name} merge / observer validate time",
            results["merge-single-pass"].timings.validate_seconds
            / results["single-pass"].timings.validate_seconds,
            "< 1 (the merge removes the overhead)",
        )
    return section


def figure5(runs: Runs) -> Section:
    """Figure 5: items read against the number of attributes."""
    section = Section(
        "figure5", "Figure 5 — items read: brute force against single pass",
        runs.described("biosql") + ", growing attribute subsets in name order",
        "The paper plots UniProt: brute force far above single pass, the gap "
        "widening, and brute-force I/O growing about linearly although the "
        "candidates grow quadratically.",
    )
    db = runs.dataset("biosql").db
    stats = collect_column_stats(db)
    attributes = sorted(r for r, st in stats.items() if not st.dtype.is_lob)
    points = []
    with tempfile.TemporaryDirectory(prefix="repro-fig5-") as tmp:
        spool, _ = export_database(db, tmp)
        for fraction in (0.25, 0.5, 0.75, 1.0):
            subset = set(attributes[:max(2, int(len(attributes) * fraction))])
            subset_stats = {r: s for r, s in stats.items() if r in subset}
            candidates, _ = apply_pretests(
                generate_unique_ref_candidates(subset_stats), subset_stats
            )
            candidates = [
                c for c in candidates
                if c.dependent in spool and c.referenced in spool
            ]
            brute = BruteForceValidator(spool).validate(candidates)
            single = SinglePassValidator(spool).validate(candidates)
            n, read = len(subset), brute.stats.items_read
            read_once = single.stats.items_read
            section.count(f"{n} attributes: candidates", len(candidates))
            section.count(f"{n} attributes: brute force items read", read)
            section.count(f"{n} attributes: single pass items read",
                          read_once, holds=read_once <= read)
            section.count(f"{n} attributes: brute force / single pass",
                          read / max(1, read_once), "> 1, growing")
            section.check(f"{n} attributes: both decide alike",
                          brute.decisions == single.decisions)
            points.append((len(candidates), read, read_once))
    gaps = [brute - single for _, brute, single in points]
    section.check("the I/O gap widens with the schema", gaps[-1] > gaps[0],
                  "yes")
    (prev_cands, prev_brute, _), (last_cands, last_brute, _) = points[-2:]
    section.check(
        "brute-force I/O grows slower than the candidates (largest subsets)",
        last_brute / max(1, prev_brute) < last_cands / max(1, prev_cands),
        "yes",
    )
    return section


def maxvalue(runs: Runs) -> Section:
    """Sec. 4.1: the max-value pretest."""
    section = Section(
        "maxvalue", "Sec. 4.1 — the max-value pretest",
        runs.described(*DATASETS) + "; brute force",
    )
    paper = {
        "biosql": ("910 -> 541", "~20% faster"),
        "openmms": ("18,230 -> 7,354 (PDB, 2.6 GB)", "~40% faster"),
        "scop": ("43 -> 43", "no benefit (small database)"),
    }
    for key in ("biosql", "openmms", "scop"):
        name = DATASETS[key][0]
        without = runs.run(key, "brute-force")
        with_pretest = runs.run(key, "brute-force", max_value=True)
        before, after = (without.candidates_after_pretests,
                         with_pretest.candidates_after_pretests)
        cut = key != "scop"
        section.count(f"{name} candidates without -> with",
                      [before, after], paper[key][0],
                      after < before or not cut)
        items = [without.validator_stats.items_read,
                 with_pretest.validator_stats.items_read]
        section.count(f"{name} items read without -> with", items,
                      holds=items[1] <= items[0] or not cut)
        section.check(f"{name}: the pretest keeps the satisfied INDs",
                      _inds(without) == _inds(with_pretest))
        section.seconds(f"{name} validate without",
                        without.timings.validate_seconds)
        section.seconds(f"{name} validate with",
                        with_pretest.timings.validate_seconds, paper[key][1])
    reference = _inds(runs.run("biosql", "reference"))
    for strategy in EXTERNAL:
        result = runs.run("biosql", strategy, max_value=True)
        section.count(f"UniProt(BioSQL) {strategy} with the pretest: "
                      "candidates", result.candidates_after_pretests)
        section.check(f"UniProt(BioSQL) {strategy} with the pretest finds "
                      "the reference INDs", _inds(result) == reference)
    return section


def open_files(runs: Runs) -> Section:
    """Sec. 4.2: open files, and the block-wise single pass under a budget."""
    section = Section(
        "open_files", "Sec. 4.2 — open files and the block-wise single pass",
        runs.described("openmms"),
        "The paper could not run the single pass on the 2.7 GB PDB fraction: "
        "it needed 2,560 open files.  Block-wise processing, proposed there, "
        "re-reads referenced files once per dependent block.",
    )
    brute = runs.run("openmms", "brute-force").validator_stats
    section.count("brute force peak open files", brute.peak_open_files, "2",
                  brute.peak_open_files == 2)
    single = runs.run("openmms", "single-pass").validator_stats
    section.count("single pass peak open files", single.peak_open_files,
                  "2,560 (PDB, 2.7 GB)", single.peak_open_files > 50)
    merge = runs.run("openmms", "merge-single-pass")
    section.count("merge items read (no budget)",
                  merge.validator_stats.items_read)
    items = []
    for budget in (8, 16, 32, 64):
        result = runs.run("openmms", "blockwise", max_open_files=budget)
        stats = result.validator_stats
        section.count(f"budget {budget}: peak open files",
                      stats.peak_open_files,
                      holds=stats.peak_open_files <= budget)
        section.count(f"budget {budget}: sub-runs",
                      int(stats.extra["sub_runs"]))
        section.count(f"budget {budget}: items read", stats.items_read)
        section.check(f"budget {budget}: finds the merge's INDs",
                      _inds(result) == _inds(merge))
        section.seconds(f"budget {budget}: validate",
                        result.timings.validate_seconds)
        items.append(stats.items_read)
    section.check("a tighter budget reads at least as much",
                  items[0] >= items[-1])
    section.check("every budget reads at least the merge's items",
                  items[-1] >= merge.validator_stats.items_read)
    return section


def quality(runs: Runs) -> Section:
    """Sec. 5: foreign keys, accession numbers and the primary relation."""
    section = Section(
        "quality", "Sec. 5 — discovery quality",
        runs.described("biosql", "openmms") + "; the merge single pass",
        "The paper softens the accession rule to 99.98% on multi-million-row "
        "columns; at this scale the same one-dirty-value tolerance is "
        "1 - 1/rows.",
    )
    biosql = runs.dataset("biosql")
    satisfied = runs.run("biosql", "merge-single-pass").satisfied
    empty = {t.name for t in biosql.db.tables() if t.is_empty}
    gold = evaluate_against_gold(satisfied, biosql.foreign_keys, empty)
    section.count("BioSQL declared FKs found", len(gold.matched), "all",
                  not gold.missed)
    section.count("BioSQL FKs on empty tables", len(gold.unrecoverable), "2",
                  len(gold.unrecoverable) == 2)
    section.count("BioSQL extra INDs implied by the FKs", len(gold.implied),
                  "11", len(gold.implied) == len(biosql.expected_extra_inds))
    section.count("BioSQL false positives", len(gold.false_positives), "0",
                  not gold.false_positives)
    section.count("BioSQL recall", gold.recall, "1.0", gold.recall == 1.0)
    section.count("BioSQL precision", gold.precision, "1.0",
                  gold.precision == 1.0)
    accession = find_accession_candidates(biosql.db)
    refs = [p.ref for p in accession]
    section.count("BioSQL accession candidates", [str(r) for r in refs],
                  "bioentry.accession, reference.crc, ontology.name",
                  refs == biosql.expected_accession_candidates)
    primary = identify_primary_relation(biosql.db, satisfied,
                                        accession_candidates=accession)
    section.count("BioSQL primary relation", str(primary.primary_relation),
                  "sg_bioentry", primary.primary_relation == "sg_bioentry")

    openmms = runs.dataset("openmms")
    satisfied = runs.run("openmms", "merge-single-pass").satisfied
    strict = sorted(p.ref for p in find_accession_candidates(openmms.db))
    section.count("OpenMMS strict accession candidates", len(strict), "9",
                  strict == openmms.expected_accession_candidates)
    min_rows = min(openmms.db.table(ref.table).row_count
                   for ref in openmms.expected_soft_accession_candidates)
    soft = find_accession_candidates(
        openmms.db, AccessionRule(min_fraction=1.0 - 1.0 / min_rows)
    )
    expected_soft = sorted(set(openmms.expected_accession_candidates)
                           | set(openmms.expected_soft_accession_candidates))
    section.count("OpenMMS softened accession candidates", len(soft), "19",
                  sorted(p.ref for p in soft) == expected_soft)
    shortlist = sorted(identify_primary_relation(
        openmms.db, satisfied, accession_candidates=soft
    ).shortlist)
    section.count("OpenMMS Heuristic 2 shortlist", shortlist,
                  "exptl, struct, struct_keywords",
                  shortlist == sorted(openmms.expected_primary_relations)
                  and "struct" in shortlist)
    section.count("OpenMMS satisfied INDs", len(satisfied), "30,753 (2.7 GB)")
    stats = collect_column_stats(openmms.db)
    filtered = filter_surrogate_inds(satisfied, stats)
    section.count("OpenMMS INDs filtered as surrogate ranges",
                  filtered.filtered_count, "proposed",
                  filtered.filtered_count / max(1, len(satisfied)) > 0.3)
    section.count("OpenMMS INDs kept", len(filtered.kept))
    section.count("OpenMMS INDs rescued by name affinity",
                  len(filtered.rescued_by_name))
    return section


def _typed_trap() -> Database:
    """Integers stored as strings: Sec. 4.1's case against type pruning."""
    db = Database("typed_trap")
    parent = db.create_table(TableSchema("parent", [
        Column("id_as_string", DataType.VARCHAR, nullable=False, unique=True)
    ]))
    child = db.create_table(TableSchema("child", [
        Column("parent_id", DataType.INTEGER)
    ]))
    for i in range(30):
        parent.insert({"id_as_string": str(i)})
    for i in range(50):
        child.insert({"parent_id": i % 30})
    return db


def ablations(runs: Runs) -> Section:
    """The paper's design choices and announced extensions, switched off
    and on: transitivity pruning, the sampling pretest, datatype pruning."""
    section = Section(
        "ablations", "Ablations — transitivity, sampling, datatype pruning",
        runs.described("openmms", "biosql") + " with both metadata pretests; "
        "a fixed 2-table database for the datatype trap",
    )
    plain = runs.run("openmms", "brute-force", max_value=True)
    pruned = runs.run("openmms", "brute-force", max_value=True,
                      use_transitivity=True)
    inferred = (pruned.transitivity_inferred_satisfied,
                pruned.transitivity_inferred_refuted)
    section.count("OpenMMS tests without -> with transitivity", [
        plain.validator_stats.candidates_tested,
        pruned.validator_stats.candidates_tested,
    ], holds=pruned.validator_stats.candidates_tested
        < plain.validator_stats.candidates_tested)
    section.count("OpenMMS decisions inferred by transitivity: satisfied",
                  inferred[0], "proposed (Sec. 6)", sum(inferred) > 0)
    section.count("OpenMMS decisions inferred by transitivity: refuted",
                  inferred[1])
    section.count("OpenMMS items read without -> with transitivity", [
        plain.validator_stats.items_read, pruned.validator_stats.items_read
    ])
    section.check("transitivity keeps the satisfied INDs",
                  _inds(plain) == _inds(pruned))

    plain = runs.run("biosql", "merge-single-pass", max_value=True)
    sampled = runs.run("biosql", "merge-single-pass", max_value=True,
                       sampling_size=5)
    into = [plain.validator_stats.candidates_total,
            sampled.validator_stats.candidates_total]
    section.count("BioSQL candidates into the validator without -> with "
                  "5-value samples", into, holds=into[1] < into[0])
    section.count("BioSQL candidates refuted by samples",
                  sampled.sampling_refuted, "proposed (Sec. 4.1)",
                  sampled.sampling_refuted > 0)
    section.check("sampling keeps the satisfied INDs",
                  _inds(plain) == _inds(sampled))

    db = _typed_trap()
    found = [
        discover_inds(db, DiscoveryConfig(
            pretests=PretestConfig(cardinality=True, datatype=datatype)
        )).satisfied_count
        for datatype in (False, True)
    ]
    section.count("stringly-typed integers: INDs without type pruning",
                  found[0], "finds the FK", found[0] == 1)
    section.count("stringly-typed integers: INDs with type pruning",
                  found[1], "misses the FK", found[1] == 0)
    return section


def parallel(runs: Runs) -> Section:
    """Brute force sharded over 1, 2 and 4 pool workers."""
    section = Section(
        "parallel", "Parallel brute force — 1, 2 and 4 workers",
        runs.described("biosql") + "; a fresh pool per call",
        "The paper's brute force is sequential.  A speedup needs real cores "
        "and a baseline long enough to hide pool start-up (about 0.1 s).",
    )
    curve = {1: runs.run("biosql", "brute-force")}
    for n in (2, 4):
        curve[n] = runs.run("biosql", "brute-force", validation_workers=n)
    base = curve[1].timings.validate_seconds
    for n in (2, 4):
        section.check(f"workers={n} finds the workers=1 INDs",
                      _inds(curve[n]) == _inds(curve[1]))
    for n, result in curve.items():
        seconds = result.timings.validate_seconds
        section.seconds(f"workers={n}: validate", seconds)
        section.measure(f"workers={n}: speedup", base / seconds,
                        ">= 1.5 on 4+ cores" if n == 4 else "-")
        section.measure(f"workers={n}: phase seconds", {
            name: round(value, 4)
            for name, value in sorted(phase_summary(result.trace).items())
        })
    section.measure("cpu count", os.cpu_count())
    return section


def pool(runs: Runs) -> Section:
    """Five repeated runs: sequential, a cold pool per call, one warm pool."""
    runs_per_leg, workers = 5, 4
    section = Section(
        "pool", "Persistent pool — five repeated runs",
        runs.described("biosql") + f"; brute force at {workers} workers",
        "The warm leg reuses one session pool and pays worker start-up once; "
        "the cold leg starts and drains a pool inside every call.  Cold and "
        "warm calls interleave so load noise hits both alike.",
    )
    db = runs.dataset("biosql").db
    legs: dict[str, list] = {"sequential": [], "cold": [], "warm": []}
    sequential = paper_config("brute-force")
    for _ in range(runs_per_leg):
        legs["sequential"].append(discover_inds(db, sequential))
    pooled = paper_config("brute-force", validation_workers=workers)
    with DiscoverySession(pooled) as session:
        for _ in range(runs_per_leg):
            legs["cold"].append(discover_inds(db, pooled))
            legs["warm"].append(session.discover(db))
        stats = session.pool_stats
    reference = _inds(legs["sequential"][0])
    section.check("every run of every leg finds the same INDs", all(
        _inds(result) == reference for leg in legs.values() for result in leg
    ))
    for leg, warm in (("warm", 1.0), ("cold", 0.0)):
        section.check(f"every {leg} run reports pool_warm = {warm}", all(
            r.validator_stats.extra.get("pool_warm") == warm for r in legs[leg]
        ))
    section.count("warm leg workers spawned", stats.workers_spawned,
                  holds=stats.workers_spawned == workers)
    section.check("the warm pool reused a spool handle",
                  stats.spool_handle_reuses > 0)
    totals = {
        leg: sum(r.timings.validate_seconds for r in results)
        for leg, results in legs.items()
    }
    for leg, total in totals.items():
        section.seconds(f"{leg} leg: validate, {runs_per_leg} runs", total)
    section.measure("cold / warm validate time",
                    totals["cold"] / totals["warm"], "> 1 on 4+ cores")
    section.measure("warm pool spool handle reuses", stats.spool_handle_reuses)
    section.measure("warm pool tasks", stats.tasks_completed)
    return section


def storage(runs: Runs) -> Section:
    """Spool v3: compressed frames, and frontier skips on a skewed merge."""
    section = Section(
        "storage", "Storage v3 — compressed frames and frontier skips",
        runs.described("biosql") + "; the merge single pass.  Frontier "
        "skips: a fixed skewed pair (3 dependent values, 60,001 referenced, "
        "64 values per block)",
        "zlib's stored bytes depend on the zlib build, so they are measured; "
        "the decoded bytes and every decision are asserted.",
    )
    db = runs.dataset("biosql").db
    stats = collect_column_stats(db)
    candidates, _ = apply_pretests(
        generate_unique_ref_candidates(stats), stats,
        PretestConfig(cardinality=True, max_value=False),
    )
    legs = {"v2 binary": {}, "v3 zlib": {"compression": "zlib"}}
    results, best = {}, dict.fromkeys(legs, float("inf"))
    with tempfile.TemporaryDirectory(prefix="repro-storage-") as tmp:
        spools = {
            leg: export_database(db, f"{tmp}/{i}", **kwargs)[0]
            for i, (leg, kwargs) in enumerate(legs.items())
        }
        subset = [c for c in candidates
                  if c.dependent in spools["v2 binary"]
                  and c.referenced in spools["v2 binary"]]
        # Interleaved rounds, best of five: load noise hits both legs alike.
        for _ in range(5):
            for leg, spool in spools.items():
                validator = MergeSinglePassValidator(spool)
                with Stopwatch() as clock:
                    results[leg] = validator.validate(subset)
                best[leg] = min(best[leg], clock.elapsed)
    raw, packed = results["v2 binary"], results["v3 zlib"]
    section.check("both legs decide alike", raw.decisions == packed.decisions)
    section.count("items read (both legs)", raw.stats.items_read,
                  holds=raw.stats.items_read == packed.stats.items_read)
    section.count("payload bytes decoded (both legs)", raw.stats.bytes_read,
                  holds=raw.stats.bytes_read == packed.stats.bytes_read)
    section.check("zlib stores fewer bytes than raw frames",
                  packed.stats.bytes_stored < raw.stats.bytes_stored)
    for leg, result in results.items():
        section.measure(f"{leg}: bytes stored", result.stats.bytes_stored)
        section.seconds(f"{leg}: validate, best of 5", best[leg])
    section.measure("v3 zlib decoded / stored bytes",
                    packed.stats.bytes_read / packed.stats.bytes_stored, "> 1")

    dep, ref = AttributeRef("skew", "dep"), AttributeRef("skew", "ref")
    skew = {}
    with tempfile.TemporaryDirectory(prefix="repro-frontier-") as tmp:
        spool = SpoolDirectory.create(f"{tmp}/skew", block_size=64)
        spool.add_values(dep, [f"{i:06d}" for i in range(0, 60000, 20000)])
        spool.add_values(ref, [f"{i:06d}" for i in range(0, 60001)])
        spool.save_index()
        for mode, skip in (("plain", False), ("skipping", True)):
            with Stopwatch() as clock:
                skew[mode] = MergeSinglePassValidator(
                    spool, skip_scan=skip
                ).validate([Candidate(dep, ref)])
            section.seconds(f"skewed merge, {mode}: validate", clock.elapsed)
    plain, skipping = skew["plain"].stats, skew["skipping"].stats
    section.check("skipping decides alike, with the same comparisons",
                  skew["plain"].decisions == skew["skipping"].decisions
                  and plain.comparisons == skipping.comparisons)
    section.count("skewed merge bytes read, plain -> skipping",
                  [plain.bytes_read, skipping.bytes_read])
    section.count("skewed merge blocks skipped", skipping.blocks_skipped,
                  holds=skipping.blocks_skipped > 0)
    cut = 1 - skipping.bytes_read / plain.bytes_read
    section.count("skewed merge bytes read saved", cut, ">= 0.30", cut >= 0.30)
    return section


TABLES, PAYLOAD_COLUMNS, ROWS = 6, 3, 120


def _catalog() -> Database:
    """Six tables of overlapping id ranges and nested payload ranges: a
    large candidate set of which one column's pairs are a small part."""
    db = Database("bench-incremental")
    for t in range(TABLES):
        columns = [Column("id", DataType.INTEGER, unique=True)] + [
            Column(f"c{i}", DataType.INTEGER) for i in range(PAYLOAD_COLUMNS)
        ]
        table = db.create_table(TableSchema(f"t{t}", columns))
        for row in range(ROWS):
            record = {"id": t * 10 + row}
            for i in range(PAYLOAD_COLUMNS):
                record[f"c{i}"] = (row * (i + 3) + t) % (40 + 10 * i)
            table.insert(record)
    return db


def _push_out_of_range(db: Database) -> None:
    """Move ``t2.c1`` past every other column's values (a rebuilt table,
    as an edit script would write it)."""
    table = db.table("t2")
    rows = [{**row, "c1": row["c1"] + 1000} for row in table.rows()]
    db.drop_table("t2")
    db.create_table(table.schema).insert_many(rows)


def incremental(runs: Runs) -> Section:
    """Delta rounds against a fresh full run after one edited column."""
    section = Section(
        "incremental", "Incremental discovery — one edited column",
        f"a fixed synthetic catalog: {TABLES} tables of {1 + PAYLOAD_COLUMNS} "
        f"integer columns and {ROWS} rows; `--scale` does not apply",
        "Not a paper table: the paper's pipeline is one-shot.  The delta run "
        "re-validates only the candidates that touch the edited column.",
    )
    db = _catalog()
    reused = "spool_cache_files_reused_total"
    with tempfile.TemporaryDirectory(prefix="repro-incremental-") as tmp:
        config = paper_config("merge-single-pass", sampling_size=2,
                              incremental=True, reuse_spool=True,
                              cache_dir=f"{tmp}/cache")
        with DiscoverySession(config) as session:
            with Stopwatch() as cold:
                first = session.discover(db)
            with Stopwatch() as unchanged_clock:
                unchanged = session.discover(db)
            _push_out_of_range(db)
            before = get_registry().snapshot()["counters"].get(reused, 0)
            with Stopwatch() as delta_clock:
                delta = session.discover(db)
            files_reused = int(
                get_registry().snapshot()["counters"].get(reused, 0) - before
            )
    with Stopwatch() as full_clock:
        full = discover_inds(
            db, paper_config("merge-single-pass", sampling_size=2)
        )
    candidates = full.candidates_after_pretests
    section.check("an unchanged round reuses every decision and hits the "
                  "cache",
                  unchanged.delta == {
                      "mode": "delta", "attributes_changed": 0,
                      "candidates_revalidated": 0,
                      "decisions_reused": first.candidates_after_pretests,
                  } and unchanged.spool_cache_hit is True
                  and _inds(unchanged) == _inds(first))
    section.count("candidates", candidates)
    section.check("the edited round is a delta round",
                  delta.delta["mode"] == "delta")
    revalidated = delta.delta["candidates_revalidated"]
    section.count("candidates revalidated", revalidated)
    section.count("fraction revalidated", revalidated / candidates, "< 0.20",
                  revalidated / candidates < 0.20)
    section.count("decisions reused", delta.delta["decisions_reused"])
    section.count("spool files reused", files_reused, holds=files_reused >= 1)
    section.count("values exported by the delta round",
                  delta.export_values_written, f"<= {ROWS}",
                  delta.export_values_written <= ROWS)
    section.count("satisfied INDs", full.satisfied_count)
    section.check("the delta round finds the full run's INDs",
                  _inds(delta) == _inds(full))
    for name, clock in (("full run", full_clock), ("cold incremental", cold),
                        ("unchanged round", unchanged_clock),
                        ("delta round", delta_clock)):
        section.seconds(name, clock.elapsed)
    return section


#: Every section, in report order.
SECTIONS = (
    table1, table2, overhead, figure5, maxvalue, open_files, quality,
    ablations, parallel, pool, storage, incremental,
)

#: The sections whose counts take seconds to regenerate (the tier-1 check).
FAST = (figure5, maxvalue, overhead, quality)


def build(sections, scale: str) -> list[Section]:
    """Run ``sections`` at ``scale`` on one set of datasets and runs."""
    runs = Runs(scale)
    built = []
    for section in sections:
        with Stopwatch() as clock:
            built.append(section(runs))
        print(f"{built[-1].title}: {clock.elapsed:.1f} s", file=sys.stderr)
    return built


def _markdown(doc: dict, sections: list[Section]) -> str:
    machine = doc["machine"]
    lines = [
        "# The paper's results, regenerated",
        "",
        f"Written by `python benchmarks/report.py --scale {doc['scale']}` "
        f"on {machine['platform']}, {machine['cpu_count']} CPUs, "
        f"Python {machine['python']}.  The same run writes `REPORT.json`.",
        "",
        "An `[asserted]` claim is a count or an answer: it does not depend "
        "on the machine, a run where it fails exits 1 and writes nothing, "
        "and CI fails when one differs from the committed `REPORT.json`.  "
        "A `[measured]` claim is a wall-clock figure or a count that depends "
        "on the platform or the scheduler; it stands next to the paper's "
        "figure or ordering and is never asserted.  Paper figures are for "
        "the full databases; where the paper has none, the column gives the "
        "bound a claim is held to, or `-`.",
    ]
    for section in sections:
        lines += ["", f"## {section.title}", "", f"Input: {section.data}."]
        if section.note:
            lines += ["", section.note]
        lines += ["", "| claim | kind | paper or bound | this run |",
                  "|---|---|---|---|"]
        for c in section.claims:
            kind = "[asserted]" if c.asserted else "[measured]"
            lines.append(f"| {c.name} | {kind} | {c.paper} | {c.shown} |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None, sections=SECTIONS,
         out_dir: Path = OUT_DIR) -> int:
    """Regenerate the report; 0 when every asserted claim holds, else 1."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small", choices=sorted(SCALES),
                        help="dataset scale (default: small)")
    args = parser.parse_args(argv)
    built = build(sections, args.scale)
    failures = [f for section in built for f in section.failures()]
    if failures:
        print("asserted claims that do not hold (nothing written):",
              *failures, sep="\n  ", file=sys.stderr)
        return 1
    doc = {
        "scale": args.scale,
        "asserted": {s.key: s.values(True) for s in built},
        "measured": {s.key: s.values(False) for s in built},
        "machine": {"platform": f"{platform.system()} {platform.machine()}",
                    "cpu_count": os.cpu_count(),
                    "python": platform.python_version()},
    }
    path = out_dir / "REPORT.json"
    if path.exists():
        old = json.loads(path.read_text(encoding="utf-8"))
        moved = [
            f"{key} / {name}: {old_value!r} -> {value!r}"
            for key, claims in doc["asserted"].items()
            for name, value in claims.items()
            if (old_value := old.get("asserted", {}).get(key, {}).get(name))
            != value
        ]
        if moved or old.get("scale") != args.scale:
            print(f"asserted values that differ from the replaced report "
                  f"(scale {old.get('scale')}):", *moved, sep="\n  ",
                  file=sys.stderr)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    (out_dir / "REPORT.md").write_text(_markdown(doc, built),
                                       encoding="utf-8")
    print(f"wrote REPORT.json and REPORT.md in {out_dir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
