"""Table 2 — external algorithms vs the best SQL approach.

Paper numbers (Tab. 2): brute force needs 2 min 38 s on UniProt vs 15 min
for join; on the PDB fractions the SQL approach never finishes while the
external algorithms do (3 h 13 m brute force on the 2.7 GB fraction).  The
observer single-pass is *slower in wall-clock* than brute force despite
reading far fewer items — the paper attributes this to the synchronisation
overhead of the object-oriented implementation.

Shape assertions here: identical IND sets across all validators, external
validation beats every SQL approach on validation time, and the observer
single-pass reads no more items than brute force (the Fig. 5 direction).
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest

from repro._util import Stopwatch
from repro.bench.harness import (
    RESULT_HEADERS,
    phase_totals,
    run_parallel_curve,
    run_pool_repeat_curve,
    run_strategy,
    speedup_curve,
)
from repro.bench.reporting import format_table, paper_vs_measured, seconds
from repro.core.candidates import (
    Candidate,
    PretestConfig,
    apply_pretests,
    generate_unique_ref_candidates,
)
from repro.core.merge_single_pass import MergeSinglePassValidator
from repro.datagen import generate_biosql
from repro.db.schema import AttributeRef
from repro.db.stats import collect_column_stats
from repro.storage.exporter import export_database
from repro.storage.sorted_sets import SpoolDirectory

_EXTERNAL = ("brute-force", "single-pass", "merge-single-pass")

_PAPER_RUNTIMES = {
    "UniProt(BioSQL)": {
        "sql-join": "15 min 03 s",
        "brute-force": "2 min 38 s",
        "single-pass": "3 min 08 s",
    },
    "SCOP": {
        "sql-join": "7.3 s",
        "brute-force": "10.7 s",
        "single-pass": "13.0 s",
    },
    "PDB(OpenMMS)": {
        "sql-join": "> 7 days",
        "brute-force": "3 h 13 min",
        "single-pass": "(see Sec. 4: too many open files)",
    },
}


@pytest.mark.parametrize("strategy", _EXTERNAL)
@pytest.mark.parametrize("dataset_key", ["biosql", "scop", "openmms"])
def test_table2_external_algorithm(benchmark, workloads, report, dataset_key, strategy):
    dataset = getattr(workloads, dataset_key)()
    name = {
        "biosql": "UniProt(BioSQL)",
        "scop": "SCOP",
        "openmms": "PDB(OpenMMS)",
    }[dataset_key]
    outcome = benchmark.pedantic(
        lambda: run_strategy(name, dataset.db, strategy),
        rounds=1,
        iterations=1,
    )
    paper_time = _PAPER_RUNTIMES[name].get(strategy, "n/a")
    report(
        paper_vs_measured(
            f"Table 2 / {name} / {strategy}",
            [
                ("# IND candidates", "-", f"{outcome.candidates:,}"),
                ("# satisfied INDs", "-", f"{outcome.satisfied:,}"),
                ("runtime", paper_time, seconds(outcome.total_seconds)),
                ("items read", "n/a", f"{outcome.items_read:,}"),
                (
                    "peak open files",
                    "-",
                    f"{outcome.result.validator_stats.peak_open_files:,}",
                ),
            ],
        )
    )
    assert outcome.satisfied > 0
    assert outcome.items_read > 0


def test_table2_shape_external_beats_sql(benchmark, workloads, report):
    """The paper's headline: database-external beats in-database SQL."""
    dataset = workloads.biosql()
    sql = benchmark.pedantic(
        lambda: run_strategy("UniProt(BioSQL)", dataset.db, "sql-join"),
        rounds=1,
        iterations=1,
    )
    rows = [sql.row()]
    externals = {}
    for strategy in _EXTERNAL:
        outcome = run_strategy("UniProt(BioSQL)", dataset.db, strategy)
        externals[strategy] = outcome
        rows.append(outcome.row())
        assert {str(i) for i in outcome.result.satisfied} == {
            str(i) for i in sql.result.satisfied
        }, f"{strategy} disagrees with sql-join"
    report(
        "== Table 2 / UniProt shape (validation seconds) ==\n"
        + format_table(RESULT_HEADERS, rows)
    )
    for strategy, outcome in externals.items():
        assert outcome.validate_seconds < sql.validate_seconds, (
            f"paper shape violated: {strategy} validation "
            f"({seconds(outcome.validate_seconds)}) should beat sql-join "
            f"({seconds(sql.validate_seconds)})"
        )
    # Fig. 5 direction: single-pass I/O <= brute-force I/O.
    assert (
        externals["single-pass"].items_read <= externals["brute-force"].items_read
    )
    assert (
        externals["merge-single-pass"].items_read
        <= externals["brute-force"].items_read
    )


def test_table2_observer_overhead_vs_merge(benchmark, workloads, report):
    """The paper's 'surprising' finding, and the fix it announces.

    The observer implementation pays synchronisation overhead per value; the
    heap-merge reformulation removes it.  We assert the merge variant is at
    least as fast as the observer variant (robust), and report the
    brute-force-vs-observer relation the paper found (wall-clock order can
    depend on scale, so it is reported, not asserted).
    """
    dataset = workloads.openmms()
    brute = run_strategy("PDB(OpenMMS)", dataset.db, "brute-force")
    observer = benchmark.pedantic(
        lambda: run_strategy("PDB(OpenMMS)", dataset.db, "single-pass"),
        rounds=1,
        iterations=1,
    )
    merge = run_strategy("PDB(OpenMMS)", dataset.db, "merge-single-pass")
    report(
        paper_vs_measured(
            "Table 2 / synchronisation overhead (OpenMMS)",
            [
                (
                    "brute force",
                    "1 h 29 min (2.6GB fraction)",
                    seconds(brute.validate_seconds),
                ),
                (
                    "single-pass (observer)",
                    "3 h 06 min",
                    seconds(observer.validate_seconds),
                ),
                ("single-pass (heap merge)", "(future work)", seconds(merge.validate_seconds)),
                ("items read: brute", "-", f"{brute.items_read:,}"),
                ("items read: observer", "-", f"{observer.items_read:,}"),
            ],
            note="paper: observer slower than brute force despite reading "
            "fewer items; the merge variant removes the overhead",
        )
    )
    assert merge.validate_seconds <= observer.validate_seconds
    assert observer.items_read < brute.items_read


def test_table2_parallel_bruteforce_curve(workloads, report):
    """Parallel validation acceptance: the 1/2/4-worker speedup curve.

    Emits ``BENCH_parallel.json`` next to the working directory with the
    per-worker validation timings and speedups on the BioSQL workload, for
    both the sharded brute force and the partitioned merge.  Decisions must
    be identical at every worker count — that is asserted unconditionally.
    The ≥ 1.5× speedup at 4 workers is asserted only where it is physically
    possible: 4+ CPU cores *and* a sequential baseline long enough (≥ 1 s,
    i.e. a `REPRO_BENCH_SCALE` beyond the CI default) that the ~0.1 s of
    process-pool startup does not dominate the measurement.  Everywhere
    else the curve is still measured and reported.
    """
    dataset = workloads.biosql()
    doc: dict = {"dataset": "UniProt(BioSQL)", "strategies": {}}
    for strategy in ("brute-force", "merge-single-pass"):
        curve = run_parallel_curve(
            "UniProt(BioSQL)", dataset.db, strategy, workers=(1, 2, 4)
        )
        satisfied = {
            n: {str(i) for i in outcome.result.satisfied}
            for n, outcome in curve.items()
        }
        assert satisfied[2] == satisfied[1], f"{strategy} diverges at 2 workers"
        assert satisfied[4] == satisfied[1], f"{strategy} diverges at 4 workers"
        speedups = speedup_curve(curve)
        doc["strategies"][strategy] = {
            "validate_seconds": {
                str(n): round(outcome.validate_seconds, 6)
                for n, outcome in sorted(curve.items())
            },
            "speedup": {str(n): round(s, 3) for n, s in speedups.items()},
            "phases": {
                str(n): outcome.phase_seconds
                for n, outcome in sorted(curve.items())
            },
            "satisfied": len(satisfied[1]),
        }
        report(
            paper_vs_measured(
                f"Parallel validation / {strategy} on BioSQL",
                [
                    ("validate (1 worker)", "-", seconds(curve[1].validate_seconds)),
                    ("validate (2 workers)", "-", seconds(curve[2].validate_seconds)),
                    ("validate (4 workers)", "-", seconds(curve[4].validate_seconds)),
                    ("speedup @4", ">= 1.5x on 4+ cores", f"{speedups[4]:.2f}x"),
                ],
                note="identical satisfied sets at every worker count "
                "(asserted); wall-clock gain needs real cores",
            )
        )
    doc["cpu_count"] = os.cpu_count()
    with open("BENCH_parallel.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    brute_baseline = float(
        doc["strategies"]["brute-force"]["validate_seconds"]["1"]
    )
    if (os.cpu_count() or 1) >= 4 and brute_baseline >= 1.0:
        brute = doc["strategies"]["brute-force"]["speedup"]["4"]
        assert brute >= 1.5, (
            f"parallel brute force must reach 1.5x at 4 workers on a 4-core "
            f"machine with a {brute_baseline:.1f}s baseline, "
            f"measured {brute:.2f}x"
        )


def test_table2_pool_repeated_runs(workloads, report):
    """Persistent-pool acceptance: the repeated-run warm/cold/sequential curve.

    A discovery service answers the same shape of request over and over;
    this experiment runs ``discover_inds`` five times per leg on the BioSQL
    workload and emits ``BENCH_pool.json`` with the per-run validation
    timings: ``sequential`` (1 worker), ``cold`` (a fresh 4-worker pool
    built and drained inside every call — the PR 2 executor semantics) and
    ``warm`` (one ``DiscoverySession`` pool reused across all five runs).

    Satisfied sets must be identical across every leg and run — asserted
    unconditionally, as is the warm pool actually reusing spool handles.
    The headline — warm beats cold, because the warm leg pays process
    startup once instead of five times — is asserted only on machines with
    4+ cores, where the pool is a sensible configuration at all; everywhere
    else the curve is still measured and reported.
    """
    dataset = workloads.biosql()
    runs, workers = 5, 4
    curves, pool_stats = run_pool_repeat_curve(
        "UniProt(BioSQL)", dataset.db, runs=runs, workers=workers
    )
    reference = {str(i) for i in curves["sequential"][0].result.satisfied}
    for mode, outcomes in curves.items():
        for outcome in outcomes:
            assert {
                str(i) for i in outcome.result.satisfied
            } == reference, f"{mode} leg diverges from the sequential run"
    for outcome in curves["warm"]:
        assert outcome.result.validator_stats.extra.get("pool_warm") == 1.0
    for outcome in curves["cold"]:
        assert outcome.result.validator_stats.extra.get("pool_warm") == 0.0
    assert pool_stats.get("spool_handle_reuses", 0) > 0, (
        "warm pool never reused a spool handle across chunks/runs"
    )
    assert pool_stats.get("workers_spawned") == workers, (
        "warm leg must spawn its fleet exactly once"
    )
    totals = {
        mode: sum(o.validate_seconds for o in outcomes)
        for mode, outcomes in curves.items()
    }
    warm_vs_cold = (
        totals["cold"] / totals["warm"] if totals["warm"] else float("inf")
    )
    doc = {
        "dataset": "UniProt(BioSQL)",
        "strategy": "brute-force",
        "runs": runs,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "validate_seconds": {
            mode: [round(o.validate_seconds, 6) for o in outcomes]
            for mode, outcomes in curves.items()
        },
        "totals": {mode: round(t, 6) for mode, t in totals.items()},
        "warm_vs_cold_speedup": round(warm_vs_cold, 3),
        "phases": {
            mode: phase_totals(outcomes) for mode, outcomes in curves.items()
        },
        "pool": pool_stats,
        "satisfied": len(reference),
    }
    with open("BENCH_pool.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    report(
        paper_vs_measured(
            f"Persistent pool / {runs} repeated runs on BioSQL",
            [
                ("validate total (sequential)", "-", seconds(totals["sequential"])),
                ("validate total (cold pool)", "-", seconds(totals["cold"])),
                ("validate total (warm pool)", "-", seconds(totals["warm"])),
                ("warm vs cold", "> 1x on 4+ cores", f"{warm_vs_cold:.2f}x"),
                (
                    "spool handle reuses",
                    "> 0",
                    f"{pool_stats.get('spool_handle_reuses', 0):,}",
                ),
            ],
            note="identical satisfied sets on every leg and run (asserted); "
            "the warm pool pays worker startup once, the cold pool per call",
        )
    )
    if (os.cpu_count() or 1) >= 4:
        assert totals["warm"] < totals["cold"], (
            f"warm pool ({seconds(totals['warm'])}) must beat the cold "
            f"per-call pool ({seconds(totals['cold'])}) over {runs} repeated "
            "runs on a 4+ core machine"
        )


def test_table2_storage_v3(report):
    """Storage v3 acceptance: compressed payloads and frontier skips.

    Two experiments, one document (``BENCH_storage_v3.json``):

    * **Storage matrix** — the BioSQL (small) merge-single-pass workload on
      two interleaved storage legs: v2 binary and v3 zlib-compressed.
      Decisions, satisfied sets and ``items_read`` must be bit-identical
      on both legs (the layout changes how bytes reach the validator,
      never what it sees), and the compressed leg must decode as many
      payload bytes as the v2 leg while *storing* fewer — the
      ``bytes_stored < bytes_read`` trade the flags byte buys.  Wall clock
      of the two legs is measured and reported, never asserted: whether
      zlib wins is a machine property, not a correctness one.

    * **Frontier skip-scan** — a skewed spool (a sparse dependent against a
      dense reference, the shape Sec. 3.2's early termination rewards) run
      through the merge with and without ``skip_scan``.  Identical
      decisions and comparisons are asserted, and the headline is asserted
      unconditionally: the skipping merge reads ≥ 30% fewer payload bytes,
      with ``blocks_skipped`` accounting for the gap.
    """
    claims: list[dict] = []

    def claim(name: str, asserted: bool, detail: str) -> None:
        claims.append({"name": name, "asserted": asserted, "detail": detail})

    db = generate_biosql("small").db
    stats = collect_column_stats(db)
    candidates, _ = apply_pretests(
        generate_unique_ref_candidates(stats),
        stats,
        PretestConfig(cardinality=True, max_value=False),
    )
    legs = (
        ("v2-binary", dict()),
        ("v3-zlib", dict(compression="zlib")),
    )
    rounds = 5
    outcomes: dict[str, object] = {}
    timings = {name: float("inf") for name, _ in legs}
    with tempfile.TemporaryDirectory(prefix="repro-storagev3-") as tmp:
        spools = {
            name: export_database(db, f"{tmp}/{name}", **kwargs)[0]
            for name, kwargs in legs
        }
        subset = [
            c for c in candidates
            if c.dependent in spools["v2-binary"]
            and c.referenced in spools["v2-binary"]
        ]
        # Interleave the rounds so machine-load noise hits every leg alike;
        # best-of-N discards scheduler hiccups.
        for _ in range(rounds):
            for name, spool in spools.items():
                with Stopwatch() as clock:
                    result = MergeSinglePassValidator(spool).validate(subset)
                outcomes[name] = result
                timings[name] = min(timings[name], clock.elapsed)
    reference = outcomes["v2-binary"]
    for name, outcome in outcomes.items():
        assert outcome.decisions == reference.decisions, f"{name} diverges"
        assert {str(i) for i in outcome.satisfied} == {
            str(i) for i in reference.satisfied
        }, f"{name} satisfied set diverges"
        assert outcome.stats.items_read == reference.stats.items_read, (
            f"{name} drifted on items_read"
        )
    claim("identical decisions, satisfied sets and items_read on both legs",
          True, f"{reference.stats.satisfied_count} INDs on both legs")
    zlib_leg = outcomes["v3-zlib"].stats
    assert zlib_leg.bytes_read == reference.stats.bytes_read, (
        "compression changed the decoded byte count"
    )
    assert zlib_leg.bytes_stored < reference.stats.bytes_stored, (
        f"zlib stored {zlib_leg.bytes_stored:,} bytes, raw frames stored "
        f"{reference.stats.bytes_stored:,} — compression saved nothing"
    )
    ratio = zlib_leg.bytes_read / zlib_leg.bytes_stored
    claim("v3-zlib fetches fewer stored bytes than it decodes", True,
          f"{zlib_leg.bytes_read:,} decoded from {zlib_leg.bytes_stored:,} "
          f"on disk ({ratio:.2f}x)")
    claim("wall clock, v2 binary vs v3-zlib", False, " / ".join(
        f"{name}={timings[name]:.4f}s" for name, _ in legs
    ))

    # Frontier skip-scan on the skewed shape: a dependent that jumps across
    # the value space forces the reference cursor past whole block runs.
    dep = AttributeRef("skew", "dep")
    ref = AttributeRef("skew", "ref")
    skew: dict = {}
    with tempfile.TemporaryDirectory(prefix="repro-frontier-") as tmp:
        spool = SpoolDirectory.create(f"{tmp}/skew", block_size=64)
        spool.add_values(dep, [f"{i:06d}" for i in range(0, 60000, 20000)])
        spool.add_values(ref, [f"{i:06d}" for i in range(0, 60001)])
        spool.save_index()
        skew_candidates = [Candidate(dep, ref)]
        for mode, skip in (("plain", False), ("skipping", True)):
            with Stopwatch() as clock:
                result = MergeSinglePassValidator(
                    spool, skip_scan=skip
                ).validate(skew_candidates)
            skew[mode] = {"result": result, "seconds": clock.elapsed}
    plain, skipping = skew["plain"]["result"], skew["skipping"]["result"]
    assert skipping.decisions == plain.decisions
    assert skipping.stats.comparisons == plain.stats.comparisons
    assert skipping.stats.blocks_skipped > 0, "frontier never skipped"
    reduction = 1 - skipping.stats.bytes_read / plain.stats.bytes_read
    assert reduction >= 0.30, (
        f"frontier skips must cut bytes_read by >= 30% on the skewed "
        f"workload, measured {reduction:.1%} "
        f"({plain.stats.bytes_read:,} -> {skipping.stats.bytes_read:,})"
    )
    claim("frontier skips cut bytes_read >= 30% on the skewed merge", True,
          f"{plain.stats.bytes_read:,} -> {skipping.stats.bytes_read:,} "
          f"({reduction:.1%} less, {skipping.stats.blocks_skipped:,} blocks "
          f"skipped)")
    claim("skewed-merge wall clock", False,
          f"plain={skew['plain']['seconds']:.4f}s "
          f"skipping={skew['skipping']['seconds']:.4f}s")

    doc = {
        "dataset": "UniProt(BioSQL small) + synthetic skewed merge",
        "legs": {
            name: {
                "validate_seconds": round(timings[name], 6),
                "items_read": outcome.stats.items_read,
                "bytes_read": outcome.stats.bytes_read,
                "bytes_stored": outcome.stats.bytes_stored,
                "blocks_skipped": outcome.stats.blocks_skipped,
                "satisfied": outcome.stats.satisfied_count,
            }
            for name, outcome in outcomes.items()
        },
        "compression_ratio": round(ratio, 4),
        "frontier_skip": {
            mode: {
                "validate_seconds": round(skew[mode]["seconds"], 6),
                "items_read": skew[mode]["result"].stats.items_read,
                "bytes_read": skew[mode]["result"].stats.bytes_read,
                "blocks_skipped": skew[mode]["result"].stats.blocks_skipped,
                "values_skipped": skew[mode]["result"].stats.values_skipped,
            }
            for mode in ("plain", "skipping")
        },
        "bytes_read_reduction": round(reduction, 4),
        "cpu_count": os.cpu_count(),
        "claims": claims,
    }
    with open("BENCH_storage_v3.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    leg_lines = [
        f"  [{'asserted' if c['asserted'] else 'measured'}] "
        f"{c['name']} — {c['detail']}"
        for c in claims
    ]
    # Printed (not just collected) so a bare `pytest -s` run and the CI
    # log both show which claims were proved vs only measured.
    print("\nstorage v3 bench claims:")
    for line in leg_lines:
        print(line)
    report(
        paper_vs_measured(
            "Storage engine v3 / merge-single-pass on BioSQL (small)",
            [
                ("validate (v2 binary)", "-", seconds(timings["v2-binary"])),
                ("validate (v3 zlib)", "-", seconds(timings["v3-zlib"])),
                ("compression ratio", "> 1x", f"{ratio:.2f}x"),
                ("frontier bytes_read cut", ">= 30%", f"{reduction:.1%}"),
            ],
            note="\n".join(leg_lines),
        )
    )


def test_table2_formats_agree_end_to_end(workloads, report):
    """Every external strategy reaches the same INDs from one spool export."""
    dataset = workloads.biosql()
    reference = None
    for strategy in _EXTERNAL + ("blockwise",):
        outcome = run_strategy("UniProt(BioSQL)", dataset.db, strategy)
        satisfied = {str(i) for i in outcome.result.satisfied}
        if reference is None:
            reference = satisfied
        assert satisfied == reference, f"{strategy} disagrees"
