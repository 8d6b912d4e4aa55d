"""The IND-discovery benchmark: one command, four workloads, checked answers.

    python3 indbench/run.py --workload openmms-cold --seed 3 --seconds 20 --trace 0
    python3 indbench/run.py --seed 0 --out result.json   # every workload
    python3 indbench/run.py --smoke --out smoke.json   # tiny inputs, 2 calls
    python3 indbench/run.py diff OLD.json NEW.json

With ``--workload`` one workload runs in this process.  ``--trace 0`` times
closed-loop discovery calls (one client, one call in flight) for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs the
per-layer pass a fixed number of times, each beside a plain call on the
same request, and reports the per-layer metrics.
Every answer is checked against the workload's oracle.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is non-zero when any call or pass failed.

Without ``--workload`` every workload runs ``REPEATS`` times with trace 0
and once with trace 1, each run in its own fresh subprocess, and the
combined result — machine fingerprint, per-call samples and both metric
sets — is printed and, with ``--out``, written as JSON for ``diff``.
Names, units and bounds of the metrics come from ``BENCHMARK.json`` beside
this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import probes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".bench_tmp"

#: Set-ups per trace-0 run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Calibration-kernel runs before each set-up and after the last one, and
#: after every timed call.  One kernel run's time spreads by ~15% around
#: the median; the median of dozens of them is what scales the timings.
SETUP_CALIBRATIONS = 10
CALL_CALIBRATIONS = 2
#: Median seconds of the ``probes.Calibrator`` kernel on the reference
#: host, a 2-vCPU KVM guest (Intel Xeon, Python 3.11), in a calm hour: its
#: measured ratio to a plain arithmetic loop times that loop's calm-hour
#: time.  The shared host's speed swings by up to 70% over an hour, in CPU
#: seconds as much as in wall seconds, and the kernel's time follows most
#: of that, so every timing is reported as measured × CALIBRATION_REF_S ÷
#: the median kernel time beside it: seconds at the reference host's speed.
CALIBRATION_REF_S = 0.0115
#: Trace-0 runs per workload in a result file (1 with ``--smoke``); their
#: spread is what lets ``diff`` tell a change from noise.
REPEATS = 5
#: Plain and traced iterations each for ``obs.trace_overhead_ratio``.
TRACE_PAIRS = 3
#: Timed calls per workload in ``--smoke`` mode, rounded up to a whole cycle.
SMOKE_CALLS = 2


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, bounds and workloads."""
    return json.loads(SPEC_PATH.read_text())


def spread(samples) -> float:
    """Interquartile range as a share of the median; 0 below two samples."""
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median if median else 0.0


# ----------------------------------------------------------- one workload
def _drop_scratch() -> None:
    """Remove the scratch directory once no run uses it."""
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run still has files there


def _use_program() -> None:
    """Put the program in ``src/`` beside the benchmark on the path, or exit."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"indbench: no program at {src / 'repro'}; run from a checkout")
    sys.path.insert(0, str(src))


def _verify(decisions: dict, covers_all: bool, expected: frozenset) -> bool:
    """A layer pass agrees with the oracle on every pair it decided."""
    if any(satisfied != (key in expected) for key, satisfied in decisions.items()):
        return False
    return not covers_all or {k for k, v in decisions.items() if v} == expected


class Tally:
    """Calls attempted and failed, with every failure reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        """Count one attempt; a failed one is named on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"indbench: {what} failed", file=sys.stderr)


def _timed_call(wl, tally: Tally, request, trace: bool = False):
    """One timed call on ``(db, expected)``; returns ``(wall_s, cpu_s, result)``."""
    from workloads import answer

    db, expected = request
    cpu0 = probes.cpu_seconds()
    start = time.perf_counter()
    try:
        result = wl.call(db, trace=trace)
    except Exception:  # a failed call is counted, the run goes on
        traceback.print_exc()
        tally.record(False, f"{wl.name} call")
        return None, None, None
    wall = time.perf_counter() - start
    cpu = probes.cpu_seconds() - cpu0
    ok = answer(result) == expected and wl.check(result)
    tally.record(ok, f"{wl.name} call (answer or premise)")
    return wall, cpu, result


def _per_cycle(values: list, cycle: int) -> list[float]:
    """Mean per call of each whole cycle of ``cycle`` calls without a failure.

    A workload that serves several databases in round-robin order
    (``cycle`` > 1) makes calls of very different lengths; the median of
    single calls then sits on the edge between two of them and jumps with
    the noise, while the mean of a whole cycle weighs every database once.
    """
    chunks = (values[i : i + cycle] for i in range(0, len(values) - cycle + 1, cycle))
    return [sum(chunk) / cycle for chunk in chunks if None not in chunk]


def _at_reference_speed(calibrations: list[float]) -> float:
    """Factor that turns seconds measured beside ``calibrations`` into
    seconds on the reference host (see ``CALIBRATION_REF_S``)."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def measure_end_to_end(cls, seed, seconds, smoke, workdir):
    """Trace 0: repeated set-up, then closed-loop timed calls.

    Calls run in whole cycles of ``cls.cycle`` requests; ``discover_s`` and
    ``cpu_s`` are medians over cycles of the mean per call.  The
    calibration kernel runs beside the set-ups and after every call,
    untimed; every timing is reported at the reference host speed.
    """
    setups, setup_calibrations, calibrations = [], [], []
    wl = None
    tally = Tally()
    walls, cpus = [], []
    calibrator = probes.Calibrator()
    try:
        for index in range(1 if smoke else SETUP_REPEATS):
            if wl is not None:
                wl.close()
            setup_calibrations += [
                calibrator.measure() for _ in range(SETUP_CALIBRATIONS)
            ]
            wl = cls(seed, smoke, workdir / f"setup-{index}")
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
        setup_calibrations += [calibrator.measure() for _ in range(SETUP_CALIBRATIONS)]
        inputs = wl.describe()
        probes.reset_peak_rss()
        min_calls = SMOKE_CALLS if smoke else wl.min_calls
        deadline = time.perf_counter() + (0 if smoke else seconds)
        while (
            tally.attempted < min_calls
            or time.perf_counter() < deadline
            or tally.attempted % wl.cycle
        ):
            wall, cpu, _ = _timed_call(wl, tally, wl.request())
            walls.append(wall)
            cpus.append(cpu)
            calibrations += [calibrator.measure() for _ in range(CALL_CALIBRATIONS)]
        walls, cpus = _per_cycle(walls, wl.cycle), _per_cycle(cpus, wl.cycle)
        speed = _at_reference_speed(calibrations)
        setup_speed = _at_reference_speed(setup_calibrations)
        values = {
            "discover_s": statistics.median(walls) * speed,
            "cpu_s": statistics.median(cpus) * speed,
            "peak_rss_mb": probes.peak_rss_mib(),
            "spool_mb": wl.spool_mib(),
            "setup_s": statistics.median(setups) * setup_speed,
        }
        # As measured, before scaling to the reference host.
        samples = {
            "discover_s": walls,
            "cpu_s": cpus,
            "setup_s": setups,
            "calibration_s": calibrations,
            "setup_calibration_s": setup_calibrations,
        }
        return tally, values, samples, inputs
    finally:
        # Forked pool workers hold the calibrator's pipe too; they go first,
        # so that closing it ends the calibrator.
        try:
            if wl is not None:
                wl.close()
        finally:
            calibrator.close()


def _paired_pass(wl, tally: Tally, rec, request, pass_first: bool):
    """One timed call and one layer pass on the same request.

    Returns the call's wall seconds, or ``None`` when the call or the
    pass failed.  ``pass_first`` alternates which of the two runs first,
    so neither always pays for the other's garbage.
    """

    def layer_pass() -> bool:
        try:
            ok = _verify(*wl.layer_pass(rec, request[0]), request[1])
        except Exception:  # a failed pass is counted, the run goes on
            traceback.print_exc()
            ok = False
        tally.record(ok, f"{wl.name} layer pass")
        return ok

    passed = layer_pass() if pass_first else True
    wall, _, result = _timed_call(wl, tally, request)
    if wall is not None:
        wl.record_call(rec, result)
    if not pass_first:
        passed = layer_pass()
    return wall if passed else None


def measure_per_layer(cls, seed, smoke, workdir):
    """Trace 1: traced-call overhead, then layer passes paired with calls.

    Each iteration serves ``cls.cycle`` requests, each with one plain call
    and one layer pass; its glue is the calls' wall time minus the pass's
    pipeline timers, and ``runner.glue_s`` is the median over iterations.
    """
    import layers

    wl = cls(seed, smoke, workdir / "setup-0")
    tally = Tally()
    plain, traced, glue, passes = [], [], [], []
    try:
        wl.setup()
        inputs = wl.describe()
        for index in range(1 if smoke else TRACE_PAIRS):
            # A cycle of plain and a cycle of traced calls, so both sides
            # serve the same databases; which goes first alternates.
            for trace in (False, True) if index % 2 == 0 else (True, False):
                walls = [
                    _timed_call(wl, tally, wl.request(), trace=trace)[0]
                    for _ in range(wl.cycle)
                ]
                if None not in walls:
                    (traced if trace else plain).append(sum(walls))
        wl.start_passes()
        for index in range(1 if smoke else cls.layer_passes):
            rec = layers.Recorder()
            walls = [
                _paired_pass(wl, tally, rec, wl.request(), pass_first=index % 2 == 1)
                for _ in range(wl.cycle)
            ]
            if None not in walls:
                layers.finish(rec)
                passes.append(rec.values)
                glue.append(sum(walls) - rec.pipeline_s)
        names = [m["name"] for m in load_spec()["per_layer"]]
        values = {
            name: statistics.median([p.get(name, 0.0) for p in passes] or [0.0])
            for name in names
        }
        values["runner.glue_s"] = statistics.median(glue or [0.0])
        if plain and traced:
            values["obs.trace_overhead_ratio"] = statistics.median(
                traced
            ) / statistics.median(plain)
        # Per iteration: one request, or one cycle of ``cls.cycle`` requests.
        samples = {"plain_s": plain, "traced_s": traced, "glue_s": glue}
        return tally, values, samples, inputs
    finally:
        wl.close()


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def run_workload(args) -> int:
    """Measure one workload in this process and print its result line."""
    _use_program()
    from workloads import WORKLOADS

    spec = load_spec()
    cls = WORKLOADS[args.workload]
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Spools the program puts in temporary directories, here and in pool
    # workers, stay inside the checkout.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    # A SIGTERM unwinds like an error, so pools and the calibrator are
    # stopped and waited for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        if args.trace:
            tally, values, samples, inputs = measure_per_layer(
                cls, args.seed, args.smoke, workdir
            )
            metric_specs = spec["per_layer"]
        else:
            tally, values, samples, inputs = measure_end_to_end(
                cls, args.seed, args.seconds, args.smoke, workdir
            )
            metric_specs = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _drop_scratch()
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs
    }
    if args.detail:
        Path(args.detail).write_text(
            json.dumps({"inputs": inputs, "samples": samples}, indent=1)
        )
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if tally.failed == 0 else 1


# ---------------------------------------------------------- every workload
def machine_fingerprint() -> dict:
    """What a result was measured on: CPU, Python and source revision."""
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def git(*argv):
        try:
            out = subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    # A checkout without its own .git must not report an enclosing repo.
    in_repo = (ROOT / ".git").exists()
    sha = git("rev-parse", "HEAD") if in_repo else None
    # Dirty means the program or the benchmark differs from that commit.
    status = (
        git("status", "--porcelain", "--", "src", "indbench", "BENCHMARK.json")
        if in_repo
        else None
    )
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def _child(args, name: str, trace: int, detail: Path):
    """Run one workload and trace in a fresh subprocess; ``(line, details)``."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--detail", str(detail),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not detail.exists():
        raise SystemExit(f"indbench: {name} trace {trace} produced no result")
    return json.loads(lines[-1]), json.loads(detail.read_text())


def run_all(args) -> int:
    """Every workload in fresh subprocesses: ``REPEATS`` trace-0 runs, one
    trace-1 run.  End-to-end values are medians over the runs, and each
    carries its run-to-run ``spread`` for ``diff``."""
    spec = load_spec()
    repeats = 1 if args.smoke else REPEATS
    result = {
        "label": "[measured]",
        "machine": machine_fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": repeats,
        "smoke": args.smoke,
        "workloads": {},
    }
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        for workload in spec["workloads"]:
            name = workload["name"]
            runs = []
            for index in range(repeats):
                detail = Path(tmp) / f"{name}-{index}.json"
                line, details = _child(args, name, 0, detail)
                runs.append({**line, "samples": details["samples"]})
            line, details = _child(args, name, 1, Path(tmp) / f"{name}-layers.json")
            attempted = line["attempted"] + sum(run["attempted"] for run in runs)
            failed = line["failed"] + sum(run["failed"] for run in runs)
            end_to_end = {}
            for metric in spec["end_to_end"]:
                values = [run["metrics"][metric["name"]]["value"] for run in runs]
                end_to_end[metric["name"]] = {
                    "value": statistics.median(values),
                    "unit": metric["unit"],
                    "spread": spread(values),
                }
            result["workloads"][name] = {
                "inputs": details["inputs"],
                "attempted": attempted,
                "failed": failed,
                "error_rate": failed / attempted,
                "end_to_end": end_to_end,
                "per_layer": line["metrics"],
                "runs": runs,
                "layer_samples": details["samples"],
            }
            print(f"indbench: {name} done", file=sys.stderr)
    _drop_scratch()
    print(format_result(result, spec))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 1 if any(e["failed"] for e in result["workloads"].values()) else 0


def format_result(result: dict, spec: dict) -> str:
    """The end-to-end metrics of every workload as a plain-text table.

    ``n`` is the number of timed calls behind a per-call median, summed
    over the runs; ``spread`` is the run-to-run spread.
    """
    lines = [
        f"{'workload':<16}{'metric':<14}{'value':>12}  {'unit':<6}"
        f"{'runs':>5}{'n':>6}{'spread':>8}"
    ]
    for name, entry in result["workloads"].items():
        runs = entry["runs"]
        for metric in spec["end_to_end"]:
            value = entry["end_to_end"][metric["name"]]
            n = sum(len(run["samples"].get(metric["name"], [None])) for run in runs)
            lines.append(
                f"{name:<16}{metric['name']:<14}{value['value']:>12.4f}  "
                f"{value['unit']:<6}{len(runs):>5}{n:>6}{value['spread']:>8.1%}"
            )
        lines.append(f"{name:<16}{'error_rate':<14}{entry['error_rate']:>12.4f}")
    return "\n".join(lines)


# -------------------------------------------------------------------- diff
def _change(before: float, after: float) -> float:
    """Relative change; its sign is the direction even for a negative base."""
    return (after - before) / abs(before) if before else 0.0


def incomparable(old: dict, new: dict) -> list[str]:
    """Why two result files did not measure the same thing; empty if they did.

    Seed, smoke mode, run length, repeat count and every workload's inputs
    (generator, scale, size and a digest of every value) must match.
    """
    reasons = [
        f"{key}: {old.get(key)!r} vs {new.get(key)!r}"
        for key in ("seed", "smoke", "seconds", "repeats")
        if old.get(key) != new.get(key)
    ]
    for name in sorted(set(old["workloads"]) | set(new["workloads"])):
        before = old["workloads"].get(name, {}).get("inputs")
        after = new["workloads"].get(name, {}).get("inputs")
        if before != after:
            reasons.append(f"{name}: inputs differ")
    return reasons


def compare(old: dict, new: dict, spec: dict) -> list[tuple]:
    """``(workload, metric, old, new, change, verdict)`` rows.

    End-to-end metrics are ``better``/``worse`` when the median moved by
    more than the metric's bound, ``unchanged`` within it, and
    ``unresolved`` when either side's run-to-run spread exceeds the bound.
    Any error on the new side is ``worse``.  Per-layer metrics are listed
    with verdict ``-``: they never gate.
    """
    rows = []
    for name in old["workloads"]:
        if name not in new["workloads"]:
            continue
        a, b = old["workloads"][name], new["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            before, after = a["end_to_end"][key]["value"], b["end_to_end"][key]["value"]
            change = _change(before, after)
            gain = -change if metric["better"] == "lower" else change
            noisy = max(a["end_to_end"][key]["spread"], b["end_to_end"][key]["spread"])
            if noisy > metric["bound"]:
                verdict = "unresolved"
            elif gain < -metric["bound"]:
                verdict = "worse"
            elif gain > metric["bound"]:
                verdict = "better"
            else:
                verdict = "unchanged"
            rows.append((name, key, before, after, change, verdict))
        errors = (a["error_rate"], b["error_rate"])
        verdict = "worse" if errors[1] > errors[0] else "unchanged"
        rows.append((name, "error_rate", *errors, errors[1] - errors[0], verdict))
        for metric in spec["per_layer"]:
            key = metric["name"]
            before = a["per_layer"][key]["value"]
            after = b["per_layer"][key]["value"]
            change = _change(before, after)
            rows.append((name, key, before, after, change, "-"))
    return rows


def run_diff(old_path: str, new_path: str) -> int:
    """Print the comparison of two result files.

    Exits 1 on any ``worse``, and 2 without comparing when the files did
    not measure the same thing.
    """
    spec = load_spec()
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    reasons = incomparable(old, new)
    if reasons:
        for reason in reasons:
            print(f"indbench: not comparable: {reason}", file=sys.stderr)
        return 2
    rows = compare(old, new, spec)
    print(f"{'workload':<16}{'metric':<28}{'old':>14}{'new':>14}{'change':>9}  verdict")
    for name, key, before, after, change, verdict in rows:
        print(
            f"{name:<16}{key:<28}{before:>14.6g}{after:>14.6g}"
            f"{change:>+9.1%}  {verdict}"
        )
    return 1 if any(row[5] == "worse" for row in rows) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["diff"]:
        parser = argparse.ArgumentParser(prog="run.py diff")
        parser.add_argument("old")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return run_diff(args.old, args.new)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, 2 calls")
    parser.add_argument("--out", help="write the combined result here (all mode)")
    parser.add_argument("--detail", help="write samples and inputs here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
