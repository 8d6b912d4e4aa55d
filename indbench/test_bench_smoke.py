"""Smoke test of the benchmark: every workload at tiny scale, answers checked.

Runs ``run.py --smoke`` (each workload and trace in its own subprocess, two
timed calls and one layer pass each), then checks the result against
``BENCHMARK.json`` and diffs it against itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_smoke_reports_every_metric_with_correct_answers(tmp_path):
    out = tmp_path / "smoke.json"
    proc = _run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["machine"]["cpu_count"] >= 1
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in result["workloads"].items():
        assert entry["failed"] == 0 and entry["error_rate"] == 0, name
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                got = entry[section][metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(got["value"], (int, float)), (name, metric["name"])
        for metric in SPEC["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0, metric["name"]
        # Layer metrics are kept only from passes that matched the oracle.
        assert entry["per_layer"]["db.values_profiled"]["value"] > 0, name

    diff = _run("diff", str(out), str(out))
    assert diff.returncode == 0, diff.stdout + diff.stderr
    verdicts = {line.split()[-1] for line in diff.stdout.splitlines()[1:]}
    assert verdicts <= {"unchanged", "-"}, verdicts


def test_diff_flags_a_slower_result(tmp_path):
    workload = SPEC["workloads"][0]["name"]
    metric = SPEC["end_to_end"][0]
    entry = {
        "end_to_end": {
            m["name"]: {"value": 1.0, "unit": m["unit"], "spread": 0.0}
            for m in SPEC["end_to_end"]
        },
        "per_layer": {
            m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["per_layer"]
        },
        "error_rate": 0.0,
    }
    slower = json.loads(json.dumps(entry))
    factor = 1 + 2 * metric["bound"]
    slower["end_to_end"][metric["name"]]["value"] = (
        factor if metric["better"] == "lower" else 1 / factor
    )
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"workloads": {workload: entry}}))
    new.write_text(json.dumps({"workloads": {workload: slower}}))
    diff = _run("diff", str(old), str(new))
    assert diff.returncode == 1
    worse = [line for line in diff.stdout.splitlines() if line.endswith("worse")]
    assert [line.split()[1] for line in worse] == [metric["name"]]


def test_diff_refuses_results_that_measured_different_things(tmp_path):
    workload = SPEC["workloads"][0]["name"]
    base = {
        "seed": 0,
        "smoke": False,
        "seconds": SPEC["run_seconds"],
        "repeats": 5,
        "workloads": {workload: {"inputs": {"rows": 100, "digest": "a"}}},
    }
    old = tmp_path / "old.json"
    old.write_text(json.dumps(base))
    changes = [
        {"seed": 1},
        {"smoke": True},
        {"repeats": 1},
        {"workloads": {workload: {"inputs": {"rows": 100, "digest": "b"}}}},
    ]
    for change in changes:
        new = tmp_path / "new.json"
        new.write_text(json.dumps({**base, **change}))
        diff = _run("diff", str(old), str(new))
        assert diff.returncode == 2, change
        assert "not comparable" in diff.stderr and not diff.stdout, change
