"""The committed paper report: its fast counts regenerate, and a failing
claim writes nothing.

``benchmarks/report.py`` regenerates ``benchmarks/REPORT.json``; CI runs
all of it.  Here the sections that take seconds run in two fresh
processes with different hash seeds, and each must give the committed
counts exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BENCHMARKS = REPO / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import report  # noqa: E402  (benchmarks/ is not a package)


def test_fast_counts_match_the_committed_report():
    committed = json.loads((BENCHMARKS / "REPORT.json").read_text())
    assert committed["scale"] == "small"
    script = (
        "import json, report\n"
        "sections = report.build(report.FAST, 'small')\n"
        "print(json.dumps({s.key: s.values(True) for s in sections}))\n"
    )
    path = os.pathsep.join([str(REPO / "src"), str(BENCHMARKS)])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    try:
        outputs = [proc.communicate(timeout=600) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        fresh = json.loads(out)
        assert len(fresh) == len(report.FAST)
        for key, counts in fresh.items():
            assert counts == committed["asserted"][key], key


def test_a_failing_claim_exits_nonzero_and_writes_nothing(tmp_path):
    for name in ("REPORT.json", "REPORT.md"):
        (tmp_path / name).write_bytes((BENCHMARKS / name).read_bytes())

    def broken(runs):
        section = report.Section("broken", "A claim that fails", "nothing")
        section.count("answer", 41, "42", holds=False)
        return section

    sections = (report.ablations, broken)
    assert report.main(["--scale", "tiny"], sections, tmp_path) == 1
    for name in ("REPORT.json", "REPORT.md"):
        committed = (BENCHMARKS / name).read_bytes()
        assert (tmp_path / name).read_bytes() == committed
