"""Every example script must run end-to-end without errors."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples").glob("*.py"),
    key=lambda p: p.name,
)


def test_examples_directory_has_expected_scripts():
    names = {p.name for p in EXAMPLES}
    assert {
        "quickstart.py",
        "biosql_foreign_keys.py",
        "pdb_surrogate_keys.py",
        "aladin_pipeline.py",
        "csv_profiling.py",
    } <= names


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"{script.name} failed:\n{proc.stdout}\n{proc.stderr}"
    )
    assert proc.stdout.strip(), f"{script.name} produced no output"


def test_quickstart_reports_io_gap():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES[0].parent / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert "items read" in proc.stdout


def test_csv_profiling_recovers_partial_ind():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES[0].parent / "csv_profiling.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert "[=0.909" in proc.stdout
