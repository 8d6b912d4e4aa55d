"""``setup.py`` describes the installable package.

Builds only the package metadata (``egg_info``) into a temporary
directory: nothing is installed or downloaded, and nothing is written
under the repository.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_egg_info_names_the_package_and_the_console_script(tmp_path):
    pytest.importorskip("setuptools")
    before = sorted(ROOT.rglob("*.egg-info"))
    subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp_path)],
        cwd=ROOT,
        check=True,
        capture_output=True,
    )
    (info,) = tmp_path.glob("*.egg-info")
    assert info.name == "repro.egg-info"
    assert (info / "top_level.txt").read_text().split() == ["repro"]
    entry_points = (info / "entry_points.txt").read_text().splitlines()
    assert "repro-ind = repro.cli:main" in entry_points
    assert f"Version: {repro.__version__}" in (info / "PKG-INFO").read_text()
    assert sorted(ROOT.rglob("*.egg-info")) == before
