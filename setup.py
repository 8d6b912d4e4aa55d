"""Packaging for the ``repro`` library and its ``repro-ind`` command.

The repository has no ``pyproject.toml`` or ``setup.cfg``: this file is
the whole package description.  ``pip install -e .`` (or ``python setup.py
develop`` where the ``wheel`` package is missing) installs the ``repro``
package from ``src/`` and the ``repro-ind`` console script.  The version
is read from ``src/repro/__init__.py`` as text, so building metadata never
imports the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Unary inclusion dependency discovery (Bauckmann, Leser "
    "and Naumann, ICDE 2006), reproduced",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro-ind = repro.cli:main"]},
)
