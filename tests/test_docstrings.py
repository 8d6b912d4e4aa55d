"""Pydocstyle-style spot checks on the public API surface.

Not a style linter (no dependency to install): the one rule that matters for
an API meant to be read — every public module, class, function, method, and
property in the modules this check covers carries a docstring.  The module
list is the *touched* public surface (runner, results, cache, pool, engines,
CLI); extend it as modules get their docstring pass.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

#: Modules whose public surface has had its docstring pass.
DOCUMENTED_MODULES = [
    "repro.cli",
    "repro.core.brute_force",
    "repro.core.results",
    "repro.core.runner",
    "repro.core.stats",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.parallel",
    "repro.parallel.engine",
    "repro.parallel.export",
    "repro.parallel.planner",
    "repro.parallel.pool",
    "repro.parallel.merge",
    "repro.parallel.tasks",
    "repro.storage.spool_cache",
]


def _public_members(module):
    """Top-level public classes and functions defined *in* this module."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are checked where they are defined
        yield name, obj


def _class_members(cls):
    """Public methods and properties declared directly on ``cls``."""
    for name, obj in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(obj, property):
            yield name, obj.fget
        elif inspect.isfunction(obj):
            yield name, obj
        elif isinstance(obj, (staticmethod, classmethod)):
            yield name, obj.__func__


def _missing(module) -> list[str]:
    missing = []
    if not (module.__doc__ or "").strip():
        missing.append(module.__name__)
    for name, obj in _public_members(module):
        if not (obj.__doc__ or "").strip():
            missing.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for member_name, member in _class_members(obj):
                if not (member.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}.{member_name}")
    return missing


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_public_surface_is_documented(module_name):
    module = importlib.import_module(module_name)
    missing = _missing(module)
    assert not missing, (
        f"public names without docstrings in {module_name}: {missing}"
    )
