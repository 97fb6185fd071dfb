"""The package runs on the standard library and numpy alone, and its modules
import from each other only what they share by design.

The source files are parsed, not imported, so an optional import behind a
guard counts too. scipy may be installed next to numpy, but the package
does not declare it and must not use it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "qstrassen"}


def foreign_imports(source: str) -> set[str]:
    """Top-level modules imported by ``source`` outside the stdlib, numpy and the package."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return {r for r in roots if r not in ALLOWED and r not in sys.stdlib_module_names}


def test_foreign_import_detector():
    source = "import math, scipy.linalg\nfrom numpy import linalg\nfrom . import sdp\n"
    assert foreign_imports(source) == {"scipy"}


def test_package_imports_only_stdlib_and_numpy():
    files = sorted((ROOT / "src" / "qstrassen").glob("*.py"))
    assert files
    found = {p.name: foreign_imports(p.read_text()) for p in files}
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_pyproject_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]}
    assert names == {"numpy"}


def test_fibers_imports_from_sdp_only_the_shared_solver_parts():
    # The config, the overlap core behind the sampler, the central path
    # constants and Hessian blocks the distance's Newton steps share with it,
    # the support split and two repair steps; the scalar helpers and the
    # input checks come from linalg.
    tree = ast.parse((ROOT / "src" / "qstrassen" / "fibers.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "sdp":
                names.update(alias.name for alias in node.names)
            elif node.module is None:
                names.update(alias.name for alias in node.names if alias.name == "sdp")
    assert names == {
        "SolverConfig",
        "DEFAULT_CONFIG",
        "_CENTERED",
        "_CENTER_STEPS",
        "_GROWTH",
        "_kron_sum_gram",
        "_overlap_on_support",
        "_shift_to_dominate",
        "_support_scaler",
        "_support_split",
    }
