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
    # The config, the path driver the distance runs on, the overlap core
    # behind the sampler, the Hessian blocks, the support split and two
    # repair steps; the scalar helpers and the input checks come from linalg.
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
        "_barrier_path",
        "_kron_sum_gram",
        "_overlap_on_support",
        "_shift_to_dominate",
        "_support_scaler",
        "_support_split",
    }


PATH_RULES = {"_GROWTH", "_CENTERED", "_CENTER_STEPS"}


def path_rule_reads(source: str) -> list[str]:
    """Functions of ``source`` that read a central path constant, by name or attribute."""
    readers = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in PATH_RULES:
            readers.append(scope)
        elif isinstance(node, ast.Attribute) and node.attr in PATH_RULES:
            readers.append(scope)
        elif isinstance(node, ast.alias) and node.name in PATH_RULES:
            readers.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return readers


def test_path_rule_reader_detector():
    source = (
        "from .sdp import _GROWTH\n_CENTERED = 0.25\n"
        "def f():\n    return sdp._CENTER_STEPS\n"
        "def _barrier_path():\n    return _CENTERED\n"
    )
    assert path_rule_reads(source) == ["<module>", "f", "_barrier_path"]


def test_only_the_path_driver_reads_the_path_rules():
    # Growth of t, the centering test and the stall guard are the driver's
    # alone: no barrier and no other module reads or imports them.
    files = sorted((ROOT / "src" / "qstrassen").glob("*.py"))
    readers = {p.name: set(path_rule_reads(p.read_text())) for p in files}
    assert {name: r for name, r in readers.items() if r} == {"sdp.py": {"_barrier_path"}}


def test_centering_threshold_keeps_the_certificates_psd():
    # A centered point is certified by its Newton primal (S^-1 - S^-1 dS S^-1) / t,
    # which is PSD only when the Newton decrement is below 1 (dS then lies in
    # the Dikin ellipsoid of S). A threshold of 1 or more would only weaken
    # the certificates, silently; this test fails instead.
    from qstrassen import sdp

    assert 0.0 < sdp._CENTERED < 1.0
