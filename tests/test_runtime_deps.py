"""The package runs on the standard library and numpy alone, its modules
import from each other only what they share by design, and every name they
export exists.

The source files are parsed, not imported, so an optional import behind a
guard counts too. scipy may be installed next to numpy, but the package
does not declare it and must not use it.
"""

from __future__ import annotations

import ast
import importlib
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


INPUT_CHECKS = {"_check_marginals", "_check_psd", "DensityOperator"}


def input_check_calls(source: str) -> list[tuple[str, str]]:
    """(function, check) for each call of an input check in ``source``; methods as Class.method."""
    calls = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in INPUT_CHECKS:
                calls.append((scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return calls


def test_input_check_call_detector():
    source = (
        "from .linalg import _check_psd\n"
        "class F:\n    def __init__(self):\n        linalg._check_marginals(a, b)\n"
        "def g():\n    return DensityOperator(m)\n_check_psd(m, 'x')\n"
    )
    assert input_check_calls(source) == [
        ("F.__init__", "_check_marginals"), ("g", "DensityOperator"), ("<module>", "_check_psd"),
    ]


def test_every_entry_point_checks_its_marginals_through_one_function():
    # sdp._subspace_marginals checks the pair of every solve, of mu, the
    # decision and both ladders; FiberSpec and the file loader check a pair
    # that comes without a subspace. strassen tests no marginal itself and
    # builds a DensityOperator only as the decision's certificate.
    src = ROOT / "src" / "qstrassen"
    calls = {
        (f"{p.stem}.{scope}", name)
        for p in sorted(src.glob("*.py"))
        for scope, name in input_check_calls(p.read_text())
    }
    assert {scope for scope, name in calls if name == "_check_marginals"} == {
        "sdp._subspace_marginals", "fibers.FiberSpec.__init__", "cli._load_marginals",
    }
    assert {c for c in calls if c[0].startswith("strassen.")} == {("strassen._decide", "DensityOperator")}
    tree = ast.parse((src / "strassen.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert imported & {"_check_marginals", "_check_psd"} == set()


def scoped_nodes(source: str):
    """(innermost function name, node) for every node of ``source``."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(ast.parse(source), "<module>")


def np_linalg_name(node) -> str | None:
    """``X`` for a call of np.linalg.X, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if ast.unparse(node.func.value) in ("np.linalg", "numpy.linalg"):
            return node.func.attr
    return None


SPECTRA = {"eigvalsh", "eigh"}
ABS = {"np.abs", "np.absolute", "numpy.abs", "abs"}


def spectrum_norms(source: str) -> list[str]:
    """Functions of ``source`` that take abs of an eigenvalue array of np.linalg.eigvalsh or eigh.

    The array counts when the abs argument calls the solver or names a
    variable that the same function assigned from such a call.
    """
    spectra, found = set(), []

    def holds_spectrum(node, scope):
        return any(
            np_linalg_name(n) in SPECTRA or isinstance(n, ast.Name) and (scope, n.id) in spectra
            for n in ast.walk(node)
        )

    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Assign) and holds_spectrum(node.value, scope):
            for target in node.targets:
                target = target.elts[0] if isinstance(target, ast.Tuple) else target
                if isinstance(target, ast.Name):
                    spectra.add((scope, target.id))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ABS:
            if any(holds_spectrum(arg, scope) for arg in node.args):
                found.append(scope)
    return found


def svd_callers(source: str) -> list[str]:
    """Functions of ``source`` that call np.linalg.svd."""
    return [scope for scope, node in scoped_nodes(source) if np_linalg_name(node) == "svd"]


def test_spectrum_norm_and_svd_detectors():
    source = (
        "def f(m):\n    return np.abs(np.linalg.eigvalsh(m)).sum()\n"
        "def g(m):\n    w, v = np.linalg.eigh(m)\n    return abs(w).max()\n"
        "def h(m, w):\n    s = np.linalg.svd(m, compute_uv=False)\n"
        "    return np.abs(s).sum() + np.abs(w).max() + np.linalg.eigvalsh(m)[0]\n"
    )
    assert spectrum_norms(source) == ["f", "g"]
    assert svd_callers(source) == ["h"]


def test_only_linalg_turns_a_spectrum_into_a_norm():
    # linalg.schatten_norm is the one trace-norm kernel: on Hermitian input
    # it reads |lambda| of one eigvalsh, on any other an SVD. Besides the
    # kernel, the SVD serves linalg's singular-value checks and, outside
    # linalg, only the support lift, which needs the singular vectors of the
    # subspace's leak, not a norm.
    files = sorted((ROOT / "src" / "qstrassen").glob("*.py"))
    norms = {p.stem: set(spectrum_norms(p.read_text())) for p in files}
    assert {m: f for m, f in norms.items() if f} == {"linalg": {"schatten_norm"}}
    svd = {p.stem: set(svd_callers(p.read_text())) for p in files}
    assert {m: f for m, f in svd.items() if f} == {
        "linalg": {"singular_values", "_svdvals"},
        "sdp": {"_overlap_on_support"},
    }


PATH_RULES = {"_GROWTH", "_CENTERED", "_CENTER_STEPS", "_STEP_GRID"}


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
    # Growth of t, the centering test, the stall guard and the damped step's
    # grid are the driver's alone: no barrier and no other module reads or
    # imports them (``_damped_step`` takes the grid from the driver).
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


MODULES = ["qstrassen"] + [
    f"qstrassen.{p.stem}" for p in sorted((ROOT / "src" / "qstrassen").glob("*.py"))
    if p.stem != "__init__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A deleted name left in __all__ fails here, not at the first
    # ``from qstrassen import *``.
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert [n for n in exports if not hasattr(module, n)] == []
    assert len(set(exports)) == len(exports)
