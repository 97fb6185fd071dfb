"""Command-line front end: problem file I/O, batch runs, and instance generators.

File format "qstrassen/1" is JSON with matrices stored as nested arrays of
[re, im] pairs in the composite-index order (i, p) -> i * d2 + p. Reports
echo the solver config and carry wall-clock timings separately from value
fields, so reruns are bit-identical in every value field. Exit codes: 0 when
a verdict or certified value was reached (including no_coupling), 2 when
the outcome is undecided, 1 on errors, usage errors included.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .bipartite import (
    BipartiteOperator,
    Subspace,
    partial_trace_1,
    partial_trace_2,
    weak_vs_trace_demo,
)
# The fiber solvers are bound here by name, not reached through ``fibers``:
# bench/run.py traces cli._dist_solve and cli.semidistance_lower_bound.
from .fibers import FiberSpec, _dist_solve, semidistance_lower_bound
from .linalg import (
    EigendecompositionError,
    _check_marginals,
    _check_orthonormal,
    check_hs_product_bound,
    check_sv_product_bound,
    check_trace_inequality,
    hermitize,
    psd_project,
    trace_norm,
)
from .sdp import (
    DEFAULT_CONFIG,
    MarginalSdpProblem,
    SolverConfig,
    verify_duality_certificates,
)
from .strassen import (
    ClassicalInstance,
    classical_strassen,
    f_ladder,
    mu,
    sdp_ladder,
    _decide,
)

FORMAT_VERSION = "qstrassen/1"
KINDS = ("coupling", "f_ladder", "sdp_ladder", "fiber_dist", "classical")


class CliError(Exception):
    """User-facing failure; printed to stderr and mapped to exit code 1."""


# ---------------------------------------------------------------------------
# Canonical JSON


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise CliError(f"non-finite value {x!r} cannot be serialized")
    if x == 0.0:
        return "0"
    return format(float(x), ".17g")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise CliError(f"non-string key {key!r} in JSON object")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    else:
        raise CliError(f"cannot serialize value of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Matrix codecs ([re, im] pairs, composite-index order)


def mat_to_pairs(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def vec_to_pairs(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def _entry(cell, name: str) -> complex:
    if (
        not isinstance(cell, (list, tuple))
        or len(cell) != 2
        or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in cell)
    ):
        raise CliError(f"{name}: each entry must be a [re, im] pair of numbers")
    z = complex(float(cell[0]), float(cell[1]))
    if not cmath.isfinite(z):
        raise CliError(f"{name}: non-finite entry {cell!r}")
    return z


def pairs_to_vec(obj, length: int, name: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != length:
        raise CliError(f"{name}: expected a vector of length {length}")
    return np.array([_entry(c, name) for c in obj], dtype=complex)


def pairs_to_mat(obj, rows: int, cols: int, name: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise CliError(f"{name}: expected {rows} rows, got {len(obj) if isinstance(obj, list) else type(obj).__name__}")
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise CliError(f"{name}: row {i} must have {cols} entries")
        for j, cell in enumerate(row):
            out[i, j] = _entry(cell, name)
    return out


def _load_hermitian(obj, dim: int, name: str) -> np.ndarray:
    m = pairs_to_mat(obj, dim, dim, name)
    dev = float(np.max(np.abs(m - m.conj().T))) if dim else 0.0
    if dev > 1e-9:
        raise CliError(f"{name} is not Hermitian within 1e-9: deviation {dev:.3e}")
    return hermitize(m)


# ---------------------------------------------------------------------------
# Problem files


def config_to_dict(cfg: SolverConfig) -> dict:
    return {
        "eps_decision": cfg.eps_decision,
        "gap_tol": cfg.gap_tol,
        "max_iters": cfg.max_iters,
    }


def _config_from_dict(obj, name: str = "config") -> SolverConfig:
    """The solver config of a file; ``penalty_init``, the old ADMM penalty, is accepted and ignored."""
    if not isinstance(obj, dict):
        raise CliError(f"{name} must be an object")
    known = {"gap_tol", "eps_decision", "max_iters", "penalty_init"}
    unknown = set(obj) - known
    if unknown:
        raise CliError(f"{name} has unknown fields: {sorted(unknown)}")
    try:
        return SolverConfig(
            gap_tol=float(obj.get("gap_tol", DEFAULT_CONFIG.gap_tol)),
            eps_decision=float(obj.get("eps_decision", DEFAULT_CONFIG.eps_decision)),
            max_iters=int(obj.get("max_iters", DEFAULT_CONFIG.max_iters)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class LoadedProblem:
    """Validated in-memory form of a problem file."""

    kind: str
    config: SolverConfig
    seed: int | None = None
    metadata: dict = field(default_factory=dict)
    d1: int = 0
    d2: int = 0
    rho1: np.ndarray | None = None
    rho2: np.ndarray | None = None
    basis: np.ndarray | None = None
    n_max: int = 0
    beta: np.ndarray | None = None
    rho1_b: np.ndarray | None = None
    rho2_b: np.ndarray | None = None
    instance: ClassicalInstance | None = None


def _require(obj: dict, key: str, kind: str):
    if key not in obj:
        raise CliError(f"{kind} problem is missing required field {key!r}")
    return obj[key]


def _load_dims(obj: dict, kind: str) -> tuple[int, int]:
    dims = _require(obj, "dims", kind)
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise CliError("dims must be a pair of positive integers")
    return dims[0], dims[1]


def _load_basis(obj, dim: int, name: str = "basis") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise CliError(f"{name} must be a nonempty list of vectors")
    cols = [pairs_to_vec(v, dim, f"{name}[{i}]") for i, v in enumerate(obj)]
    basis = np.stack(cols, axis=1)
    _check_orthonormal(basis, name)
    return basis


def _load_marginals(obj: dict, kind: str, d1: int, d2: int, suffix: str = "") -> list:
    """rho1 and rho2 (or rho1_b and rho2_b): Hermitian, PSD and of equal trace."""
    names = (f"rho1{suffix}", f"rho2{suffix}")
    pair = [_load_hermitian(_require(obj, n, kind), d, n) for n, d in zip(names, (d1, d2))]
    _check_marginals(*pair, names)
    return pair


def problem_from_dict(obj) -> LoadedProblem:
    """Validate a parsed problem file; any invariant it breaks raises ``CliError``."""
    try:
        return _problem_from_dict(obj)
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _problem_from_dict(obj) -> LoadedProblem:
    if not isinstance(obj, dict):
        raise CliError("top level must be a JSON object")
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise CliError(f"version mismatch: expected {FORMAT_VERSION!r}, got {version!r}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise CliError(f"unknown kind {kind!r}; expected one of {KINDS}")
    cfg = _config_from_dict(obj.get("config", {}))
    seed = obj.get("seed")
    if seed is not None and not (isinstance(seed, int) and not isinstance(seed, bool)):
        raise CliError("seed must be an integer")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CliError("metadata must be an object")

    d1, d2 = _load_dims(obj, kind)
    if kind == "classical":
        mu1 = _require(obj, "mu1", kind)
        mu2 = _require(obj, "mu2", kind)
        edges = _require(obj, "edges", kind)
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(t, int) for t in e)
            for e in edges
        ):
            raise CliError("edges must be a list of [row, col] integer pairs")
        return LoadedProblem(
            kind=kind, config=cfg, seed=seed, metadata=metadata, d1=d1, d2=d2,
            instance=ClassicalInstance(d1, d2, mu1, mu2, [tuple(e) for e in edges]),
        )

    dim = d1 * d2
    rho1, rho2 = _load_marginals(obj, kind, d1, d2)

    if kind == "fiber_dist":
        beta = rho1_b = rho2_b = None
        if "beta" in obj:
            beta = _load_hermitian(obj["beta"], dim, "beta")
        if "rho1_b" in obj or "rho2_b" in obj:
            rho1_b, rho2_b = _load_marginals(obj, kind, d1, d2, "_b")
        if beta is None and rho1_b is None:
            raise CliError("fiber_dist problem needs either beta or a second fiber (rho1_b, rho2_b)")
        return LoadedProblem(
            kind=kind, config=cfg, seed=seed, metadata=metadata,
            d1=d1, d2=d2, rho1=rho1, rho2=rho2,
            beta=beta, rho1_b=rho1_b, rho2_b=rho2_b,
        )

    basis = _load_basis(_require(obj, "basis", kind), dim)
    n_max = obj.get("n_max", 0)
    if kind in ("f_ladder", "sdp_ladder"):
        if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
            raise CliError(f"{kind} problem needs a positive integer n_max")
    return LoadedProblem(
        kind=kind, config=cfg, seed=seed, metadata=metadata,
        d1=d1, d2=d2, rho1=rho1, rho2=rho2, basis=basis, n_max=int(n_max),
    )


def load_problem(path: str) -> LoadedProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(exc.strerror or str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"parse error: {exc}") from exc
    return problem_from_dict(obj)


def save_problem(obj: dict, path: str | None) -> str:
    text = canonical_dumps(obj)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    return text


# ---------------------------------------------------------------------------
# Instance generators


def _ginibre_psd(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return hermitize(m / float(np.trace(m).real))


def _random_subspace(rng: np.random.Generator, dim: int, k: int) -> np.ndarray:
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    q, _ = np.linalg.qr(g)
    return q[:, :k]


def _base_file(kind: str, dims: list, seed: int, metadata: dict) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": kind,
        "dims": dims,
        "config": config_to_dict(DEFAULT_CONFIG),
        "seed": seed,
        "metadata": metadata,
    }


def _supported_file(
    kind: str, rng, d1: int, d2: int, basis: np.ndarray, rho: np.ndarray,
    feasible: bool, seed: int, mix: float, meta: dict,
) -> dict:
    """The file of a state rho supported in span(basis); infeasible ones mix rho1 last."""
    r1 = partial_trace_2(rho, d1, d2)
    r2 = partial_trace_1(rho, d1, d2)
    meta["feasible"] = feasible
    if not feasible:
        r1 = hermitize((1.0 - mix) * r1 + mix * _ginibre_psd(rng, d1, d1))
        meta["mixing_weight"] = mix
    out = _base_file(kind, [d1, d2], seed, meta)
    out["rho1"] = mat_to_pairs(r1)
    out["rho2"] = mat_to_pairs(r2)
    out["basis"] = [vec_to_pairs(v) for v in basis.T]
    return out


def _gen_coupling(d1: int, d2: int, k: int, feasible: bool, seed: int, mix: float) -> dict:
    rng = np.random.default_rng(seed)
    k = max(1, min(k, d1 * d2))
    basis = _random_subspace(rng, d1 * d2, k)
    rho = hermitize(basis @ _ginibre_psd(rng, k, k) @ basis.conj().T)
    return _supported_file(
        "coupling", rng, d1, d2, basis, rho, feasible, seed, mix, {"subspace_dim": k}
    )


def _gen_f_ladder(
    d1: int, d2: int, n_max: int, k: int, feasible: bool, seed: int, mix: float
) -> dict:
    rng = np.random.default_rng(seed)
    n_max = max(1, min(n_max, d1 * d2))
    k = max(1, min(k, n_max))
    basis = _random_subspace(rng, d1 * d2, n_max)
    rho = hermitize(basis[:, :k] @ _ginibre_psd(rng, k, k) @ basis[:, :k].conj().T)
    out = _supported_file(
        "f_ladder", rng, d1, d2, basis, rho, feasible, seed, mix, {"support_dim": k}
    )
    out["n_max"] = n_max
    return out


def _gen_sdp_ladder(
    d1: int, d2: int, k: int, feasible: bool, seed: int, mix: float, decay: float
) -> dict:
    if not 0.0 < decay < 1.0:
        raise CliError(f"decay must lie in (0, 1), got {decay}")
    rng = np.random.default_rng(seed)
    k = max(1, min(k, d1 * d2))
    w1 = np.sqrt(decay) ** np.arange(d1)
    w2 = np.sqrt(decay) ** np.arange(d2)
    cols = []
    for _ in range(k):
        g = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
        v = ((w1[:, None] * g) * w2[None, :]).reshape(-1)
        cols.append(v / np.linalg.norm(v))
    basis = np.linalg.qr(np.stack(cols, axis=1))[0][:, :k]
    lam = decay ** np.arange(k)
    lam = lam / lam.sum()
    rho = hermitize((basis * lam) @ basis.conj().T)
    out = _supported_file(
        "sdp_ladder", rng, d1, d2, basis, rho, feasible, seed, mix,
        {"subspace_dim": k, "decay": decay},
    )
    out["n_max"] = min(d1, d2)
    return out


def _gen_fiber_dist(d1: int, d2: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dim = d1 * d2
    rho = _ginibre_psd(rng, dim, dim)
    beta = _ginibre_psd(rng, dim, dim)
    out = _base_file("fiber_dist", [d1, d2], seed, {})
    out["rho1"] = mat_to_pairs(partial_trace_2(rho, d1, d2))
    out["rho2"] = mat_to_pairs(partial_trace_1(rho, d1, d2))
    out["beta"] = mat_to_pairs(beta)
    return out


def _gen_classical(m: int, n: int, feasible: bool, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    if feasible:
        mask = rng.random((m, n)) < 0.7
        for i in range(m):
            if not mask[i].any():
                mask[i, int(rng.integers(n))] = True
        for j in range(n):
            if not mask[:, j].any():
                mask[int(rng.integers(m)), j] = True
        w = rng.random((m, n)) * mask
        w = w / w.sum()
        mu1 = [float(x) for x in w.sum(axis=1)]
        mu2 = [float(x) for x in w.sum(axis=0)]
        edges = [[int(i), int(j)] for i in range(m) for j in range(n) if mask[i, j]]
        meta = {"feasible": True}
    else:
        if n < 2:
            raise CliError("an infeasible classical instance needs n >= 2")
        # Starve row 0: it may ship only to column 0, which cannot absorb it.
        lack = 0.5 * (1.0 / n + 1.0)
        mu1 = [lack] + [(1.0 - lack) / (m - 1)] * (m - 1) if m > 1 else [1.0]
        mu2 = [1.0 / n] * n
        edges = [[0, 0]] + [
            [int(i), int(j)] for i in range(1, m) for j in range(n)
        ]
        meta = {"feasible": False, "starved_row": 0}
    out = _base_file("classical", [m, n], seed, meta)
    out["mu1"] = mu1
    out["mu2"] = mu2
    out["edges"] = edges
    return out


def generate_instance(spec: dict) -> dict:
    """Build a problem-file dict from a generator spec (deterministic per seed)."""
    kind = spec.get("kind")
    if kind not in KINDS:
        raise CliError(f"unknown generator kind {kind!r}; expected one of {KINDS}")
    dims = spec.get("dims", (3, 3))
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 < 1 or d2 < 1:
        raise CliError(f"invalid dims ({d1}, {d2})")
    feasible = bool(spec.get("feasible", True))
    seed = int(spec.get("seed", 0))
    mix = float(spec.get("mix", 0.2))
    if not 0.0 < mix < 1.0:
        raise CliError(f"mixing weight must lie in (0, 1), got {mix}")
    k = int(spec.get("subspace_dim", 0)) or None
    if kind == "coupling":
        return _gen_coupling(d1, d2, k or min(4, d1 * d2), feasible, seed, mix)
    if kind == "f_ladder":
        n_max = int(spec.get("n_max", 0)) or min(8, d1 * d2)
        return _gen_f_ladder(d1, d2, n_max, k or min(4, n_max), feasible, seed, mix)
    if kind == "sdp_ladder":
        decay = float(spec.get("decay", 0.5))
        return _gen_sdp_ladder(d1, d2, k or 3, feasible, seed, mix, decay)
    if kind == "fiber_dist":
        return _gen_fiber_dist(d1, d2, seed)
    return _gen_classical(d1, d2, feasible, seed)


# ---------------------------------------------------------------------------
# Runners


def _solution_block(sol) -> dict:
    return {
        "primal_value": sol.primal_value,
        "dual_value": sol.dual_value,
        "gap": sol.gap,
        "iterations": sol.iterations,
        "status": sol.status,
        "residuals": dict(sol.residuals),
    }


def _run_check(prob: LoadedProblem, cfg: SolverConfig, _args) -> tuple[dict, int]:
    x_sub = Subspace(prob.d1 * prob.d2, prob.basis)
    verdict, cert, value, sol, sup = _decide(prob.rho1, prob.rho2, x_sub, cfg)
    supported = None
    if sup is not None:
        supported = {
            "status": sup.status,
            "iterations": sup.iterations,
            "gap": sup.gap,
            "dual": sup.dual,
            "dual_pair": [mat_to_pairs(y.mat) for y in sup.Y],
        }
    report = {
        "command": "check",
        "verdict": verdict,
        "mu_value": value,
        "solution": _solution_block(sol),
        "supported": supported,
    }
    if cert is not None:
        cmat = cert.mat
        report["certificate"] = mat_to_pairs(cmat)
        report["certificate_marginal_error"] = float(
            trace_norm(partial_trace_2(cmat, prob.d1, prob.d2) - prob.rho1)
            + trace_norm(partial_trace_1(cmat, prob.d1, prob.d2) - prob.rho2)
        )
    return report, 2 if verdict == "undecided" else 0


def _run_mu(prob: LoadedProblem, cfg: SolverConfig, _args) -> tuple[dict, int]:
    x_sub = Subspace(prob.d1 * prob.d2, prob.basis)
    value, sol = mu(prob.rho1, prob.rho2, x_sub, cfg)
    sdp_problem = MarginalSdpProblem(
        BipartiteOperator(x_sub.projector, prob.d1, prob.d2), prob.rho1, prob.rho2
    )
    duality = verify_duality_certificates(sdp_problem, sol)
    report = {
        "command": "mu",
        "value": value,
        "solution": _solution_block(sol),
        "duality": {
            "trivial_feasible": duality.trivial_feasible,
            "trivial_margin": duality.trivial_margin,
            "dual_feasibility_margin": duality.dual_feasibility_margin,
            "weak_duality_slack": duality.weak_duality_slack,
            "passed": duality.passed,
        },
    }
    return report, 0 if sol.status == "optimal" else 2


def _run_ladder(prob: LoadedProblem, cfg: SolverConfig, args) -> tuple[dict, int]:
    n_max = args.levels or prob.n_max
    if prob.kind == "f_ladder":
        rep = f_ladder(prob.rho1, prob.rho2, prob.basis, n_max=n_max, cfg=cfg)
        report = {"scale": rep.scale}
    else:
        x_sub = Subspace(prob.d1 * prob.d2, prob.basis)
        rep = sdp_ladder(prob.rho1, prob.rho2, x_sub, n_max=n_max, cfg=cfg)
        report = {"skipped_levels": list(rep.skipped_levels)}
    report.update(
        command=args.command,
        verdict=rep.verdict,
        criterion=rep.criterion,
        eps_decision=rep.eps_decision,
        levels=[asdict(lv) for lv in rep.levels],
    )
    return report, 0 if rep.verdict in ("coupling_exists", "no_coupling") else 2


def _run_fiber_dist(prob: LoadedProblem, cfg: SolverConfig, args) -> tuple[dict, int]:
    fiber = FiberSpec(prob.rho1, prob.rho2)
    if prob.beta is not None:
        upper, lower, member, iterations, status = _dist_solve(prob.beta, fiber, cfg)
        report = {
            "command": "fiber-dist",
            "mode": "distance",
            "distance": upper,
            "lower_bound": lower,
            "gap": upper - lower,
            "iterations": iterations,
            "status": status,
            "nearest_member": mat_to_pairs(member),
        }
        return report, 0 if status == "optimal" else 2
    fiber_b = FiberSpec(prob.rho1_b, prob.rho2_b)
    samples = args.samples if args.samples is not None else 20
    bound = semidistance_lower_bound(fiber, fiber_b, samples=samples, cfg=cfg)
    report = {
        "command": "fiber-dist",
        "mode": "semidistance",
        "bound": bound.bound,
        "marginal_floor": bound.marginal_floor,
        "sample_bounds": list(bound.sample_bounds),
        "samples": bound.samples,
    }
    return report, 0


def _run_classical(prob: LoadedProblem, _cfg: SolverConfig, _args) -> tuple[dict, int]:
    feasible, coupling = classical_strassen(prob.instance)
    report = {
        "command": "classical",
        "feasible": bool(feasible),
        "coupling": None if coupling is None else [[float(x) for x in row] for row in coupling],
    }
    return report, 0


class _Command(NamedTuple):
    """One run command: the problem kind it reads, its runner and its flags."""

    kind: str
    runner: Callable[..., tuple[dict, int]]
    flags: tuple[str, ...]
    help: str


def _count(text: str) -> int:
    """A count flag's value; anything but digits is a usage error that names the flag."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a count of at least 0, got {text!r}")
    return int(text)


_SOLVER_FLAGS = ("gap_tol", "eps_decision", "max_iters")  # the SolverConfig fields a flag sets
_FLAG_TYPES = {
    "gap_tol": float, "eps_decision": float, "max_iters": int, "levels": _count, "samples": _count,
}
_FLAG_HELP = {"max_iters": "Newton step budget per solve"}
# The table holds runners, not solvers: a runner looks its solver up in this
# module's globals (mu, _decide, f_ladder, ...) at call time, so a wrapper
# bound to one of those names sees every call.
_COMMANDS = {
    "check": _Command(
        "coupling", _run_check, _SOLVER_FLAGS,
        "decide coupling existence and emit a certificate",
    ),
    "mu": _Command(
        "coupling", _run_mu, _SOLVER_FLAGS,
        "solve the overlap program and report certified values",
    ),
    "ladder-f": _Command(
        "f_ladder", _run_ladder, _SOLVER_FLAGS + ("levels",),
        "run the mismatch-minimization truncation ladder",
    ),
    "ladder-sdp": _Command(
        "sdp_ladder", _run_ladder, _SOLVER_FLAGS + ("levels",),
        "run the two-sided truncation ladder of overlap programs",
    ),
    "fiber-dist": _Command(
        "fiber_dist", _run_fiber_dist, _SOLVER_FLAGS + ("samples",),
        "distance to a fiber, or a semidistance lower bound",
    ),
    "classical": _Command(
        "classical", _run_classical, (), "max-flow feasibility for a diagonal instance"
    ),
}


def _effective_config(prob: LoadedProblem, args) -> SolverConfig:
    """The file's config under the solver flags the command was given."""
    given = {f: getattr(args, f) for f in _COMMANDS[args.command].flags if f in _SOLVER_FLAGS}
    return replace(prob.config, **{f: v for f, v in given.items() if v is not None})


def _execute_file(path: str, args) -> tuple[dict, int]:
    prob = load_problem(path)
    command = _COMMANDS[args.command]
    if prob.kind != command.kind:
        raise CliError(
            f"{args.command} needs a {command.kind!r} problem, got kind {prob.kind!r}"
        )
    cfg = _effective_config(prob, args)
    started = time.perf_counter()
    report, code = command.runner(prob, cfg, args)
    report["config"] = config_to_dict(cfg)
    report["kind"] = prob.kind
    report["timings"] = {"wall_time": time.perf_counter() - started}
    if prob.seed is not None:
        report["seed"] = prob.seed
    return report, code


# ---------------------------------------------------------------------------
# Selftest suites


def _selftest(seed: int, trials: int) -> tuple[dict, int]:
    """Each suite runs its trial function on the trial indices; a trial returns True on failure."""
    rng = np.random.default_rng(seed)

    def crand(rows: int, cols: int) -> np.ndarray:
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    def sv_product(_) -> bool:
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d + 1))
        return check_sv_product_bound(crand(d, k), crand(k, d)).min_margin < -1e-9

    def trace_inequality(_) -> bool:
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, d + 1))
        el = crand(d, d)
        xs, _ = np.linalg.qr(crand(d, r))
        ys, _ = np.linalg.qr(crand(d, r))
        return check_trace_inequality(el, xs, ys).margin < -1e-9

    def hs_product(_) -> bool:
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        rep = check_hs_product_bound(crand(d, k), crand(k, d))
        return rep.margin < -1e-9 or rep.trace_identity_error > 1e-10

    def partial_trace(_) -> bool:
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        f = hermitize(crand(d1 * d2, d1 * d2))
        if rng.random() < 0.5:
            f = psd_project(f)
        t2 = partial_trace_2(f, d1, d2)
        t1 = partial_trace_1(f, d1, d2)
        ok = (
            abs(np.trace(t2).real - np.trace(f).real) <= 1e-10
            and abs(np.trace(t1).real - np.trace(f).real) <= 1e-10
            and trace_norm(t2) <= trace_norm(f) + 1e-9
            and trace_norm(t1) <= trace_norm(f) + 1e-9
        )
        if float(np.linalg.eigvalsh(f)[0]) >= 0.0:
            ok = ok and float(np.linalg.eigvalsh(t2)[0]) >= -1e-10
            ok = ok and float(np.linalg.eigvalsh(t1)[0]) >= -1e-10
        return not ok

    def shifting_state(i) -> bool:
        rep = weak_vs_trace_demo(4 + i)
        return rep.max_pairing != 0.0 or rep.trace_norm_gap != 1.0

    table = (
        ("sv_product", trials, sv_product),
        ("trace_inequality", trials, trace_inequality),
        ("hs_product", trials, hs_product),
        ("partial_trace", trials, partial_trace),
        ("shifting_state", 9, shifting_state),  # n = 4, ..., 12
    )
    suites = {
        name: {"trials": count, "failures": sum(trial(i) for i in range(count))}
        for name, count, trial in table
    }
    passed = all(s["failures"] == 0 for s in suites.values())
    report = {"command": "selftest", "seed": seed, "suites": suites, "passed": passed}
    return report, 0 if passed else 1


# ---------------------------------------------------------------------------
# Output plumbing


_LEVEL_COLUMNS = (
    "level", "dim", "value", "dual_value", "lower_bound", "gap", "status", "iterations", "wall_time"
)


def _cell(value) -> str:
    """One CSV cell: lists as canonical JSON, floats at 17 digits, None empty."""
    if isinstance(value, (list, tuple)):
        return canonical_dumps(list(value))
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    else:
        rows.append((prefix, _cell(value)))


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "levels" in report:
        writer.writerow(_LEVEL_COLUMNS)
        writer.writerows([_cell(row[c]) for c in _LEVEL_COLUMNS] for row in report["levels"])
        return buf.getvalue()
    writer.writerow(["key", "value"])
    rows: list = []
    skip = {"certificate", "nearest_member", "coupling"}
    _flatten("", {k: v for k, v in report.items() if k not in skip}, rows)
    for key, val in rows:
        writer.writerow([key, val])
    return buf.getvalue()


def _write_output(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _write_report(report: dict, args) -> None:
    text = report_to_csv(report) if args.format == "csv" else canonical_dumps(report)
    _write_output(text, args.out)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other error does; exit 2 means undecided."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache  # one parser per process; in-process callers of main reuse it
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qstrassen",
        description="Bipartite coupling feasibility: SDP solvers, truncation ladders, fibers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, cmd in _COMMANDS.items():
        p_run = sub.add_parser(name, help=cmd.help)
        p_run.add_argument("files", nargs="+", help="problem files (format qstrassen/1)")
        for flag in cmd.flags:
            p_run.add_argument("--" + flag.replace("_", "-"), type=_FLAG_TYPES[flag], default=None,
                               help=_FLAG_HELP.get(flag))
        _add_output_flags(p_run)

    p_self = sub.add_parser("selftest", help="run the built-in property suites")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--trials", type=_count, default=100)
    _add_output_flags(p_self)

    p_gen = sub.add_parser("gen", help="generate a problem file")
    p_gen.add_argument("--kind", required=True, choices=KINDS)
    p_gen.add_argument("--dims", default="3x3", help="d1xd2 (or m x n for classical)")
    p_gen.add_argument("--subspace-dim", type=_count, default=0, help="0: default")
    p_gen.add_argument("--levels", type=_count, default=0, help="ladder n_max (0: default)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--decay", type=float, default=0.5)
    p_gen.add_argument("--mix", type=float, default=0.2)
    p_gen.add_argument(
        "--infeasible", action="store_true", help="perturb marginals to break feasibility"
    )
    p_gen.add_argument("--out", default=None)
    return parser


def _parse_dims(text: str) -> tuple[int, int]:
    for sep in ("x", "X", ","):
        if sep in text:
            left, _, right = text.partition(sep)
            try:
                return int(left), int(right)
            except ValueError:
                break
    raise CliError(f"cannot parse dims {text!r}; expected e.g. 3x4")


def _cmd_gen(args) -> int:
    d1, d2 = _parse_dims(args.dims)
    spec = {
        "kind": args.kind,
        "dims": (d1, d2),
        "feasible": not args.infeasible,
        "seed": args.seed,
        "decay": args.decay,
        "mix": args.mix,
        "subspace_dim": args.subspace_dim,
        "n_max": args.levels,
    }
    _write_output(canonical_dumps(generate_instance(spec)), args.out)
    return 0


# What a file may raise besides CliError: a config check or a solver breakdown,
# or OverflowError from an integer in the file beyond the float range.
_SOLVE_ERRORS = (ValueError, OverflowError, np.linalg.LinAlgError, EigendecompositionError)


def _cmd_run(args) -> int:
    """Run each file in turn; the worst exit code wins (error 1, undecided 2, ok 0)."""
    files = args.files
    if args.format == "csv" and len(files) > 1:
        raise CliError("csv output supports a single problem file")
    reports: dict[str, dict] = {}
    codes: list[int] = []
    for path in files:
        try:
            reports[path], code = _execute_file(path, args)
        except (CliError, *_SOLVE_ERRORS) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            code = 1
        codes.append(code)

    if len(files) > 1:
        _write_output(canonical_dumps(reports), args.out)
    elif reports:
        _write_report(reports[files[0]], args)
    return 1 if 1 in codes else max(codes)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "selftest":
            report, code = _selftest(args.seed, args.trials)
            _write_report(report, args)
            return code
        return _cmd_run(args)
    except (CliError, *_SOLVE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout closed: keep the flush at exit silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
