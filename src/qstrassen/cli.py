"""Command-line front end: problem file I/O, batch runs, and instance generators.

File format "qstrassen/1" is JSON with matrices stored as nested arrays of
[re, im] pairs in the composite-index order (i, p) -> i * d2 + p. Reports
echo the solver config and carry wall-clock timings separately from value
fields, so reruns are bit-identical in every value field. Exit codes: 0 when
a verdict or certified value was reached (including no_coupling), 2 when
the outcome is undecided, 1 on errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .bipartite import (
    BipartiteOperator,
    Subspace,
    partial_trace_1,
    partial_trace_2,
    weak_vs_trace_demo,
)
from .fibers import FiberSpec, _dist_solve, semidistance_lower_bound
from .linalg import (
    DEFAULT_TOL,
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
    return complex(float(cell[0]), float(cell[1]))


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
        "penalty_init": cfg.penalty_init,
    }


def _config_from_dict(obj, name: str = "config") -> SolverConfig:
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
            penalty_init=float(obj.get("penalty_init", DEFAULT_CONFIG.penalty_init)),
        )
    except (TypeError, ValueError) as exc:
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
    mu1: tuple = ()
    mu2: tuple = ()
    edges: tuple = ()


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
    gram_dev = float(np.max(np.abs(basis.conj().T @ basis - np.eye(len(cols)))))
    if gram_dev > DEFAULT_TOL.orthonormal:
        raise CliError(
            f"{name} is not orthonormal within {DEFAULT_TOL.orthonormal:g}: Gram deviation {gram_dev:.3e}"
        )
    return basis


def _check_state(r: np.ndarray, name: str) -> None:
    low = float(np.linalg.eigvalsh(r)[0])
    if low < -1e-9:
        raise CliError(f"{name} is not PSD: min eigenvalue {low:.3e}")


def _check_sigma(r1: np.ndarray, r2: np.ndarray, names=("rho1", "rho2")) -> None:
    dev = abs(float(np.trace(r1).real) - float(np.trace(r2).real))
    if dev > 1e-9:
        raise CliError(
            f"Sigma membership violated: |tr {names[0]} - tr {names[1]}| = {dev:.3e} "
            "exceeds 1e-9"
        )


def problem_from_dict(obj, source: str = "<memory>") -> LoadedProblem:
    if not isinstance(obj, dict):
        raise CliError(f"{source}: top level must be a JSON object")
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise CliError(
            f"{source}: version mismatch: expected {FORMAT_VERSION!r}, got {version!r}"
        )
    kind = obj.get("kind")
    if kind not in KINDS:
        raise CliError(f"{source}: unknown kind {kind!r}; expected one of {KINDS}")
    cfg = _config_from_dict(obj.get("config", {}))
    seed = obj.get("seed")
    if seed is not None and not (isinstance(seed, int) and not isinstance(seed, bool)):
        raise CliError("seed must be an integer")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CliError("metadata must be an object")

    if kind == "classical":
        m, n = _load_dims(obj, kind)
        mu1 = _require(obj, "mu1", kind)
        mu2 = _require(obj, "mu2", kind)
        edges = _require(obj, "edges", kind)
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(t, int) for t in e)
            for e in edges
        ):
            raise CliError("edges must be a list of [row, col] integer pairs")
        try:
            inst = ClassicalInstance(m, n, mu1, mu2, [tuple(e) for e in edges])
        except (TypeError, ValueError) as exc:
            raise CliError(f"{source}: {exc}") from exc
        return LoadedProblem(
            kind=kind,
            config=cfg,
            seed=seed,
            metadata=metadata,
            d1=m,
            d2=n,
            mu1=tuple(float(x) for x in inst.mu1),
            mu2=tuple(float(x) for x in inst.mu2),
            edges=tuple(sorted(inst.edges)),
        )

    d1, d2 = _load_dims(obj, kind)
    dim = d1 * d2
    rho1 = _load_hermitian(_require(obj, "rho1", kind), d1, "rho1")
    rho2 = _load_hermitian(_require(obj, "rho2", kind), d2, "rho2")
    _check_state(rho1, "rho1")
    _check_state(rho2, "rho2")
    _check_sigma(rho1, rho2)

    if kind == "fiber_dist":
        beta = rho1_b = rho2_b = None
        if "beta" in obj:
            beta = _load_hermitian(obj["beta"], dim, "beta")
        if "rho1_b" in obj or "rho2_b" in obj:
            rho1_b = _load_hermitian(_require(obj, "rho1_b", kind), d1, "rho1_b")
            rho2_b = _load_hermitian(_require(obj, "rho2_b", kind), d2, "rho2_b")
            _check_state(rho1_b, "rho1_b")
            _check_state(rho2_b, "rho2_b")
            _check_sigma(rho1_b, rho2_b, ("rho1_b", "rho2_b"))
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
        raise CliError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: parse error: {exc}") from exc
    return problem_from_dict(obj, source=path)


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


def _gen_coupling(d1: int, d2: int, k: int, feasible: bool, seed: int, mix: float) -> dict:
    rng = np.random.default_rng(seed)
    dim = d1 * d2
    k = max(1, min(k, dim))
    basis = _random_subspace(rng, dim, k)
    c = _ginibre_psd(rng, k, k)
    rho = hermitize(basis @ c @ basis.conj().T)
    r1 = partial_trace_2(rho, d1, d2)
    r2 = partial_trace_1(rho, d1, d2)
    meta: dict = {"subspace_dim": k, "feasible": feasible}
    if not feasible:
        r1 = hermitize((1.0 - mix) * r1 + mix * _ginibre_psd(rng, d1, d1))
        meta["mixing_weight"] = mix
    out = _base_file("coupling", [d1, d2], seed, meta)
    out["rho1"] = mat_to_pairs(r1)
    out["rho2"] = mat_to_pairs(r2)
    out["basis"] = [vec_to_pairs(basis[:, j]) for j in range(k)]
    return out


def _gen_f_ladder(
    d1: int, d2: int, n_max: int, k: int, feasible: bool, seed: int, mix: float
) -> dict:
    rng = np.random.default_rng(seed)
    dim = d1 * d2
    n_max = max(1, min(n_max, dim))
    k = max(1, min(k, n_max))
    basis = _random_subspace(rng, dim, n_max)
    c = _ginibre_psd(rng, k, k)
    rho = hermitize(basis[:, :k] @ c @ basis[:, :k].conj().T)
    r1 = partial_trace_2(rho, d1, d2)
    r2 = partial_trace_1(rho, d1, d2)
    meta: dict = {"support_dim": k, "feasible": feasible}
    if not feasible:
        r1 = hermitize((1.0 - mix) * r1 + mix * _ginibre_psd(rng, d1, d1))
        meta["mixing_weight"] = mix
    out = _base_file("f_ladder", [d1, d2], seed, meta)
    out["rho1"] = mat_to_pairs(r1)
    out["rho2"] = mat_to_pairs(r2)
    out["basis"] = [vec_to_pairs(basis[:, j]) for j in range(n_max)]
    out["n_max"] = n_max
    return out


def _gen_sdp_ladder(
    d1: int, d2: int, k: int, feasible: bool, seed: int, mix: float, decay: float
) -> dict:
    if not 0.0 < decay < 1.0:
        raise CliError(f"decay must lie in (0, 1), got {decay}")
    rng = np.random.default_rng(seed)
    dim = d1 * d2
    k = max(1, min(k, dim))
    w1 = np.sqrt(decay) ** np.arange(d1)
    w2 = np.sqrt(decay) ** np.arange(d2)
    cols = []
    for _ in range(k):
        g = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
        v = ((w1[:, None] * g) * w2[None, :]).reshape(-1)
        cols.append(v / np.linalg.norm(v))
    raw = np.stack(cols, axis=1)
    q, _ = np.linalg.qr(raw)
    basis = q[:, :k]
    lam = decay ** np.arange(k)
    lam = lam / lam.sum()
    rho = hermitize((basis * lam) @ basis.conj().T)
    r1 = partial_trace_2(rho, d1, d2)
    r2 = partial_trace_1(rho, d1, d2)
    meta: dict = {"subspace_dim": k, "decay": decay, "feasible": feasible}
    if not feasible:
        r1 = hermitize((1.0 - mix) * r1 + mix * _ginibre_psd(rng, d1, d1))
        meta["mixing_weight"] = mix
    out = _base_file("sdp_ladder", [d1, d2], seed, meta)
    out["rho1"] = mat_to_pairs(r1)
    out["rho2"] = mat_to_pairs(r2)
    out["basis"] = [vec_to_pairs(basis[:, j]) for j in range(k)]
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


def _expect_kind(prob: LoadedProblem, kind: str, command: str) -> None:
    if prob.kind != kind:
        raise CliError(f"{command} needs a {kind!r} problem, got kind {prob.kind!r}")


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
    _expect_kind(prob, "coupling", "check")
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
    _expect_kind(prob, "coupling", "mu")
    x_sub = Subspace(prob.d1 * prob.d2, prob.basis)
    value, sol = mu(prob.rho1, prob.rho2, x_sub, cfg)
    sdp_problem = MarginalSdpProblem(
        BipartiteOperator(x_sub.projector.mat, prob.d1, prob.d2), prob.rho1, prob.rho2
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


def _levels_block(report) -> list:
    rows = []
    for lv in report.levels:
        rows.append(
            {
                "level": list(lv.level) if isinstance(lv.level, tuple) else lv.level,
                "dim": lv.dim,
                "value": lv.value,
                "dual_value": lv.dual_value,
                "lower_bound": lv.lower_bound,
                "gap": lv.gap,
                "status": lv.status,
                "wall_time": lv.wall_time,
            }
        )
    return rows


def _ladder_exit(verdict: str) -> int:
    return 0 if verdict in ("coupling_exists", "no_coupling") else 2


def _run_ladder_f(prob: LoadedProblem, cfg: SolverConfig, args) -> tuple[dict, int]:
    _expect_kind(prob, "f_ladder", "ladder-f")
    n_max = args.levels or prob.n_max or prob.basis.shape[1]
    rep = f_ladder(prob.rho1, prob.rho2, prob.basis, n_max=n_max, cfg=cfg)
    report = {
        "command": "ladder-f",
        "verdict": rep.verdict,
        "criterion": rep.criterion,
        "eps_decision": rep.eps_decision,
        "scale": rep.scale,
        "levels": _levels_block(rep),
    }
    return report, _ladder_exit(rep.verdict)


def _run_ladder_sdp(prob: LoadedProblem, cfg: SolverConfig, args) -> tuple[dict, int]:
    _expect_kind(prob, "sdp_ladder", "ladder-sdp")
    x_sub = Subspace(prob.d1 * prob.d2, prob.basis)
    n_max = args.levels or prob.n_max or min(prob.d1, prob.d2)
    rep = sdp_ladder(prob.rho1, prob.rho2, x_sub, n_max=n_max, cfg=cfg)
    report = {
        "command": "ladder-sdp",
        "verdict": rep.verdict,
        "criterion": rep.criterion,
        "eps_decision": rep.eps_decision,
        "levels": _levels_block(rep),
        "skipped_levels": list(rep.skipped_levels),
    }
    return report, _ladder_exit(rep.verdict)


def _run_fiber_dist(prob: LoadedProblem, cfg: SolverConfig, args) -> tuple[dict, int]:
    _expect_kind(prob, "fiber_dist", "fiber-dist")
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
    _expect_kind(prob, "classical", "classical")
    inst = ClassicalInstance(
        prob.d1, prob.d2, list(prob.mu1), list(prob.mu2), [tuple(e) for e in prob.edges]
    )
    feasible, coupling = classical_strassen(inst)
    report = {
        "command": "classical",
        "feasible": bool(feasible),
        "coupling": None if coupling is None else [[float(x) for x in row] for row in coupling],
    }
    return report, 0


_RUNNERS = {
    "check": _run_check,
    "mu": _run_mu,
    "ladder-f": _run_ladder_f,
    "ladder-sdp": _run_ladder_sdp,
    "fiber-dist": _run_fiber_dist,
    "classical": _run_classical,
}


def _effective_config(prob: LoadedProblem, args) -> SolverConfig:
    return SolverConfig(
        gap_tol=args.gap_tol if args.gap_tol is not None else prob.config.gap_tol,
        eps_decision=(
            args.eps_decision if args.eps_decision is not None else prob.config.eps_decision
        ),
        max_iters=args.max_iters if args.max_iters is not None else prob.config.max_iters,
        penalty_init=prob.config.penalty_init,
    )


def _execute_file(command: str, path: str, args) -> tuple[dict, int]:
    prob = load_problem(path)
    cfg = _effective_config(prob, args)
    started = time.perf_counter()
    report, code = _RUNNERS[command](prob, cfg, args)
    report["config"] = config_to_dict(cfg)
    report["kind"] = prob.kind
    report["timings"] = {"wall_time": time.perf_counter() - started}
    if prob.seed is not None:
        report["seed"] = prob.seed
    return report, code


# ---------------------------------------------------------------------------
# Selftest suites


def _selftest(seed: int, trials: int) -> tuple[dict, int]:
    rng = np.random.default_rng(seed)
    suites: dict[str, dict] = {}

    def crand(rows: int, cols: int) -> np.ndarray:
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    fails = 0
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d + 1))
        rep = check_sv_product_bound(crand(d, k), crand(k, d))
        if rep.min_margin < -1e-9:
            fails += 1
    suites["sv_product"] = {"trials": trials, "failures": fails}

    fails = 0
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, d + 1))
        el = crand(d, d)
        xs, _ = np.linalg.qr(crand(d, r))
        ys, _ = np.linalg.qr(crand(d, r))
        rep = check_trace_inequality(el, xs, ys)
        if rep.margin < -1e-9:
            fails += 1
    suites["trace_inequality"] = {"trials": trials, "failures": fails}

    fails = 0
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        rep = check_hs_product_bound(crand(d, k), crand(k, d))
        if rep.margin < -1e-9 or rep.trace_identity_error > 1e-10:
            fails += 1
    suites["hs_product"] = {"trials": trials, "failures": fails}

    fails = 0
    for _ in range(trials):
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
        if not ok:
            fails += 1
    suites["partial_trace"] = {"trials": trials, "failures": fails}

    fails = 0
    shift_trials = 0
    for n in range(4, 13):
        shift_trials += 1
        rep = weak_vs_trace_demo(n)
        if rep.max_pairing != 0.0 or rep.trace_norm_gap != 1.0:
            fails += 1
    suites["shifting_state"] = {"trials": shift_trials, "failures": fails}

    passed = all(s["failures"] == 0 for s in suites.values())
    report = {"command": "selftest", "seed": seed, "suites": suites, "passed": passed}
    return report, 0 if passed else 1


# ---------------------------------------------------------------------------
# Output plumbing


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    elif isinstance(value, (list, tuple)):
        rows.append((prefix, canonical_dumps(list(value))))
    elif isinstance(value, float):
        rows.append((prefix, _fmt_float(value)))
    elif isinstance(value, bool):
        rows.append((prefix, "true" if value else "false"))
    elif value is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, str(value)))


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "levels" in report:
        header = ["level", "dim", "value", "dual_value", "lower_bound", "gap", "status", "wall_time"]
        writer.writerow(header)
        for row in report["levels"]:
            writer.writerow(
                [
                    canonical_dumps(row["level"]) if isinstance(row["level"], list) else row["level"],
                    row["dim"],
                    _fmt_float(row["value"]),
                    "" if row["dual_value"] is None else _fmt_float(row["dual_value"]),
                    "" if row["lower_bound"] is None else _fmt_float(row["lower_bound"]),
                    _fmt_float(row["gap"]),
                    row["status"],
                    _fmt_float(row["wall_time"]),
                ]
            )
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


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstrassen",
        description="Bipartite coupling feasibility: SDP solvers, truncation ladders, fibers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("files", nargs="+", help="problem files (format qstrassen/1)")
    run_flags.add_argument("--gap-tol", type=float, default=None)
    run_flags.add_argument("--eps-decision", type=float, default=None)
    run_flags.add_argument("--max-iters", type=int, default=None)
    run_flags.add_argument("--levels", type=int, default=None)
    run_flags.add_argument("--samples", type=int, default=None)
    run_flags.add_argument("--out", default=None, help="write the report here instead of stdout")
    run_flags.add_argument("--format", choices=("json", "csv"), default="json")

    for name, help_text in (
        ("check", "decide coupling existence and emit a certificate"),
        ("mu", "solve the overlap program and report certified values"),
        ("ladder-f", "run the mismatch-minimization truncation ladder"),
        ("ladder-sdp", "run the two-sided truncation ladder of overlap programs"),
        ("fiber-dist", "distance to a fiber, or a semidistance lower bound"),
        ("classical", "max-flow feasibility for a diagonal instance"),
    ):
        sub.add_parser(name, parents=[run_flags], help=help_text)

    p_self = sub.add_parser("selftest", help="run the built-in property suites")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--trials", type=int, default=100)
    p_self.add_argument("--out", default=None)
    p_self.add_argument("--format", choices=("json", "csv"), default="json")

    p_gen = sub.add_parser("gen", help="generate a problem file")
    p_gen.add_argument("--kind", required=True, choices=KINDS)
    p_gen.add_argument("--dims", default="3x3", help="d1xd2 (or m x n for classical)")
    p_gen.add_argument("--subspace-dim", type=int, default=0)
    p_gen.add_argument("--levels", type=int, default=0, help="n_max for ladder kinds")
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


def _cmd_run(args) -> int:
    command = args.command
    files = args.files
    reports: dict[str, dict] = {}
    codes: dict[str, int] = {}
    errors: dict[str, str] = {}

    for path in files:
        try:
            reports[path], codes[path] = _execute_file(command, path, args)
        except CliError as exc:
            errors[path] = str(exc)
        except (ValueError, np.linalg.LinAlgError) as exc:
            errors[path] = f"{path}: {exc}"
        if path in errors:
            print(errors[path], file=sys.stderr)

    if len(files) == 1:
        if files[0] in errors:
            return 1
        report = reports[files[0]]
        text = report_to_csv(report) if args.format == "csv" else canonical_dumps(report)
        _write_output(text, args.out)
        return codes[files[0]]
    if args.format == "csv":
        raise CliError("csv output supports a single problem file")
    combined = {path: reports[path] for path in files if path in reports}
    _write_output(canonical_dumps(combined), args.out)
    if errors:
        return 1
    if any(code == 2 for code in codes.values()):
        return 2
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "selftest":
            report, code = _selftest(args.seed, args.trials)
            text = report_to_csv(report) if args.format == "csv" else canonical_dumps(report)
            _write_output(text, args.out)
            return code
        return _cmd_run(args)
    except (CliError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout closed: keep the flush at exit silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
