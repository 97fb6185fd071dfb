"""Splitting solvers for the two structured conic programs behind coupling tests.

Both programs are a linear objective over an affine slice of a product of PSD
cones. ``solve_marginal_sdp`` handles the overlap program

    maximize  <A, X>   subject to   tr_2 X + S1 = rho1,  tr_1 X + S2 = rho2,
                                    X >= 0, S1 >= 0, S2 >= 0,

whose optimal value mu equals 1 exactly when a coupling supported in the
subspace behind A exists. ``solve_f_min`` minimizes the marginal mismatch
f(X) = ||tr_2 X - rho1||_1 + ||tr_1 X - rho2||_1 over PSD X supported in a
given subspace, with the trace norms encoded through their semidefinite
epigraphs.

The method is a two-block ADMM with over-relaxation and residual balancing:
one block is projected onto the affine slice (closed form, derived from the
marginal map's normal equations), the other onto the PSD cones (the only
expensive kernel). One driver, ``_admm``, runs the iteration for every solver
here and in ``fibers``; each solver supplies only its affine step, its cone
projections and its certify checkpoint. Reported values are certified: the
primal value is evaluated at an exactly feasible restoration of the iterate,
the dual value at an exactly feasible repair of the multipliers, so
primal <= optimum <= dual holds up to the stated feasibility slack (~1e-12),
not merely in the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bipartite import BipartiteOperator, Subspace, partial_trace_1, partial_trace_2
from .linalg import (
    DEFAULT_TOL,
    HermitianOperator,
    as_matrix,
    hermitize,
    psd_project,
    trace_norm,
)

__all__ = [
    "SolverConfig",
    "DEFAULT_CONFIG",
    "MarginalSdpProblem",
    "MarginalSdpSolution",
    "DualityCertificateReport",
    "FMinSolution",
    "SupportedOverlapSolution",
    "solve_marginal_sdp",
    "solve_f_min",
    "solve_f_min_full",
    "solve_supported_overlap",
    "verify_duality_certificates",
]

_CHECK_EVERY = 25
_BALANCE_RATIO = 10.0
_BALANCE_SCALE = 2.0
_RELAX = 1.6
_FEAS_SLACK = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by every solve; the four fields are the serialized config."""

    gap_tol: float = 1e-6
    eps_decision: float = 1e-4
    max_iters: int = 50_000
    penalty_init: float = 1.0

    def __post_init__(self):
        if self.gap_tol <= 0 or self.penalty_init <= 0:
            raise ValueError("gap_tol and penalty_init must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


DEFAULT_CONFIG = SolverConfig()


def _tr(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def _hs(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt pairing Re tr(a^* b)."""
    return float(np.vdot(a, b).real)


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(m))[0])


def _max_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(m))[-1])


class MarginalSdpProblem:
    """Overlap program data: objective block A and marginal bounds (rho1, rho2).

    ``require_equal_traces`` is relaxed for truncated-ladder levels, where the
    two marginal bounds are compressions of a common state and their traces
    legitimately differ.
    """

    __slots__ = ("objective", "rho1", "rho2", "require_equal_traces")

    def __init__(
        self,
        objective: BipartiteOperator,
        rho1,
        rho2,
        require_equal_traces: bool = True,
    ):
        r1 = rho1 if isinstance(rho1, HermitianOperator) else HermitianOperator(rho1)
        r2 = rho2 if isinstance(rho2, HermitianOperator) else HermitianOperator(rho2)
        if r1.dim != objective.d1 or r2.dim != objective.d2:
            raise ValueError(
                f"marginal dims ({r1.dim}, {r2.dim}) do not match objective factors "
                f"({objective.d1}, {objective.d2})"
            )
        for name, r in (("rho1", r1), ("rho2", r2)):
            low = _min_eig(r.mat)
            if low < -1e-9:
                raise ValueError(f"{name} is not PSD: min eigenvalue {low:.3e}")
        if require_equal_traces and abs(r1.trace() - r2.trace()) > 1e-9:
            raise ValueError(
                f"Sigma membership violated: |tr rho1 - tr rho2| = "
                f"{abs(r1.trace() - r2.trace()):.3e} exceeds 1e-9"
            )
        a = objective.mat
        idem = float(np.max(np.abs(a @ a - a)))
        if idem > 1e-9:
            raise ValueError(f"objective is not a projector: ||A^2 - A|| = {idem:.3e}")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rho1", r1)
        object.__setattr__(self, "rho2", r2)
        object.__setattr__(self, "require_equal_traces", bool(require_equal_traces))

    def __setattr__(self, name, value):
        raise AttributeError("MarginalSdpProblem is immutable")

    @property
    def d1(self) -> int:
        return self.objective.d1

    @property
    def d2(self) -> int:
        return self.objective.d2


@dataclass(frozen=True)
class MarginalSdpSolution:
    """Certified output of the overlap program.

    ``X`` is exactly feasible up to ~1e-12 slack (PSD, marginals dominated) and
    ``Y`` is an exactly feasible dual pair, so primal_value <= mu <= dual_value.
    ``residuals`` reports the violations of the returned pair; ``primal_history``
    collects the certified primal values at solver checkpoints (nondecreasing).
    """

    X: BipartiteOperator
    Y: tuple[HermitianOperator, HermitianOperator]
    primal_value: float
    dual_value: float
    gap: float
    residuals: dict
    iterations: int
    status: str
    primal_history: tuple = ()


def _support_scaler(r1, r2, allow: float):
    """Support scale against fixed marginal bounds: scale(m1, m2) -> t.

    t is the largest value in [0, 1] with t*m1 <= r1 + allow*I and
    t*m2 <= r2 + allow*I. With R_a = R + allow*I > 0 the condition t*M <= R_a
    reads t * lambda_max(R_a^{-1/2} M R_a^{-1/2}) <= 1, so each marginal bounds
    t in closed form. The whiteners R_a^{-1/2} depend only on the bounds, so
    they are factored here once (one eigh per marginal) and each call costs
    one eigvalsh per marginal plus the confirmation. The root is backed off by
    a relative 1e-12 and confirmed with the exact test
    min_eig(R - t*M) >= -allow on both marginals; a failed confirmation backs
    off further, down to 0. Every call returns 0 when
    lambda_min(R) + allow <= 0, where no t passes.
    """
    whiteners = []
    for r in (r1, r2):
        w, v = np.linalg.eigh(hermitize(r))
        if w[0] + allow <= 0.0:
            return lambda m1, m2: 0.0
        whiteners.append(v / np.sqrt(w + allow))

    def scale(m1, m2) -> float:
        t = 1.0
        for m, k in zip((m1, m2), whiteners):
            top = _max_eig(k.conj().T @ m @ k)
            if top * t > 1.0:
                t = (1.0 - 1e-12) / top
        shrink = 1e-12
        while t > 0.0 and not (
            _min_eig(r1 - t * m1) >= -allow and _min_eig(r2 - t * m2) >= -allow
        ):
            shrink *= 16.0
            t = t * (1.0 - shrink) if shrink < 1.0 else 0.0
        return t

    return scale


def _support_projector(r: np.ndarray, tol) -> np.ndarray | None:
    """Projector onto the support of a PSD matrix, or None when full rank."""
    w, v = np.linalg.eigh(hermitize(r))
    top = max(w[-1], 0.0)
    keep = w > tol.support_rel * top if top > 0 else np.zeros_like(w, dtype=bool)
    if keep.all():
        return None
    vk = v[:, keep]
    return vk @ vk.conj().T


def _admm(affine, project, w, lam, sigma: float, max_iters: int, certify):
    """The one ADMM loop: over-relaxation, checkpoints and residual balancing.

    ``w`` holds the consensus blocks and ``lam`` their scaled multipliers.
    Each iteration takes one point per block on the affine set from
    ``affine(w, lam, sigma)``, over-relaxes it, projects each block with its
    ``project`` entry and updates the multipliers. Every _CHECK_EVERY
    iterations and at the last one the checkpoint ends the solve with status
    ``infeasible_numerics`` when the first affine block is not finite, then
    lets ``certify(w, lam, sigma, pres, dres)`` update the caller's bracket
    and return a stop status or None, and otherwise balances the penalty
    against the primal and dual residuals. Returns
    (status, iterations, w, lam, sigma); status is ``max_iters`` when the
    budget runs out first.
    """
    status = "max_iters"
    it = 0
    while it < max_iters:
        it += 1
        x = affine(w, lam, sigma)
        w_old = w
        w = []
        lam_new = []
        for xb, wb, lb, proj in zip(x, w_old, lam, project):
            h = _RELAX * xb + (1.0 - _RELAX) * wb
            wn = proj(h + lb)
            w.append(wn)
            lam_new.append(lb + h - wn)
        lam = lam_new
        if it % _CHECK_EVERY == 0 or it == max_iters:
            if not np.isfinite(x[0]).all():
                status = "infeasible_numerics"
                break
            # The residuals are read only here, so only checkpoints pay for them.
            dsq = psq = 0.0
            for xb, wb, wn in zip(x, w_old, w):
                dsq += np.linalg.norm(wn - wb) ** 2
                psq += np.linalg.norm(xb - wn) ** 2
            dres = sigma * math.sqrt(dsq)
            pres = math.sqrt(psq)
            stop = certify(w, lam, sigma, pres, dres)
            if stop is not None:
                status = stop
                break
            if pres > _BALANCE_RATIO * dres:
                sigma *= _BALANCE_SCALE
                lam = [lb / _BALANCE_SCALE for lb in lam]
            elif dres > _BALANCE_RATIO * pres:
                sigma /= _BALANCE_SCALE
                lam = [lb * _BALANCE_SCALE for lb in lam]
    return status, it, w, lam, sigma


def solve_marginal_sdp(
    problem: MarginalSdpProblem,
    cfg: SolverConfig = DEFAULT_CONFIG,
    warm_start: dict | None = None,
) -> MarginalSdpSolution:
    """Solve the overlap program with certified primal and dual values.

    The returned primal value is attained by the returned X (feasible up to
    1e-12), the dual value by the returned Y (feasible after an exact identity
    shift repair), so the reported gap is a two-sided optimality certificate.
    The solve stops with status ``optimal`` at the first checkpoint (every 25
    iterations) where that certified gap is at most cfg.gap_tol; the ADMM
    residuals only steer the penalty. Status is ``max_iters`` when the budget
    runs out first, and ``infeasible_numerics`` only on NaN/Inf breakdown.
    """
    return _solve_overlap(
        problem.objective.mat, problem.rho1.mat, problem.rho2.mat, cfg, warm_start
    )


def _shift_to_dominate(y1: np.ndarray, y2: np.ndarray, a: np.ndarray):
    """Identity shifts of (Y1, Y2) until Y1 (x) I + I (x) Y2 >= A holds exactly.

    Each round adds half the measured violation to both blocks, which raises
    the dual value <rho1, Y1> + <rho2, Y2> by that violation times the mean
    marginal trace.
    """
    eye1 = np.eye(y1.shape[0])
    eye2 = np.eye(y2.shape[0])
    for _ in range(3):
        viol = _min_eig(np.kron(y1, eye2) + np.kron(eye1, y2) - a)
        if viol >= 0:
            break
        shift = 0.5 * (-viol) + 1e-15
        y1 = y1 + shift * eye1
        y2 = y2 + shift * eye2
    return y1, y2


def _solve_overlap(
    a: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
    cfg: SolverConfig = DEFAULT_CONFIG,
    warm_start: dict | None = None,
) -> MarginalSdpSolution:
    """``solve_marginal_sdp`` on raw matrices; A only needs 0 <= A <= I."""
    d1, d2 = r1.shape[0], r2.shape[0]
    dim = d1 * d2
    eye1 = np.eye(d1)
    eye2 = np.eye(d2)
    det = 1.0 + d1 + d2
    allow = max(_FEAS_SLACK, 2.0 * max(0.0, -_min_eig(r1), -_min_eig(r2)))
    support_scale = _support_scaler(r1, r2, allow)
    q1 = _support_projector(r1, DEFAULT_TOL)
    q2 = _support_projector(r2, DEFAULT_TOL)
    qkron = None
    if q1 is not None or q2 is not None:
        qkron = np.kron(q1 if q1 is not None else eye1, q2 if q2 is not None else eye2)

    sigma = cfg.penalty_init
    w = [
        np.zeros((dim, dim), dtype=complex),
        psd_project(r1.astype(complex)),
        psd_project(r2.astype(complex)),
    ]
    lam = [np.zeros_like(b) for b in w]
    if warm_start:
        wx = psd_project(as_matrix(warm_start.get("X", w[0])))
        w = [
            wx,
            psd_project(r1 - partial_trace_2(wx, d1, d2)),
            psd_project(r2 - partial_trace_1(wx, d1, d2)),
        ]
        sigma = float(warm_start.get("sigma", sigma))
        for k in (1, 2):
            if f"Y{k}" in warm_start:
                lam[k] = -hermitize(as_matrix(warm_start[f"Y{k}"])) / sigma

    best_primal = -math.inf
    best_x = np.zeros_like(w[0])
    best_t2x = np.zeros_like(r1)
    best_t1x = np.zeros_like(r2)
    best_dual = math.inf
    best_y1 = eye1.astype(complex)
    best_y2 = eye2.astype(complex)
    history: list[float] = []

    def affine(w, lam, sigma):
        # Project (wx - lx + a/sigma, ws - ls) onto the affine slice
        # tr_2 X + S1 = rho1, tr_1 X + S2 = rho2 via the normal equations of
        # the marginal map (a 2x2 trace system plus identity shifts).
        v = w[0] - lam[0] + a / sigma
        g1 = w[1] - lam[1]
        g2 = w[2] - lam[2]
        rr1 = partial_trace_2(v, d1, d2) + g1 - r1
        rr2 = partial_trace_1(v, d1, d2) + g2 - r2
        a1 = _tr(rr1)
        a2 = _tr(rr2)
        tm1 = ((1.0 + d1) * a1 - d1 * a2) / det
        tm2 = ((1.0 + d2) * a2 - d2 * a1) / det
        m1 = (rr1 - tm2 * eye1) / (1.0 + d2)
        m2 = (rr2 - tm1 * eye2) / (1.0 + d1)
        return v - np.kron(m1, eye2) - np.kron(eye1, m2), g1 - m1, g2 - m2

    def certify(w, lam, sigma, pres, dres):
        nonlocal best_primal, best_x, best_dual, best_y1, best_y2, best_t2x, best_t1x
        # Primal restoration: clamp to the PSD cone and the marginal supports,
        # then scale down until domination holds exactly.
        xc = w[0] if qkron is None else hermitize(qkron @ w[0] @ qkron)
        t2x = partial_trace_2(xc, d1, d2)
        t1x = partial_trace_1(xc, d1, d2)
        t = support_scale(t2x, t1x)
        val = t * _hs(a, xc)
        if val > best_primal:
            best_primal = val
            best_x = t * xc
            best_t2x = t * t2x
            best_t1x = t * t1x
        history.append(best_primal)
        # Dual repair: multipliers for the slack cones are PSD by construction;
        # an identity shift enforces Y1 (x) I + I (x) Y2 >= A exactly.
        y1 = hermitize(-sigma * lam[1])
        y2 = hermitize(-sigma * lam[2])
        low1 = _min_eig(y1)
        if low1 < 0:
            y1 = y1 - low1 * eye1
        low2 = _min_eig(y2)
        if low2 < 0:
            y2 = y2 - low2 * eye2
        y1, y2 = _shift_to_dominate(y1, y2, a)
        dval = _hs(r1, y1) + _hs(r2, y2)
        if dval < best_dual:
            best_dual = dval
            best_y1 = y1
            best_y2 = y2
        return "optimal" if best_dual - best_primal <= cfg.gap_tol else None

    project = (psd_project, psd_project, psd_project)
    status, it, w, lam, sigma = _admm(
        affine, project, w, lam, sigma, cfg.max_iters, certify
    )
    if not history:
        certify(w, lam, sigma, math.inf, math.inf)
    adjoint_viol = max(
        0.0,
        -_min_eig(np.kron(best_y1, eye2) + np.kron(eye1, best_y2) - a),
    )
    residuals = {
        "psd_violation": max(0.0, -_min_eig(best_x)),
        "constraint_violation": max(
            0.0, _max_eig(best_t2x - r1), _max_eig(best_t1x - r2)
        ),
        "adjoint_violation": adjoint_viol,
    }
    return MarginalSdpSolution(
        X=BipartiteOperator(hermitize(best_x), d1, d2),
        Y=(HermitianOperator(best_y1), HermitianOperator(best_y2)),
        primal_value=best_primal,
        dual_value=best_dual,
        gap=abs(best_dual - best_primal),
        residuals=residuals,
        iterations=it,
        status=status,
        primal_history=tuple(history),
    )


@dataclass(frozen=True)
class DualityCertificateReport:
    """Outcome of the weak-duality and trivial-certificate checks."""

    trivial_value: float
    trivial_margin: float
    trivial_feasible: bool
    dual_feasibility_margin: float
    dual_psd_margin: float
    weak_duality_slack: float
    gap: float
    passed: bool


def verify_duality_certificates(
    problem: MarginalSdpProblem, solution: MarginalSdpSolution
) -> DualityCertificateReport:
    """Report-only certificate checks for a solved overlap program.

    Verifies that the trivial pair Y = (I, I) is dual feasible (its adjoint
    image 2I dominates any projector objective), that the returned dual pair
    is feasible within 1e-7, and that weak duality holds against the returned
    primal value.
    """
    d1, d2 = problem.d1, problem.d2
    a = problem.objective.mat
    eye1 = np.eye(d1)
    eye2 = np.eye(d2)
    trivial_margin = _min_eig(2.0 * np.eye(d1 * d2) - a)
    trivial_value = problem.rho1.trace() + problem.rho2.trace()
    y1 = solution.Y[0].mat
    y2 = solution.Y[1].mat
    dual_margin = _min_eig(np.kron(y1, eye2) + np.kron(eye1, y2) - a)
    dual_psd = min(_min_eig(y1), _min_eig(y2))
    slack = solution.dual_value - solution.primal_value
    passed = (
        trivial_margin >= 0.0
        and dual_margin >= -1e-7
        and dual_psd >= -1e-7
        and slack >= -1e-7
    )
    return DualityCertificateReport(
        trivial_value=trivial_value,
        trivial_margin=trivial_margin,
        trivial_feasible=trivial_margin >= 0.0,
        dual_feasibility_margin=dual_margin,
        dual_psd_margin=dual_psd,
        weak_duality_slack=slack,
        gap=solution.gap,
        passed=passed,
    )


@dataclass(frozen=True)
class FMinSolution:
    """Certified output of the marginal-mismatch minimization."""

    value: float
    lower_bound: float
    X: BipartiteOperator
    gap: float
    iterations: int
    status: str
    residuals: dict


def _psd_trace_cap_project(h: np.ndarray, cap: float) -> np.ndarray:
    """Projection onto {C >= 0, tr C <= cap} (eigenvalue water-filling)."""
    w, v = np.linalg.eigh(hermitize(h))
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if total > cap:
        desc = np.sort(w)[::-1]
        cums = np.cumsum(desc)
        theta = 0.0
        for j in range(len(desc), 0, -1):
            cand = (cums[j - 1] - cap) / j
            if cand <= desc[j - 1]:
                theta = max(cand, 0.0)
                break
        w = np.clip(w - theta, 0.0, None)
    return (v * w) @ v.conj().T


def _f_value(x: np.ndarray, r1: np.ndarray, r2: np.ndarray, d1: int, d2: int) -> float:
    return trace_norm(partial_trace_2(x, d1, d2) - r1) + trace_norm(
        partial_trace_1(x, d1, d2) - r2
    )


def _subspace_marginal_maps(rho1, rho2, x_sub: Subspace):
    """Hermitian marginals, the basis V of ``x_sub`` and the marginal maps on C.

    mm1 and mm2 are the matrices of C -> tr_2(V C V^*) and C -> tr_1(V C V^*)
    acting on row-major flattened coefficient matrices C.
    """
    r1 = hermitize(rho1.mat if isinstance(rho1, HermitianOperator) else as_matrix(rho1))
    r2 = hermitize(rho2.mat if isinstance(rho2, HermitianOperator) else as_matrix(rho2))
    d1 = r1.shape[0]
    d2 = r2.shape[0]
    if x_sub.ambient_dim != d1 * d2:
        raise ValueError(
            f"subspace ambient dim {x_sub.ambient_dim} does not match {d1}*{d2}"
        )
    n = x_sub.dim
    vbasis = x_sub.basis
    vr = vbasis.reshape(d1, d2, n)
    mm1 = np.einsum("ipl,jpm->ijlm", vr, vr.conj()).reshape(d1 * d1, n * n)
    mm2 = np.einsum("ipl,iqm->pqlm", vr, vr.conj()).reshape(d2 * d2, n * n)
    return r1, r2, vbasis, mm1, mm2


def solve_f_min_full(
    rho1,
    rho2,
    x_sub: Subspace,
    cfg: SolverConfig = DEFAULT_CONFIG,
    warm_start: dict | None = None,
) -> tuple[FMinSolution, dict]:
    """Minimize f(X) = ||tr_2 X - rho1||_1 + ||tr_1 X - rho2||_1 over PSD X in a subspace.

    Writes X = V C V^* with V the subspace basis and solves the epigraph form:
    each trace norm becomes a PSD block constraint [[W_a, A],[A^*, W_b]] >= 0
    with objective (tr W_a + tr W_b)/2. The coefficient matrix C is capped at
    tr C <= tr rho1 + tr rho2 (no minimizer lies outside, since f grows at
    least as 2||X||_1 minus that constant). The upper value is f evaluated at
    an exactly PSD iterate, the lower bound comes from repaired epigraph
    multipliers, so the pair brackets the true minimum. The solve stops with
    status ``optimal`` at the first checkpoint where value - lower_bound is at
    most cfg.gap_tol, else ends at ``max_iters`` (or ``infeasible_numerics``
    on NaN/Inf breakdown); the ADMM residuals only steer the penalty.
    """
    r1, r2, vbasis, mm1, mm2 = _subspace_marginal_maps(rho1, rho2, x_sub)
    d1, d2, n = r1.shape[0], r2.shape[0], x_sub.dim
    normal = (
        np.eye(n * n)
        + 2.0 * (mm1.conj().T @ mm1)
        + 2.0 * (mm2.conj().T @ mm2)
    )
    normal_inv = np.linalg.inv(normal)
    cap = _tr(r1) + _tr(r2)

    def lmap(c: np.ndarray, mm: np.ndarray, d: int) -> np.ndarray:
        return (mm @ c.reshape(-1)).reshape(d, d)

    def lmap_adj(z: np.ndarray, mm: np.ndarray) -> np.ndarray:
        return (mm.conj().T @ z.reshape(-1)).reshape(n, n)

    sigma = cfg.penalty_init
    w = [np.zeros((k, k), dtype=complex) for k in (n, 2 * d1, 2 * d2)]
    lam = [np.zeros_like(b) for b in w]
    best_upper = _tr(r1) + _tr(r2)  # f at X = 0, always an admissible point
    best_c = np.zeros_like(w[0])
    best_lower = 0.0
    if warm_start:
        prev = as_matrix(warm_start["C"])
        m = prev.shape[0]
        if m > n:
            raise ValueError("warm start is larger than the current subspace")

        def pad(old: np.ndarray) -> np.ndarray:
            out = np.zeros((n, n), dtype=complex)
            out[: old.shape[0], : old.shape[1]] = old
            return out

        w = [pad(as_matrix(warm_start["WC"]))] + [
            as_matrix(warm_start[k]).copy() for k in ("WG1", "WG2")
        ]
        lam = [pad(as_matrix(warm_start["LC"]))] + [
            as_matrix(warm_start[k]).copy() for k in ("LG1", "LG2")
        ]
        sigma = float(warm_start.get("sigma", sigma))
        # The padded previous minimizer spans the same operator on the larger
        # level, so its mismatch value carries over verbatim; seeding it keeps
        # the ladder values nonincreasing by construction.
        cpad = pad(prev)
        seed = _f_value(vbasis @ cpad @ vbasis.conj().T, r1, r2, d1, d2)
        if seed < best_upper:
            best_upper = seed
            best_c = cpad

    def affine(w, lam, sigma):
        tg1 = w[1] - lam[1]
        tg2 = w[2] - lam[2]
        wa1 = tg1[:d1, :d1] - np.eye(d1) / (2.0 * sigma)
        wb1 = tg1[d1:, d1:] - np.eye(d1) / (2.0 * sigma)
        a10 = 0.5 * (tg1[:d1, d1:] + tg1[d1:, :d1].conj().T)
        wa2 = tg2[:d2, :d2] - np.eye(d2) / (2.0 * sigma)
        wb2 = tg2[d2:, d2:] - np.eye(d2) / (2.0 * sigma)
        a20 = 0.5 * (tg2[:d2, d2:] + tg2[d2:, :d2].conj().T)
        rhs = (
            (w[0] - lam[0]).reshape(-1)
            + 2.0 * (mm1.conj().T @ (r1 + a10).reshape(-1))
            + 2.0 * (mm2.conj().T @ (r2 + a20).reshape(-1))
        )
        c = hermitize((normal_inv @ rhs).reshape(n, n))
        off1 = lmap(c, mm1, d1) - r1
        off2 = lmap(c, mm2, d2) - r2
        return (
            c,
            np.block([[wa1, off1], [off1.conj().T, wb1]]),
            np.block([[wa2, off2], [off2.conj().T, wb2]]),
        )

    def certify(w, lam, sigma, pres, dres):
        nonlocal best_upper, best_c, best_lower
        x = vbasis @ w[0] @ vbasis.conj().T
        val = _f_value(x, r1, r2, d1, d2)
        if val < best_upper:
            best_upper = val
            best_c = w[0].copy()
        # Multiplier blocks of the epigraph cones: the off-diagonal block of
        # each (PSD) multiplier yields a test matrix Z with ||Z||_inf <= 1 at
        # optimality; repair shifts restore the sign constraint exactly.
        y1 = hermitize(-sigma * lam[1])
        y2 = hermitize(-sigma * lam[2])
        z1 = y1[:d1, d1:]
        z1 = z1 + z1.conj().T
        z2 = y2[:d2, d2:]
        z2 = z2 + z2.conj().T
        s = hermitize(lmap_adj(z1, mm1) + lmap_adj(z2, mm2))
        top = _max_eig(s)
        if top > 0:
            delta = 0.5 * top + 1e-15
            z1 = z1 - delta * np.eye(d1)
            z2 = z2 - delta * np.eye(d2)
        scale = max(
            1.0,
            float(np.max(np.abs(np.linalg.eigvalsh(hermitize(z1))))),
            float(np.max(np.abs(np.linalg.eigvalsh(hermitize(z2))))),
        )
        lower = (_hs(z1, r1) + _hs(z2, r2)) / scale
        if lower > best_lower:
            best_lower = lower
        return "optimal" if best_upper - best_lower <= cfg.gap_tol else None

    project = (lambda h: _psd_trace_cap_project(h, cap), psd_project, psd_project)
    status, it, w, lam, sigma = _admm(
        affine, project, w, lam, sigma, cfg.max_iters, certify
    )

    x_best = hermitize(vbasis @ best_c @ vbasis.conj().T)
    residuals = {
        "psd_violation": max(0.0, -_min_eig(x_best)),
        "constraint_violation": max(0.0, _tr(best_c) - cap),
        "adjoint_violation": max(0.0, best_lower - best_upper),
    }
    warm_out = {
        "C": best_c,
        "WC": w[0],
        "LC": lam[0],
        "WG1": w[1],
        "WG2": w[2],
        "LG1": lam[1],
        "LG2": lam[2],
        "sigma": sigma,
    }
    sol = FMinSolution(
        value=best_upper,
        lower_bound=best_lower,
        X=BipartiteOperator(x_best, d1, d2),
        gap=best_upper - best_lower,
        iterations=it,
        status=status,
        residuals=residuals,
    )
    return sol, warm_out


def solve_f_min(
    rho1, rho2, x_sub: Subspace, cfg: SolverConfig = DEFAULT_CONFIG
) -> tuple[float, BipartiteOperator]:
    """Minimum of the marginal mismatch f over PSD X supported in ``x_sub``."""
    sol, _ = solve_f_min_full(rho1, rho2, x_sub, cfg)
    return sol.value, sol.X


class SupportedOverlapSolution(NamedTuple):
    """Certified output of the support-constrained overlap program.

    ``value`` is attained by ``X`` and ``dual`` is a repaired dual bound, so
    value <= optimum <= dual and ``gap`` is |dual - value|. A named tuple, so
    positional access works too: ``[0]`` value, ``[1]`` X, ``[2]`` gap.
    """

    value: float
    X: BipartiteOperator
    gap: float
    iterations: int
    status: str
    dual: float


def solve_supported_overlap(
    x_sub: Subspace,
    rho1,
    rho2,
    cfg: SolverConfig = DEFAULT_CONFIG,
    threshold: float | None = None,
) -> SupportedOverlapSolution:
    """Maximize tr X over PSD X supported exactly in the subspace with dominated marginals.

    The value equals 1 precisely when a coupling supported in the subspace
    exists, and is never above the overlap optimum mu. Unlike the overlap
    program, the optimizer here carries no mass outside the subspace by
    construction (X = V C V^* throughout), which makes it the right source for
    coupling certificates. The value is attained by the returned X, which is
    feasible up to ~1e-12. The solve stops with status ``optimal`` at the
    first checkpoint where the certified gap is at most cfg.gap_tol, else ends
    at ``max_iters`` (or ``infeasible_numerics`` on NaN/Inf breakdown); the
    ADMM residuals only steer the penalty. With a ``threshold`` the solve
    also stops, with status ``decided``, at the first checkpoint where the
    bracket lies on one side of it: value >= threshold or dual < threshold.
    """
    r1, r2, vbasis, mm1, mm2 = _subspace_marginal_maps(rho1, rho2, x_sub)
    d1, d2, n = r1.shape[0], r2.shape[0], x_sub.dim
    k1 = d1 * d1
    k2 = d2 * d2
    big = np.eye(k1 + k2, dtype=complex)
    big[:k1, :k1] += mm1 @ mm1.conj().T
    big[:k1, k1:] += mm1 @ mm2.conj().T
    big[k1:, :k1] += mm2 @ mm1.conj().T
    big[k1:, k1:] += mm2 @ mm2.conj().T
    big_inv = np.linalg.inv(big)
    allow = max(_FEAS_SLACK, 2.0 * max(0.0, -_min_eig(r1), -_min_eig(r2)))
    support_scale = _support_scaler(r1, r2, allow)
    eyen = np.eye(n)

    sigma = cfg.penalty_init
    w = [
        np.zeros((n, n), dtype=complex),
        psd_project(r1.astype(complex)),
        psd_project(r2.astype(complex)),
    ]
    lam = [np.zeros_like(b) for b in w]

    best_value = 0.0
    best_x = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    best_dual = math.inf

    def affine(w, lam, sigma):
        c0 = w[0] - lam[0] + eyen / sigma
        t1 = w[1] - lam[1]
        t2 = w[2] - lam[2]
        l1c0 = (mm1 @ c0.reshape(-1)).reshape(d1, d1)
        l2c0 = (mm2 @ c0.reshape(-1)).reshape(d2, d2)
        rhs = np.concatenate(
            [(l1c0 + t1 - r1).reshape(-1), (l2c0 + t2 - r2).reshape(-1)]
        )
        msol = big_inv @ rhs
        m1 = msol[:k1].reshape(d1, d1)
        m2 = msol[k1:].reshape(d2, d2)
        c = c0 - (mm1.conj().T @ m1.reshape(-1)).reshape(n, n) - (
            mm2.conj().T @ m2.reshape(-1)
        ).reshape(n, n)
        return c, t1 - m1, t2 - m2

    def certify(w, lam, sigma, pres, dres):
        nonlocal best_value, best_x, best_dual
        cf = w[0]
        m1 = hermitize((mm1 @ cf.reshape(-1)).reshape(d1, d1))
        m2 = hermitize((mm2 @ cf.reshape(-1)).reshape(d2, d2))
        t = support_scale(m1, m2)
        val = t * _tr(cf)
        if val > best_value:
            best_value = val
            best_x = hermitize(vbasis @ (t * cf) @ vbasis.conj().T)
        y1 = hermitize(-sigma * lam[1])
        y2 = hermitize(-sigma * lam[2])
        low = min(_min_eig(y1), _min_eig(y2))
        if low < 0:
            y1 = y1 - low * np.eye(d1)
            y2 = y2 - low * np.eye(d2)
        for _ in range(3):
            s = hermitize(
                (mm1.conj().T @ y1.reshape(-1)).reshape(n, n)
                + (mm2.conj().T @ y2.reshape(-1)).reshape(n, n)
            )
            viol = _min_eig(s - eyen)
            if viol >= 0:
                break
            shift = 0.5 * (-viol) + 1e-15
            y1 = y1 + shift * np.eye(d1)
            y2 = y2 + shift * np.eye(d2)
        dval = _hs(r1, y1) + _hs(r2, y2)
        if dval < best_dual:
            best_dual = dval
        if best_dual - best_value <= cfg.gap_tol:
            return "optimal"
        if threshold is not None and (best_value >= threshold or best_dual < threshold):
            return "decided"
        return None

    project = (psd_project, psd_project, psd_project)
    status, it, w, lam, sigma = _admm(
        affine, project, w, lam, sigma, cfg.max_iters, certify
    )
    if math.isinf(best_dual):
        certify(w, lam, sigma, math.inf, math.inf)
    return SupportedOverlapSolution(
        value=best_value,
        X=BipartiteOperator(best_x, d1, d2),
        gap=abs(best_dual - best_value),
        iterations=it,
        status=status,
        dual=best_dual,
    )
