"""Fibers of the marginal map: distance, glue repair, semidistance bounds.

The fiber over a marginal pair (rho1, rho2) with equal traces is the compact
convex set of PSD bipartite operators whose partial traces hit the pair
exactly; it is never empty (the normalized product rho1 (x) rho2 / tr rho1 is
a member). This module computes the trace-norm distance from an arbitrary
operator to a fiber with certified two-sided bounds, repairs marginal-
dominated operators into exact members by gluing on a product of the
deficits, and produces certified lower bounds for the semidistance between
two fibers by sampling extreme-leaning members.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bipartite import BipartiteOperator, _kron_sum_mat, partial_trace_1, partial_trace_2
from .linalg import (
    HermitianOperator,
    _check_marginals,
    _Frozen,
    _hs,
    _identity,
    _max_eig,
    _min_eig,
    _tr,
    hermitize,
    psd_project,
    trace_norm,
)
from .sdp import (
    DEFAULT_CONFIG,
    SolverConfig,
    _admm,
    _shift_to_dominate,
    _support_scaler,
)

__all__ = [
    "FiberSpec",
    "SemidistanceBound",
    "dist_to_fiber",
    "glue_coupling",
    "semidistance_lower_bound",
]


class FiberSpec(_Frozen):
    """Marginal pair with equal traces, naming a nonempty coupling fiber.

    Unequal traces (an empty fiber) are rejected, and so are marginal entries
    above the magnitude guard (``linalg._MAGNITUDE_GUARD``), since the
    product member rho1 (x) rho2 would overflow.
    """

    __slots__ = ("rho1", "rho2")

    def __init__(self, rho1, rho2):
        r1, r2 = HermitianOperator(rho1), HermitianOperator(rho2)
        _check_marginals(r1.mat, r2.mat)
        self._set(rho1=r1, rho2=r2)

    @property
    def d1(self) -> int:
        return self.rho1.dim

    @property
    def d2(self) -> int:
        return self.rho2.dim

    def product_coupling(self) -> BipartiteOperator:
        """The canonical member rho1 (x) rho2 / tr rho1 (0, the only member, at trace 0)."""
        t = max(self.rho1.trace(), 1e-300)
        return BipartiteOperator(np.kron(self.rho1.mat, self.rho2.mat) / t, self.d1, self.d2)

    def __repr__(self) -> str:
        return f"FiberSpec(d1={self.d1}, d2={self.d2}, trace={self.rho1.trace():.6g})"


def glue_coupling(gamma_trunc: BipartiteOperator, fiber: FiberSpec) -> BipartiteOperator:
    """Promote a marginal-dominated operator to an exact fiber member.

    Adds the product of the two marginal deficits, scaled by the deficit
    trace: sigma = gamma + (rho1 - tr_2 gamma) (x) (rho2 - tr_1 gamma) / tr(..).
    Both deficits must be PSD (within 1e-9). When the deficit trace is below
    1e-12 the input is already a member and is returned unchanged.
    """
    g = gamma_trunc.mat
    d1, d2 = fiber.d1, fiber.d2
    if gamma_trunc.d1 != d1 or gamma_trunc.d2 != d2:
        raise ValueError("operator dims do not match the fiber")
    delta1 = hermitize(fiber.rho1.mat - partial_trace_2(g, d1, d2))
    delta2 = hermitize(fiber.rho2.mat - partial_trace_1(g, d1, d2))
    low = min(_min_eig(delta1), _min_eig(delta2))
    if low < -1e-9:
        raise ValueError(
            f"marginal deficit is not PSD: min eigenvalue {low:.3e}; "
            "the input must be dominated by the fiber marginals"
        )
    tau = _tr(delta1)
    if tau <= 1e-12:
        return gamma_trunc
    return BipartiteOperator(g + np.kron(delta1, delta2) / tau, d1, d2)


def _repair_to_member(candidate: np.ndarray, fiber: FiberSpec, support_scale) -> np.ndarray:
    """Exact fiber member near a PSD candidate: scale into domination, then glue.

    ``support_scale`` is ``_support_scaler`` of the fiber marginals,
    factored once per solve.
    """
    d1, d2 = fiber.d1, fiber.d2
    g = psd_project(candidate)
    m1 = partial_trace_2(g, d1, d2)
    m2 = partial_trace_1(g, d1, d2)
    s = support_scale(m1, m2)
    member = glue_coupling(BipartiteOperator(s * g, d1, d2), fiber)
    return member.mat


def _project_marginal_affine(
    gt: np.ndarray, r1: np.ndarray, r2: np.ndarray, d1: int, d2: int, out=None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Orthogonal projection onto {gamma : tr_2 gamma = r1, tr_1 gamma = r2}.

    Returns the projected point gt - (M1 (x) I + I (x) M2), written into
    ``out`` when given, and the corrections (M1, M2). The normal operator of
    the marginal map has a one-dimensional kernel along (I, -I); any
    multiplier choice within it yields the same projected point, so the
    trace split below is made symmetric. Complex traces make it a projection
    for non-Hermitian ``gt`` too; a Python complex ``tau`` divides each part
    by a real exactly, as numpy does not.
    """
    rr1 = partial_trace_2(gt, d1, d2) - r1
    rr2 = partial_trace_1(gt, d1, d2) - r2
    tau = 0.5 * complex(np.trace(rr1) + np.trace(rr2))
    t1 = tau / (2.0 * d2)
    t2 = tau / (2.0 * d1)
    m1 = (rr1 - t2 * _identity(d1)) / d2
    m2 = (rr2 - t1 * _identity(d2)) / d1
    return np.subtract(gt, _kron_sum_mat(m1, m2), out=out), (m1, m2)


# A trace norm of a Hermitian A enters the distance program as two PSD
# cones: ||A||_1 = min tr W over W + A >= 0 and W - A >= 0. With U = W + A
# and L = W - A the cost is (tr U + tr L) / 2 under U - L = 2A. The
# semidefinite epigraph [[W, A], [A, W]] >= 0, rotated by
# (1/sqrt 2)[[I, I], [I, -I]], is exactly diag(U, L), so the two d x d cones
# replace one 2d x 2d cone. Given the targets t_U, t_L of the pair, A's
# target in the affine step is (t_U - t_L) / 2, and the dual test matrix is
# Lam_L - Lam_U, Lam = -sigma lam.


def _split_points(tu: np.ndarray, tl: np.ndarray, sigma: float, a: np.ndarray) -> None:
    """Overwrite the U and L targets of a split trace norm with their affine points.

    Each point is the mean target less I/(2 sigma), +- A.
    """
    mid = 0.5 * (tu + tl) - _identity(len(a)) / (2.0 * sigma)
    np.add(mid, a, out=tu)
    np.subtract(mid, a, out=tl)


def _dist_solve(beta: np.ndarray, fiber: FiberSpec, cfg: SolverConfig):
    """Certified bracket for min ||beta - gamma||_1 over the fiber.

    The trace norm is split into PSD blocks U = W + (beta - gamma) and
    L = W - (beta - gamma) with objective (tr U + tr L)/2, so gamma, U and L
    share one shape and each iteration projects them with one stacked
    ``eigh``. Upper bounds come from exact members (scale-and-glue repair of
    the PSD iterate), lower bounds from repaired dual pairs of the split
    program, so [lower, upper] always contains the true distance. The solve
    stops with status ``optimal`` at the first checkpoint where
    upper - lower is at most cfg.gap_tol, else ends at ``max_iters`` (or
    ``infeasible_numerics`` on NaN/Inf breakdown); the ADMM residuals only
    steer the penalty. Returns (upper, lower, member, iterations, status).
    """
    d1, d2 = fiber.d1, fiber.d2
    dim = d1 * d2
    r1 = fiber.rho1.mat
    r2 = fiber.rho2.mat
    tr_fiber = _tr(r1)
    support_scale = _support_scaler(r1, r2)

    gamma = _repair_to_member(fiber.product_coupling().mat, fiber, support_scale)

    best_upper = trace_norm(beta - gamma)
    best_member = gamma.copy()
    best_lower = 0.0
    corrections = ()

    def affine(x, sigma):
        nonlocal corrections
        gamma, tu, tl = x
        # gamma's target weighs its own block once and the split's target
        # (t_U - t_L)/2 for beta - gamma twice. The multipliers are Hermitian
        # only up to round-off and the variable space is Hermitian, so the
        # target is projected onto it first.
        target = hermitize((gamma + 2.0 * (beta - 0.5 * (tu - tl))) / 3.0)
        _, corrections = _project_marginal_affine(target, r1, r2, d1, d2, out=gamma)
        _split_points(tu, tl, sigma, beta - gamma)

    def certify(w, lam, sigma, pres, dres):
        nonlocal best_upper, best_member, best_lower
        member = _repair_to_member(w[0], fiber, support_scale)
        val = trace_norm(beta - member)
        if val < best_upper:
            best_upper = val
            best_member = member
        # Dual test matrix Z = Lam_L - Lam_U from the split's multipliers
        # (Lam = -sigma lam; Lam_U - Lam_L pairs with beta - gamma in
        # U - L = 2(beta - gamma), and the bound <Z, beta - gamma> needs the
        # opposite sign), clipped to the unit spectral ball; closed-form
        # completions of Y then give valid bounds.
        zw, zv = np.linalg.eigh(hermitize(sigma * (lam[1] - lam[2])))
        z = (zv * np.clip(zw, -1.0, 1.0)) @ zv.conj().T
        # Two completions Y of Z bound <Z, beta> - <Y1, rho1> - <Y2, rho2>:
        # Y = (lambda_max(Z) I, 0), and Y = 3 sigma M from the gamma step's KKT
        # condition 3 sigma (gamma - target) + Phi*(Y) = 0 at the latest
        # correction M, shifted by the identity until Y1 (x) I + I (x) Y2 >= Z.
        y1, y2 = (hermitize(3.0 * sigma * m) for m in corrections)
        y1, y2 = _shift_to_dominate(y1, y2, _kron_sum_mat, z)
        zb = _hs(z, beta)
        best_lower = max(
            best_lower, zb - _max_eig(z) * tr_fiber, zb - _hs(y1, r1) - _hs(y2, r2)
        )
        return "optimal" if best_upper - best_lower <= cfg.gap_tol else None

    w = [gamma, np.zeros((dim, dim)), np.zeros((dim, dim))]
    status, it, _ = _admm(affine, w, cfg, certify)
    return best_upper, best_lower, best_member, it, status


def dist_to_fiber(
    beta, fiber: FiberSpec, cfg: SolverConfig = DEFAULT_CONFIG
) -> tuple[float, BipartiteOperator]:
    """Trace-norm distance from an operator to the fiber, with the nearest member found.

    The distance is the certified achieved value ||beta - gamma||_1 at the
    returned member gamma (marginals exact up to roundoff), bracketed from
    below by a repaired dual bound; the bracket width falls under
    cfg.gap_tol at status optimal.
    """
    d1, d2 = fiber.d1, fiber.d2
    if isinstance(beta, BipartiteOperator) and (beta.d1, beta.d2) != (d1, d2):
        raise ValueError("beta dims do not match the fiber")
    b = hermitize(beta)
    if b.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"beta shape {b.shape} does not match dims ({d1}, {d2})")
    upper, _, member, _, _ = _dist_solve(b, fiber, cfg)
    return upper, BipartiteOperator(member, d1, d2)


def _sample_member(fiber: FiberSpec, objective: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """A fiber member leaning toward max <objective, gamma> (feasibility certified).

    The one solve without a bracket: it stops once both ADMM residuals are at
    most cfg.gap_tol, and the iterate is then repaired into an exact member.
    """
    d1, d2 = fiber.d1, fiber.d2
    r1, r2 = fiber.rho1.mat, fiber.rho2.mat

    def affine(x, sigma):
        x[0] += objective / sigma
        _project_marginal_affine(x[0], r1, r2, d1, d2, out=x[0])

    def certify(w, lam, sigma, pres, dres):
        return "optimal" if pres <= cfg.gap_tol and dres <= cfg.gap_tol else None

    _, _, (wg,) = _admm(affine, [fiber.product_coupling().mat], cfg, certify)
    return _repair_to_member(wg, fiber, _support_scaler(r1, r2))


@dataclass(frozen=True)
class SemidistanceBound:
    """Certified lower bound for the semidistance sup_{beta in A} dist(beta, B).

    ``bound`` is the best of the per-sample certified distance lower bounds
    and the marginal-difference floor; every sampled beta is a genuine member
    of fiber A, so the bound never overshoots. Floats as ``bound``.
    """

    bound: float
    marginal_floor: float
    sample_bounds: tuple
    samples: int

    def __float__(self) -> float:
        return self.bound


def semidistance_lower_bound(
    fiber_a: FiberSpec,
    fiber_b: FiberSpec,
    samples: int = 20,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> SemidistanceBound:
    """Heuristic-but-certified lower bound on the fiber semidistance.

    Samples extreme-leaning members of fiber A by maximizing random Hermitian
    objectives over it, measures each one's certified distance lower bound to
    fiber B, and folds in the marginal-difference floor
    (||r1A - r1B||_1 + ||r2A - r2B||_1) / 2, which every member's distance
    dominates. Sampling is deterministic and sequential, so the bound is
    nondecreasing in ``samples``; a negative count raises ``ValueError``.
    """
    if fiber_a.d1 != fiber_b.d1 or fiber_a.d2 != fiber_b.d2:
        raise ValueError("fibers live on different dims")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    floor = 0.5 * (
        trace_norm(fiber_a.rho1.mat - fiber_b.rho1.mat)
        + trace_norm(fiber_a.rho2.mat - fiber_b.rho2.mat)
    )
    dim = fiber_a.d1 * fiber_a.d2
    rng = np.random.default_rng(7)
    sample_cfg = replace(cfg, gap_tol=max(cfg.gap_tol, 1e-5), max_iters=min(cfg.max_iters, 4000))
    values = []
    for _ in range(samples):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        objective = hermitize(raw)
        objective /= max(float(np.linalg.norm(objective)), 1e-300)
        member = _sample_member(fiber_a, objective, sample_cfg)
        _, lower, _, _, _ = _dist_solve(member, fiber_b, cfg)
        values.append(lower)
    bound = max([floor] + values)
    return SemidistanceBound(
        bound=bound,
        marginal_floor=floor,
        sample_bounds=tuple(values),
        samples=samples,
    )
