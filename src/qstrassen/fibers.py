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
    _herm_part,
    _hs,
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
    _barrier_path,
    _kron_sum_gram,
    _overlap_on_support,
    _shift_to_dominate,
    _support_scaler,
    _support_split,
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
    glued = _glue(g, delta1, delta2)
    return gamma_trunc if glued is g else BipartiteOperator(glued, d1, d2)


def _glue(g: np.ndarray, delta1: np.ndarray, delta2: np.ndarray) -> np.ndarray:
    """g + delta1 (x) delta2 / tr delta1, or g itself below deficit trace 1e-12."""
    tau = _tr(delta1)
    return g if tau <= 1e-12 else g + np.kron(delta1, delta2) / tau


def _repair_to_member(candidate: np.ndarray, fiber: FiberSpec, support_scale) -> np.ndarray:
    """Exact fiber member near a PSD candidate: scale into domination, then glue.

    ``support_scale`` is ``_support_scaler`` of the fiber marginals,
    factored once per solve. It confirms rho_i - s m_i >= -1e-12 on the
    deficits it returns, so they are glued here without ``glue_coupling``'s
    PSD check and its second pair of partial traces; the deficits are
    exactly Hermitian, as differences of Hermitian matrices.
    """
    d1, d2 = fiber.d1, fiber.d2
    g = psd_project(candidate)
    m1 = partial_trace_2(g, d1, d2)
    m2 = partial_trace_1(g, d1, d2)
    s = support_scale(m1, m2)
    return _glue(s * g, fiber.rho1.mat - s * m1, fiber.rho2.mat - s * m2)


def _dist_solve(beta: np.ndarray, fiber: FiberSpec, cfg: SolverConfig):
    """Certified bracket for min ||beta - gamma||_1 over the fiber.

    The dual program is max <Z, beta> - <Y1, rho1> - <Y2, rho2> over
    -I <= Z <= I and Y1 (x) I + I (x) Y2 >= Z with Y free.
    ``sdp._barrier_path`` follows the barrier t (<Y1, rho1> + <Y2, rho2> -
    <Z, beta>) - log det(I + Z) - log det(I - Z) - log det S,
    S = Y1 (x) I + I (x) Y2 - Z, from Z = 0, Y = (I, 0), with scale
    tr rho1 + ||beta||_1. Members live on the support product
    supp rho1 (x) supp rho2 with basis W = U1 (x) U2, so S is compressed to
    it, S = Y1 (x) I + I (x) Y2 - W^* Z W with Y_i on supp rho_i, and the
    path stays bounded for singular marginals. The (I, -I) gauge of Y, a
    kernel direction of the Newton system, gets a rank-one term.

    Upper bounds are exact members: the primal W (S^-1 - S^-1 dS S^-1) W^* / t
    of a centered point's step, repaired by scale and glue, at the distance
    ||beta - member||_1, one eigvalsh of a Hermitian difference. Lower bounds are
    the dual value at Z clipped to the unit ball and Y lifted to the whole
    space, each Y_i gaining s (I - U_i U_i^*), s large enough that S's Schur
    complement stays PSD, then shifted by the identity until it dominates Z.
    So [lower, upper] always contains the true distance. The driver defers
    every centered point whose barrier gap bound keeps the bracket open, so
    a solve that closes computes one dual bound. Its ``defer`` check still
    repairs a kept point's member, and the bracket closes there when that
    member lands within cfg.gap_tol of the lower bound, as it does where the
    marginal floor below is the distance. The check skips the repair when
    the point's own dual value <Z, beta> - <Y1, U1^* rho1 U1> -
    <Y2, U2^* rho2 U2> already exceeds lower + cfg.gap_tol, since then no
    member can close the bracket; a repaired kept point is not repaired again.

    Every member's distance is at least the marginal floor
    max(||tr_2 beta - rho1||_1, ||tr_1 beta - rho2||_1), a certified lower
    bound, so the bracket starts at [min(floor, upper), upper], upper
    = ||beta - P||_1 for P the repaired product member; the clip keeps
    lower <= upper where rounding puts the floor above a member. When the
    floor is within cfg.gap_tol, and only then, beta itself is repaired by
    scale and glue as a second start member. If the start bracket is
    closed the solve returns ``optimal`` after 0 steps. Zero marginals end
    the solve before that. The solve stops with status ``optimal`` at the
    first bracket whose width is at most cfg.gap_tol, or with the driver's
    status. Returns
    (upper, lower, member, steps, status); bench/run.py traces this name and
    unpacks the 5-tuple, as does ``cli._run_fiber_dist``.
    """
    d1, d2 = fiber.d1, fiber.d2
    n = d1 * d2
    r1, r2 = fiber.rho1.mat, fiber.rho2.mat
    support_scale = _support_scaler(r1, r2)
    (u1, w1), (u2, w2) = _support_split(r1), _support_split(r2)
    k1, k2 = u1.shape[1], u2.shape[1]
    wb = np.kron(u1, u2)
    rc1, rc2 = (hermitize(u.conj().T @ r @ u) for u, r in ((u1, r1), (u2, r2)))

    member = _repair_to_member(fiber.product_coupling().mat, fiber, support_scale)
    best = {"upper": trace_norm(beta - member), "member": member}
    if not k1 * k2:  # zero marginals: the fiber is {0}
        return best["upper"], best["upper"], member, 0, "optimal"
    floor = max(
        trace_norm(partial_trace_2(beta, d1, d2) - r1),
        trace_norm(partial_trace_1(beta, d1, d2) - r2),
    )
    if floor <= cfg.gap_tol:
        own = _repair_to_member(beta, fiber, support_scale)
        upper = trace_norm(beta - own)
        if upper < best["upper"]:
            best.update(upper=upper, member=own)
    best["lower"] = min(floor, best["upper"])
    if best["upper"] - best["lower"] <= cfg.gap_tol:
        return best["upper"], best["lower"], best["member"], 0, "optimal"

    # Unknowns (Z, Y1, Y2) flattened row-major; the Hessian's blocks as
    # 4-index views [a, e, c, x]: output (a, e), input (c, x).
    m0, m1 = n * n, n * n + k1 * k1
    size = m1 + k2 * k2
    hess = np.empty((size, size), dtype=complex)
    hzz = hess[:m0, :m0].reshape(n, n, n, n)
    hz1 = hess[:m0, m0:m1].reshape(n, n, k1, k1)
    hz2 = hess[:m0, m1:].reshape(n, n, k2, k2)
    h11 = hess[m0:m1, m0:m1].reshape(k1, k1, k1, k1)
    h12 = hess[m0:m1, m1:].reshape(k1, k1, k2, k2)
    h22 = hess[m1:, m1:].reshape(k2, k2, k2, k2)
    # The gauge direction (I, -I) is nonzero only at the Y diagonal entries.
    y_diag = np.r_[m0 + np.arange(k1) * (k1 + 1), m1 + np.arange(k2) * (k2 + 1)]
    gauge_at, gauge = np.ix_(y_diag, y_diag), np.r_[np.ones(k1), -np.ones(k2)]
    gauge = np.outer(gauge, gauge) / (k1 + k2)
    cost = np.concatenate([-beta.reshape(-1), rc1.reshape(-1), rc2.reshape(-1)])
    z = np.zeros((n, n), dtype=complex)
    y1, y2 = np.eye(k1, dtype=complex), np.zeros((k2, k2), dtype=complex)

    def slacks():
        return [np.eye(n) + z, np.eye(n) - z, _kron_sum_mat(y1, y2) - wb.conj().T @ z @ wb]

    def moves(dx):
        dz, dy1, dy2 = dx
        return [dz, -dz, _kron_sum_mat(dy1, dy2) - wb.conj().T @ dz @ wb]

    def system(inverses):
        ap, am, g = inverses
        f = wb @ g
        gz = f @ wb.conj().T  # W S^-1 W^*, S^-1 seen from Z
        # [a, e, c, x] = sum_M M[a, c] M[x, e] over M = ap, am, gz: one product.
        p = np.stack([ap, am, gz]).reshape(3, n * n)
        hzz[...] = (p.T @ p).reshape(n, n, n, n).transpose(0, 3, 1, 2)
        # The Z-Y blocks -F (D1 (x) I) F^* and -F (I (x) D2) F^*, F = W G:
        # [a, e, c, x] = -sum_p F[a, (c, p)] F^*[(x, p), e], and likewise.
        f3, fh3 = f.reshape(n, k1, k2), f.conj().T.reshape(k1, k2, n)
        p1 = f3.reshape(n * k1, k2) @ fh3.transpose(1, 0, 2).reshape(k2, k1 * n)
        p2 = f3.transpose(0, 2, 1).reshape(n * k2, k1) @ fh3.reshape(k1, k2 * n)
        np.negative(p1.reshape(n, k1, k1, n).transpose(0, 3, 1, 2), out=hz1)
        np.negative(p2.reshape(n, k2, k2, n).transpose(0, 3, 1, 2), out=hz2)
        h11[...], h12[...], h22[...] = _kron_sum_gram(g.reshape(k1, k2, k1, k2))
        hess[m0:, :m0] = hess[:m0, m0:].conj().T
        hess[m1:, m0:m1] = hess[m0:m1, m1:].conj().T
        hess[gauge_at] += hess.diagonal()[m0:].real.mean() * gauge
        gbar = np.concatenate([
            (gz + am - ap).reshape(-1),
            -np.einsum("abcb->ac", g.reshape(k1, k2, k1, k2)).reshape(-1),
            -np.einsum("abad->bd", g.reshape(k1, k2, k1, k2)).reshape(-1),
        ])
        return hess, gbar

    def closed():
        return "optimal" if best["upper"] - best["lower"] <= cfg.gap_tol else None

    def repair(inverses, changes, t):
        g, ds = inverses[2], changes[2]
        gamma = wb @ _herm_part(g - g @ ds @ g) @ wb.conj().T / t
        member = _repair_to_member(gamma, fiber, support_scale)
        upper = trace_norm(beta - member)
        if upper < best["upper"]:
            best.update(upper=upper, member=member)

    repaired = set()  # t of each kept point whose member check_kept has repaired

    def check_kept(inverses, changes, t):
        # The point's own dual value bounds the distance of the compressed
        # program; above lower + gap_tol no member can close the bracket.
        if _hs(z, beta) - _hs(y1, rc1) - _hs(y2, rc2) > best["lower"] + cfg.gap_tol:
            return None
        repair(inverses, changes, t)
        repaired.add(t)
        return closed()

    def certify(inverses, changes, t):
        if t not in repaired:  # a kept point's member is the same bit for bit
            repair(inverses, changes, t)
        g = inverses[2]
        zw, zv = np.linalg.eigh(z)
        zc = (zv * np.clip(zw, -1.0, 1.0)) @ zv.conj().T
        # Off the support product S's Schur complement needs
        # s + min(lambda_min Y1, lambda_min Y2) >= ||Z|| + ||S^-1||.
        s = 1.0 + _max_eig(g) - min(0.0, _min_eig(y1), _min_eig(y2))
        f1, f2 = (
            hermitize(u @ y @ u.conj().T + s * (w @ w.conj().T))
            for u, w, y in ((u1, w1, y1), (u2, w2, y2))
        )
        f1, f2 = _shift_to_dominate(f1, f2, _kron_sum_mat, zc)
        best["lower"] = max(best["lower"], _hs(zc, beta) - _hs(f1, r1) - _hs(f2, r2))
        return closed()

    scale = _tr(r1) + trace_norm(beta)
    status, steps = _barrier_path(
        [z, y1, y2], cost, scale, slacks, moves, system, certify, cfg, check_kept
    )
    return best["upper"], best["lower"], best["member"], steps, status


def dist_to_fiber(
    beta, fiber: FiberSpec, cfg: SolverConfig = DEFAULT_CONFIG
) -> tuple[float, BipartiteOperator]:
    """Trace-norm distance from an operator to the fiber, with the nearest member found.

    The distance is the certified achieved value ||beta - gamma||_1 at the
    returned member gamma (marginals exact up to roundoff), bracketed from
    below by the marginal floor or a repaired dual bound; the bracket width
    falls under cfg.gap_tol at status optimal. A member of the fiber (up to
    rounding) is answered by its own scale-and-glue repair, without a
    Newton step.
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

    With B = (O + ||O|| I) / (1.01 ||O||), which is PSD with ||B|| < 2, the
    overlap program max <B, C> over PSD C with dominated marginals has its
    optimum on the fiber, since gluing the deficit product onto a dominated
    C raises <B, C>; on the fiber <B, gamma> is <O, gamma> up to a constant.
    ``_overlap_on_support`` solves it to cfg.gap_tol, and the solution is
    repaired into an exact member, so every sample is genuine whatever the
    solve's status. bench/run.py traces this name.
    """
    r1, r2 = fiber.rho1.mat, fiber.rho2.mat
    size = max(float(np.linalg.norm(objective)), 1e-300)
    b = (objective + size * np.eye(len(objective))) / (1.01 * size)
    sol = _overlap_on_support(b, r1, r2, None, cfg)
    return _repair_to_member(sol.c, fiber, _support_scaler(r1, r2))


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
    sample_cfg = replace(cfg, gap_tol=max(cfg.gap_tol, 1e-5))
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
