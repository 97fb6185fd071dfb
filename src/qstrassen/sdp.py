"""Solvers for the conic programs behind coupling tests.

The overlap program, over PSD coefficient matrices C,

    maximize  <B, C>   subject to   tr_2(V C V^*) <= rho1,  tr_1(V C V^*) <= rho2,

is solved by one core, ``_overlap_core``. With V = I and B the subspace
projector (``solve_marginal_sdp``) its value mu equals 1 exactly when a
coupling supported in the subspace exists; with V a basis of the subspace and
B = I (``solve_supported_overlap``) every feasible V C V^* lies in the
subspace, which makes it the source of coupling certificates and, through
its dual pair, of refutations. Singular marginals are compressed to their
supports before the core runs and the solution is lifted back after.
``solve_f_min_full`` minimizes the marginal mismatch
f(X) = ||tr_2 X - rho1||_1 + ||tr_1 X - rho2||_1 over PSD X supported in a
given subspace; with ||A||_1 = 2 tr A_+ - tr A that is the supported program
with slack matrices, whose dual is capped at Y_i <= I, and the same core
solves it.

Every solve of the package is a dual log-barrier method (Nesterov and
Nemirovskii 1994; Boyd and Vandenberghe 2004, section 11.5) on the one
path-following driver ``_barrier_path``. The overlap core's unknowns are
the dual pair (Y1, Y2), systems of side d1^2 + d2^2 whatever the subspace;
the fiber distance of ``fibers`` is the driver's other barrier.

Reported values are certified: the primal value is evaluated at an exactly
feasible restoration of the iterate, the dual value at an exactly feasible
repair of the dual point, so primal <= optimum <= dual holds up to the
feasibility slack s = _FEAS_SLACK = 1e-12 times the size of the dual point.
For the overlap programs the primal may use marginals rho_i + s I, so the
bracket can invert by up to s (tr Y1 + tr Y2): 8.5e-8 at tr Y1 = 9.7e4 on a
direction just outside a singular marginal's support. The three fields of
``SolverConfig`` are the only knobs, and ``max_iters`` counts Newton steps
in every solve; that slack and the support cut are fixed constants.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bipartite import (
    BipartiteOperator,
    Subspace,
    _kron_sum_mat,
    partial_trace_1,
    partial_trace_2,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianOperator,
    _check_marginals,
    _herm_part,
    _hs,
    _max_eig,
    _min_eig,
    _tr,
    as_matrix,
    hermitize,
    psd_project,  # noqa: F401  (unused here; bench/run.py traces sdp.psd_project by name)
    schatten_norm,
    trace_norm,
)

__all__ = [
    "SolverConfig",
    "DEFAULT_CONFIG",
    "OverlapSolution",
    "DualityCertificateReport",
    "SupportedOverlapSolution",
    "solve_marginal_sdp",
    "solve_f_min_full",
    "solve_supported_overlap",
    "verify_duality_certificates",
]

_FEAS_SLACK = 1e-12
_GROWTH = 64.0  # the barrier weight t grows by this factor after each centering
_CENTERED = 0.7  # Newton decrement below which a point counts as centered (must stay below 1)
_CENTER_STEPS = 100  # a centering that needs this many Newton steps has stalled
_STEP_GRID = np.arange(10, 3, -1) / 10.0  # fractions 1, 0.9, ..., 0.4 of a damped step


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by every solve; the three fields are the serialized config.

    ``max_iters`` is the budget of one solve in Newton steps, for every
    program (``check``, ``mu``, ``ladder-f``, ``ladder-sdp``, ``fiber-dist``).
    """

    gap_tol: float = 1e-6
    eps_decision: float = 1e-4
    max_iters: int = 50_000

    def __post_init__(self):
        if not (math.isfinite(self.gap_tol) and self.gap_tol > 0):
            raise ValueError("gap_tol must be finite and positive")
        if not 0.0 < self.eps_decision < 1.0:
            raise ValueError("eps_decision must lie in (0, 1)")
        # A fractional budget would never meet the driver's step count.
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class OverlapSolution:
    """Certified output of the overlap program and of the mismatch minimization.

    ``value`` is attained by ``X``, ``dual`` by ``Y``, and ``gap`` is
    |dual - value|. For ``solve_marginal_sdp`` X is feasible up to ~1e-12
    slack and Y is an exactly feasible dual pair, so value <= mu <= dual.
    For ``solve_f_min_full`` value = f(X), and dual is the lower bound
    -(<W1, rho1> + <W2, rho2>) / max(1, ||W||_inf) of the test pair
    Y = (W1, W2), V^*(W1 (x) I + I (x) W2)V >= 0. The fields are
    ``SupportedOverlapSolution``'s, in its order, but this is not a tuple.
    """

    value: float
    X: BipartiteOperator
    gap: float
    iterations: int
    status: str
    dual: float
    Y: tuple[HermitianOperator, HermitianOperator]


def _support_scaler(r1, r2):
    """Support scale against fixed marginal bounds: scale(m1, m2) -> t.

    t is the largest value in [0, 1] with t*m1 <= r1 + s*I and
    t*m2 <= r2 + s*I, s = _FEAS_SLACK. With R_s = R + s*I > 0 the condition
    t*M <= R_s reads t * lambda_max(R_s^{-1/2} M R_s^{-1/2}) <= 1, so each
    marginal bounds t in closed form. The whiteners R_s^{-1/2} depend only on
    the bounds, so they are factored here once (one eigh per marginal) and
    each call costs one eigvalsh per marginal plus the confirmation. The root
    is backed off by a relative 1e-12 and confirmed with the exact test
    min_eig(R - t*M) >= -s on both marginals; a failed confirmation backs off
    further, down to 0. Every call returns 0 when lambda_min(R) + s <= 0,
    where no t passes.
    """
    whiteners = []
    for r in (r1, r2):
        w, v = np.linalg.eigh(hermitize(r))
        if w[0] + _FEAS_SLACK <= 0.0:
            return lambda m1, m2: 0.0
        whiteners.append(v / np.sqrt(w + _FEAS_SLACK))

    def scale(m1, m2) -> float:
        t = 1.0
        for m, k in zip((m1, m2), whiteners):
            top = _max_eig(k.conj().T @ m @ k)
            if top * t > 1.0:
                t = (1.0 - 1e-12) / top
        shrink = 1e-12
        while t > 0.0 and not (
            _min_eig(r1 - t * m1) >= -_FEAS_SLACK and _min_eig(r2 - t * m2) >= -_FEAS_SLACK
        ):
            shrink *= 16.0
            t = t * (1.0 - shrink) if shrink < 1.0 else 0.0
        return t

    return scale


def _shift_to_dominate(y1: np.ndarray, y2: np.ndarray, adjoint, b: np.ndarray | float):
    """Identity shifts of (Y1, Y2) until adjoint(Y1, Y2) >= B holds exactly.

    The adjoint maps identity shifts to identity shifts, so each round adds
    half the measured violation to both blocks, which raises the dual value
    <rho1, Y1> + <rho2, Y2> by that violation times the mean marginal trace.
    """
    for _ in range(3):
        viol = _min_eig(adjoint(y1, y2) - b)
        if viol >= 0:
            break
        shift = 0.5 * (-viol) + 1e-15
        y1 = y1 + shift * np.eye(y1.shape[0])
        y2 = y2 + shift * np.eye(y2.shape[0])
    return y1, y2


def _repair_dual(y1, y2, adjoint, b, r1, r2):
    """The overlap dual repair: (Y1, Y2, <rho1, Y1> + <rho2, Y2>) of a feasible pair.

    Each Y_i is shifted to PSD, then both by the identity until
    adjoint(Y1, Y2) >= B holds exactly.
    """
    y1, y2 = (y - min(0.0, _min_eig(y)) * np.eye(len(y)) for y in (y1, y2))
    y1, y2 = _shift_to_dominate(y1, y2, adjoint, b)
    return y1, y2, _hs(r1, y1) + _hs(r2, y2)


def _subspace_marginals(rho1, rho2, x_sub: Subspace, checked: bool = False):
    """The input check of every entry point that takes a pair and a subspace.

    Returns the Hermitian marginals and the basis V of ``x_sub`` once the
    factor dimensions match ``x_sub`` and each marginal is within the
    magnitude guard, finite and PSD; their traces may differ. ``checked`` marks
    Hermitian arrays that the caller has already checked against ``x_sub``:
    they pass through untested.
    """
    if checked:
        return rho1, rho2, x_sub.basis
    r1, r2 = HermitianOperator(rho1).mat, HermitianOperator(rho2).mat
    x_sub.check_factors(len(r1), len(r2))
    _check_marginals(r1, r2, equal_traces=False)
    return r1, r2, x_sub.basis


def _marginal_maps(vbasis: np.ndarray | None, d1: int, d2: int):
    """The maps L = (L1, L2), L1: C -> tr_2(V C V^*), L2: C -> tr_1(V C V^*), and L^*.

    For a basis V they apply the maps' matrices on row-major flattened
    coefficient matrices C. ``vbasis`` None stands for V = I: the maps are
    then the partial traces and their adjoint, which avoid the dense
    d^2 x (d1 d2)^2 map matrices, whose products OpenBLAS runs on several
    threads from 4x4 on, doubling the CPU time of a solve. Both maps
    return fresh arrays.
    """
    if vbasis is None:

        def lmap(c):
            return partial_trace_2(c, d1, d2), partial_trace_1(c, d1, d2)

        return lmap, _kron_sum_mat
    n = vbasis.shape[1]
    vr = vbasis.reshape(d1, d2, n)
    mm1 = np.einsum("ipl,jpm->ijlm", vr, vr.conj()).reshape(d1 * d1, n * n)
    mm2 = np.einsum("ipl,iqm->pqlm", vr, vr.conj()).reshape(d2 * d2, n * n)
    mm1h = mm1.conj().T
    mm2h = mm2.conj().T

    def lmap(c):
        c = c.reshape(-1)
        return (mm1 @ c).reshape(d1, d1), (mm2 @ c).reshape(d2, d2)

    def ladj(y1, y2):
        return (mm1h @ y1.reshape(-1) + mm2h @ y2.reshape(-1)).reshape(n, n)

    return lmap, ladj


def _kron_sum_gram(g4: np.ndarray):
    """The (Y1, Y2) Hessian blocks of -log det S, S = Y1 (x) I + I (x) Y2 - const.

    With G = S^-1 reshaped to ``g4`` (d1, d2, d1, d2), the Hessian maps
    (D1, D2) to (tr_2, tr_1)(G (D1 (x) I + I (x) D2) G). Returns its (1, 1),
    (1, 2) and (2, 2) blocks as 4-index views [a, e, c, x]: output (a, e),
    input (c, x), each from one product of G's regrouped entries.
    """
    d1, d2 = g4.shape[:2]
    p = g4.transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)  # [(a, c), (b, d)] = G[a, b, c, d]
    q = g4.transpose(0, 3, 1, 2).reshape(d1 * d2, d1 * d2)  # [(a, d), (b, c)]
    return (
        (p @ p.conj().T).reshape(d1, d1, d1, d1).transpose(0, 2, 1, 3),
        (q @ q.conj().T).reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3),
        (p.T @ p.conj()).reshape(d2, d2, d2, d2).transpose(0, 2, 1, 3),
    )


def _damped_step(mu: np.ndarray, lam2: float, grid: np.ndarray) -> float:
    """Length of a damped Newton step: the barrier's least value along it on ``grid``.

    ``mu`` is the ascending spectrum of L^-1 dS L^-* (S = L L^*) and ``lam2``
    the squared Newton decrement. Along the step the barrier changes by
    phi(alpha) = alpha s - sum_i log(1 + alpha mu_i), whose slope at 0,
    s - sum mu = -lam2, fixes s = t <cost, dx> = sum mu - lam2. The step
    first goes 0.9 of the way to the boundary of the slack cones, at most
    the full step: alpha0 = min(1, -0.9 / mu_0). Where phi still falls
    there (phi'(alpha0) <= 0) that is the step; where it rises, the step
    is the alpha0 * grid[k] of least phi (grid[0] = 1, so never above
    phi(alpha0)).
    """
    alpha = min(1.0, -0.9 / mu[0]) if mu[0] < 0.0 else 1.0
    slope = mu.sum() - lam2
    if slope <= np.sum(mu / (1.0 + alpha * mu)):
        return alpha
    alphas = alpha * grid
    return float(alphas[np.argmin(alphas * slope - np.log1p(np.outer(alphas, mu)).sum(axis=1))])


def _barrier_path(
    point, cost, scale, slacks, moves, system, certify, cfg: SolverConfig, defer=False
):
    """Follow the central path of one dual log-barrier; return (status, steps).

    The barrier is t <cost, x> - sum_j log det S_j(x), the unknowns x the
    Hermitian matrices of ``point`` (flattened row-major in order, updated in
    place), the slack blocks S_j affine in x. It supplies four pieces:
    ``slacks()``, the S_j at the current point; ``moves(dx)``, their changes
    along a step dx (one Hermitian matrix per unknown); ``system(inverses)``,
    the Hessian and the t-free gradient part gbar (the gradient is
    t cost + gbar) from the S_j^-1; and ``certify(inverses, changes, t)``,
    which certifies the current point from its Newton step's block changes
    and returns a stop status or None.

    Each step factors S = diag(S_1, ..., S_k) once: the Cholesky factor L
    (which tests that the point is strictly feasible), L^-1 and
    S^-1 = L^-* L^-1, hermitized because rounding leaves a non-Hermitian part
    of size eps cond(S) that a primal built from it cannot bear. One solve
    with the right-hand sides cost and gbar gives the Newton step
    t dcost + dbar for every t. t starts at 10 m / ``scale``, m the side of
    S. A point whose Newton decrement lambda is below _CENTERED counts as
    centered: it is certified (but see ``defer``) and t grows by _GROWTH on
    the same solve, until the point is no longer centered or ``certify``
    stops the path.
    _CENTERED must stay below 1: for lambda < 1 the step dS lies in the
    Dikin ellipsoid of S, so the primal (S^-1 - S^-1 dS S^-1) / t that
    certifies the point is PSD.
    Otherwise the step is damped (``_damped_step``): it goes 0.9 of the
    way to the boundary of the slack cones, at most the full step,
    alpha0 = min(1, -0.9 / mu_0) with mu the spectrum of L^-1 dS L^-* (S is
    block-diagonal, so each block's cone counts), and where the barrier
    rises at alpha0 it stops at the least barrier value among
    alpha0 (1, 0.9, ..., 0.4) (_STEP_GRID), read off the same mu: the
    damped Newton step of a line search on the barrier (Boyd and
    Vandenberghe 2004, section 9.5). The boundary lies at least 1 / lambda
    away (the Dikin ellipsoid), so for lambda <= 0.9 the full step obeys the
    rule and mu is computed (one eigvalsh) only when lambda^2 > 0.81.

    With ``defer`` a centered point is certified only once its barrier gap
    bound (m - sqrt(m max(lambda^2, 0))) / t, the least width of its own
    bracket, is at most sqrt(_GROWTH) cfg.gap_tol, halfway (on a log scale)
    between two centerings; the bound falls by _GROWTH per centering, so
    only the last point of a solve passes. Every other centered point is
    kept: a copy of its unknowns, its Newton step and t. When the path ends
    without a stop, the kept points are certified in order, before the
    current one, so a solve that runs out or breaks down keeps the bracket
    of every centered point. A kept point's S_j^-1 are factored again from
    its unknowns, bit for bit those it had, and its Newton system is not
    solved again; copies of the S_j^-1 would hold their blocks (n x n for
    mu's Z) per kept point. ``defer`` may also be a check, called at each
    point as it is kept with the arguments ``certify`` takes; it may stop the
    path as ``certify`` does, and the point stays kept. The uncapped overlap
    core defers (``defer`` True); the fiber distance defers with a check
    that repairs the kept point's member against the marginal floor; the
    mismatch program, whose threshold reads every centered point, does not
    defer.

    The status is ``certify``'s, or ``max_iters`` after cfg.max_iters
    Newton steps (the current point is then certified, last, unless it was
    centered), or ``infeasible_numerics`` on a singular or non-finite
    Newton system, a point that leaves the cone in rounding, or a centering
    of _CENTER_STEPS steps.
    """
    def spans(sizes):
        ends = list(itertools.accumulate(sizes))
        return [slice(i, j) for i, j in zip([0] + ends, ends)]

    diag, parts = spans(len(s) for s in slacks()), spans(x.size for x in point)
    m = diag[-1].stop
    blocks = np.zeros((m, m), dtype=complex)
    move = np.zeros_like(blocks)

    def split(step):
        return [_herm_part(step[sl].reshape(x.shape)) for sl, x in zip(parts, point)]

    def factor():
        for sl, s in zip(diag, slacks()):
            blocks[sl, sl] = s
        chol_inv = np.linalg.inv(np.linalg.cholesky(blocks))
        inv = _herm_part(chol_inv.conj().T @ chol_inv)
        return chol_inv, [inv[sl, sl] for sl in diag]

    t = 10.0 * m / scale
    reach = math.sqrt(_GROWTH) * cfg.gap_tol
    kept = []  # centered points left uncertified: (unknowns, Newton step, t)
    status, it, steps = "max_iters", 0, 0  # steps: Newton steps of this centering
    while True:
        try:
            chol_inv, inverses = factor()
            hess, gbar = system(inverses)
            dcost, dbar = np.linalg.solve(hess, -np.stack([cost, gbar], axis=1)).T
        except np.linalg.LinAlgError:
            status = "infeasible_numerics"
            break
        centered = False
        while True:
            step = t * dcost + dbar
            lam2 = -np.vdot(t * cost + gbar, step).real
            if not math.isfinite(lam2) or lam2 >= _CENTERED**2:
                break
            if defer and m - math.sqrt(m * max(lam2, 0.0)) > reach * t:
                kept.append(([x.copy() for x in point], step, t))
                stop = defer(inverses, moves(split(step)), t) if callable(defer) else None
            else:
                stop = certify(inverses, moves(split(step)), t)
            if stop is not None:
                return stop, it
            centered = True
            t *= _GROWTH
            steps = 0
        if not math.isfinite(lam2) or steps == _CENTER_STEPS:
            status = "infeasible_numerics"
            break
        if it == cfg.max_iters:
            if not centered:
                kept.append(([x.copy() for x in point], step, t))
            break
        dx = split(step)
        alpha = 1.0
        if lam2 > 0.81:
            for sl, ds in zip(diag, moves(dx)):
                move[sl, sl] = ds
            mu = np.linalg.eigvalsh(chol_inv @ move @ chol_inv.conj().T)
            alpha = _damped_step(mu, lam2, _STEP_GRID)
        for x, d in zip(point, dx):
            x += alpha * d
        it += 1
        steps += 1
    for xs, step, t in kept:
        for x, v in zip(point, xs):
            x[...] = v
        stop = certify(factor()[1], moves(split(step)), t)
        if stop is not None:
            return stop, it
    return status, it


class _Overlap(NamedTuple):
    """Bracket of one core solve: ``c`` attains ``value``, ``y`` attains ``dual``."""

    value: float
    c: np.ndarray
    dual: float
    y: tuple
    iterations: int
    status: str


def _overlap_core(
    b: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
    vbasis: np.ndarray | None,
    cfg: SolverConfig,
    threshold: float | None = None,
    cap: bool = False,
) -> _Overlap:
    """The one overlap solve: max <B, C> over PSD C with dominated marginals.

    The constraints are tr_2(V C V^*) <= rho1 and tr_1(V C V^*) <= rho2
    (``vbasis`` None stands for V = I): V = I and B = P is the overlap
    program, V the subspace basis and B = I the supported one.
    ``_barrier_path`` follows the barrier t (<R1, Y1> + <R2, Y2>) -
    log det Z - log det Y1 - log det Y2, Z = L^*(Y1, Y2) - B, from
    Y = (I, I), where Z = 2I - B > 0, with scale tr rho1 + tr rho2.
    R_i = rho_i + s I (s = _FEAS_SLACK, the slack the certified primal may
    use anyway) keeps the path bounded when a marginal is singular. The
    Hessian's Z part (tr_2, tr_1)(G (D1 (x) I + I (x) D2) G), G = V Z^-1 V^*,
    is three products of G's regrouped entries.

    At a centered point the Newton step Delta gives the primal
    C = (Z^-1 - Z^-1 L^*(Delta) Z^-1) / t, whose marginals are
    R_i - (Y_i^-1 - Y_i^-1 Delta_i Y_i^-1) / t <= R_i for lambda < 1.
    Shifted to PSD where rounding left it below 0 and scaled down until its
    marginals are dominated, it is the certified primal; ``_repair_dual`` of
    Y gives the certified dual. The solve stops with ``optimal`` once
    dual - primal <= cfg.gap_tol. The bracket starts at
    [0, tr rho1 + tr rho2] (C = 0, Y = (I, I)). The driver defers every
    centered point whose barrier gap bound keeps its bracket open (its
    ``defer``), so a solve that closes runs one certificate: one support
    scale and one ``_repair_dual``.

    ``cap`` solves the mismatch program of ``solve_f_min_full`` instead
    (B = I, V a basis): its dual adds Y_i <= I, so the barrier gains
    -log det(I - Y1) - log det(I - Y2) and starts from Y = (3/4 I, 3/4 I),
    where Z = I/2. The bracket is then f's: ``value`` is f(V C V^*) at the
    PSD-shifted primal (any PSD C is admissible, so no scaling), starting at
    f(0) = tr rho1 + tr rho2, and ``dual`` is the lower bound
    -<W, rho> / max(1, ||W||_inf) of W = 2Y - I shifted by the identity
    until L^*(W) >= 0, with ``y`` = W, starting at 0 with W = 0. It stops
    with ``optimal`` once value - dual <= cfg.gap_tol and, given a
    ``threshold`` (read only with ``cap``), with ``decided`` once
    value < threshold. With ``cap`` every centered point is certified: the
    threshold reads each one, and this bracket closes far above the
    barrier gap bound.
    """
    d1, d2, n = r1.shape[0], r2.shape[0], b.shape[0]
    k1, k2 = d1 * d1, d2 * d2
    lmap, ladj = _marginal_maps(vbasis, d1, d2)
    rho = np.concatenate([(r + _FEAS_SLACK * np.eye(len(r))).reshape(-1) for r in (r1, r2)])
    # The Hessian's blocks as 4-index views [a, e, c, x]: output (a, e), input (c, x).
    hess = np.empty((k1 + k2, k1 + k2), dtype=complex)
    h11 = hess[:k1, :k1].reshape(d1, d1, d1, d1)
    h12 = hess[:k1, k1:].reshape(d1, d1, d2, d2)
    h22 = hess[k1:, k1:].reshape(d2, d2, d2, d2)
    y1, y2 = (np.eye(d, dtype=complex) * (0.75 if cap else 1.0) for d in (d1, d2))
    f0 = _tr(r1) + _tr(r2)
    best = {
        "value": f0 if cap else 0.0,
        "c": np.zeros((n, n), dtype=complex),
        "dual": 0.0 if cap else f0,
        "y": tuple(np.zeros_like(y) if cap else y.copy() for y in (y1, y2)),
    }
    support_scale = None if cap else _support_scaler(r1, r2)

    def slacks():
        return [ladj(y1, y2) - b, y1, y2] + ([np.eye(d1) - y1, np.eye(d2) - y2] if cap else [])

    def moves(dx):
        dy1, dy2 = dx
        return [ladj(dy1, dy2), dy1, dy2] + ([-dy1, -dy2] if cap else [])

    def system(inverses):
        zinv, y1i, y2i, *uinv = inverses
        g = zinv if vbasis is None else vbasis @ zinv @ vbasis.conj().T
        g4 = g.reshape(d1, d2, d1, d2)
        g11, g12, g22 = _kron_sum_gram(g4)
        np.multiply(y1i[:, None, :, None], y1i.T[None, :, None, :], out=h11)
        h11[...] += g11
        np.multiply(y2i[:, None, :, None], y2i.T[None, :, None, :], out=h22)
        h22[...] += g22
        # The cap's -log det(I - Y_i) adds (I - Y_i)^-1 to the Y_i^-1 terms.
        for h, a in zip((h11, h22), uinv):
            h += a[:, None, :, None] * a.T[None, :, None, :]
        h12[...] = g12
        hess[k1:, :k1] = hess[:k1, k1:].conj().T
        gy1, gy2 = (y1i - uinv[0], y2i - uinv[1]) if cap else (y1i, y2i)
        gbar = -np.concatenate([
            (np.einsum("abcb->ac", g4) + gy1).reshape(-1),
            (np.einsum("abad->bd", g4) + gy2).reshape(-1),
        ])
        return hess, gbar

    def certify(inverses, changes, t):
        zinv, dz = inverses[0], changes[0]
        cf = hermitize(zinv - zinv @ dz @ zinv) / t
        cf -= min(0.0, _min_eig(cf)) * np.eye(n)  # PSD in exact arithmetic, so up to rounding
        if cap:
            val = sum(trace_norm(hermitize(m) - r) for m, r in zip(lmap(cf), (r1, r2)))
            if val < best["value"]:
                best.update(value=val, c=cf)
            w1, w2 = _shift_to_dominate(2.0 * y1 - np.eye(d1), 2.0 * y2 - np.eye(d2), ladj, 0.0)
            scale = max(1.0, *(schatten_norm(w, np.inf) for w in (w1, w2)))
            lower = -(_hs(w1, r1) + _hs(w2, r2)) / scale
            if lower > best["dual"]:
                best.update(dual=lower, y=(w1, w2))
            if best["value"] - best["dual"] <= cfg.gap_tol:
                return "optimal"
            return "decided" if threshold is not None and best["value"] < threshold else None
        s = support_scale(*(hermitize(m) for m in lmap(cf)))
        val = s * _hs(b, cf)
        if val > best["value"]:
            best.update(value=val, c=s * cf)
        ry1, ry2, dval = _repair_dual(y1, y2, ladj, b, r1, r2)
        if dval < best["dual"]:
            best.update(dual=dval, y=(ry1, ry2))
        return "optimal" if best["dual"] - best["value"] <= cfg.gap_tol else None

    status, it = _barrier_path([y1, y2], rho, f0, slacks, moves, system, certify, cfg, not cap)
    return _Overlap(iterations=it, status=status, **best)


def _support_split(mat: np.ndarray):
    """Orthonormal eigenbases of the support of a PSD matrix (DEFAULT_TOL cut) and of its complement."""
    w, v = np.linalg.eigh(hermitize(mat))
    on = w > DEFAULT_TOL.support_rel * max(float(w[-1]), 0.0)
    return v[:, on], v[:, ~on]


def _solution(cls, sol: _Overlap, vbasis):
    """``OverlapSolution`` or ``SupportedOverlapSolution`` (``cls``) of a core solve.

    X = V C V^* (``vbasis`` None for V = I) on the factors of the dual pair.
    """
    c = sol.c if vbasis is None else vbasis @ sol.c @ vbasis.conj().T
    return cls(
        value=sol.value,
        X=BipartiteOperator(hermitize(c), *(len(y) for y in sol.y)),
        gap=abs(sol.dual - sol.value),
        iterations=sol.iterations,
        status=sol.status,
        dual=sol.dual,
        Y=tuple(HermitianOperator(y) for y in sol.y),
    )


def _overlap_on_support(b, r1, r2, vbasis, cfg: SolverConfig):
    """``_overlap_core`` on the support product S = supp rho1 (x) supp rho2.

    V is ``vbasis`` (None for V = I). Dominated operators live on S, so where
    a marginal is singular R, a basis of the c with V c in S (U1 (x) U2 for
    V = I), compresses B, the marginals and V to the same program, solved to
    half of gap_tol; C embeds back as R C R^*. Each Y_i gains s W_i W_i^*
    (W_i the complement eigenvectors of rho_i), with
    s = (1 + 0.5 / gap_tol) / g, g the least squared singular value of
    (I - Q) V off R (Q projects on S), then shifts to PSD and by the identity
    until it dominates B; the status is ``optimal`` once this bracket closes
    to gap_tol, and a solve that ran out or broke down keeps its own status
    otherwise. Where the lift's rounding (up to s eps d1 d2) exceeds
    gap_tol, or the lifted bracket of an ``optimal`` solve does not close,
    the core solves the full space, keeps the better primal and the better
    (lower) dual with its pair, and is ``optimal`` if the merged bracket
    closes. A vanishing R^* B R gives 0 at 0 iterations.
    """
    d1, d2 = len(r1), len(r2)
    (u1, w1), (u2, w2) = _support_split(r1), _support_split(r2)
    if w1.size + w2.size == 0:
        return _overlap_core(b, r1, r2, vbasis, cfg)
    lift = np.kron(u1, u2)
    k1, k2 = u1.shape[1], u2.shape[1]
    keep, vc, gain = lift, None, 1.0
    if vbasis is not None:
        _, sv, wh = np.linalg.svd(vbasis - lift @ (lift.conj().T @ vbasis))
        inside = sv <= DEFAULT_TOL.subspace_drop
        keep = wh[inside].conj().T
        vc = lift.conj().T @ vbasis @ keep
        gain = float(np.min(sv[~inside] ** 2, initial=1.0))
    bc = hermitize(keep.conj().T @ b @ keep)
    if bc.size == 0 or _max_eig(bc) <= 1e-12:
        y0 = (np.zeros((k1, k1)), np.zeros((k2, k2)))  # the optimum is exactly 0
        sol = _Overlap(0.0, np.zeros_like(bc), 0.0, y0, 0, "optimal")
    else:
        rc1, rc2 = (hermitize(u.conj().T @ r @ u) for u, r in ((u1, r1), (u2, r2)))
        half = replace(cfg, gap_tol=0.5 * cfg.gap_tol)
        sol = _overlap_core(bc, rc1, rc2, vc, half)
    c = keep @ sol.c @ keep.conj().T
    shift = (1.0 + 0.5 / cfg.gap_tol) / gain
    pair, dual = None, math.inf  # the lifted dual, where the lift's rounding allows one
    if shift * np.finfo(float).eps * d1 * d2 <= cfg.gap_tol:
        *pair, dual = _repair_dual(
            *(
                hermitize(u @ y @ u.conj().T + shift * (w @ w.conj().T))
                for u, w, y in zip((u1, u2), (w1, w2), sol.y)
            ),
            _marginal_maps(vbasis, d1, d2)[1], b, r1, r2,
        )
        closed = dual - sol.value <= cfg.gap_tol
        if closed or sol.status != "optimal":
            status = "optimal" if closed else sol.status
            return sol._replace(c=c, dual=dual, y=tuple(pair), status=status)
    full = _overlap_core(b, r1, r2, vbasis, cfg)
    full = full._replace(iterations=sol.iterations + full.iterations)
    if sol.value > full.value:
        full = full._replace(value=sol.value, c=c)
    if dual < full.dual:
        full = full._replace(dual=dual, y=tuple(pair))
    if full.dual - full.value <= cfg.gap_tol:
        full = full._replace(status="optimal")
    return full


def solve_marginal_sdp(
    x_sub: Subspace,
    rho1,
    rho2,
    cfg: SolverConfig = DEFAULT_CONFIG,
    *,
    _checked: bool = False,
) -> OverlapSolution:
    """Solve the overlap program of ``x_sub``'s projector with certified primal and dual values.

    The marginals must be PSD (``_subspace_marginals``); their traces may
    differ, as for truncated ladder levels. With unit traces the value is 1
    exactly when a coupling supported in the subspace exists (``strassen.mu``).
    The returned primal value is attained by the returned X (feasible up to
    1e-12), the dual value by the returned Y (feasible after an exact identity
    shift repair), so the reported gap is a two-sided optimality certificate.
    The dual barrier method of ``_overlap_core`` follows its central path
    and certifies a bracket at the centered points whose barrier gap bound
    lets it close; it stops with status ``optimal`` at the first one whose
    certified gap is at most cfg.gap_tol. ``iterations`` counts Newton
    steps; status is ``max_iters`` when cfg.max_iters of them run out first,
    and ``infeasible_numerics`` on a singular or non-finite Newton system or
    a stalled centering; the bracket is then the best of every centered
    point. A singular marginal is handled by ``_overlap_on_support``, which
    solves on the support product and lifts the solution back. ``_checked``
    marks Hermitian arrays already checked against ``x_sub``
    (``strassen.mu`` and each ``strassen.sdp_ladder`` level).
    """
    r1, r2, _ = _subspace_marginals(rho1, rho2, x_sub, _checked)
    sol = _overlap_on_support(x_sub.projector.mat, r1, r2, None, cfg)
    return _solution(OverlapSolution, sol, None)


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
    x_sub: Subspace, rho1, rho2, solution: OverlapSolution
) -> DualityCertificateReport:
    """Report-only certificate checks for a solved overlap program.

    Verifies that the trivial pair Y = (I, I) is dual feasible (its adjoint
    image 2I dominates the subspace projector), that the returned dual pair
    is feasible within 1e-7, and that weak duality holds against the returned
    primal value. The marginals enter only through the trivial value
    tr rho1 + tr rho2; the solve has already checked them.
    """
    a = x_sub.projector.mat
    trivial_margin = _min_eig(2.0 * np.eye(x_sub.ambient_dim) - a)
    trivial_value = _tr(as_matrix(rho1)) + _tr(as_matrix(rho2))
    y1 = solution.Y[0].mat
    y2 = solution.Y[1].mat
    dual_margin = _min_eig(_kron_sum_mat(y1, y2) - a)
    dual_psd = min(_min_eig(y1), _min_eig(y2))
    slack = solution.dual - solution.value
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


def solve_f_min_full(
    rho1,
    rho2,
    x_sub: Subspace,
    cfg: SolverConfig = DEFAULT_CONFIG,
    threshold: float | None = None,
    *,
    _checked: bool = False,
) -> OverlapSolution:
    """Minimize f(X) = ||tr_2 X - rho1||_1 + ||tr_1 X - rho2||_1 over PSD X in a subspace.

    With X = V C V^* (V the subspace basis) and ||A||_1 = 2 tr A_+ - tr A,
    the minimum is tr rho1 + tr rho2 - 2 max{tr C - tr S1 - tr S2 :
    C, S_i >= 0, L_i(C) <= rho_i + S_i}: the supported overlap program with
    the slacks S_i, whose dual is capped at Y_i <= I. ``_overlap_core``
    solves it with ``cap``. The upper ``value`` is f at an exactly PSD
    primal, the lower bound ``dual`` comes from the repaired test pair
    ``Y``, so the pair brackets the true minimum. The solve stops with
    status ``optimal`` at the first certified bracket whose gap is at most
    cfg.gap_tol, else ends at ``max_iters`` Newton steps (or ``infeasible_numerics`` on a numerical
    breakdown). With a ``threshold`` the solve also stops, with status
    ``decided``, at the first bracket whose value is below it; a value in
    [0, threshold) then brackets the minimum, and the gap may exceed
    cfg.gap_tol. ``_checked`` marks Hermitian arrays that the caller has
    already checked against ``x_sub``: ``strassen.f_ladder`` checks its pair
    once and solves every level through this name, which bench/run.py
    traces.
    """
    r1, r2, vbasis = _subspace_marginals(rho1, rho2, x_sub, _checked)
    sol = _overlap_core(np.eye(x_sub.dim), r1, r2, vbasis, cfg, threshold, cap=True)
    return _solution(OverlapSolution, sol, vbasis)


class SupportedOverlapSolution(NamedTuple):
    """``OverlapSolution``'s fields for the support-constrained overlap program.

    The dual pair satisfies Y_i >= 0 and V^*(Y1 (x) I + I (x) Y2)V >= I, so
    value <= optimum <= dual. A named tuple, so positional access works too:
    ``[0]`` value, ``[1]`` X, ``[2]`` gap.
    """

    value: float
    X: BipartiteOperator
    gap: float
    iterations: int
    status: str
    dual: float
    Y: tuple[HermitianOperator, HermitianOperator]


def solve_supported_overlap(
    x_sub: Subspace,
    rho1,
    rho2,
    cfg: SolverConfig = DEFAULT_CONFIG,
    *,
    _checked: bool = False,
) -> SupportedOverlapSolution:
    """Maximize tr X over PSD X supported exactly in the subspace with dominated marginals.

    The value equals 1 precisely when a coupling supported in the subspace
    exists, and is never above the overlap optimum mu. Unlike the overlap
    program, the optimizer here carries no mass outside the subspace by
    construction (X = V C V^* throughout), which makes it the right source for
    coupling certificates. The value is attained by the returned X, which is
    feasible up to ~1e-12. The solve runs the dual barrier method of
    ``_overlap_core`` and stops with status ``optimal`` at the first
    certified bracket whose gap is at most cfg.gap_tol, else ends at
    ``max_iters`` Newton steps (or ``infeasible_numerics`` on a numerical
    breakdown). Its dual pair refutes a coupling by itself once ``dual``
    falls below 1, so ``strassen._decide`` needs no other solve. As for mu,
    ``_overlap_on_support`` compresses a singular marginal's program to the
    support product. ``_checked`` marks Hermitian arrays already checked
    against ``x_sub`` (``strassen._decide``).
    """
    r1, r2, vbasis = _subspace_marginals(rho1, rho2, x_sub, _checked)
    sol = _overlap_on_support(np.eye(x_sub.dim), r1, r2, vbasis, cfg)
    return _solution(SupportedOverlapSolution, sol, vbasis)
