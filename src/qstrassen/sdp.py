"""Splitting solvers for the conic programs behind coupling tests.

The overlap program, over PSD coefficient matrices C,

    maximize  <B, C>   subject to   tr_2(V C V^*) <= rho1,  tr_1(V C V^*) <= rho2,

is solved by one core, ``_overlap_core``. With V = I and B the subspace
projector (``solve_marginal_sdp``) its value mu equals 1 exactly when a
coupling supported in the subspace exists; with V a basis of the subspace and
B = I (``solve_supported_overlap``) every feasible V C V^* lies in the
subspace, which makes it the source of coupling certificates. Singular
marginals are compressed to their supports before the core runs and the
solution is lifted back after. ``solve_f_min`` minimizes the marginal mismatch
f(X) = ||tr_2 X - rho1||_1 + ||tr_1 X - rho2||_1 over PSD X supported in a
given subspace, with the trace norms encoded through their semidefinite
epigraphs.

The method is a two-block ADMM with over-relaxation and residual balancing:
one block is projected onto the affine slice (through the normal matrix of the
marginal maps), the other onto the PSD cones (the only expensive kernel). One
driver, ``_admm``, runs the iteration for every solver here and in
``fibers``; each solver supplies only its affine step and its certify
checkpoint, and every block is projected onto the PSD cone. The driver keeps
the iterate, the multipliers and the affine point in flat buffers, updates
them with whole-buffer in-place ufuncs, and projects each run of equal-shape
blocks with one stacked ``eigh``, in place into the other iterate half. The
penalty is balanced on relative residuals (Boyd et al. 2011, section 3.4.1):
the primal residual over the larger of the affine and cone iterates' norms
against the dual residual over the multipliers' norm.
Reported values are certified: the primal value is evaluated at an exactly
feasible restoration of the iterate, the dual value at an exactly feasible
repair of the multipliers, so primal <= optimum <= dual holds up to the
stated feasibility slack (~1e-12), not merely in the limit. The four fields
of ``SolverConfig`` are the only knobs; that slack and the support cut are
fixed constants.
"""

from __future__ import annotations

import math
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
    _identity,
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


def _admm(affine, w, lam, sigma: float, max_iters: int, certify):
    """The one ADMM loop: over-relaxation, checkpoints and residual balancing.

    ``w`` holds the consensus blocks and ``lam`` their scaled multipliers;
    every block is projected onto the PSD cone. Each iteration takes one
    point per block on the affine set from ``affine(w, lam, sigma)``,
    over-relaxes it, projects the shifted blocks and updates the
    multipliers. Every _CHECK_EVERY iterations and at the last one the
    checkpoint ends the solve with status ``infeasible_numerics`` when the
    first affine block is not finite, then lets
    ``certify(w, lam, sigma, pres, dres)`` update the caller's bracket and
    return a stop status or None, given the absolute primal and dual
    residuals. Otherwise it balances the penalty on the relative residuals,
    pres / max(||x||, ||w||) against dres / (sigma ||lam||), each norm over
    a whole flat buffer, and leaves it alone when either normaliser is 0.
    Returns (status, iterations, w, lam, sigma) with blocks that own their
    memory; status is ``max_iters`` when the budget runs out first.

    The iterate (twice: new and previous), the multipliers and the affine
    point live in flat buffers, and ``affine`` and ``certify`` see views of
    the blocks, valid for the call only. Blocks of equal shape form one run,
    fixed once per solve, and each run is one ``psd_project(src, out=dst)``
    call (one stacked ``eigh``) from a slice of z = h + lam into the other
    iterate half. It reads only the lower triangle of z, Hermitian only up
    to round-off, and writes an exactly Hermitian projection. The
    over-relaxation and lam = z - w_new are whole-buffer in-place ufuncs, in
    the same floating-point order as block by block.
    """
    # Layout: the blocks grouped by shape. A run of one block keeps its 2-D
    # shape, since stacking it would gain nothing.
    shapes = [blk.shape for blk in w]
    by_shape: dict = {}
    for k, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(k)
    spans, runs, pos = [None] * len(w), [], 0
    for shape, ks in by_shape.items():
        start = pos
        for k in ks:
            spans[k] = slice(pos, pos + w[k].size)
            pos += w[k].size
        runs.append((slice(start, pos), shape if len(ks) == 1 else (len(ks), *shape)))
    blocks = list(zip(spans, shapes))

    def views(buf, cuts):
        return [buf[s].reshape(shape) for s, shape in cuts]

    wbuf = [np.empty(pos, dtype=complex) for _ in range(2)]
    lbuf, xbuf, zbuf = (np.empty(pos, dtype=complex) for _ in range(3))
    wv = [views(half, blocks) for half in wbuf]
    wr = [views(half, runs) for half in wbuf]
    lv, xv = views(lbuf, blocks), views(xbuf, blocks)
    zr = views(zbuf, runs)
    for dst, blk in zip(wv[0] + lv, list(w) + list(lam)):
        dst[...] = blk

    status = "max_iters"
    it = cur = 0
    while it < max_iters:
        it += 1
        for dst, xb in zip(xv, affine(wv[cur], lv, sigma)):
            dst[...] = xb
        # z = RELAX x + (1 - RELAX) w + lam, staging (1 - RELAX) w in the
        # other iterate half, which the cone step then overwrites.
        nxt = wbuf[1 - cur]
        np.multiply(1.0 - _RELAX, wbuf[cur], out=nxt)
        np.multiply(_RELAX, xbuf, out=zbuf)
        zbuf += nxt
        zbuf += lbuf
        for dst, src in zip(wr[1 - cur], zr):
            psd_project(src, out=dst)
        np.subtract(zbuf, nxt, out=lbuf)
        cur = 1 - cur
        if it % _CHECK_EVERY == 0 or it == max_iters:
            if not np.isfinite(xv[0]).all():
                status = "infeasible_numerics"
                break
            # The residuals are read only here, so only checkpoints pay for them.
            w_new, w_old = wbuf[cur], wbuf[1 - cur]
            dres = sigma * np.linalg.norm(w_new - w_old)
            pres = np.linalg.norm(xbuf - w_new)
            stop = certify(wv[cur], lv, sigma, pres, dres)
            if stop is not None:
                status = stop
                break
            pscale = max(np.linalg.norm(xbuf), np.linalg.norm(w_new))
            dscale = sigma * np.linalg.norm(lbuf)
            if pscale == 0.0 or dscale == 0.0:
                continue
            prel, drel = pres / pscale, dres / dscale
            if prel > _BALANCE_RATIO * drel:
                sigma *= _BALANCE_SCALE
                lbuf /= _BALANCE_SCALE
            elif drel > _BALANCE_RATIO * prel:
                sigma /= _BALANCE_SCALE
                lbuf *= _BALANCE_SCALE
    return status, it, [b.copy() for b in wv[cur]], [b.copy() for b in lv], sigma


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


def _subspace_marginals(rho1, rho2, x_sub: Subspace):
    """Hermitian marginals and the basis V of ``x_sub``, checked against each other."""
    r1 = hermitize(rho1.mat if isinstance(rho1, HermitianOperator) else as_matrix(rho1))
    r2 = hermitize(rho2.mat if isinstance(rho2, HermitianOperator) else as_matrix(rho2))
    d1, d2 = r1.shape[0], r2.shape[0]
    if x_sub.ambient_dim != d1 * d2:
        raise ValueError(f"subspace ambient dim {x_sub.ambient_dim} does not match {d1}*{d2}")
    return r1, r2, x_sub.basis


def _marginal_maps(vbasis: np.ndarray | None, d1: int, d2: int):
    """The maps L = (L1, L2), L1: C -> tr_2(V C V^*), L2: C -> tr_1(V C V^*), and L^*.

    For a basis V they apply the maps' matrices on row-major flattened
    coefficient matrices C. ``vbasis`` None stands for V = I: the maps are
    then the partial traces and their adjoint, which avoid the dense
    d^2 x (d1 d2)^2 map matrices, whose products OpenBLAS runs on several
    threads from 4x4 on, doubling the CPU time of a solve.
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


def _marginal_normal_solver(maps: tuple, d1: int, d2: int, weight: float):
    """Solver of (I + weight L L^*)(M1, M2) = (V1, V2) on the marginal space.

    The matrix has side d1^2 + d2^2 whatever the subspace dimension; it is
    built column by column from the maps L and L^* of ``maps`` and inverted
    once, so each call is one product. Each call fills the same preallocated
    buffers, so the returned (M1, M2) are views valid until the next call.
    """
    lmap, ladj = maps
    k1 = d1 * d1
    big = np.eye(k1 + d2 * d2, dtype=complex)
    for k, unit in enumerate(big.copy()):
        l1, l2 = lmap(ladj(unit[:k1].reshape(d1, d1), unit[k1:].reshape(d2, d2)))
        big[:, k] += weight * np.concatenate([l1.reshape(-1), l2.reshape(-1)])
    big_inv = np.linalg.inv(big)
    rhs, msol = np.empty((2, len(big)), dtype=complex)
    v1, v2 = rhs[:k1].reshape(d1, d1), rhs[k1:].reshape(d2, d2)
    m1, m2 = msol[:k1].reshape(d1, d1), msol[k1:].reshape(d2, d2)

    def solve(t1, t2):
        v1[...] = t1
        v2[...] = t2
        np.matmul(big_inv, rhs, out=msol)
        return m1, m2

    return solve


class _Overlap(NamedTuple):
    """Bracket of one core solve: ``c`` attains ``value``, ``y`` attains ``dual``."""

    value: float
    c: np.ndarray
    dual: float
    y: tuple
    history: list
    iterations: int
    status: str


def _overlap_core(
    b: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
    maps: tuple,
    cfg: SolverConfig,
    warm_start: dict | None = None,
    threshold: float | None = None,
) -> _Overlap:
    """The one overlap solve: max <B, C> over PSD C with dominated marginals.

    The constraints are tr_2(V C V^*) <= rho1 and tr_1(V C V^*) <= rho2, and
    ``maps`` holds the functions L: C -> (tr_2(V C V^*), tr_1(V C V^*)) and
    its adjoint L^*: V = I and B = P is the overlap program, V the subspace
    basis and B = I the supported one. The affine step projects (C, S1, S2)
    onto {L1 C + S1 = rho1, L2 C + S2 = rho2} through the normal matrix
    I + L L^*, built once from the maps. At each checkpoint the iterate is
    scaled down until its marginals are dominated (the certified primal), and
    the slack multipliers are shifted per block to PSD and then by the
    identity until L^*(Y1, Y2) >= B holds (the certified dual). The solve
    stops with ``optimal`` once dual - primal <= cfg.gap_tol and, given a
    ``threshold``, with ``decided`` once primal >= threshold or
    dual < threshold. ``warm_start`` may carry a coefficient matrix "X" (C
    starts at 0 without one) and the dual pair "Y1", "Y2".
    """
    d1, d2, n = r1.shape[0], r2.shape[0], b.shape[0]
    lmap, ladj = maps
    normal_solve = _marginal_normal_solver(maps, d1, d2, 1.0)
    support_scale = _support_scaler(r1, r2)

    sigma = cfg.penalty_init
    w = [np.zeros((n, n), dtype=complex), psd_project(r1), psd_project(r2)]
    lam = [np.zeros_like(blk) for blk in w]
    if warm_start:
        wx = psd_project(hermitize(warm_start.get("X", w[0])))
        m1, m2 = lmap(wx)
        w = [wx, psd_project(hermitize(r1 - m1)), psd_project(hermitize(r2 - m2))]
        for k in (1, 2):
            if f"Y{k}" in warm_start:
                lam[k] = -hermitize(as_matrix(warm_start[f"Y{k}"])) / sigma

    best = {
        "value": 0.0,
        "c": np.zeros((n, n), dtype=complex),
        "dual": math.inf,
        "y": (np.eye(d1, dtype=complex), np.eye(d2, dtype=complex)),
    }
    history: list[float] = []
    b_scaled = (None, None)  # (sigma, b / sigma), renewed when sigma changes

    def affine(w, lam, sigma):
        nonlocal b_scaled
        if b_scaled[0] != sigma:
            b_scaled = (sigma, b / sigma)
        c0 = w[0] - lam[0] + b_scaled[1]
        t1 = w[1] - lam[1]
        t2 = w[2] - lam[2]
        l1c0, l2c0 = lmap(c0)
        m1, m2 = normal_solve(l1c0 + t1 - r1, l2c0 + t2 - r2)
        return c0 - ladj(m1, m2), t1 - m1, t2 - m2

    def certify(w, lam, sigma, pres, dres):
        cf = w[0]
        t = support_scale(*(hermitize(m) for m in lmap(cf)))
        val = t * _hs(b, cf)
        if val > best["value"]:
            best.update(value=val, c=t * cf)
        history.append(best["value"])
        # Dual repair: each slack multiplier is shifted to PSD, then both by
        # the identity until L^*(Y1, Y2) >= B holds exactly.
        y1, y2 = (hermitize(-sigma * lb) for lb in lam[1:])
        y1, y2 = (y - min(0.0, _min_eig(y)) * np.eye(len(y)) for y in (y1, y2))
        y1, y2 = _shift_to_dominate(y1, y2, ladj, b)
        dval = _hs(r1, y1) + _hs(r2, y2)
        if dval < best["dual"]:
            best.update(dual=dval, y=(y1, y2))
        if best["dual"] - best["value"] <= cfg.gap_tol:
            return "optimal"
        if threshold is not None and (
            best["value"] >= threshold or best["dual"] < threshold
        ):
            return "decided"
        return None

    status, it, w, lam, sigma = _admm(affine, w, lam, sigma, cfg.max_iters, certify)
    if not history:
        certify(w, lam, sigma, math.inf, math.inf)
    return _Overlap(history=history, iterations=it, status=status, **best)


def _support_split(mat: np.ndarray):
    """Orthonormal eigenbases of the support of a PSD matrix (DEFAULT_TOL cut) and of its complement."""
    w, v = np.linalg.eigh(hermitize(mat))
    on = w > DEFAULT_TOL.support_rel * max(float(w[-1]), 0.0)
    return v[:, on], v[:, ~on]


def _marginal_solution(sol: _Overlap, a, r1, r2) -> MarginalSdpSolution:
    """Wrap a core solve of the overlap program (V = I, B = A) with its residuals."""
    d1, d2 = r1.shape[0], r2.shape[0]
    y1, y2 = sol.y
    residuals = {
        "psd_violation": max(0.0, -_min_eig(sol.c)),
        "constraint_violation": max(
            0.0,
            _max_eig(partial_trace_2(sol.c, d1, d2) - r1),
            _max_eig(partial_trace_1(sol.c, d1, d2) - r2),
        ),
        "adjoint_violation": max(0.0, -_min_eig(_kron_sum_mat(y1, y2) - a)),
    }
    return MarginalSdpSolution(
        X=BipartiteOperator(hermitize(sol.c), d1, d2),
        Y=(HermitianOperator(y1), HermitianOperator(y2)),
        primal_value=sol.value,
        dual_value=sol.dual,
        gap=abs(sol.dual - sol.value),
        residuals=residuals,
        iterations=sol.iterations,
        status=sol.status,
        primal_history=tuple(sol.history),
    )


def _overlap_on_support(b, r1, r2, vbasis, cfg: SolverConfig, warm_start=None, threshold=None):
    """``_overlap_core`` on the support product S = supp rho1 (x) supp rho2.

    V is ``vbasis`` (None for V = I). Dominated operators live on S, so where
    a marginal is singular R, a basis of the c with V c in S (U1 (x) U2 for
    V = I), compresses B, the marginals, V and a warm start to the same
    program, solved to half of gap_tol; C embeds back as R C R^*. Each Y_i
    gains s W_i W_i^* (W_i the complement eigenvectors of rho_i), with
    s = (1 + 0.5 / gap_tol) / g, g the least squared singular value of
    (I - Q) V off R (Q projects on S), then shifts to PSD and by the identity
    until it dominates B, and the status is re-read from this bracket. Where
    the lift's rounding (up to s eps d1 d2) exceeds gap_tol, or its bracket
    neither closes nor decides, the core solves the full space and keeps the
    better primal. A vanishing R^* B R gives 0 at 0 iterations.
    """
    d1, d2 = len(r1), len(r2)
    maps = _marginal_maps(vbasis, d1, d2)
    (u1, w1), (u2, w2) = _support_split(r1), _support_split(r2)
    if w1.size + w2.size == 0:
        return _overlap_core(b, r1, r2, maps, cfg, warm_start, threshold)
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
        sol = _Overlap(0.0, np.zeros_like(bc), 0.0, y0, [0.0], 0, "optimal")
    else:
        warm = dict(warm_start or {})
        for key, u in (("X", keep), ("Y1", u1), ("Y2", u2)):
            if key in warm:
                warm[key] = u.conj().T @ as_matrix(warm[key]) @ u
        rc1, rc2 = (hermitize(u.conj().T @ r @ u) for u, r in ((u1, r1), (u2, r2)))
        half = replace(cfg, gap_tol=0.5 * cfg.gap_tol)
        sol = _overlap_core(bc, rc1, rc2, _marginal_maps(vc, k1, k2), half, warm, threshold)
    c = keep @ sol.c @ keep.conj().T
    shift = (1.0 + 0.5 / cfg.gap_tol) / gain
    if shift * np.finfo(float).eps * d1 * d2 <= cfg.gap_tol:
        y1, y2 = (
            hermitize(u @ y @ u.conj().T + shift * (w @ w.conj().T))
            for u, w, y in zip((u1, u2), (w1, w2), sol.y)
        )
        y1, y2 = (y - min(0.0, _min_eig(y)) * np.eye(len(y)) for y in (y1, y2))
        y1, y2 = _shift_to_dominate(y1, y2, maps[1], b)
        dual, status = _hs(r1, y1) + _hs(r2, y2), sol.status
        decides = threshold is not None and (sol.value >= threshold or dual < threshold)
        if status in ("optimal", "decided"):
            status = "optimal" if dual - sol.value <= cfg.gap_tol else "decided" if decides else None
        if status is not None:
            return sol._replace(c=c, dual=dual, y=(y1, y2), status=status)
    full = _overlap_core(b, r1, r2, maps, cfg, warm_start, threshold)
    full = full._replace(iterations=sol.iterations + full.iterations)
    return full._replace(value=sol.value, c=c) if sol.value > full.value else full


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
    A singular marginal is handled by ``_overlap_on_support``, which solves on
    the support product and lifts the solution back.
    """
    a, r1, r2 = problem.objective.mat, problem.rho1.mat, problem.rho2.mat
    sol = _overlap_on_support(a, r1, r2, None, cfg, warm_start)
    return _marginal_solution(sol, a, r1, r2)


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
    a = problem.objective.mat
    trivial_margin = _min_eig(2.0 * np.eye(problem.d1 * problem.d2) - a)
    trivial_value = problem.rho1.trace() + problem.rho2.trace()
    y1 = solution.Y[0].mat
    y2 = solution.Y[1].mat
    dual_margin = _min_eig(_kron_sum_mat(y1, y2) - a)
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


def _f_value(x: np.ndarray, r1: np.ndarray, r2: np.ndarray, d1: int, d2: int) -> float:
    return trace_norm(partial_trace_2(x, d1, d2) - r1) + trace_norm(
        partial_trace_1(x, d1, d2) - r2
    )


# A trace norm ||A||_1 enters a program through its semidefinite epigraph: the
# block [[W_a, A], [A^*, W_b]] >= 0 with cost (tr W_a + tr W_b) / 2. The three
# helpers below are its affine step and its dual test matrix, shared by
# solve_f_min_full and the fiber distance.


def _epigraph_mean(t: np.ndarray) -> np.ndarray:
    """Mean of the off-diagonal blocks of a 2d x 2d epigraph target: A's target."""
    d = t.shape[0] // 2
    return 0.5 * (t[:d, d:] + t[d:, :d].conj().T)


def _epigraph_point(t: np.ndarray, sigma: float, a: np.ndarray) -> np.ndarray:
    """The affine epigraph block: t's diagonal blocks less I/(2 sigma), A off the diagonal."""
    d = t.shape[0] // 2
    out = t - _identity(2 * d) / (2.0 * sigma)
    out[:d, d:] = a
    out[d:, :d] = a.conj().T
    return out


def _epigraph_test(lam: np.ndarray, sigma: float) -> np.ndarray:
    """Test matrix K + K^* from the off-diagonal block K of the cone multiplier -sigma * lam."""
    d = lam.shape[0] // 2
    k = hermitize(-sigma * lam)[:d, d:]
    return k + k.conj().T


def _f_min_c_step(maps: tuple, d1: int, d2: int):
    """The C-step of ``solve_f_min_full``: step(U, G1, G2) -> C.

    C minimizes ||C - U||^2 + 2 ||L C - G||^2, so (I + 2 L^*L) C = U + 2 L^*G,
    a system of side n^2 on the coefficient space. By the matrix inversion
    lemma (Boyd et al. 2011, section 4.2) its solution is
    C = U + 2 L^*(I + 2 L L^*)^{-1}(G - L U), one solve of side d1^2 + d2^2
    on the marginal space.
    """
    lmap, ladj = maps
    normal_solve = _marginal_normal_solver(maps, d1, d2, 2.0)

    def step(u, g1, g2):
        l1u, l2u = lmap(u)
        return u + 2.0 * ladj(*normal_solve(g1 - l1u, g2 - l2u))

    return step


def solve_f_min_full(
    rho1,
    rho2,
    x_sub: Subspace,
    cfg: SolverConfig = DEFAULT_CONFIG,
    warm_start: dict | None = None,
    threshold: float | None = None,
) -> tuple[FMinSolution, dict]:
    """Minimize f(X) = ||tr_2 X - rho1||_1 + ||tr_1 X - rho2||_1 over PSD X in a subspace.

    Writes X = V C V^* with V the subspace basis and solves the epigraph form:
    each trace norm becomes a PSD block constraint [[W_a, A],[A^*, W_b]] >= 0
    with objective (tr W_a + tr W_b)/2. C is a plain PSD block: it needs no
    trace cap, since f(X) >= 2 tr X - f(0) keeps every minimizer at
    tr X <= f(0). The upper value is f evaluated at an exactly PSD iterate,
    the lower bound comes from repaired epigraph multipliers, so the pair
    brackets the true minimum. The solve stops with status ``optimal`` at the
    first checkpoint where value - lower_bound is at most cfg.gap_tol, else
    ends at ``max_iters`` (or ``infeasible_numerics`` on NaN/Inf breakdown);
    the ADMM residuals only steer the penalty.

    ``warm_start`` is the warm dict a previous solve returned, on the same
    marginals and a subspace whose basis starts with the previous one; its
    minimizer, padded with zeros, seeds the value. With a ``threshold`` the
    solve also stops, with status ``decided``, at the first checkpoint where
    the value is below it; a value in [0, threshold) then brackets the
    minimum, and the gap may exceed cfg.gap_tol. A seeded value already below
    the threshold returns at 0 iterations with the incoming warm dict.
    """
    r1, r2, vbasis = _subspace_marginals(rho1, rho2, x_sub)
    maps = _marginal_maps(vbasis, len(r1), len(r2))
    lmap, ladj = maps
    d1, d2, n = r1.shape[0], r2.shape[0], x_sub.dim
    c_step = _f_min_c_step(maps, d1, d2)

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

        # _admm copies its starting blocks, so the warm dict's are not copied.
        w = [pad(as_matrix(warm_start["WC"]))] + [as_matrix(warm_start[k]) for k in ("WG1", "WG2")]
        lam = [pad(as_matrix(warm_start["LC"]))] + [as_matrix(warm_start[k]) for k in ("LG1", "LG2")]
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
        c = hermitize(
            c_step(w[0] - lam[0], r1 + _epigraph_mean(tg1), r2 + _epigraph_mean(tg2))
        )
        l1c, l2c = lmap(c)
        return (
            c,
            _epigraph_point(tg1, sigma, l1c - r1),
            _epigraph_point(tg2, sigma, l2c - r2),
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
        # optimality; the identity-shift repair of -Z restores the sign
        # constraint L^*(Z1, Z2) <= 0 exactly.
        y1, y2 = (-_epigraph_test(lb, sigma) for lb in lam[1:])
        y1, y2 = _shift_to_dominate(y1, y2, ladj, 0.0)
        z1, z2 = -y1, -y2
        scale = max(
            1.0,
            float(np.max(np.abs(np.linalg.eigvalsh(hermitize(z1))))),
            float(np.max(np.abs(np.linalg.eigvalsh(hermitize(z2))))),
        )
        lower = (_hs(z1, r1) + _hs(z2, r2)) / scale
        if lower > best_lower:
            best_lower = lower
        if best_upper - best_lower <= cfg.gap_tol:
            return "optimal"
        if threshold is not None and best_upper < threshold:
            return "decided"
        return None

    if warm_start and threshold is not None and best_upper < threshold:
        status, it, warm_out = "decided", 0, warm_start
    else:
        status, it, w, lam, sigma = _admm(affine, w, lam, sigma, cfg.max_iters, certify)
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

    x_best = hermitize(vbasis @ best_c @ vbasis.conj().T)
    residuals = {
        "psd_violation": max(0.0, -_min_eig(x_best)),
        "adjoint_violation": max(0.0, best_lower - best_upper),
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
    """Minimum of the marginal mismatch f over PSD X supported in ``x_sub``.

    There is no threshold here: the solve runs until its certified gap is
    within cfg.gap_tol (or the budget runs out).
    """
    sol, _ = solve_f_min_full(rho1, rho2, x_sub, cfg)
    return sol.value, sol.X


class SupportedOverlapSolution(NamedTuple):
    """Certified output of the support-constrained overlap program.

    ``value`` is attained by ``X`` and ``dual`` by the dual pair ``Y``, which
    satisfies Y_i >= 0 and V^*(Y1 (x) I + I (x) Y2)V >= I, so
    value <= optimum <= dual and ``gap`` is |dual - value|. A named tuple, so
    positional access works too: ``[0]`` value, ``[1]`` X, ``[2]`` gap.
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
    threshold: float | None = None,
    warm_start: MarginalSdpSolution | None = None,
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

    ``warm_start`` may be the overlap solve of the same marginals and
    subspace. Its optimizer starts the iterate as V^* X V, and its dual pair
    starts the multipliers: Y1 (x) I + I (x) Y2 >= P implies
    V^*(Y1 (x) I + I (x) Y2)V >= I, so the pair is already feasible here. As
    for mu, ``_overlap_on_support`` compresses a singular marginal's program
    and the warm pair (Y_i as U_i^* Y_i U_i) to the support product. The
    bracket is certified from this solve's own iterates, so a warm start
    changes only the iteration count; one whose shapes do not match the
    marginals and the subspace raises ``ValueError``.
    """
    r1, r2, vbasis = _subspace_marginals(rho1, rho2, x_sub)
    warm = None
    if warm_start is not None:
        x, y1, y2 = warm_start.X.mat, warm_start.Y[0].mat, warm_start.Y[1].mat
        got = (x.shape, y1.shape, y2.shape)
        want = ((x_sub.ambient_dim,) * 2, r1.shape, r2.shape)
        if got != want:
            raise ValueError(
                f"warm start shapes (X, Y1, Y2) {got} do not match the problem's {want}"
            )
        warm = {"X": vbasis.conj().T @ x @ vbasis, "Y1": y1, "Y2": y2}
    sol = _overlap_on_support(np.eye(x_sub.dim), r1, r2, vbasis, cfg, warm, threshold)
    return SupportedOverlapSolution(
        value=sol.value,
        X=BipartiteOperator(
            hermitize(vbasis @ sol.c @ vbasis.conj().T), r1.shape[0], r2.shape[0]
        ),
        gap=abs(sol.dual - sol.value),
        iterations=sol.iterations,
        status=sol.status,
        dual=sol.dual,
        Y=(HermitianOperator(sol.y[0]), HermitianOperator(sol.y[1])),
    )
