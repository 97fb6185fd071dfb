"""Decision procedures: mu, coupling existence, truncation ladders, flow oracle.

The quantum question is whether a density operator with prescribed partial
traces exists inside a given subspace; it reduces to the overlap program of
the sdp module (value 1 means yes). Two ladders handle operators presented as
truncations of larger ones: ``f_ladder`` drives a marginal-mismatch minimum
toward 0 over a growing subspace chain, ``sdp_ladder`` drives truncated
overlap values toward 1. The classical special case with diagonal marginals
and a coordinate support graph is decided exactly by max-flow over rationals,
and serves as an independent cross-check of the quantum pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .bipartite import (
    DensityOperator,
    Subspace,
    orthonormalize,
    partial_trace_1,
    partial_trace_2,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianOperator,
    _Frozen,
    _tr,
    hermitize,
    trace_norm,
)
from .sdp import (
    DEFAULT_CONFIG,
    OverlapSolution,
    SolverConfig,
    SupportedOverlapSolution,
    _subspace_marginals,
    solve_f_min_full,
    solve_marginal_sdp,
    solve_supported_overlap,
)

__all__ = [
    "LadderLevel",
    "LadderReport",
    "ClassicalInstance",
    "ClassicalQuantumReport",
    "mu",
    "has_coupling",
    "f_ladder",
    "sdp_ladder",
    "classical_strassen",
    "classical_quantum_consistency",
]

_STALL_WINDOW = 5


@dataclass(frozen=True)
class LadderLevel:
    """One solved truncation level; ``iterations`` is 0 for a level the previous level decides."""

    level: object
    value: float
    gap: float
    wall_time: float
    dual_value: float | None = None
    lower_bound: float | None = None
    dim: int = 0
    status: str = ""
    iterations: int = 0


@dataclass(frozen=True)
class LadderReport:
    """Outcome of a truncation ladder run.

    ``criterion`` names the convergence target: ``f_ladder`` levels should fall
    to 0 when a coupling exists, ``sdp_ladder`` levels should climb to 1.
    ``scale`` records the normalization applied to subnormalized inputs (ladder
    values refer to the normalized pair; multiply by ``scale`` to undo).
    """

    levels: tuple
    verdict: str
    criterion: str
    eps_decision: float
    scale: float = 1.0
    skipped_levels: tuple = ()


def _unit_marginals(rho1, rho2, x_sub: Subspace):
    """The checked Hermitian marginals of ``x_sub``, each of unit trace to 1e-9."""
    r1, r2, _ = _subspace_marginals(rho1, rho2, x_sub)
    for name, r in (("rho1", r1), ("rho2", r2)):
        dev = abs(_tr(r) - 1.0)
        if not dev <= 1e-9:
            raise ValueError(f"{name}: trace {_tr(r)!r} deviates from target 1.0 by {dev:.3e}")
    return r1, r2


def mu(
    rho1,
    rho2,
    x_sub: Subspace,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> tuple[float, OverlapSolution]:
    """Optimal overlap of a marginal-dominated PSD operator with the subspace.

    Value 1 (within solver tolerance) is equivalent to the existence of a
    coupling of (rho1, rho2) supported inside the subspace. Singular
    marginals are handled by ``solve_marginal_sdp`` (support compression and
    lift), so the returned X and Y are feasible for the original program and
    [primal, dual] brackets its optimum. The marginals must be density
    operators: unit trace is what makes value 1 mean a coupling. They are
    checked here, once; the solve does not test them again.
    """
    r1, r2 = _unit_marginals(rho1, rho2, x_sub)
    sol = solve_marginal_sdp(x_sub, r1, r2, cfg, _checked=True)
    return sol.value, sol


def _decide(
    rho1, rho2, x_sub: Subspace, cfg: SolverConfig
) -> tuple[str, DensityOperator | None, SupportedOverlapSolution]:
    """Verdict, certificate and the supported solve that decides both.

    One ``solve_supported_overlap`` to gap_tol settles the question: its
    value is 1 exactly when a coupling supported in the subspace exists. The
    verdict is ``coupling`` when the value is at least 1 - eps_decision and
    the normalized optimizer passes the certificate checks, ``no_coupling``
    when the dual bound, attained by the returned pair Y_i >= 0,
    V^*(Y1 (x) I + I (x) Y2)V >= I, falls below 1 - eps_decision, else
    ``undecided``. A singular marginal is handled on the support product
    (see ``sdp._overlap_on_support``). The marginals are checked here, once.
    """
    r1, r2 = _unit_marginals(rho1, rho2, x_sub)
    d1, d2 = len(r1), len(r2)
    sup = solve_supported_overlap(x_sub, r1, r2, cfg, _checked=True)
    threshold = 1.0 - cfg.eps_decision
    verdict = "no_coupling" if sup.dual < threshold else "undecided"
    if sup.value < threshold:
        return verdict, None, sup
    # A value at or above the threshold bounds the normalized certificate's
    # marginal error by 4 * eps, since its marginals are dominated and its
    # trace is >= 1 - eps; it carries no mass outside the subspace.
    rho_hat = hermitize(sup.X.mat / sup.value)
    off = np.eye(x_sub.ambient_dim) - x_sub.projector.mat
    supp_leak = trace_norm(off @ rho_hat @ off)
    marg_err = trace_norm(partial_trace_2(rho_hat, d1, d2) - r1) + trace_norm(
        partial_trace_1(rho_hat, d1, d2) - r2
    )
    if supp_leak > 1e-7 or marg_err > 10.0 * cfg.eps_decision:
        return verdict, None, sup
    return "coupling", DensityOperator(rho_hat), sup


def has_coupling(
    rho1,
    rho2,
    x_sub: Subspace,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> tuple[bool, DensityOperator | None]:
    """Decide coupling existence; on success return a certificate state.

    The verdict is true only when the support-constrained overlap, solved to
    gap_tol, reaches 1 - eps_decision and the normalized certificate passes
    direct checks: support leak outside the subspace at most 1e-7 and total
    marginal error at most 10 * eps_decision. Ties and undecided runs resolve
    toward false.
    """
    verdict, cert, _ = _decide(rho1, rho2, x_sub, cfg)
    return verdict == "coupling", cert


def f_ladder(
    rho1,
    rho2,
    x_sub: Subspace,
    n_max: int,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> LadderReport:
    """Minimize the marginal mismatch over the nested spans of an ordered basis.

    Level n minimizes f over PSD operators supported in the span of the first
    n basis vectors of ``x_sub``; the sequence is nonincreasing and reaches 0
    in the limit exactly when a coupling exists in the full span. The marginals must be
    PSD but may have different traces; they are normalized to unit mean
    trace and the factor recorded as ``scale``. The verdict is
    ``coupling_exists`` when the last level falls below eps_decision and
    ``no_coupling`` when the last level spans the whole chain (n_max equals
    the number of basis vectors) and its certified lower bound is above
    eps_decision; a truncated chain says nothing about the full span, so
    anything else is ``undecided``.

    A level stops with status ``decided`` once its certified value is below
    eps_decision, since that already settles ``coupling_exists``; its value
    then lies in [0, eps_decision) and its gap can exceed gap_tol. Every
    later level keeps that level's minimizer and value, with status
    ``decided``, lower bound 0 and 0 iterations. Levels above eps_decision
    run to gap_tol.
    """
    r1, r2, basis = _subspace_marginals(rho1, rho2, x_sub)
    d1, d2 = len(r1), len(r2)
    if not 1 <= n_max <= x_sub.dim:
        raise ValueError(f"n_max = {n_max} out of range for basis of {x_sub.dim}")
    scale = 0.5 * (_tr(r1) + _tr(r2))
    if scale <= 0:
        raise ValueError("marginals must have positive trace")
    r1n = r1 / scale
    r2n = r2 / scale
    eps = cfg.eps_decision
    levels, sol = [], None
    for n in range(1, n_max + 1):
        tic = time.perf_counter()
        if sol is not None and sol.value < eps:
            # The previous level's minimizer lies in this span too, so its
            # value decides the level at 0 iterations; a smaller span's lower
            # bound does not carry over, which leaves 0 and its test pair W = 0.
            w0 = tuple(HermitianOperator(np.zeros((d, d))) for d in (d1, d2))
            sol = replace(sol, dual=0.0, Y=w0, gap=sol.value, iterations=0, status="decided")
        else:
            sub = Subspace(d1 * d2, basis[:, :n])
            sol = solve_f_min_full(r1n, r2n, sub, cfg, threshold=eps, _checked=True)
        levels.append(
            LadderLevel(
                level=n,
                value=sol.value,
                gap=sol.gap,
                wall_time=time.perf_counter() - tic,
                dual_value=sol.dual,
                lower_bound=sol.dual,
                dim=n,
                status=sol.status,
                iterations=sol.iterations,
            )
        )
    last = levels[-1]
    if last.value < eps:
        verdict = "coupling_exists"
    elif n_max == x_sub.dim and last.lower_bound > eps:
        verdict = "no_coupling"
    else:
        verdict = "undecided"
    return LadderReport(
        levels=tuple(levels),
        verdict=verdict,
        criterion="f_ladder",
        eps_decision=eps,
        scale=scale,
    )


def _truncate_subspace(x_sub: Subspace, dd1: int, dd2: int, n: int):
    full = x_sub.basis.reshape(dd1, dd2, x_sub.dim)[:n, :n, :].reshape(n * n, x_sub.dim)
    return orthonormalize(
        [full[:, j] for j in range(x_sub.dim)], n * n, DEFAULT_TOL.subspace_drop
    )


def sdp_ladder(
    rho1_full,
    rho2_full,
    x_sub: Subspace,
    n_max: int,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> LadderReport:
    """Overlap values of coordinate truncations, climbing to 1 when coupled.

    Level n compresses both factors to their leading n coordinates: marginals
    become leading principal blocks (their traces differ in general, which
    the overlap program allows) and the subspace is projected and
    re-orthonormalized. Levels where the projected subspace drops rank are
    skipped (the rank is known to stabilize once n passes a finite threshold).
    Each level is a cold ``solve_marginal_sdp``, which starts at Y = (I, I),
    on leading blocks of the checked pair: they are PSD by construction and
    are not tested again.
    Verdict ``coupling_exists`` needs the top level to clear 1 - eps_decision
    with a nondecreasing trailing window; ``no_coupling`` is only declared
    when the top level is untruncated and its dual bound still falls short.
    """
    r1, r2 = _unit_marginals(rho1_full, rho2_full, x_sub)
    dd1, dd2 = len(r1), len(r2)
    if not 1 <= n_max <= min(dd1, dd2):
        raise ValueError(f"n_max = {n_max} out of range for dims ({dd1}, {dd2})")
    eps = cfg.eps_decision
    levels = []
    skipped = []
    for n in range(1, n_max + 1):
        basis = _truncate_subspace(x_sub, dd1, dd2, n)
        if basis.shape[1] < x_sub.dim:
            skipped.append(n)
            continue
        sub = Subspace(n * n, basis)
        tic = time.perf_counter()
        sol = solve_marginal_sdp(sub, r1[:n, :n], r2[:n, :n], cfg, _checked=True)
        levels.append(
            LadderLevel(
                level=(n, n),
                value=sol.value,
                gap=sol.gap,
                wall_time=time.perf_counter() - tic,
                dual_value=sol.dual,
                dim=x_sub.dim,
                status=sol.status,
                iterations=sol.iterations,
            )
        )
    if not levels:
        return LadderReport((), "undecided", "sdp_ladder", eps, skipped_levels=tuple(skipped))
    last = levels[-1]
    window = levels[-min(_STALL_WINDOW, len(levels)):]
    nondecreasing = all(
        window[j + 1].value >= window[j].value - 2.0 * cfg.gap_tol
        for j in range(len(window) - 1)
    )
    if last.value > 1.0 - eps and nondecreasing:
        verdict = "coupling_exists"
    elif last.level == (min(dd1, dd2), min(dd1, dd2)) and last.dual_value < 1.0 - eps:
        verdict = "no_coupling"
    else:
        verdict = "undecided"
    return LadderReport(
        levels=tuple(levels),
        verdict=verdict,
        criterion="sdp_ladder",
        eps_decision=eps,
        skipped_levels=tuple(skipped),
    )


class ClassicalInstance(_Frozen):
    """Diagonal coupling instance: two probability vectors and a support graph.

    Edges are 0-based (row, column) pairs. Both vectors must sum to 1 within
    1e-12 with nonnegative entries.
    """

    __slots__ = ("m", "n", "mu1", "mu2", "edges")

    def __init__(self, m: int, n: int, mu1, mu2, edges):
        if m < 1 or n < 1:
            raise ValueError(f"sides must be positive, got ({m}, {n})")
        v1 = np.asarray(mu1, dtype=float).reshape(-1)
        v2 = np.asarray(mu2, dtype=float).reshape(-1)
        if v1.shape[0] != m or v2.shape[0] != n:
            raise ValueError("marginal vector lengths do not match (m, n)")
        for name, v in (("mu1", v1), ("mu2", v2)):
            if (v < 0).any():
                raise ValueError(f"{name} has a negative entry: {v.min():.3e}")
            if not abs(v.sum() - 1.0) <= 1e-12:  # also rejects NaN and inf
                raise ValueError(
                    f"{name} does not sum to 1: deviation {abs(v.sum() - 1.0):.3e}"
                )
        es = frozenset((int(i), int(j)) for i, j in edges)
        for i, j in es:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for ({m}, {n})")
        v1.setflags(write=False)
        v2.setflags(write=False)
        self._set(m=m, n=n, mu1=v1, mu2=v2, edges=es)


class _Dinic:
    """Max-flow over exact rationals (capacities are Fractions)."""

    def __init__(self, num_nodes: int):
        self.graph: list[list[list]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, cap: Fraction) -> int:
        self.graph[u].append([v, cap, len(self.graph[v])])
        self.graph[v].append([u, Fraction(0), len(self.graph[u]) - 1])
        return len(self.graph[u]) - 1

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * len(self.graph)
        self.level[s] = 0
        queue = [s]
        while queue:
            nxt = []
            for u in queue:
                for v, cap, _ in self.graph[u]:
                    if cap > 0 and self.level[v] < 0:
                        self.level[v] = self.level[u] + 1
                        nxt.append(v)
            queue = nxt
        return self.level[t] >= 0

    def _dfs(self, u: int, t: int, pushed: Fraction) -> Fraction:
        if u == t:
            return pushed
        while self.ptr[u] < len(self.graph[u]):
            edge = self.graph[u][self.ptr[u]]
            v, cap, rev = edge
            if cap > 0 and self.level[v] == self.level[u] + 1:
                got = self._dfs(v, t, min(pushed, cap))
                if got > 0:
                    edge[1] -= got
                    self.graph[v][rev][1] += got
                    return got
            self.ptr[u] += 1
        return Fraction(0)

    def max_flow(self, s: int, t: int) -> Fraction:
        flow = Fraction(0)
        while self._bfs(s, t):
            self.ptr = [0] * len(self.graph)
            while True:
                pushed = self._dfs(s, t, Fraction(10) ** 18)
                if pushed == 0:
                    break
                flow += pushed
        return flow


def classical_strassen(inst: ClassicalInstance):
    """Decide the diagonal instance by exact max-flow; return the coupling if any.

    The transportation network routes mass from a source through the rows,
    across the support edges, through the columns to a sink. Floats convert to
    exact dyadic rationals, so the flow value is exact and feasibility is
    'max flow = 1' with 1e-12 slack for inputs whose sums are off by that much.
    """
    m, n = inst.m, inst.n
    f1 = [Fraction(float(x)) for x in inst.mu1]
    f2 = [Fraction(float(x)) for x in inst.mu2]
    total = sum(f1, Fraction(0))
    source, sink = 0, m + n + 1
    net = _Dinic(m + n + 2)
    for i in range(m):
        net.add_edge(source, 1 + i, f1[i])
    for j in range(n):
        net.add_edge(m + 1 + j, sink, f2[j])
    edge_ids = {}
    for i, j in sorted(inst.edges):
        edge_ids[(i, j)] = net.add_edge(1 + i, m + 1 + j, total)
    flow = net.max_flow(source, sink)
    feasible = (Fraction(1) - flow) <= Fraction(1, 10**12)
    if not feasible:
        return False, None
    coupling = np.zeros((m, n))
    for (i, j), idx in edge_ids.items():
        used = total - net.graph[1 + i][idx][1]
        coupling[i, j] = float(used)
    return True, coupling


@dataclass(frozen=True)
class ClassicalQuantumReport:
    """Side-by-side verdicts of the flow oracle and the quantum pipeline."""

    classical_feasible: bool
    quantum_verdict: bool
    agree: bool
    value: float
    dual_value: float
    classical_coupling: object = None
    certificate: object = None


def classical_quantum_consistency(
    inst: ClassicalInstance, cfg: SolverConfig = DEFAULT_CONFIG
) -> ClassicalQuantumReport:
    """Embed a diagonal instance as a quantum one and compare both verdicts.

    The embedding takes rho_i = diag(mu_i) and spans the subspace by the
    coordinate products e_i (x) e_j over the support edges; the quantum
    coupling question then coincides with the transportation feasibility
    question, so the two verdicts must agree.
    """
    feasible, coupling = classical_strassen(inst)
    m, n = inst.m, inst.n
    if not inst.edges:
        return ClassicalQuantumReport(
            classical_feasible=feasible,
            quantum_verdict=False,
            agree=(feasible is False),
            value=0.0,
            dual_value=0.0,
            classical_coupling=coupling,
        )
    sub = Subspace(m * n, np.eye(m * n)[:, [i * n + j for i, j in sorted(inst.edges)]])
    verdict, cert, sup = _decide(np.diag(inst.mu1), np.diag(inst.mu2), sub, cfg)
    coupled = verdict == "coupling"
    return ClassicalQuantumReport(
        classical_feasible=feasible,
        quantum_verdict=coupled,
        agree=(feasible == coupled),
        value=sup.value,
        dual_value=sup.dual,
        classical_coupling=coupling,
        certificate=cert,
    )
