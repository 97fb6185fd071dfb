"""Unit tests for the structured conic solvers.

The solvers report certified intervals, so the tests lean on three kinds of
evidence: analytic instances where the optimum is known in closed form,
attainment checks (the reported value is achieved by the returned feasible
point), and bracket consistency between independent runs and between the
overlap and mismatch programs.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

import numpy as np
import pytest

import qstrassen.sdp as sdp
from qstrassen.bipartite import Subspace, partial_trace_1, partial_trace_2
from qstrassen.cli import generate_instance, problem_from_dict
from qstrassen.fibers import FiberSpec, _dist_solve, _sample_member
from qstrassen.linalg import hermitize, trace_norm
from qstrassen.strassen import _Dinic
from qstrassen.sdp import (
    DEFAULT_CONFIG,
    OverlapSolution,
    SolverConfig,
    SupportedOverlapSolution,
    _FEAS_SLACK,
    _support_scaler,
    solve_f_min_full,
    solve_marginal_sdp,
    solve_supported_overlap,
    verify_duality_certificates,
)

from oracles import golden_section_min, support_scale_bisect


def crand(rng, p, q):
    return rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))


def bell_subspace() -> Subspace:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return Subspace(4, v.reshape(4, 1))


def corner_subspace() -> Subspace:
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    return Subspace(4, v.reshape(4, 1))


# ---------------------------------------------------------------------------
# problem validation


def test_solver_config_validation():
    with pytest.raises(ValueError, match="positive"):
        SolverConfig(gap_tol=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)
    # A fractional budget never meets the driver's integer step count.
    for bad in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=bad)
    assert SolverConfig(max_iters=np.int64(3)).max_iters == 3
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(gap_tol=bad)
    for bad in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="eps_decision"):
            SolverConfig(eps_decision=bad)


def test_problem_rejects_bad_data():
    sub = bell_subspace()
    with pytest.raises(ValueError, match="subspace ambient dim 4 does not match 3\\*2"):
        solve_marginal_sdp(sub, np.eye(3) / 3, np.eye(2) / 2)
    with pytest.raises(ValueError, match="rho1 is not PSD"):
        solve_marginal_sdp(sub, np.diag([1.0, -0.5]), np.eye(2) / 4)


def test_problem_allows_unequal_traces_when_relaxed():
    # The overlap program takes marginals of different traces, as truncated
    # ladder levels give; strassen.mu alone asks for unit traces. Here the
    # Bell state scaled to trace 2/3 attains the bound <P, X> <= tr X <= 2/3.
    sol = solve_marginal_sdp(bell_subspace(), np.eye(2) / 2, np.eye(2) / 3)
    assert sol.status == "optimal"
    assert sol.value <= 2.0 / 3.0 <= sol.dual + 1e-9
    assert sol.value >= 2.0 / 3.0 - DEFAULT_CONFIG.gap_tol


# ---------------------------------------------------------------------------
# overlap program on analytic instances


def test_overlap_on_maximally_entangled_pair():
    # the maximally entangled vector couples (I/2, I/2), so the optimum is 1
    sol = solve_marginal_sdp(bell_subspace(), np.eye(2) / 2, np.eye(2) / 2)
    assert sol.status == "optimal"
    assert sol.value >= 1.0 - 1e-4
    assert sol.dual >= sol.value
    assert sol.gap <= 1e-6


def test_overlap_on_orthogonal_obstruction():
    # support forces mass on e0 in factor 1, but rho1 lives on e1: optimum 0
    sol = solve_marginal_sdp(corner_subspace(), np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    assert sol.value <= 1e-9
    assert sol.dual <= 1e-4


def test_overlap_with_zero_marginal_is_exactly_zero():
    # rho1 = 0 (a truncated ladder level can give one): the support of rho1 is
    # empty, so every dominated operator is 0 and the certified bracket is [0, 0]
    prob = (bell_subspace(), np.zeros((2, 2)), np.eye(2) / 2)
    sol = solve_marginal_sdp(*prob)
    assert (sol.status, sol.iterations) == ("optimal", 0)
    assert sol.value == 0.0 and abs(sol.dual) <= 1e-12
    assert verify_duality_certificates(*prob, sol).passed


def test_overlap_corner_value_is_min_of_weights():
    # X = c e00 e00^*: c <= a from factor 1, c <= b from factor 2, so mu = min(a, b)
    a, b = 0.3, 0.55
    sol = solve_marginal_sdp(corner_subspace(), np.diag([a, 1 - a]), np.diag([b, 1 - b]))
    assert sol.status == "optimal"
    assert abs(sol.value - min(a, b)) <= 1e-5
    assert abs(sol.dual - min(a, b)) <= 1e-5


def test_overlap_value_is_attained_by_returned_point():
    sub, r1, r2 = bell_subspace(), np.eye(2) / 2, np.eye(2) / 2
    sol = solve_marginal_sdp(sub, r1, r2)
    x = sol.X.mat
    attained = float(np.vdot(sub.projector.mat, x).real)
    assert abs(attained - sol.value) < 1e-9
    assert np.linalg.eigvalsh(x).min() >= -1e-11
    t2x = partial_trace_2(sol.X).mat
    t1x = partial_trace_1(sol.X).mat
    assert np.linalg.eigvalsh(r1 - t2x).min() >= -1e-9
    assert np.linalg.eigvalsh(r2 - t1x).min() >= -1e-9


def test_overlap_dual_point_is_feasible():
    sub, r1, r2 = corner_subspace(), np.diag([0.3, 0.7]), np.diag([0.55, 0.45])
    sol = solve_marginal_sdp(sub, r1, r2)
    y1, y2 = sol.Y[0].mat, sol.Y[1].mat
    adj = np.kron(y1, np.eye(2)) + np.kron(np.eye(2), y2)
    assert np.linalg.eigvalsh(adj - sub.projector.mat).min() >= -1e-12
    dval = float(np.vdot(r1, y1).real + np.vdot(r2, y2).real)
    assert abs(dval - sol.dual) < 1e-9


def test_overlap_scale_covariance():
    sub = corner_subspace()
    r1 = np.diag([0.3, 0.7])
    r2 = np.diag([0.55, 0.45])
    base = solve_marginal_sdp(sub, r1, r2)
    half = solve_marginal_sdp(sub, 0.5 * r1, 0.5 * r2)
    assert abs(half.value - 0.5 * base.value) < 1e-5


def test_overlap_certified_intervals_from_different_budgets_intersect():
    # the [primal, dual] interval brackets the optimum wherever the solve stops
    sub, r1, r2 = golden_instance((3, 3), 1, False)
    intervals = []
    for max_iters in (2, 5, 12, 50_000):
        sol = solve_marginal_sdp(sub, r1, r2, SolverConfig(max_iters=max_iters))
        intervals.append((sol.value, sol.dual))
        rep = verify_duality_certificates(sub, r1, r2, sol)
        assert rep.passed
    assert len(set(intervals)) == len(intervals)
    lo = max(p for p, _ in intervals)
    hi = min(d for _, d in intervals)
    assert lo <= hi + 1e-9


# ---------------------------------------------------------------------------
# duality certificates


def test_certificate_report_on_solved_instance():
    prob = (bell_subspace(), np.eye(2) / 2, np.eye(2) / 2)
    sol = solve_marginal_sdp(*prob)
    rep = verify_duality_certificates(*prob, sol)
    assert rep.passed
    assert rep.trivial_feasible
    # 2I - P has min eigenvalue exactly 1 for a projector P
    assert abs(rep.trivial_margin - 1.0) < 1e-12
    assert abs(rep.trivial_value - 2.0) < 1e-12
    assert rep.dual_feasibility_margin >= -1e-7
    assert rep.dual_psd_margin >= -1e-7
    assert rep.weak_duality_slack >= -1e-7
    assert rep.gap == sol.gap


# ---------------------------------------------------------------------------
# marginal-mismatch minimization


def test_f_min_vanishes_on_feasible_instance():
    sol = solve_f_min_full(np.eye(2) / 2, np.eye(2) / 2, bell_subspace())
    assert sol.value <= 1e-5
    assert np.linalg.eigvalsh(sol.X.mat).min() >= -1e-10


def test_f_min_matches_golden_section_oracle():
    # on the corner subspace the program is one-dimensional: X = c e00 e00^*
    a, b = 0.3, 0.55
    r1 = np.diag([a, 1 - a]).astype(complex)
    r2 = np.diag([b, 1 - b]).astype(complex)
    sub = corner_subspace()
    proj = sub.projector.mat

    def mismatch(c):
        x = c * proj
        return trace_norm(partial_trace_2(x, 2, 2) - r1) + trace_norm(
            partial_trace_1(x, 2, 2) - r2
        )

    _, truth = golden_section_min(mismatch, 0.0, 2.0)
    assert abs(truth - (2.0 - 2.0 * min(a, b))) < 1e-9
    sol = solve_f_min_full(r1, r2, sub)
    assert sol.status == "optimal"
    assert abs(sol.value - truth) <= 1e-5
    assert sol.dual <= truth + 1e-9
    assert sol.value >= truth - 1e-9


def test_f_min_value_is_attained_by_returned_point():
    r1 = np.diag([0.3, 0.7]).astype(complex)
    r2 = np.diag([0.55, 0.45]).astype(complex)
    sol = solve_f_min_full(r1, r2, corner_subspace())
    x = sol.X.mat
    recomputed = trace_norm(partial_trace_2(x, 2, 2) - r1) + trace_norm(
        partial_trace_1(x, 2, 2) - r2
    )
    assert abs(recomputed - sol.value) < 1e-9


def test_f_min_rejects_ambient_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        solve_f_min_full(np.eye(2) / 2, np.eye(2) / 2, Subspace(6, np.eye(6)[:, :1]))


# ---------------------------------------------------------------------------
# supported-overlap program


def test_supported_overlap_reaches_one_on_feasible_instance():
    sub = bell_subspace()
    sol = solve_supported_overlap(sub, np.eye(2) / 2, np.eye(2) / 2)
    value, x = sol.value, sol.X
    assert sol.status == "optimal"
    assert sol.iterations >= 1
    assert value >= 1.0 - 1e-4
    assert sol.gap <= 1e-5
    # support containment is structural: P X P = X at working precision
    p = sub.projector.mat
    assert np.max(np.abs(p @ x.mat @ p - x.mat)) < 1e-12
    t2x = partial_trace_2(x).mat
    t1x = partial_trace_1(x).mat
    assert np.linalg.eigvalsh(np.eye(2) / 2 - t2x).min() >= -1e-9
    assert np.linalg.eigvalsh(np.eye(2) / 2 - t1x).min() >= -1e-9


def test_supported_overlap_zero_on_obstruction():
    sol = solve_supported_overlap(
        corner_subspace(), np.diag([0.0, 1.0]), np.diag([1.0, 0.0])
    )
    assert sol.value <= 1e-9


def test_supported_overlap_never_exceeds_overlap_dual():
    a, b = 0.3, 0.55
    r1 = np.diag([a, 1 - a])
    r2 = np.diag([b, 1 - b])
    sub = corner_subspace()
    nu = solve_supported_overlap(sub, r1, r2).value
    sol = solve_marginal_sdp(sub, r1, r2)
    assert nu <= sol.dual + 1e-9


def test_supported_overlap_value_is_trace_of_returned_point():
    sol = solve_supported_overlap(bell_subspace(), np.eye(2) / 2, np.eye(2) / 2)
    assert abs(sol.value - float(np.trace(sol.X.mat).real)) < 1e-9


# Values of the supported solve to gap_tol: (dims, seed, feasible) -> (value,
# gap, iterations), iterations in Newton steps. Each bracket meets the ones
# recorded under ADMM, under the earlier damped step rule and under the
# centering threshold 1/4.
SUPPORTED_GOLDEN = {
    ((2, 3), 0, True): (0.9999995761477737, 7.515957031190013e-07, 14),
    ((3, 3), 1, True): (0.9999995422427955, 7.697934311101662e-07, 14),
    ((2, 4), 15, False): (0.9951431243664949, 7.192880208117813e-07, 15),
}


def golden_instance(dims, seed, feasible):
    p = generated("coupling", dims, seed, feasible=feasible)
    return p.x_sub, p.rho1, p.rho2


def test_supported_overlap_without_threshold_reproduces_full_solve():
    for (dims, seed, feasible), (value, gap, iterations) in SUPPORTED_GOLDEN.items():
        sol = solve_supported_overlap(*golden_instance(dims, seed, feasible))
        assert sol.status == "optimal"
        assert sol.iterations == iterations
        assert abs(sol.value - value) <= 1e-12
        assert abs(sol.gap - gap) <= 1e-12
        assert abs(sol.dual - (value + gap)) <= 1e-12


# Reference results on generated instances; the solver must reproduce the
# iterations and status exactly and the values to 1e-12:
# (dims, seed, feasible, max_iters) -> (primal, dual, iterations, status).
# Iterations are Newton steps of the dual barrier method; the last entry's
# budget of 10 stops it before its bracket closes (14 steps). Each bracket
# meets the ones recorded under the full boundary step, under the earlier
# damped step rule and under the centering threshold 1/4.
MARGINAL_GOLDEN = {
    ((2, 3), 0, True, 50_000): (0.999999514495326, 1.0000002562427326, 14, "optimal"),
    ((3, 3), 1, False, 50_000): (0.9990745837444939, 0.9990753336805198, 14, "optimal"),
    ((3, 3), 2, True, 10): (0.9999641931937167, 1.0000144378372062, 10, "max_iters"),
}


def test_marginal_sdp_reproduces_golden_values():
    for (dims, seed, feasible, max_iters), golden in MARGINAL_GOLDEN.items():
        sub, r1, r2 = golden_instance(dims, seed, feasible)
        sol = solve_marginal_sdp(sub, r1, r2, SolverConfig(max_iters=max_iters))
        primal, dual, iterations, status = golden
        assert (sol.iterations, sol.status) == (iterations, status)
        assert abs(sol.value - primal) <= 1e-12
        assert abs(sol.dual - dual) <= 1e-12


# f-ladder chains, one entry per level, each level a cold solve:
# (dims, seed, max_iters) -> [(value, lower_bound, iterations, status), ...].
# Each bracket meets the ones recorded under the full boundary step, under
# the earlier damped step rule and under the centering threshold 1/4 (the
# second chain then at a budget of 17). The second chain's budget of 13
# stops levels 1-3 before they close (14 steps each).
F_MIN_CHAIN_GOLDEN = {
    ((2, 3), 0, 50_000): [
        (1.3135203607283215, 1.3135195821484573, 14, "optimal"),
        (0.7201862490675326, 0.7201854597072459, 14, "optimal"),
        (0.42720766608146465, 0.4272067262906805, 14, "optimal"),
        (4.4423920014151805e-09, 0.0, 9, "optimal"),
        (2.845478806710275e-09, 0.0, 9, "optimal"),
        (1.6795409533249572e-09, 0.0, 9, "optimal"),
    ],
    ((3, 3), 1, 13): [
        (1.4750391524390225, 1.4750380906519345, 13, "max_iters"),
        (0.9645117493137824, 0.9645093461750162, 13, "max_iters"),
        (0.7430071281955273, 0.7430060093667317, 13, "max_iters"),
        (4.7436338259900645e-09, 0.0, 10, "optimal"),
        (4.285089392819934e-09, 0.0, 10, "optimal"),
        (3.707728544681621e-09, 0.0, 10, "optimal"),
        (2.7128290480250816e-09, 0.0, 10, "optimal"),
        (2.4389458407574404e-09, 0.0, 10, "optimal"),
    ],
}


def test_f_min_chain_reproduces_golden_values():
    for (dims, seed, max_iters), levels in F_MIN_CHAIN_GOLDEN.items():
        p = generated("f_ladder", dims, seed)
        assert p.n_max == len(levels)
        for n, (value, lower, iterations, status) in enumerate(levels, start=1):
            chain = Subspace(p.d1 * p.d2, p.x_sub.basis[:, :n])
            sol = solve_f_min_full(p.rho1, p.rho2, chain, SolverConfig(max_iters=max_iters))
            assert (sol.iterations, sol.status) == (iterations, status), (dims, n)
            assert abs(sol.value - value) <= 1e-12
            assert abs(sol.dual - lower) <= 1e-12


def test_f_min_test_pair_attains_the_lower_bound():
    # The returned pair Y = (W1, W2), re-checked in plain numpy: it satisfies
    # V^*(W1 (x) I + I (x) W2)V >= 0 and its bound -<W, rho> / max(1, ||W||_inf)
    # is the reported dual.
    for (dims, seed, max_iters), levels in F_MIN_CHAIN_GOLDEN.items():
        p = generated("f_ladder", dims, seed)
        for n in range(1, len(levels) + 1):
            v = p.x_sub.basis[:, :n]
            sol = solve_f_min_full(
                p.rho1, p.rho2, Subspace(p.d1 * p.d2, v), SolverConfig(max_iters=max_iters)
            )
            w1, w2 = sol.Y[0].mat, sol.Y[1].mat
            adj = np.kron(w1, np.eye(p.d2)) + np.kron(np.eye(p.d1), w2)
            assert np.linalg.eigvalsh(v.conj().T @ adj @ v).min() >= -1e-9, (dims, n)
            norm = max(1.0, *(np.abs(np.linalg.eigvalsh(w)).max() for w in (w1, w2)))
            bound = -(np.vdot(w1, p.rho1).real + np.vdot(w2, p.rho2).real) / norm
            assert abs(bound - sol.dual) <= 1e-12, (dims, n)


def test_overlap_solution_shares_the_supported_fields():
    names = tuple(f.name for f in dataclasses.fields(OverlapSolution))
    assert names == SupportedOverlapSolution._fields
    sol = solve_marginal_sdp(bell_subspace(), np.eye(2) / 2, np.eye(2) / 2)
    assert isinstance(sol, OverlapSolution) and not isinstance(sol, tuple)
    assert sol.gap == abs(sol.dual - sol.value)


def test_f_min_chain_threshold_stops_levels_below_it():
    # Thresholded solves decide each level once its value is below 1e-4 and
    # never take more Newton steps than the gap_tol run of the golden table.
    threshold = 1e-4
    decided = 0
    for (dims, seed, max_iters), levels in F_MIN_CHAIN_GOLDEN.items():
        p = generated("f_ladder", dims, seed)
        cfg = SolverConfig(max_iters=max_iters)
        for n, (value, _, iterations, _) in enumerate(levels, start=1):
            chain = Subspace(p.d1 * p.d2, p.x_sub.basis[:, :n])
            sol = solve_f_min_full(p.rho1, p.rho2, chain, cfg, threshold)
            assert sol.iterations <= iterations, (dims, n)
            assert sol.dual <= sol.value
            if sol.status == "decided":
                decided += 1
                assert sol.value < threshold
            assert (sol.value < threshold) == (value < threshold), (dims, n)
    assert decided >= 4


def test_f_min_brackets_the_classical_flow_value():
    # On a diagonal instance with V the edge coordinates, min f is
    # tr mu1 + tr mu2 - 2F, F the exact max-flow value of the transport
    # network, since dephasing X lowers both trace norms.
    for dims in ((2, 2), (2, 3), (3, 3), (3, 4)):
        for feasible in (True, False):
            for seed in range(12):
                inst = generated("classical", dims, seed, feasible=feasible).instance
                m, n = inst.m, inst.n
                net = _Dinic(m + n + 2)
                for i, x in enumerate(inst.mu1):
                    net.add_edge(0, 1 + i, Fraction(float(x)))
                for j, x in enumerate(inst.mu2):
                    net.add_edge(1 + m + j, m + n + 1, Fraction(float(x)))
                for i, j in sorted(inst.edges):
                    net.add_edge(1 + i, 1 + m + j, Fraction(2))
                flow = float(net.max_flow(0, m + n + 1))
                target = float(np.sum(inst.mu1) + np.sum(inst.mu2)) - 2.0 * flow
                basis = np.eye(m * n)[:, [i * n + j for i, j in sorted(inst.edges)]]
                sol = solve_f_min_full(
                    np.diag(inst.mu1), np.diag(inst.mu2), Subspace(m * n, basis)
                )
                case = (dims, feasible, seed)
                assert sol.status == "optimal", case
                assert sol.dual - 1e-12 <= target <= sol.value + 1e-12, case


# ---------------------------------------------------------------------------
# stop rule: optimal exactly when the certified bracket is within gap_tol


def random_state(rng, d, rank=None):
    g = crand(rng, d, rank or d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def generated(kind, dims, seed, **spec):
    return problem_from_dict(generate_instance({"kind": kind, "dims": dims, "seed": seed, **spec}))


def stop_rule_cases(max_iters):
    """(solver, gap, status) of every gap-checked solve on generated 2x3 and 3x3 instances.

    The f-minimizer runs every level of the ladder chains.
    """
    cfg = SolverConfig(max_iters=max_iters)
    out = []
    for seed in range(3):
        for dims in ((2, 3), (3, 3)):
            p = generated("coupling", dims, seed, feasible=seed != 1)
            sub = p.x_sub
            sol = solve_marginal_sdp(sub, p.rho1, p.rho2, cfg)
            out.append(("marginal", sol.gap, sol.status))
            sup = solve_supported_overlap(sub, p.rho1, p.rho2, cfg)
            out.append(("supported", sup.gap, sup.status))
            p = generated("f_ladder", dims, seed)
            for n in range(1, p.n_max + 1):
                chain = Subspace(p.d1 * p.d2, p.x_sub.basis[:, :n])
                fmin = solve_f_min_full(p.rho1, p.rho2, chain, cfg)
                out.append(("f_min", fmin.gap, fmin.status))
            p = generated("fiber_dist", dims, seed)
            upper, lower, _, _, status = _dist_solve(p.beta, FiberSpec(p.rho1, p.rho2), cfg)
            out.append(("dist", upper - lower, status))
    return out


@pytest.mark.parametrize("max_iters", [25, 50, 100, 200, 400])
def test_status_is_optimal_exactly_when_gap_within_tolerance(max_iters):
    cases = stop_rule_cases(max_iters)
    for name, gap, status in cases:
        assert status in ("optimal", "max_iters"), (name, status)
        assert (status == "optimal") == (gap <= DEFAULT_CONFIG.gap_tol), (name, gap, status)


def test_stop_rule_cases_cover_both_outcomes():
    statuses = {status for m in (10, 400) for _, _, status in stop_rule_cases(m)}
    assert statuses == {"optimal", "max_iters"}


# ---------------------------------------------------------------------------
# the dual barrier core of the overlap programs


def assert_overlap_bracket(sol, sub, r1, r2):
    """X is feasible and attains the primal value, Y is feasible and attains the dual value."""
    a, d1, d2 = sub.projector.mat, len(r1), len(r2)
    x, y1, y2 = sol.X.mat, sol.Y[0].mat, sol.Y[1].mat
    assert abs(np.vdot(a, x).real - sol.value) <= 1e-9
    assert np.linalg.eigvalsh(x)[0] >= -1e-11
    assert np.linalg.eigvalsh(r1 - partial_trace_2(x, d1, d2))[0] >= -1e-9
    assert np.linalg.eigvalsh(r2 - partial_trace_1(x, d1, d2))[0] >= -1e-9
    assert min(np.linalg.eigvalsh(y1)[0], np.linalg.eigvalsh(y2)[0]) >= -1e-12
    adjoint = np.kron(y1, np.eye(d2)) + np.kron(np.eye(d1), y2) - a
    assert np.linalg.eigvalsh(adjoint)[0] >= -1e-12
    assert abs(np.vdot(r1, y1).real + np.vdot(r2, y2).real - sol.dual) <= 1e-9
    assert sol.value <= sol.dual + 1e-9


def test_barrier_core_on_a_one_dimensional_factor():
    # With d1 = 1 a dominated X is any 0 <= X <= rho2 (tr X <= 1 follows), so
    # mu = max tr(P X) over 0 <= X <= rho2 is tr(P rho2), attained at rho2.
    rng = np.random.default_rng(7)
    r2 = random_state(rng, 3)
    sub = Subspace(3, np.linalg.qr(crand(rng, 3, 2))[0])
    sol = solve_marginal_sdp(sub, np.eye(1), r2)
    assert sol.status == "optimal" and sol.iterations > 0
    assert_overlap_bracket(sol, sub, np.eye(1), r2)
    truth = float(np.vdot(sub.projector.mat, r2).real)
    assert sol.value <= truth + 1e-9 <= sol.dual + 2e-9
    sup = solve_supported_overlap(sub, np.eye(1), r2)
    assert sup.status == "optimal" and sup.value <= truth + 1e-9


def test_barrier_core_on_a_one_dimensional_subspace():
    # X = c v v^*: c is bounded by each marginal alone, so the optimum is
    # min_i 1 / lambda_max(rho_i^-1/2 M_i rho_i^-1/2), M = the marginals of v v^*.
    rng = np.random.default_rng(8)
    r1, r2 = random_state(rng, 2), random_state(rng, 3)
    v = crand(rng, 6, 1)
    sub = Subspace(6, v / np.linalg.norm(v))
    vv = sub.projector.mat
    bounds = []
    for r, m in ((r1, partial_trace_2(vv, 2, 3)), (r2, partial_trace_1(vv, 2, 3))):
        w, u = np.linalg.eigh(r)
        k = u / np.sqrt(w)
        bounds.append(1.0 / np.linalg.eigvalsh(k.conj().T @ m @ k)[-1])
    sol = solve_supported_overlap(sub, r1, r2)
    assert sol.status == "optimal"
    assert sol.value <= min(bounds) + 1e-9 <= sol.dual + 2e-9
    assert sol.dual - sol.value <= DEFAULT_CONFIG.gap_tol


def test_barrier_core_lifts_an_exactly_singular_marginal(monkeypatch):
    # rho1 has rank 2 of 3: the core runs once, on the 2 x 3 support product,
    # and the lifted pair certifies the original program.
    rng = np.random.default_rng(9)
    rho = np.zeros((3, 3, 3, 3), dtype=complex)
    rho[:2, :, :2, :] = random_state(rng, 6).reshape(2, 3, 2, 3)
    rho = rho.reshape(9, 9)
    r1, r2 = partial_trace_2(rho, 3, 3), partial_trace_1(rho, 3, 3)
    sub = Subspace(9, np.linalg.qr(crand(rng, 9, 5))[0])
    sides = []
    real_core = sdp._overlap_core

    def recording_core(b, *args):
        sides.append(len(b))
        return real_core(b, *args)

    monkeypatch.setattr(sdp, "_overlap_core", recording_core)
    sol = solve_marginal_sdp(sub, r1, r2)
    assert sides == [6]
    assert sol.status == "optimal" and sol.gap <= DEFAULT_CONFIG.gap_tol
    assert_overlap_bracket(sol, sub, r1, r2)


def test_lifted_bracket_sets_the_status(monkeypatch):
    # A pure state with d1 = 1: rho2 has rank 1, so both programs run on the
    # 1 x 1 support product at half of gap_tol. That solve breaks down (its
    # Newton system turns singular in rounding past t = 1e8), but its lifted
    # bracket is within gap_tol, so the status is optimal.
    statuses = []
    real_core = sdp._overlap_core

    def recording_core(*args):
        sol = real_core(*args)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(sdp, "_overlap_core", recording_core)
    psi = np.array([0.6, 0.8j])
    r2 = np.outer(psi, psi.conj())
    sub = Subspace(2, psi.reshape(2, 1))
    sol = solve_marginal_sdp(sub, np.eye(1), r2)
    sup = solve_supported_overlap(sub, np.eye(1), r2)
    assert statuses == ["infeasible_numerics"] * 2
    assert (sol.status, sup.status) == ("optimal", "optimal")
    assert max(sol.gap, sup.gap) <= DEFAULT_CONFIG.gap_tol
    assert_overlap_bracket(sol, sub, np.eye(1), r2)


def test_support_lift_fallback_keeps_the_lifted_dual(monkeypatch):
    # rho1's least eigenvalue, 1e-11 of its largest, falls below the support
    # cut. The compressed solve is optimal, but its lifted bracket stays
    # open, so the core solves the full space too, which breaks down. The
    # merged bracket keeps the lifted dual, the lower one: the gap is 5.5e-6
    # (4.6e-4 for the supported program, 1.4e-5 merged), not the full
    # solve's 6.3e-4.
    rng = np.random.default_rng(0)
    v, _ = np.linalg.qr(crand(rng, 4, 3))
    rho = v @ random_state(rng, 3) @ v.conj().T
    r1, r2 = partial_trace_2(rho, 2, 2), partial_trace_1(rho, 2, 2)
    w, u = np.linalg.eigh(r1)
    w[0] = 1e-11 * w[-1]
    r1 = (u * w) @ u.conj().T
    r1 /= np.trace(r1).real
    sub = Subspace(4, v)
    statuses = []
    real_core = sdp._overlap_core

    def recording_core(*args):
        sol = real_core(*args)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(sdp, "_overlap_core", recording_core)
    sol = solve_marginal_sdp(sub, r1, r2)
    assert statuses == ["optimal", "infeasible_numerics"]
    assert (sol.status, sol.iterations) == ("infeasible_numerics", 54)
    assert sol.gap <= 1e-5
    # The lifted Y1 carries the shift s = 1 + 0.5 / gap_tol on rho1's cut
    # direction, so the pair dominates the projector up to rounding
    # relative to its size, 5e5.
    y1, y2 = sol.Y[0].mat, sol.Y[1].mat
    size = np.linalg.norm(y1) + np.linalg.norm(y2)
    assert min(np.linalg.eigvalsh(y1)[0], np.linalg.eigvalsh(y2)[0]) >= -1e-15 * size
    adjoint = np.kron(y1, np.eye(2)) + np.kron(np.eye(2), y2) - sub.projector.mat
    assert np.linalg.eigvalsh(adjoint)[0] >= -1e-15 * size
    assert abs(np.vdot(r1, y1).real + np.vdot(r2, y2).real - sol.dual) <= 1e-9
    x = sol.X.mat
    assert abs(np.vdot(sub.projector.mat, x).real - sol.value) <= 1e-9
    assert np.linalg.eigvalsh(x)[0] >= -1e-11
    assert np.linalg.eigvalsh(r1 - partial_trace_2(x, 2, 2))[0] >= -1e-9
    assert np.linalg.eigvalsh(r2 - partial_trace_1(x, 2, 2))[0] >= -1e-9
    sup = solve_supported_overlap(sub, r1, r2)
    assert statuses[2:] == ["optimal", "infeasible_numerics"]
    assert sup.status == "infeasible_numerics" and sup.gap <= 2e-5


def test_barrier_core_budget_below_need_keeps_a_certified_bracket():
    prob = golden_instance((3, 3), 2, True)
    for max_iters in (1, 3, 12):
        sol = solve_marginal_sdp(*prob, SolverConfig(max_iters=max_iters))
        assert (sol.status, sol.iterations) == ("max_iters", max_iters)
        assert sol.gap > DEFAULT_CONFIG.gap_tol
        assert_overlap_bracket(sol, *prob)


def test_barrier_core_tight_gap_tol_stops_in_bounded_steps():
    # gap_tol 1e-9 is far below what the benchmark asks; the barrier either
    # closes the bracket or ends honestly, within a few hundred steps.
    cfg = SolverConfig(gap_tol=1e-9)
    for dims, seed, feasible in (((2, 3), 0, True), ((3, 3), 1, False), ((4, 4), 0, True)):
        sub, r1, r2 = golden_instance(dims, seed, feasible)
        sol = solve_marginal_sdp(sub, r1, r2, cfg)
        assert sol.status in ("optimal", "infeasible_numerics")
        assert (sol.status == "optimal") == (sol.gap <= cfg.gap_tol)
        assert sol.iterations <= 300
        assert_overlap_bracket(sol, sub, r1, r2)
        sup = solve_supported_overlap(sub, r1, r2, cfg)
        assert sup.status in ("optimal", "infeasible_numerics") and sup.iterations <= 300
        assert (sup.status == "optimal") == (sup.gap <= cfg.gap_tol)


def test_barrier_core_stalled_centering_is_infeasible_numerics(monkeypatch):
    # A centering allowed a single Newton step never completes.
    monkeypatch.setattr(sdp, "_CENTER_STEPS", 1)
    prob = golden_instance((2, 3), 0, True)
    sol = solve_marginal_sdp(*prob)
    assert (sol.status, sol.iterations) == ("infeasible_numerics", 1)
    assert_overlap_bracket(sol, *prob)


def test_barrier_core_centers_on_thermal_marginals():
    # Thermal marginals p_k ~ q^k on 14 x 14 (least eigenvalues 6.1e-5 and
    # 1.1e-7) with X = span{|k, k>}, where mu = sum_k min(p_k, p'_k). The
    # first centering from Y = (I, I) lies far from these marginals' scale
    # and must still finish well inside _CENTER_STEPS.
    n = 14
    p, q = (r ** np.arange(n) / np.sum(r ** np.arange(n)) for r in (0.5, 0.3))
    basis = np.zeros((n * n, n))
    basis[np.arange(n) * (n + 1), np.arange(n)] = 1.0
    sol = solve_marginal_sdp(Subspace(n * n, basis), np.diag(p), np.diag(q))
    assert sol.status == "optimal" and sol.iterations <= 80
    assert sol.value <= np.minimum(p, q).sum() <= sol.dual


def test_barrier_core_step_count_on_generated_couplings():
    # The 80 generated coupling solves README "Numerics" cites: mu and the
    # supported program on 2x3 to 4x4 files, seeds 0-3, feasible and not.
    # A point counts as centered below Newton decrement 0.7 and a damped step
    # stops at the barrier's least value on its grid; the full boundary step
    # took 1,326 steps and the old threshold 1/4 took 1,731.
    steps = []
    for dims in ((2, 3), (3, 3), (2, 4), (3, 4), (4, 4)):
        for seed in range(4):
            for feasible in (True, False):
                sub, r1, r2 = golden_instance(dims, seed, feasible)
                for sol in (
                    solve_marginal_sdp(sub, r1, r2),
                    solve_supported_overlap(sub, r1, r2),
                ):
                    assert sol.status == "optimal", (dims, seed, feasible)
                    steps.append(sol.iterations)
    assert (len(steps), sum(steps)) == (80, 1137)


@pytest.mark.parametrize("breakdown", ["singular", "nan"])
def test_barrier_core_newton_breakdown_is_infeasible_numerics(monkeypatch, breakdown):
    # The Newton system fails at the 12th point, after the first centerings;
    # the solve ends there and keeps their bracket.
    real_solve = np.linalg.solve
    calls = []

    def failing_solve(a, b):
        calls.append(1)
        if len(calls) < 12:
            return real_solve(a, b)
        if breakdown == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(np.shape(b), np.nan, dtype=complex)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    prob = golden_instance((2, 3), 0, True)
    sol = solve_marginal_sdp(*prob)
    assert (sol.status, sol.iterations) == ("infeasible_numerics", 11)
    assert 0.8 < sol.value <= sol.dual < 1.2
    assert_overlap_bracket(sol, *prob)
    # Those centered points were deferred and are certified at the end from
    # the Newton steps they kept (only S^-1 is factored again), bit for bit
    # as if each had been certified on the way.
    calls.clear()
    reference = certifying_every_point(monkeypatch, lambda: solve_marginal_sdp(*prob))
    assert outcome(sol) == outcome(reference)
    # The mismatch program runs on the same core: level 3 of a ladder chain,
    # whose golden bracket lies inside the one kept at the breakdown.
    calls.clear()
    p = generated("f_ladder", (2, 3), 0)
    fmin = solve_f_min_full(p.rho1, p.rho2, Subspace(6, p.x_sub.basis[:, :3]))
    assert (fmin.status, fmin.iterations) == ("infeasible_numerics", 11)
    value, lower, _, _ = F_MIN_CHAIN_GOLDEN[((2, 3), 0, 50_000)][2]
    assert 0.0 < fmin.dual <= lower <= value <= fmin.value < 2.0


def test_overlap_programs_run_without_admm_or_projections(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an overlap or mismatch program called psd_project")

    monkeypatch.setattr(sdp, "psd_project", forbidden)
    sub, r1, r2 = golden_instance((2, 3), 0, True)
    assert solve_marginal_sdp(sub, r1, r2).status == "optimal"
    assert solve_supported_overlap(sub, r1, r2).status == "optimal"
    p = generated("f_ladder", (2, 3), 0)
    chain = Subspace(6, p.x_sub.basis[:, :4])
    assert solve_f_min_full(p.rho1, p.rho2, chain).status == "optimal"
    assert solve_f_min_full(p.rho1, p.rho2, chain, threshold=1e-4).status == "decided"


# ---------------------------------------------------------------------------
# the damped step length


def barrier_along(alpha, mu, lam2):
    """The barrier's change along a Newton step of spectrum mu and decrement^2 lam2."""
    return alpha * (mu.sum() - lam2) - np.log1p(alpha * mu).sum()


def test_damped_step_length_on_synthetic_spectra():
    # Spectra of L^-1 dS L^-* with lam2 at least sum mu^2 (equal for a pure
    # log det Hessian; the fiber distance's gauge term adds to it), with
    # and without a negative eigenvalue beyond -0.9.
    rng = np.random.default_rng(4)
    kept = shortened = 0
    for _ in range(400):
        mu = np.sort(rng.standard_normal(int(rng.integers(2, 40))) * rng.choice([0.2, 1.0, 5.0]))
        lam2 = max(float(mu @ mu) * rng.uniform(1.0, 1.5), 0.82)
        alpha0 = min(1.0, -0.9 / mu[0]) if mu[0] < 0.0 else 1.0
        alpha = sdp._damped_step(mu, lam2, sdp._STEP_GRID)
        assert 0.4 * alpha0 <= alpha <= alpha0 <= 1.0
        assert barrier_along(alpha, mu, lam2) <= barrier_along(alpha0, mu, lam2)
        if mu.sum() - lam2 - np.sum(mu / (1.0 + alpha0 * mu)) <= 0.0:  # phi'(alpha0) <= 0
            assert alpha == alpha0
            kept += 1
        else:
            grid = [alpha0 * k / 10 for k in range(10, 3, -1)]
            least = min(barrier_along(a, mu, lam2) for a in grid)
            assert barrier_along(alpha, mu, lam2) <= least + 1e-12
            shortened += alpha < alpha0
    assert kept > 50 and shortened > 50


def test_newton_step_linalg_calls_stay_one_factorization_solve_and_eigvalsh(monkeypatch):
    # Per Newton step the driver factors S once (cholesky, inv), solves the
    # Newton system once and, for a damped step only, takes one eigvalsh;
    # the step length is read off that spectrum with no LAPACK call of its
    # own. Counted on one golden solve, calls made from the driver's frames.
    calls, damped = [], []
    driver = {sdp._barrier_path.__code__.co_name, "factor"}
    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if not callable(real) or isinstance(real, type):
            continue

        def counted(*args, _name=name, _real=real, **kwargs):
            frame = sys._getframe(1).f_code
            if frame.co_filename == sdp.__file__ and frame.co_name in driver:
                calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    real_step = sdp._damped_step
    monkeypatch.setattr(sdp, "_damped_step", lambda *a: damped.append(1) or real_step(*a))
    sol = solve_marginal_sdp(*golden_instance((2, 3), 0, True))
    assert (sol.status, sol.iterations) == ("optimal", 14)
    factors = sol.iterations + 1  # the closing point is factored, then certified
    want = {"cholesky": factors, "inv": factors, "solve": factors, "eigvalsh": len(damped)}
    assert {name: calls.count(name) for name in set(calls)} == want
    assert 0 < len(damped) <= sol.iterations


# ---------------------------------------------------------------------------
# the fiber distance's Newton steps


def test_fiber_distance_steps_stay_flat_in_size():
    # The barrier's step count does not grow with the fiber: 3x4 and 4x4
    # distances close gap_tol in about as many Newton steps as the 2x2 to
    # 3x3 workload distances do (these two take 23 and 42, 25 and 41 under
    # the full boundary step; a centering threshold of 0.9 took 53 on the
    # second).
    for dims, seed in (((3, 4), 1), ((4, 4), 1)):
        p = generated("fiber_dist", dims, seed)
        upper, lower, _, steps, status = _dist_solve(p.beta, FiberSpec(p.rho1, p.rho2), DEFAULT_CONFIG)
        assert status == "optimal" and upper - lower <= DEFAULT_CONFIG.gap_tol
        assert steps <= 45


# ---------------------------------------------------------------------------
# deferred certificates: the overlap core certifies only the centered points
# whose barrier gap bound lets the bracket close


def outcome(sol):
    """Everything a solve reports, as bits: bracket, steps, status, X and Y."""
    mats = (sol.X.mat, *(y.mat for y in sol.Y))
    return (sol.value, sol.dual, sol.iterations, sol.status, *(m.tobytes() for m in mats))


def certifying_every_point(monkeypatch, run):
    """``run()`` with the overlap core's driver certifying every centered point.

    The core passes ``defer`` as the driver's ninth positional argument; the
    wrapper drops it, which restores certifying at each centering.
    """
    real = sdp._barrier_path
    with monkeypatch.context() as m:
        m.setattr(sdp, "_barrier_path", lambda *args: real(*args[:8]))
        return run()


def counting_repairs(monkeypatch, run):
    """(``run()``, the number of ``_repair_dual`` calls it made)."""
    calls = []
    real = sdp._repair_dual

    def counted(*args):
        calls.append(1)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(sdp, "_repair_dual", counted)
        return run(), len(calls)


def singular_couplings(gap_tol, seed=0):
    """(label, sub, rho1, rho2, cfg) of pure-state and rank-2 couplings on 2x2 to 3x3.

    Pure states are kept on purpose: at their centered points the computed
    Newton decrement squared comes out slightly negative. Each coupling is
    posed on its range (feasible), on the range and one random direction,
    and on a generic subspace of one dimension more than its rank.
    """
    cfg = SolverConfig(gap_tol=gap_tol)
    rng = np.random.default_rng(seed)
    out = []
    for d1, d2 in ((2, 2), (2, 3), (3, 3)):
        n = d1 * d2
        for rank in (1, 2):
            rho = random_state(rng, n, rank)
            r1, r2 = partial_trace_2(rho, d1, d2), partial_trace_1(rho, d1, d2)
            w, v = np.linalg.eigh(rho)
            inside = v[:, w > 1e-12]
            wider = np.linalg.qr(np.column_stack([inside, crand(rng, n, 1)]))[0]
            generic = np.linalg.qr(crand(rng, n, rank + 1))[0]
            for name, basis in (("range", inside), ("wider", wider), ("generic", generic)):
                label = ((d1, d2), rank, name, gap_tol, seed)
                out.append((label, Subspace(n, basis), r1, r2, cfg))
    return out


def stopping_cases():
    """(label, sub, rho1, rho2, cfg) of overlap solves that stop or break down, not run out."""
    cases = []
    for (dims, seed, feasible, max_iters), golden in MARGINAL_GOLDEN.items():
        if golden[3] == "optimal":
            cfg = SolverConfig(max_iters=max_iters)
            cases.append(((dims, seed, feasible), *golden_instance(dims, seed, feasible), cfg))
    for dims in ((2, 3), (3, 3), (2, 4), (3, 4), (4, 4)):
        for seed in range(4):
            for feasible in (True, False):
                key = (dims, seed, feasible)
                cases.append((key, *golden_instance(*key), DEFAULT_CONFIG))
    for gap_tol in (1e-6, 1e-8):
        cases.extend(singular_couplings(gap_tol))
    # Pure states on 2x3 that keep the factor at sqrt(64): with 2 in its
    # place, a point whose bound lies between 2 and 8 gap_tol is deferred,
    # although the reference closes on its primal, and the steps change.
    cases.extend(c for c in singular_couplings(1e-8, seed=6) if c[0][:2] == ((2, 3), 1))
    return cases


def test_deferred_certificates_reproduce_every_stopping_solve(monkeypatch):
    # mu and the supported program report the same bits whether the core
    # certifies every centered point or only those whose barrier gap bound
    # is within sqrt(64) gap_tol, with one exception. Where the optimum is 0
    # the certified primal shrinks along the path, so a deferred point's
    # primal can beat the last one's: here on the supported program of a
    # 2x3 pure state on a generic plane at gap_tol 1e-8, which runs the full
    # space because its support lift cannot close 1e-8 in rounding. Its
    # steps, status and dual pair are the reference's, its bracket closes,
    # and only its primal value and point are lower.
    def solve_all():
        return [
            (label, solve.__name__, outcome(solve(sub, r1, r2, cfg)))
            for label, sub, r1, r2, cfg in stopping_cases()
            for solve in (solve_marginal_sdp, solve_supported_overlap)
        ]

    deferred = solve_all()
    reference = certifying_every_point(monkeypatch, solve_all)
    assert len(deferred) == 2 * (2 + 40 + 36 + 3)
    assert [o[3] for _, _, o in deferred].count("optimal") >= 140
    differ = []
    for (label, name, got), (_, _, want) in zip(deferred, reference):
        if got != want:
            differ.append((label, name))
            assert got[1:4] == want[1:4] and got[5:] == want[5:]
            assert 0.0 <= got[0] < want[0] and got[1] - got[0] <= 1e-8
    assert differ == [(((2, 3), 1, "generic", 1e-8, 0), "solve_supported_overlap")]


def test_a_closing_solve_runs_one_certificate(monkeypatch):
    # The optimal golden solves close at their last centering; they used to
    # certify each of their four centered points.
    for (dims, seed, feasible, max_iters), golden in MARGINAL_GOLDEN.items():
        if golden[3] != "optimal":
            continue
        prob = golden_instance(dims, seed, feasible)

        def solve():
            return solve_marginal_sdp(*prob, SolverConfig(max_iters=max_iters))

        sol, repairs = counting_repairs(monkeypatch, solve)
        assert (sol.value, sol.dual, sol.iterations, sol.status) == golden
        assert repairs == 1
        every = certifying_every_point(monkeypatch, lambda: counting_repairs(monkeypatch, solve))
        assert every[1] == 4


def test_deferred_certificates_reproduce_budget_limited_solves(monkeypatch):
    # A path that runs out certifies the points it deferred, in order and
    # before the current one, so every budget gives the reference bracket.
    def solve_all():
        out = []
        for dims, seed, feasible, _ in MARGINAL_GOLDEN:
            prob = golden_instance(dims, seed, feasible)
            for max_iters in range(1, 31):
                cfg = SolverConfig(max_iters=max_iters)
                out.append(outcome(solve_marginal_sdp(*prob, cfg)))
                out.append(outcome(solve_supported_overlap(*prob, cfg)))
        return out

    deferred = solve_all()
    assert [o[3] for o in deferred].count("max_iters") >= 60
    assert deferred == certifying_every_point(monkeypatch, solve_all)


def test_deferred_certificates_reproduce_budget_limited_samples(monkeypatch):
    # The fiber sampler runs the same core; its members at every budget,
    # SAMPLE_GOLDEN's budget-10 entry among them, are the reference's.
    def sample_all():
        out = []
        for seed in (0, 1):
            p = generated("fiber_dist", (2, 2), seed)
            fiber = FiberSpec(p.rho1, p.rho2)
            rng = np.random.default_rng(7)
            objective = hermitize(crand(rng, 4, 4))
            objective /= np.linalg.norm(objective)
            for max_iters in range(1, 31):
                cfg = SolverConfig(gap_tol=1e-5, max_iters=max_iters)
                out.append(_sample_member(fiber, objective, cfg).tobytes())
        return out

    assert sample_all() == certifying_every_point(monkeypatch, sample_all)


# ---------------------------------------------------------------------------
# closed-form support scale against the bisection oracle


def passes_scale_test(t, m1, m2, r1, r2, allow):
    return (
        np.linalg.eigvalsh(hermitize(r1 - t * m1))[0] >= -allow
        and np.linalg.eigvalsh(hermitize(r2 - t * m2))[0] >= -allow
    )


def scale_cases():
    rng = np.random.default_rng(11)
    for trial in range(60):
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        kind = trial % 3
        if kind == 0:  # full-rank marginals
            r1, r2 = random_state(rng, d1), random_state(rng, d2)
        else:  # rank-deficient rho1
            r1 = random_state(rng, d1, max(1, d1 - 1)) if d1 > 1 else np.zeros((1, 1))
            r2 = random_state(rng, d2)
        m1 = random_state(rng, d1) * rng.uniform(0.1, 3.0)
        m2 = random_state(rng, d2) * rng.uniform(0.1, 3.0)
        if kind == 2:  # keep m1 on supp rho1, so t > 0 survives the singular bound
            w, v = np.linalg.eigh(r1)
            keep = v[:, w > 1e-12]
            m1 = keep @ keep.conj().T @ m1 @ keep @ keep.conj().T
        yield m1, m2, r1, r2


def test_support_scale_matches_bisection_oracle():
    seen = set()
    for m1, m2, r1, r2 in scale_cases():
        t = _support_scaler(r1, r2)(m1, m2)
        ref = support_scale_bisect(m1, m2, r1, r2, _FEAS_SLACK)
        assert abs(t - ref) <= 1e-10
        assert 0.0 <= t <= 1.0
        assert t == 0.0 or passes_scale_test(t, m1, m2, r1, r2, _FEAS_SLACK)
        seen.add("one" if t == 1.0 else "zero" if t < 1e-6 else "interior")
    assert seen == {"one", "zero", "interior"}


def test_support_scale_is_zero_below_the_slack():
    # lambda_min(R) < -_FEAS_SLACK: not even t = 0 passes, and both methods return 0
    r1 = np.diag([0.6, -1e-9])
    r2 = np.diag([0.5, 0.5 - 1e-9])
    m = np.eye(2) / 2
    assert _support_scaler(r1, r2)(m, m) == 0.0
    assert support_scale_bisect(m, m, r1, r2, _FEAS_SLACK) == 0.0
    # at lambda_min(R) + _FEAS_SLACK = 0 exactly the closed form also returns 0
    assert _support_scaler(np.diag([0.5, -_FEAS_SLACK]), r2)(m, m) == 0.0


def test_support_scale_singular_marginal_with_leak():
    # M puts mass on the kernel of R: only t <= _FEAS_SLACK / leak passes
    r1 = np.diag([1.0, 0.0])
    r2 = np.eye(2) / 2
    m1 = np.diag([0.5, 0.5])
    m2 = np.eye(2) / 4
    t = _support_scaler(r1, r2)(m1, m2)
    assert abs(t - support_scale_bisect(m1, m2, r1, r2, _FEAS_SLACK)) <= 1e-10
    assert abs(t - 2.0 * _FEAS_SLACK) <= 1e-6 * _FEAS_SLACK
    assert passes_scale_test(t, m1, m2, r1, r2, _FEAS_SLACK)
