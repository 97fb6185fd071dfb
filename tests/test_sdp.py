"""Unit tests for the structured conic solvers.

The solvers report certified intervals, so the tests lean on three kinds of
evidence: analytic instances where the optimum is known in closed form,
attainment checks (the reported value is achieved by the returned feasible
point), and bracket consistency between independent runs and between the
overlap and mismatch programs.
"""

from __future__ import annotations

import numpy as np
import pytest

import qstrassen.fibers as fibers
import qstrassen.sdp as sdp
from qstrassen.bipartite import BipartiteOperator, Subspace, partial_trace_1, partial_trace_2
from qstrassen.cli import generate_instance, problem_from_dict
from qstrassen.fibers import FiberSpec, _dist_solve
from qstrassen.linalg import hermitize, trace_norm
from qstrassen.sdp import (
    DEFAULT_CONFIG,
    MarginalSdpProblem,
    SolverConfig,
    _FEAS_SLACK,
    _admm,
    _f_min_c_step,
    _marginal_maps,
    _support_scaler,
    solve_f_min,
    solve_f_min_full,
    solve_marginal_sdp,
    solve_supported_overlap,
    verify_duality_certificates,
)

from oracles import f_min_c_step_dense, golden_section_min, support_scale_bisect


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


def problem_for(sub: Subspace, rho1, rho2, **kw) -> MarginalSdpProblem:
    obj = BipartiteOperator(sub.projector.mat, 2, 2)
    return MarginalSdpProblem(obj, rho1, rho2, **kw)


# ---------------------------------------------------------------------------
# problem validation


def test_solver_config_validation():
    with pytest.raises(ValueError, match="positive"):
        SolverConfig(gap_tol=0.0)
    with pytest.raises(ValueError, match="positive"):
        SolverConfig(penalty_init=-1.0)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)


def test_problem_rejects_bad_data():
    sub = bell_subspace()
    with pytest.raises(ValueError, match="do not match objective factors"):
        problem_for(sub, np.eye(3), np.eye(2))
    with pytest.raises(ValueError, match="not PSD"):
        problem_for(sub, np.diag([1.0, -0.5]), np.eye(2) / 4)
    with pytest.raises(ValueError, match="Sigma membership violated"):
        problem_for(sub, np.eye(2) / 2, np.eye(2) / 3)
    with pytest.raises(ValueError, match="not a projector"):
        MarginalSdpProblem(BipartiteOperator(np.eye(4) * 0.5, 2, 2), np.eye(2) / 2, np.eye(2) / 2)
    prob = problem_for(sub, np.eye(2) / 2, np.eye(2) / 2)
    with pytest.raises(AttributeError, match="immutable"):
        prob.require_equal_traces = False


def test_problem_allows_unequal_traces_when_relaxed():
    prob = problem_for(
        bell_subspace(), np.eye(2) / 2, np.eye(2) / 3, require_equal_traces=False
    )
    assert abs(prob.rho1.trace() - 1.0) < 1e-12
    assert abs(prob.rho2.trace() - 2.0 / 3.0) < 1e-12


# ---------------------------------------------------------------------------
# overlap program on analytic instances


def test_overlap_on_maximally_entangled_pair():
    # the maximally entangled vector couples (I/2, I/2), so the optimum is 1
    prob = problem_for(bell_subspace(), np.eye(2) / 2, np.eye(2) / 2)
    sol = solve_marginal_sdp(prob)
    assert sol.status == "optimal"
    assert sol.primal_value >= 1.0 - 1e-4
    assert sol.dual_value >= sol.primal_value
    assert sol.gap <= 1e-6


def test_overlap_on_orthogonal_obstruction():
    # support forces mass on e0 in factor 1, but rho1 lives on e1: optimum 0
    sol = solve_marginal_sdp(
        problem_for(corner_subspace(), np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    )
    assert sol.primal_value <= 1e-9
    assert sol.dual_value <= 1e-4


def test_overlap_with_zero_marginal_is_exactly_zero():
    # rho1 = 0 (a truncated ladder level can give one): the support of rho1 is
    # empty, so every dominated operator is 0 and the certified bracket is [0, 0]
    prob = MarginalSdpProblem(
        BipartiteOperator(bell_subspace().projector.mat, 2, 2),
        np.zeros((2, 2)),
        np.eye(2) / 2,
        require_equal_traces=False,
    )
    sol = solve_marginal_sdp(prob)
    assert (sol.status, sol.iterations) == ("optimal", 0)
    assert sol.primal_value == 0.0 and abs(sol.dual_value) <= 1e-12
    assert verify_duality_certificates(prob, sol).passed


def test_overlap_corner_value_is_min_of_weights():
    # X = c e00 e00^*: c <= a from factor 1, c <= b from factor 2, so mu = min(a, b)
    a, b = 0.3, 0.55
    sol = solve_marginal_sdp(
        problem_for(corner_subspace(), np.diag([a, 1 - a]), np.diag([b, 1 - b]))
    )
    assert sol.status == "optimal"
    assert abs(sol.primal_value - min(a, b)) <= 1e-5
    assert abs(sol.dual_value - min(a, b)) <= 1e-5


def test_overlap_value_is_attained_by_returned_point():
    prob = problem_for(bell_subspace(), np.eye(2) / 2, np.eye(2) / 2)
    sol = solve_marginal_sdp(prob)
    x = sol.X.mat
    attained = float(np.vdot(prob.objective.mat, x).real)
    assert abs(attained - sol.primal_value) < 1e-9
    assert np.linalg.eigvalsh(x).min() >= -1e-11
    t2x = partial_trace_2(sol.X).mat
    t1x = partial_trace_1(sol.X).mat
    assert np.linalg.eigvalsh(prob.rho1.mat - t2x).min() >= -1e-9
    assert np.linalg.eigvalsh(prob.rho2.mat - t1x).min() >= -1e-9


def test_overlap_dual_point_is_feasible():
    prob = problem_for(corner_subspace(), np.diag([0.3, 0.7]), np.diag([0.55, 0.45]))
    sol = solve_marginal_sdp(prob)
    y1, y2 = sol.Y[0].mat, sol.Y[1].mat
    adj = np.kron(y1, np.eye(2)) + np.kron(np.eye(2), y2)
    assert np.linalg.eigvalsh(adj - prob.objective.mat).min() >= -1e-12
    dval = float(np.vdot(prob.rho1.mat, y1).real + np.vdot(prob.rho2.mat, y2).real)
    assert abs(dval - sol.dual_value) < 1e-9


def test_overlap_history_is_nondecreasing():
    sol = solve_marginal_sdp(problem_for(bell_subspace(), np.eye(2) / 2, np.eye(2) / 2))
    hist = np.array(sol.primal_history)
    assert hist.size >= 1
    assert np.all(np.diff(hist) >= -1e-15)


def test_overlap_scale_covariance():
    sub = corner_subspace()
    r1 = np.diag([0.3, 0.7])
    r2 = np.diag([0.55, 0.45])
    base = solve_marginal_sdp(problem_for(sub, r1, r2))
    half = solve_marginal_sdp(problem_for(sub, 0.5 * r1, 0.5 * r2))
    assert abs(half.primal_value - 0.5 * base.primal_value) < 1e-5


def test_overlap_certified_intervals_from_different_starts_intersect():
    # the [primal, dual] interval brackets the optimum for any starting point
    prob = problem_for(bell_subspace(), np.eye(2) / 2, np.eye(2) / 2)
    rng = np.random.default_rng(0)
    intervals = []
    for _ in range(3):
        a = crand(rng, 4, 4)
        sol = solve_marginal_sdp(prob, warm_start={"X": a @ a.conj().T / 8.0})
        intervals.append((sol.primal_value, sol.dual_value))
        rep = verify_duality_certificates(prob, sol)
        assert rep.passed
    lo = max(p for p, _ in intervals)
    hi = min(d for _, d in intervals)
    assert lo <= hi + 1e-9


# ---------------------------------------------------------------------------
# duality certificates


def test_certificate_report_on_solved_instance():
    prob = problem_for(bell_subspace(), np.eye(2) / 2, np.eye(2) / 2)
    sol = solve_marginal_sdp(prob)
    rep = verify_duality_certificates(prob, sol)
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
    value, x = solve_f_min(np.eye(2) / 2, np.eye(2) / 2, bell_subspace())
    assert value <= 1e-5
    assert np.linalg.eigvalsh(x.mat).min() >= -1e-10


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
    sol, _ = solve_f_min_full(r1, r2, sub)
    assert sol.status == "optimal"
    assert abs(sol.value - truth) <= 1e-5
    assert sol.lower_bound <= truth + 1e-9
    assert sol.value >= truth - 1e-9


def test_f_min_value_is_attained_by_returned_point():
    r1 = np.diag([0.3, 0.7]).astype(complex)
    r2 = np.diag([0.55, 0.45]).astype(complex)
    sol, _ = solve_f_min_full(r1, r2, corner_subspace())
    x = sol.X.mat
    recomputed = trace_norm(partial_trace_2(x, 2, 2) - r1) + trace_norm(
        partial_trace_1(x, 2, 2) - r2
    )
    assert abs(recomputed - sol.value) < 1e-9


def test_f_min_warm_start_keeps_values_nonincreasing():
    rng = np.random.default_rng(1)
    d1 = d2 = 3
    q, _ = np.linalg.qr(crand(rng, d1 * d2, 3))
    r1 = np.eye(d1) / d1
    r2 = np.eye(d2) / d2
    sub1 = Subspace(d1 * d2, q[:, :1])
    sub2 = Subspace(d1 * d2, q[:, :2])
    sol1, warm = solve_f_min_full(r1, r2, sub1)
    sol2, _ = solve_f_min_full(r1, r2, sub2, warm_start=warm)
    assert sol2.value <= sol1.value + 2e-6


@pytest.mark.parametrize("dims, n", [((3, 3), 2), ((4, 3), 12), ((2, 6), 12)])
def test_f_min_c_step_matches_dense_normal_equations(dims, n):
    # n^2 below d1^2 + d2^2 on 3x3, above it on 4x3 and 2x6.
    d1, d2 = dims
    rng = np.random.default_rng(n + d1)
    sub = Subspace(d1 * d2, np.linalg.qr(crand(rng, d1 * d2, n))[0])
    vbasis = sub.basis
    maps = _marginal_maps(vbasis, d1, d2)
    u, g1, g2 = (hermitize(crand(rng, k, k)) for k in (n, d1, d2))
    step = _f_min_c_step(maps, d1, d2)
    want = f_min_c_step_dense(vbasis, d1, d2, u, g1, g2)
    assert np.max(np.abs(step(u, g1, g2) - want)) <= 1e-12


def test_f_min_rejects_ambient_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        solve_f_min(np.eye(2) / 2, np.eye(2) / 2, Subspace(6, np.eye(6)[:, :1]))


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
    sol = solve_marginal_sdp(problem_for(sub, r1, r2))
    assert nu <= sol.dual_value + 1e-9


def test_supported_overlap_value_is_trace_of_returned_point():
    sol = solve_supported_overlap(bell_subspace(), np.eye(2) / 2, np.eye(2) / 2)
    assert abs(sol.value - float(np.trace(sol.X.mat).real)) < 1e-9


def test_supported_overlap_rejects_mismatched_warm_start():
    # a 2x2 overlap solve cannot start a 2x3 supported solve
    warm = solve_marginal_sdp(problem_for(bell_subspace(), np.eye(2) / 2, np.eye(2) / 2))
    sub, r1, r2 = golden_instance((2, 3), 0, True)
    with pytest.raises(ValueError, match=r"\(4, 4\).*\(6, 6\)"):
        solve_supported_overlap(sub, r1, r2, warm_start=warm)


# Values of the full solve (no threshold), recorded before the threshold stop
# existed: (dims, seed, feasible) -> (value, gap, iterations). The (2, 4) entry
# was re-recorded when the penalty balancing moved to relative residuals
# (975 -> 575 iterations; the old and new certified brackets overlap).
SUPPORTED_GOLDEN = {
    ((2, 3), 0, True): (0.9999994559618473, 6.136124490740968e-07, 300),
    ((3, 3), 1, True): (0.9999994907967467, 9.176873789762396e-07, 1350),
    ((2, 4), 15, False): (0.9951427259963151, 8.090280881889456e-07, 575),
}


def golden_instance(dims, seed, feasible):
    p = generated("coupling", dims, seed, feasible=feasible)
    return Subspace(p.d1 * p.d2, p.basis), p.rho1, p.rho2


def test_supported_overlap_without_threshold_reproduces_full_solve():
    for (dims, seed, feasible), (value, gap, iterations) in SUPPORTED_GOLDEN.items():
        sol = solve_supported_overlap(*golden_instance(dims, seed, feasible))
        assert sol.status == "optimal"
        assert sol.iterations == iterations
        assert abs(sol.value - value) <= 1e-12
        assert abs(sol.gap - gap) <= 1e-12
        assert abs(sol.dual - (value + gap)) <= 1e-12


def test_supported_overlap_threshold_only_stops_early():
    # The threshold changes no iterate: a decided solve equals the full solve
    # cut at the same iteration, and its bracket lies on one side.
    for key in SUPPORTED_GOLDEN:
        sub, r1, r2 = golden_instance(*key)
        for threshold in (0.5, 0.99, 1.0 - 1e-4, 1.0 + 1e-3):
            sol = solve_supported_overlap(sub, r1, r2, threshold=threshold)
            assert sol.status == "decided", (key, threshold)
            assert sol.value >= threshold or sol.dual < threshold
            cut = solve_supported_overlap(
                sub, r1, r2, SolverConfig(max_iters=sol.iterations)
            )
            assert (cut.value, cut.dual, cut.gap) == (sol.value, sol.dual, sol.gap)
            assert np.array_equal(cut.X.mat, sol.X.mat)


# Reference results on generated instances; the solver must reproduce the
# iterations and status exactly and the values to 1e-12:
# (dims, seed, feasible, max_iters) -> (primal, dual, iterations, status).
MARGINAL_GOLDEN = {
    ((2, 3), 0, True, 50_000): (0.9999999057931761, 1.0000000411868895, 175, "optimal"),
    ((3, 3), 1, False, 50_000): (0.9990745865825683, 0.9990752143068797, 175, "optimal"),
    ((3, 3), 2, True, 50): (0.9971560706349208, 1.0012666338199223, 50, "max_iters"),
}


def test_marginal_sdp_reproduces_golden_values():
    for (dims, seed, feasible, max_iters), golden in MARGINAL_GOLDEN.items():
        sub, r1, r2 = golden_instance(dims, seed, feasible)
        obj = BipartiteOperator(sub.projector.mat, *dims)
        sol = solve_marginal_sdp(
            MarginalSdpProblem(obj, r1, r2), SolverConfig(max_iters=max_iters)
        )
        primal, dual, iterations, status = golden
        assert (sol.iterations, sol.status) == (iterations, status)
        assert abs(sol.primal_value - primal) <= 1e-12
        assert abs(sol.dual_value - dual) <= 1e-12


# Warm-started f-ladder chains, one entry per level:
# (dims, seed, max_iters) -> [(value, lower_bound, iterations, status), ...].
F_MIN_CHAIN_GOLDEN = {
    ((2, 3), 0, 50_000): [
        (1.313520275044532, 1.3135202439516336, 100, "optimal"),
        (0.720186191461468, 0.7201861604070006, 100, "optimal"),
        (0.4272075214692814, 0.4272070380628201, 125, "optimal"),
        (4.800428620578789e-07, 0.0, 100, "optimal"),
        (1.5660695052815271e-09, 0.0, 25, "optimal"),
        (9.659299848215814e-14, 0.0, 25, "optimal"),
    ],
    ((3, 3), 1, 50): [
        (1.4750440638113531, 1.4750215745124393, 50, "max_iters"),
        (0.9645199575104342, 0.9644905720390008, 50, "max_iters"),
        (0.7430104100242118, 0.7430050638634672, 50, "max_iters"),
        (0.006363356249557627, 0.0, 50, "max_iters"),
        (0.0016409389072196616, 0.0, 50, "max_iters"),
        (7.046966898477753e-06, 0.0, 50, "max_iters"),
        (1.993760171635597e-08, 0.0, 25, "optimal"),
        (2.0171458120338134e-11, 0.0, 25, "optimal"),
    ],
}


def test_f_min_chain_reproduces_golden_values():
    for (dims, seed, max_iters), levels in F_MIN_CHAIN_GOLDEN.items():
        p = generated("f_ladder", dims, seed)
        assert p.n_max == len(levels)
        warm = None
        for n, (value, lower, iterations, status) in enumerate(levels, start=1):
            chain = Subspace(p.d1 * p.d2, p.basis[:, :n])
            sol, warm = solve_f_min_full(
                p.rho1, p.rho2, chain, SolverConfig(max_iters=max_iters), warm
            )
            assert (sol.iterations, sol.status) == (iterations, status), (dims, n)
            assert abs(sol.value - value) <= 1e-12
            assert abs(sol.lower_bound - lower) <= 1e-12


def test_f_min_chain_threshold_stops_levels_below_it():
    # Thresholded chains decide each level once its value is below 1e-4 and
    # never take more iterations than the gap_tol run of the golden table;
    # a level seeded below the threshold returns at once with its warm dict.
    threshold = 1e-4
    decided = seeded = 0
    for (dims, seed, max_iters), levels in F_MIN_CHAIN_GOLDEN.items():
        p = generated("f_ladder", dims, seed)
        cfg = SolverConfig(max_iters=max_iters)
        warm, prev = None, None
        for n, (_, _, iterations, _) in enumerate(levels, start=1):
            chain = Subspace(p.d1 * p.d2, p.basis[:, :n])
            sol, out = solve_f_min_full(p.rho1, p.rho2, chain, cfg, warm, threshold)
            assert sol.iterations <= iterations, (dims, n)
            assert sol.lower_bound <= sol.value
            if sol.status == "decided":
                decided += 1
                assert sol.value < threshold
            if prev is not None and prev.value < threshold:
                seeded += 1
                assert (sol.status, sol.iterations) == ("decided", 0)
                assert abs(sol.value - prev.value) <= 1e-12
                assert out is warm
            warm, prev = out, sol
    assert decided >= 4 and seeded >= 3


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

    The f-minimizer runs whole warm-started ladder chains, as ``f_ladder``
    does; their later levels close the bracket long before the ADMM
    residuals settle.
    """
    cfg = SolverConfig(max_iters=max_iters)
    out = []
    for seed in range(3):
        for dims in ((2, 3), (3, 3)):
            p = generated("coupling", dims, seed, feasible=seed != 1)
            sub = Subspace(p.d1 * p.d2, p.basis)
            obj = BipartiteOperator(sub.projector.mat, p.d1, p.d2)
            sol = solve_marginal_sdp(MarginalSdpProblem(obj, p.rho1, p.rho2), cfg)
            out.append(("marginal", sol.gap, sol.status))
            sup = solve_supported_overlap(sub, p.rho1, p.rho2, cfg)
            out.append(("supported", sup.gap, sup.status))
            p = generated("f_ladder", dims, seed)
            warm = None
            for n in range(1, p.n_max + 1):
                chain = Subspace(p.d1 * p.d2, p.basis[:, :n])
                fmin, warm = solve_f_min_full(p.rho1, p.rho2, chain, cfg, warm)
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
    statuses = {status for m in (25, 400) for _, _, status in stop_rule_cases(m)}
    assert statuses == {"optimal", "max_iters"}


# ---------------------------------------------------------------------------
# penalty balancing on relative residuals


def test_admm_zero_multipliers_leave_sigma_unchanged():
    # Every shifted iterate is a positive multiple of the PSD target, so the
    # PSD projection returns it unchanged and every multiplier stays exactly
    # 0 while the iterate still moves toward the fixed affine point; at the
    # checkpoint the dual residual is far above the primal one. The relative
    # rule has a zero dual normaliser there and must leave sigma alone.
    target = np.diag([1.0, 2.0]).astype(complex)
    seen = []

    def certify(w, lam, sigma, pres, dres):
        seen.append((pres, dres, max(float(np.linalg.norm(lb)) for lb in lam)))

    w0 = [np.zeros((2, 2), dtype=complex)]
    status, it, _, _, sigma = _admm(
        lambda w, lam, sigma: [target], w0, [np.zeros_like(w0[0])], 100.0, 25, certify
    )
    assert (status, it, sigma) == ("max_iters", 25, 100.0)
    [(pres, dres, lam_max)] = seen
    assert lam_max == 0.0
    assert dres > 10.0 * pres > 0.0


def test_relative_balancing_cuts_overlap_iterations():
    # Generated 4x4 coupling instances. With balancing on the absolute
    # residuals sigma never left 1.0 on them and the solves took 3,650
    # iterations in total; on relative residuals they take 3,075.
    total = 0
    for seed in range(6):
        for feasible in (True, False):
            sub, r1, r2 = golden_instance((4, 4), seed, feasible)
            obj = BipartiteOperator(sub.projector.mat, 4, 4)
            sol = solve_marginal_sdp(MarginalSdpProblem(obj, r1, r2))
            assert sol.status == "optimal"
            total += sol.iterations
    assert total <= 0.85 * 3650


# ---------------------------------------------------------------------------
# the driver's flat buffers


def admm_projection_counts(monkeypatch, solve):
    """(iterations, shapes of the psd_project calls) of every _admm run in ``solve()``."""
    runs = []
    real_admm, real_project = sdp._admm, sdp.psd_project

    def counted_admm(*args):
        calls = []

        def counted_project(h, out=None):
            calls.append(np.shape(h))
            return real_project(h, out=out)

        monkeypatch.setattr(sdp, "psd_project", counted_project)
        try:
            out = real_admm(*args)
        finally:
            monkeypatch.setattr(sdp, "psd_project", real_project)
        runs.append((out[1], calls))
        return out

    monkeypatch.setattr(sdp, "_admm", counted_admm)
    solve()
    return runs


def full_rank_instance(dims, k, seed):
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(crand(rng, dims[0] * dims[1], k))[0]
    sub = Subspace(dims[0] * dims[1], basis)
    return sub, random_state(rng, dims[0]), random_state(rng, dims[1])


@pytest.mark.parametrize(
    "solver, dims, k, per_iteration",
    [
        # C, S1 and S2 are all 3x3: one stacked run.
        ("supported", (3, 3), 3, [(3, 3, 3)]),
        # C is 9x9, then both 3x3 slacks stacked.
        ("mu", (3, 3), 3, [(9, 9), (2, 3, 3)]),
        # C (6x6), S1 (2x2) and S2 (3x3) each alone.
        ("mu", (2, 3), 3, [(6, 6), (2, 2), (3, 3)]),
        # C (6x6) joins the run of the two 6x6 epigraph blocks.
        ("f_min", (3, 3), 6, [(3, 6, 6)]),
    ],
)
def test_admm_projects_each_shape_run_once_per_iteration(
    monkeypatch, solver, dims, k, per_iteration
):
    sub, r1, r2 = full_rank_instance(dims, k, seed=3)
    cfg = SolverConfig(max_iters=60)
    solve = {
        "supported": lambda: solve_supported_overlap(sub, r1, r2, cfg),
        "mu": lambda: solve_marginal_sdp(
            MarginalSdpProblem(BipartiteOperator(sub.projector.mat, *dims), r1, r2), cfg
        ),
        "f_min": lambda: solve_f_min_full(r1, r2, sub, cfg),
    }[solver]
    [(iterations, calls)] = admm_projection_counts(monkeypatch, solve)
    assert iterations > 0
    assert calls == per_iteration * iterations


def test_admm_returns_exactly_hermitian_iterates(monkeypatch):
    # psd_project reads only the lower triangle of its input, and the ADMM
    # input is Hermitian only up to round-off; the hermitized projection
    # keeps every iterate block exactly Hermitian, so that round-off cannot
    # build up in the iterates.
    returned = []

    def recording_admm(*args):
        out = _admm(*args)
        returned.extend(out[2])
        return out

    monkeypatch.setattr(sdp, "_admm", recording_admm)
    monkeypatch.setattr(fibers, "_admm", recording_admm)
    sub, r1, r2 = full_rank_instance((2, 3), 3, seed=4)
    cfg = SolverConfig(max_iters=200)
    solve_marginal_sdp(MarginalSdpProblem(BipartiteOperator(sub.projector.mat, 2, 3), r1, r2), cfg)
    solve_supported_overlap(sub, r1, r2, cfg)
    solve_f_min_full(r1, r2, sub, cfg)
    beta = hermitize(crand(np.random.default_rng(4), 6, 6))
    fiber = FiberSpec(r1, r2)
    _dist_solve(beta, fiber, cfg)
    fibers._sample_member(fiber, beta / np.linalg.norm(beta), cfg)
    assert len(returned) == 3 + 3 + 3 + 2 + 1
    for blk in returned:
        assert np.array_equal(blk, blk.conj().T)


def test_admm_returns_blocks_that_own_their_memory():
    # f_min's warm dict carries the returned blocks into the next ladder
    # level, so no block may alias another or the driver's next solve.
    rng = np.random.default_rng(5)
    targets = [hermitize(crand(rng, 3, 3)) for _ in range(3)]
    w0 = [np.zeros((3, 3), dtype=complex) for _ in targets]

    def solve():
        _, _, w, lam, _ = _admm(
            lambda w, lam, sigma: targets, w0,
            [np.zeros_like(b) for b in w0], 1.0, 30, lambda *args: None,
        )
        return w + lam

    first, second = solve(), solve()
    blocks = first + second
    for i, a in enumerate(blocks):
        assert a.flags.owndata
        for b in blocks[i + 1:]:
            assert not np.shares_memory(a, b)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


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
