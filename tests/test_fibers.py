"""Unit tests for fiber distances, glue repair, and semidistance bounds.

The distance solver reports a certified bracket, so the tests check both
sides independently: the upper value must be attained by a returned member
whose marginals are exact, and the lower bound must stay below the distance
to every fiber point generated from explicit kernel directions of the
marginal map (an oracle that never touches the solver).
"""

from __future__ import annotations

import numpy as np
import pytest

import qstrassen.fibers as fibers
import qstrassen.sdp as sdp
from qstrassen.bipartite import BipartiteOperator, partial_trace_1, partial_trace_2
from qstrassen.cli import generate_instance, problem_from_dict
from qstrassen.fibers import (
    FiberSpec,
    SemidistanceBound,
    _dist_solve,
    _sample_member,
    dist_to_fiber,
    glue_coupling,
    semidistance_lower_bound,
)
from qstrassen.linalg import hermitize, trace_norm
from qstrassen.sdp import DEFAULT_CONFIG, SolverConfig, _overlap_on_support

from oracles import marginal_kernel_directions, marginal_map_real_matrix


def crand(rng, p, q):
    return rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))


def maximally_mixed_fiber(d=2) -> FiberSpec:
    return FiberSpec(np.eye(d) / d, np.eye(d) / d)


def bell_state() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# FiberSpec


def test_fiber_spec_validation():
    with pytest.raises(ValueError, match="not PSD"):
        FiberSpec(np.diag([1.5, -0.5]), np.eye(2) / 2)
    with pytest.raises(ValueError, match="Sigma membership violated"):
        FiberSpec(np.eye(2) / 2, np.eye(2) / 3)
    with pytest.raises(ValueError, match=r"magnitude guard 1e\+150"):
        FiberSpec(np.eye(2) * 1e300, np.eye(2) * 1e300)  # rho1 (x) rho2 would overflow
    fiber = maximally_mixed_fiber()
    assert fiber.d1 == 2 and fiber.d2 == 2
    with pytest.raises(AttributeError, match="immutable"):
        fiber.rho1 = None


def test_product_coupling_is_exact_member():
    rng = np.random.default_rng(0)
    g1 = crand(rng, 3, 3)
    g2 = crand(rng, 2, 2)
    r1 = g1 @ g1.conj().T
    r1 /= np.trace(r1).real
    r2 = g2 @ g2.conj().T
    r2 /= np.trace(r2).real
    fiber = FiberSpec(r1, r2)
    member = fiber.product_coupling()
    assert np.max(np.abs(partial_trace_2(member).mat - r1)) < 1e-12
    assert np.max(np.abs(partial_trace_1(member).mat - r2)) < 1e-12
    assert np.linalg.eigvalsh(member.mat).min() >= -1e-12


# ---------------------------------------------------------------------------
# glue repair


def test_glue_promotes_dominated_operator_to_member():
    fiber = maximally_mixed_fiber()
    half = BipartiteOperator(0.5 * bell_state(), 2, 2)
    glued = glue_coupling(half, fiber)
    assert np.max(np.abs(partial_trace_2(glued).mat - np.eye(2) / 2)) < 1e-9
    assert np.max(np.abs(partial_trace_1(glued).mat - np.eye(2) / 2)) < 1e-9
    assert np.linalg.eigvalsh(glued.mat).min() >= -1e-12


def test_glue_returns_members_unchanged():
    fiber = maximally_mixed_fiber()
    member = BipartiteOperator(bell_state(), 2, 2)
    assert glue_coupling(member, fiber) is member


def test_glue_rejects_undominated_input():
    fiber = maximally_mixed_fiber()
    too_big = BipartiteOperator(np.diag([0.9, 0, 0, 0]).astype(complex), 2, 2)
    with pytest.raises(ValueError, match="deficit is not PSD"):
        glue_coupling(too_big, fiber)


def test_glue_rejects_dim_mismatch():
    fiber = FiberSpec(np.eye(3) / 3, np.eye(2) / 2)
    with pytest.raises(ValueError, match="do not match the fiber"):
        glue_coupling(BipartiteOperator(np.zeros((4, 4)), 2, 2), fiber)


# ---------------------------------------------------------------------------
# distance to a fiber


def test_dist_vanishes_for_members():
    fiber = maximally_mixed_fiber()
    dist, member = dist_to_fiber(bell_state(), fiber)
    assert dist <= 1e-6
    assert np.max(np.abs(partial_trace_2(member).mat - np.eye(2) / 2)) < 1e-9


def test_dist_from_zero_is_fiber_trace():
    # every member is PSD with trace tr rho1, so ||0 - gamma||_1 = tr rho1
    fiber = maximally_mixed_fiber()
    dist, _ = dist_to_fiber(np.zeros((4, 4), dtype=complex), fiber)
    assert abs(dist - 1.0) <= 1e-6


def test_dist_for_scaled_member_is_exact():
    # beta = (1 + t) sigma: the trace gap t alone forces the whole distance
    fiber = maximally_mixed_fiber()
    t = 0.5
    beta = (1 + t) * np.kron(np.eye(2) / 2, np.eye(2) / 2)
    dist, _ = dist_to_fiber(beta, fiber)
    assert abs(dist - t) <= 1e-5


def test_dist_upper_is_attained_and_member_is_exact():
    rng = np.random.default_rng(1)
    fiber = maximally_mixed_fiber()
    beta = hermitize(crand(rng, 4, 4))
    dist, member = dist_to_fiber(beta, fiber)
    assert abs(dist - trace_norm(beta - member.mat)) < 1e-10
    assert np.max(np.abs(partial_trace_2(member).mat - np.eye(2) / 2)) < 1e-9
    assert np.max(np.abs(partial_trace_1(member).mat - np.eye(2) / 2)) < 1e-9
    assert np.linalg.eigvalsh(member.mat).min() >= -1e-10


def test_dist_lower_bound_holds_against_kernel_grid_oracle():
    # the marginal map on 2 (x) 2 has a 9-dimensional kernel; members are the
    # product point plus kernel directions, intersected with the PSD cone
    nullity = 16 - np.linalg.matrix_rank(marginal_map_real_matrix(2, 2))
    assert nullity == 9
    fiber = maximally_mixed_fiber()
    rng = np.random.default_rng(2)
    beta = hermitize(crand(rng, 4, 4))
    upper, lower, _, _, status = _dist_solve(beta, fiber, DEFAULT_CONFIG)
    assert status == "optimal"
    assert lower <= upper
    base = np.kron(np.eye(2) / 2, np.eye(2) / 2)
    dirs = marginal_kernel_directions(2, 2, 40, seed=3)
    tested = 0
    for k in dirs:
        for scale in (0.05, 0.15):
            gamma = base + scale * k
            if np.linalg.eigvalsh(hermitize(gamma)).min() < 0:
                continue
            tested += 1
            # oracle member: marginals must be exact by construction
            assert np.max(np.abs(partial_trace_2(gamma, 2, 2) - np.eye(2) / 2)) < 1e-10
            assert trace_norm(beta - gamma) >= lower - 1e-8
    assert tested >= 20


def test_dist_to_the_zero_fiber_is_the_trace_norm():
    # Zero marginals leave 0 the only member and nothing to solve.
    fiber = FiberSpec(np.zeros((2, 2)), np.zeros((2, 2)))
    beta = np.diag([1.0, -0.5, 0.2, 0.0])
    upper, lower, member, steps, status = _dist_solve(beta, fiber, DEFAULT_CONFIG)
    assert (upper, lower, steps, status) == (1.7, 1.7, 0, "optimal")
    assert not member.any()


def test_dist_is_lipschitz_in_beta():
    fiber = maximally_mixed_fiber()
    rng = np.random.default_rng(4)
    for _ in range(3):
        b1 = hermitize(crand(rng, 4, 4))
        b2 = b1 + 0.1 * hermitize(crand(rng, 4, 4))
        d1_val, _ = dist_to_fiber(b1, fiber)
        d2_val, _ = dist_to_fiber(b2, fiber)
        assert abs(d1_val - d2_val) <= trace_norm(b1 - b2) + 1e-8


def test_dist_input_validation():
    fiber = maximally_mixed_fiber()
    with pytest.raises(ValueError, match="does not match"):
        dist_to_fiber(np.zeros((6, 6)), fiber)
    with pytest.raises(ValueError, match="do not match the fiber"):
        dist_to_fiber(BipartiteOperator(np.zeros((6, 6)), 2, 3), fiber)


def test_dist_accepts_wrapped_input():
    fiber = maximally_mixed_fiber()
    beta = BipartiteOperator(bell_state(), 2, 2)
    dist, _ = dist_to_fiber(beta, fiber)
    assert dist <= 1e-6


def generated_fiber(dims, seed):
    p = problem_from_dict(
        generate_instance({"kind": "fiber_dist", "dims": dims, "seed": seed})
    )
    return p.beta, FiberSpec(p.rho1, p.rho2)


# Reference results on generated instances; the solver must reproduce the
# steps and status exactly and the values to 1e-12:
# (dims, seed, max_iters) -> (upper, lower, steps, status). Each of the first
# three brackets meets the one the ADMM solver recorded here before,
# [0.7491703971, 0.7491710966], [0.3825952429, 0.3825958945] and (at 50
# iterations) [0.3553117234, 0.3553330946], the one recorded under the
# centering threshold 1/4 (24, 23 and 10 steps) and the one under the full
# boundary step (20, 19 and 10 steps). The 2x2 fiber's marginal floor is its
# distance, so its bracket closes at the budget of 10 (it ran out there when
# the bracket opened at 0); the budget of 10 stops the 3x3 solve before it
# closes (17 steps).
DIST_GOLDEN = {
    ((2, 3), 0, 50_000): (0.7491711986503651, 0.7491706918224025, 15, "optimal"),
    ((3, 3), 1, 50_000): (0.3825958139037302, 0.38259533840615134, 17, "optimal"),
    ((2, 2), 2, 10): (0.35533310762602827, 0.35533309455132656, 10, "optimal"),
    ((3, 3), 1, 10): (0.3826355584627411, 0.38233896004260237, 10, "max_iters"),
}


def test_dist_solve_reproduces_golden_values():
    for (dims, seed, max_iters), golden in DIST_GOLDEN.items():
        beta, fiber = generated_fiber(dims, seed)
        upper, lower, member, steps, status = _dist_solve(
            beta, fiber, SolverConfig(max_iters=max_iters)
        )
        assert (steps, status) == golden[2:]
        assert abs(upper - golden[0]) <= 1e-12
        assert abs(lower - golden[1]) <= 1e-12
        assert abs(trace_norm(beta - member) - upper) <= 1e-12


def assert_exact_member(member, fiber):
    d1, d2 = fiber.d1, fiber.d2
    assert np.max(np.abs(partial_trace_2(member, d1, d2) - fiber.rho1.mat)) <= 1e-12
    assert np.max(np.abs(partial_trace_1(member, d1, d2) - fiber.rho2.mat)) <= 1e-12
    assert np.linalg.eigvalsh(member).min() >= -1e-12


def test_dist_solve_shares_the_core_stall_guard(monkeypatch):
    # One path driver reads the stall guard for every barrier: a centering
    # allowed a single Newton step never completes, in the distance too.
    monkeypatch.setattr(sdp, "_CENTER_STEPS", 1)
    beta, fiber = generated_fiber((2, 3), 0)
    upper, lower, member, steps, status = _dist_solve(beta, fiber, DEFAULT_CONFIG)
    assert (status, steps) == ("infeasible_numerics", 1)
    assert 0.0 <= lower <= upper
    assert_exact_member(member, fiber)


# <O, member> of members sampled with the semidistance sampler's settings
# (gap_tol 1e-5) and its first objective O: (dims, seed, max_iters) -> value.
# Members that maximize <O, gamma> are not unique, so the values are the
# reference, not the entries. ADMM's members gave 0.4217484115 and (at 50
# iterations) 0.3788628961; under the centering threshold 1/4 they gave
# 0.4217485885 and 0.3823710826, under the full boundary step 0.4217485890
# and 0.3823710827.
SAMPLE_GOLDEN = {
    ((2, 2), 0, 50_000): 0.42174858870178655,
    ((2, 2), 1, 10): 0.3823898027753697,
}


def test_sample_member_reproduces_golden_members():
    for (dims, seed, max_iters), golden in SAMPLE_GOLDEN.items():
        _, fiber = generated_fiber(dims, seed)
        rng = np.random.default_rng(7)
        objective = hermitize(crand(rng, 4, 4))
        objective /= np.linalg.norm(objective)
        cfg = SolverConfig(gap_tol=1e-5, max_iters=max_iters)
        member = _sample_member(fiber, objective, cfg)
        assert_exact_member(member, fiber)
        assert abs(np.vdot(objective, member).real - golden) <= 1e-12


def random_state(rng, d, rank):
    a = crand(rng, d, rank)
    r = a @ a.conj().T
    return r / np.trace(r).real


SINGULAR = [((3, 2), (1, 2)), ((3, 3), (2, 2)), ((3, 3), (2, 3)), ((2, 2), (1, 1))]


def singular_fiber(dims, ranks):
    """(beta, fiber) with marginals of the given ranks, drawn from seed 0."""
    rng = np.random.default_rng(0)
    fiber = FiberSpec(*(random_state(rng, d, k) for d, k in zip(dims, ranks)))
    n = dims[0] * dims[1]
    return hermitize(crand(rng, n, n)) / n, fiber


@pytest.mark.parametrize("dims, ranks", SINGULAR)
def test_dist_solve_closes_on_singular_marginals(dims, ranks):
    # The fiber lives on supp rho1 (x) supp rho2, so the barrier's S block
    # is compressed there and the dual lifted back; ADMM ran these to
    # 50,000 iterations with gaps of 5e-4 to 0.17.
    beta, fiber = singular_fiber(dims, ranks)
    upper, lower, member, steps, status = _dist_solve(beta, fiber, DEFAULT_CONFIG)
    assert status == "optimal" and steps <= 30
    assert 0.0 <= upper - lower <= DEFAULT_CONFIG.gap_tol
    assert abs(trace_norm(beta - member) - upper) <= 1e-12
    assert_exact_member(member, fiber)


def test_sample_member_on_a_singular_fiber_maximizes_the_objective():
    # On a rank-2 fiber the sampled member attains the certified optimum of
    # max <O, gamma> to within the sampler's gap_tol: the overlap core's
    # dual bound of max <B, C> caps it.
    rng = np.random.default_rng(1)
    fiber = FiberSpec(random_state(rng, 3, 2), random_state(rng, 3, 2))
    objective = hermitize(crand(rng, 9, 9))
    objective /= np.linalg.norm(objective)
    cfg = SolverConfig(gap_tol=1e-5)
    member = _sample_member(fiber, objective, cfg)
    assert_exact_member(member, fiber)
    b = (objective + np.eye(9)) / 1.01
    top = _overlap_on_support(b, fiber.rho1.mat, fiber.rho2.mat, None, cfg)
    ceiling = 1.01 * top.dual - 1.0  # <O, gamma> = 1.01 <B, gamma> - tr gamma
    assert top.status == "optimal"
    assert ceiling - 2e-5 <= np.vdot(objective, member).real <= ceiling + 1e-9


# ---------------------------------------------------------------------------
# deferred certificates and the start bracket


def certifying_every_point(monkeypatch, run):
    """``run()`` with the fiber distance's driver certifying every centered point.

    ``_dist_solve`` passes ``defer`` as the driver's ninth positional
    argument; the wrapper drops it, which restores certifying at each
    centering.
    """
    real = fibers._barrier_path
    with monkeypatch.context() as m:
        m.setattr(fibers, "_barrier_path", lambda *args: real(*args[:8]))
        return run()


def counting_repairs(monkeypatch, run):
    """(``run()``, the number of ``_repair_to_member`` calls it made)."""
    calls = []
    real = fibers._repair_to_member

    def counted(*args):
        calls.append(1)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(fibers, "_repair_to_member", counted)
        return run(), len(calls)


def near_singular_fiber(eps, seed):
    """(beta, fiber) on 3x2 with rho1 = Q diag(0.6, 0.4 - eps, eps) Q^*."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(crand(rng, 3, 3))
    rho1 = hermitize(q @ np.diag([0.6, 0.4 - eps, eps]) @ q.conj().T)
    fiber = FiberSpec(rho1, random_state(rng, 2, 2))
    return hermitize(crand(rng, 6, 6)) / 6, fiber


def off_fiber_cases():
    """(label, beta, fiber, cfg) whose distance exceeds the default gap_tol."""
    cases = []

    def add(label, case, cfg=DEFAULT_CONFIG):
        cases.append((label, *case, cfg))

    for dims, seed, max_iters in DIST_GOLDEN:
        label = ("golden", dims, seed, max_iters)
        add(label, generated_fiber(dims, seed), SolverConfig(max_iters=max_iters))
    for dims in ((2, 2), (2, 3), (3, 3), (3, 4)):
        for seed in range(5):
            add(("generated", dims, seed), generated_fiber(dims, seed))
    for dims, ranks in SINGULAR:
        add(("singular", dims, ranks), singular_fiber(dims, ranks))
    for dims, seed in (((2, 2), 2), ((2, 3), 0)):
        case = generated_fiber(dims, seed)
        for budget in range(1, 31):
            add(("budget", dims, budget), case, SolverConfig(max_iters=budget))
    for eps in (1e-9, 3e-9, 1e-8, 2e-8, 3e-8, 1e-7):
        for seed in (0, 1):
            add(("near-singular", eps, seed), near_singular_fiber(eps, seed))
    return cases


def marginal_floor(beta, fiber):
    """max(||tr_2 beta - rho1||_1, ||tr_1 beta - rho2||_1), computed as ``_dist_solve`` does."""
    d1, d2 = fiber.d1, fiber.d2
    return max(
        trace_norm(partial_trace_2(beta, d1, d2) - fiber.rho1.mat),
        trace_norm(partial_trace_1(beta, d1, d2) - fiber.rho2.mat),
    )


def test_deferred_dist_solve_matches_certifying_every_point(monkeypatch):
    # Against the barrier's own lower bound only the last centered point of
    # a closing path can close the bracket, so certifying it alone leaves
    # those results as they were; paths that end without a stop (budgets,
    # the near-singular fibers' breakdowns) certify their kept points and
    # keep every bracket too. Where the marginal floor is the distance (the
    # 2x2 seed-2 fiber, 10 more generated fibers and 23 of that fiber's
    # budgets), an earlier centered point's member already meets the floor:
    # the reference closes there, sooner, at the same lower bound.
    cases = off_fiber_cases()

    def solve_all():
        return [_dist_solve(beta, fiber, cfg) for _, beta, fiber, cfg in cases]

    got = solve_all()
    want = certifying_every_point(monkeypatch, solve_all)
    statuses = {w[4] for w in want}
    assert statuses == {"optimal", "max_iters", "infeasible_numerics"}
    sooner = []
    for (label, beta, fiber, _), g, w in zip(cases, got, want):
        assert w[0] > DEFAULT_CONFIG.gap_tol, label
        if (g[0], g[1], g[3], g[4]) == (w[0], w[1], w[3], w[4]) and np.array_equal(g[2], w[2]):
            continue
        sooner.append(label)
        assert g[1] == w[1] == marginal_floor(beta, fiber), label
        assert g[4] == w[4] == "optimal" and w[3] < g[3], label
        assert_exact_member(g[2], fiber)
    assert len(sooner) == 34


def test_deferred_dist_from_zero_matches_up_to_rounding(monkeypatch):
    # Every member gamma has ||0 - gamma||_1 = tr rho1, so the upper bound
    # is that trace, rounded; which certified point supplies the member
    # sets its last bits. The lower bound, steps and status are the same.
    for dims in ((2, 2), (2, 3), (3, 3)):
        for seed in range(5):
            _, fiber = generated_fiber(dims, seed)
            zero = np.zeros((fiber.d1 * fiber.d2,) * 2, dtype=complex)
            got = _dist_solve(zero, fiber, DEFAULT_CONFIG)
            want = certifying_every_point(
                monkeypatch, lambda: _dist_solve(zero, fiber, DEFAULT_CONFIG)
            )
            assert (got[1], got[3], got[4]) == (want[1], want[3], want[4]), (dims, seed)
            assert abs(got[0] - want[0]) <= 1e-14
            assert_exact_member(got[2], fiber)


def test_closing_dist_solve_repairs_at_the_start_and_the_closing_point(monkeypatch):
    # The product member and the last centered point are repaired; the
    # reference, which closes after the same 15 steps, repairs every one of
    # the path's four centered points.
    beta, fiber = generated_fiber((2, 3), 0)

    def solve():
        return _dist_solve(beta, fiber, DEFAULT_CONFIG)

    (_, _, _, steps, status), repairs = counting_repairs(monkeypatch, solve)
    _, every = counting_repairs(monkeypatch, lambda: certifying_every_point(monkeypatch, solve))
    assert (steps, status, repairs, every) == (15, "optimal", 2, 5)


def in_fiber_betas():
    """(label, beta, fiber) with beta a member of the fiber."""
    rng = np.random.default_rng(5)
    _, fiber = generated_fiber((2, 3), 1)
    state = random_state(rng, 6, 6)
    ginibre = FiberSpec(partial_trace_2(state, 2, 3), partial_trace_1(state, 2, 3))
    objective = hermitize(crand(rng, 6, 6))
    sampled = _sample_member(fiber, objective / np.linalg.norm(objective), DEFAULT_CONFIG)
    _, singular = singular_fiber(*SINGULAR[0])
    return [
        ("product", fiber.product_coupling().mat, fiber),
        ("ginibre", state, ginibre),
        ("sampled", sampled, fiber),
        ("singular product", singular.product_coupling().mat, singular),
    ]


def test_in_fiber_betas_close_before_the_first_newton_step(monkeypatch):
    # A member's marginal floor is 0 up to rounding, so its own repair runs
    # next to the product member's and closes [floor, upper] at once.
    for label, beta, fiber in in_fiber_betas():
        (upper, lower, member, steps, status), repairs = counting_repairs(
            monkeypatch, lambda: _dist_solve(beta, fiber, DEFAULT_CONFIG)
        )
        floor = min(marginal_floor(beta, fiber), upper)
        assert (steps, status, lower, repairs) == (0, "optimal", floor, 2), label
        assert upper <= DEFAULT_CONFIG.gap_tol, label
        assert abs(trace_norm(beta - member) - upper) <= 1e-15, label
        assert_exact_member(member, fiber)


def test_non_psd_beta_on_the_fiber_marginals_runs_the_path(monkeypatch):
    # beta = P + c sx (x) sx has the fiber's marginals exactly (sx is
    # traceless) but is not PSD: the floor admits it, its repair lands 0.38
    # away, and the path closes the bracket around the reference's.
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    fiber = FiberSpec(np.diag([0.6, 0.4]), np.diag([0.7, 0.3]))
    beta = fiber.product_coupling().mat + 0.3 * np.kron(sx, sx)
    assert np.linalg.eigvalsh(beta)[0] < -0.07
    assert np.allclose(partial_trace_2(beta, 2, 2), fiber.rho1.mat, rtol=0, atol=1e-15)
    assert np.allclose(partial_trace_1(beta, 2, 2), fiber.rho2.mat, rtol=0, atol=1e-15)
    scale = sdp._support_scaler(fiber.rho1.mat, fiber.rho2.mat)
    own = fibers._repair_to_member(beta, fiber, scale)
    assert trace_norm(beta - own) > 0.3
    upper, lower, member, steps, status = _dist_solve(beta, fiber, DEFAULT_CONFIG)
    want = certifying_every_point(monkeypatch, lambda: _dist_solve(beta, fiber, DEFAULT_CONFIG))
    assert status == want[4] == "optimal" and steps > 0
    assert lower <= want[1] <= want[0] <= upper <= lower + DEFAULT_CONFIG.gap_tol
    assert_exact_member(member, fiber)


def beta_off_the_fiber(size):
    """(beta, fiber): a 2x3 beta ``size`` (in trace norm) off its product member."""
    _, fiber = generated_fiber((2, 3), 1)
    h = hermitize(crand(np.random.default_rng(1), 6, 6))
    return fiber.product_coupling().mat + size * h / trace_norm(h), fiber


def test_marginal_floor_closes_a_beta_just_off_the_fiber_at_the_start(monkeypatch):
    # 1.5e-6 off, the floor 6.9e-7 is within gap_tol, so beta's own repair
    # runs; it lands 1.04e-6 away, which does not close [0, upper], but it
    # closes [floor, upper] before the first Newton step.
    beta, fiber = beta_off_the_fiber(1.5e-6)
    (upper, lower, member, steps, status), repairs = counting_repairs(
        monkeypatch, lambda: _dist_solve(beta, fiber, DEFAULT_CONFIG)
    )
    assert (steps, status, lower, repairs) == (0, "optimal", marginal_floor(beta, fiber), 2)
    assert DEFAULT_CONFIG.gap_tol < upper <= lower + DEFAULT_CONFIG.gap_tol
    assert abs(trace_norm(beta - member) - upper) <= 1e-15
    assert_exact_member(member, fiber)


def test_beta_just_off_the_fiber_takes_the_full_path(monkeypatch):
    # 3e-6 off, the floor 1.4e-6 exceeds gap_tol and is the distance.
    # Certifying every point closed the bracket at 6 steps, through an early
    # member that meets the floor; the deferred path runs to its last
    # centering, 14 steps, and closes there.
    beta, fiber = beta_off_the_fiber(3e-6)
    upper, lower, member, steps, status = _dist_solve(beta, fiber, DEFAULT_CONFIG)
    want = certifying_every_point(monkeypatch, lambda: _dist_solve(beta, fiber, DEFAULT_CONFIG))
    assert (status, steps, want[4], want[3]) == ("optimal", 14, "optimal", 6)
    assert lower == want[1] == marginal_floor(beta, fiber) > DEFAULT_CONFIG.gap_tol
    assert upper <= lower + DEFAULT_CONFIG.gap_tol
    assert abs(trace_norm(beta - member) - upper) <= 1e-15
    assert_exact_member(member, fiber)


# ---------------------------------------------------------------------------
# semidistance lower bound


def point_fiber(i: int) -> FiberSpec:
    e = np.zeros((2, 2), dtype=complex)
    e[i, i] = 1.0
    return FiberSpec(e, e)


def test_semidistance_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="different dims"):
        semidistance_lower_bound(
            maximally_mixed_fiber(2), FiberSpec(np.eye(3) / 3, np.eye(3) / 3), samples=0
        )


def test_semidistance_rejects_negative_sample_count():
    fiber = maximally_mixed_fiber(2)
    with pytest.raises(ValueError, match="samples must be at least 0, got -3"):
        semidistance_lower_bound(fiber, fiber, samples=-3)


def test_semidistance_floor_between_point_fibers():
    # both fibers are single points with orthogonal marginals: the floor is
    # already the exact semidistance || e00 - e11 ||_1 = 2
    rep = semidistance_lower_bound(point_fiber(0), point_fiber(1), samples=2)
    assert isinstance(rep, SemidistanceBound)
    assert abs(rep.marginal_floor - 2.0) < 1e-12
    assert rep.bound >= 2.0 - 1e-9
    assert rep.bound <= 2.0 + 1e-6
    assert float(rep) == rep.bound


def test_semidistance_same_fiber_is_zero():
    rep = semidistance_lower_bound(maximally_mixed_fiber(), maximally_mixed_fiber(), samples=2)
    assert rep.marginal_floor == 0.0
    assert 0.0 <= rep.bound <= 1e-5


def test_semidistance_samples_beat_the_floor():
    # fiber A contains the maximally entangled member at trace distance
    # sqrt(2) from the point fiber at e00, while the floor is only 1; loose
    # solver settings still certify, only with a wider bracket
    cfg = SolverConfig(gap_tol=1e-3, max_iters=3000)
    rep = semidistance_lower_bound(maximally_mixed_fiber(), point_fiber(0), samples=4, cfg=cfg)
    assert abs(rep.marginal_floor - 1.0) < 1e-12
    assert rep.bound > rep.marginal_floor + 0.05
    assert len(rep.sample_bounds) == 4
    assert rep.samples == 4


def test_semidistance_monotone_in_samples():
    a = maximally_mixed_fiber()
    b = point_fiber(0)
    cfg = SolverConfig(gap_tol=1e-3, max_iters=3000)
    few = semidistance_lower_bound(a, b, samples=2, cfg=cfg)
    more = semidistance_lower_bound(a, b, samples=4, cfg=cfg)
    assert more.bound >= few.bound - 1e-12
