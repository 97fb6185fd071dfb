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
# (dims, seed, max_iters) -> (upper, lower, steps, status). Each bracket
# meets the one the ADMM solver recorded here before, [0.7491703971,
# 0.7491710966], [0.3825952429, 0.3825958945] and (at 50 iterations)
# [0.3553117234, 0.3553330946], and the one recorded under the centering
# threshold 1/4 (24, 23 and 10 steps).
DIST_GOLDEN = {
    ((2, 3), 0, 50_000): (0.7491711986499341, 0.749170747726335, 20, "optimal"),
    ((3, 3), 1, 50_000): (0.382595813901266, 0.3825953625998959, 19, "optimal"),
    ((2, 2), 2, 10): (0.35533309500856053, 0.3549450235476565, 10, "max_iters"),
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
# 0.4217485885 and 0.3823710826.
SAMPLE_GOLDEN = {
    ((2, 2), 0, 50_000): 0.4217485890048517,
    ((2, 2), 1, 10): 0.38237108268134373,
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


@pytest.mark.parametrize(
    "dims, ranks", [((3, 2), (1, 2)), ((3, 3), (2, 2)), ((3, 3), (2, 3)), ((2, 2), (1, 1))]
)
def test_dist_solve_closes_on_singular_marginals(dims, ranks):
    # The fiber lives on supp rho1 (x) supp rho2, so the barrier's S block
    # is compressed there and the dual lifted back; ADMM ran these to
    # 50,000 iterations with gaps of 5e-4 to 0.17.
    rng = np.random.default_rng(0)
    fiber = FiberSpec(*(random_state(rng, d, k) for d, k in zip(dims, ranks)))
    n = dims[0] * dims[1]
    beta = hermitize(crand(rng, n, n)) / n
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
