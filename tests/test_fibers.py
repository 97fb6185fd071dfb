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

from qstrassen.bipartite import BipartiteOperator, partial_trace_1, partial_trace_2
from qstrassen.cli import generate_instance, problem_from_dict
from qstrassen.fibers import (
    FiberSpec,
    SemidistanceBound,
    _dist_solve,
    _project_marginal_affine,
    _sample_member,
    dist_to_fiber,
    glue_coupling,
    semidistance_lower_bound,
)
from qstrassen.linalg import hermitize, trace_norm
from qstrassen.sdp import DEFAULT_CONFIG, SolverConfig

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


def test_marginal_affine_projects_non_hermitian_input():
    # The ADMM multipliers carry anti-Hermitian round-off into the affine
    # step, so it must be an exact projection on any complex matrix.
    _, fiber = generated_fiber((2, 3), 0)
    r1, r2 = fiber.rho1.mat, fiber.rho2.mat
    rng = np.random.default_rng(3)
    k = crand(rng, 6, 6)
    gt = hermitize(crand(rng, 6, 6)) + 1e-3 * (k - k.conj().T) / 2
    p, _ = _project_marginal_affine(gt, r1, r2, 2, 3)
    assert np.max(np.abs(partial_trace_2(p, 2, 3) - r1)) <= 1e-12
    assert np.max(np.abs(partial_trace_1(p, 2, 3) - r2)) <= 1e-12
    q, _ = _project_marginal_affine(p, r1, r2, 2, 3)
    assert np.max(np.abs(q - p)) <= 1e-12


# Reference results on generated instances; the solver must reproduce the
# iterations and status exactly and the values to 1e-12:
# (dims, seed, max_iters) -> (upper, lower, iterations, status).
DIST_GOLDEN = {
    ((2, 3), 0, 50_000): (0.7491710966325283, 0.7491703971032349, 450, "optimal"),
    ((3, 3), 1, 50_000): (0.38259589446944536, 0.3825952428793211, 425, "optimal"),
    ((2, 2), 2, 50): (0.35533309455132633, 0.3553117234457819, 50, "max_iters"),
}


def test_dist_solve_reproduces_golden_values():
    for (dims, seed, max_iters), golden in DIST_GOLDEN.items():
        beta, fiber = generated_fiber(dims, seed)
        upper, lower, member, iterations, status = _dist_solve(
            beta, fiber, SolverConfig(max_iters=max_iters)
        )
        assert (iterations, status) == golden[2:]
        assert abs(upper - golden[0]) <= 1e-12
        assert abs(lower - golden[1]) <= 1e-12
        assert abs(trace_norm(beta - member) - upper) <= 1e-12


# Reference members sampled with the semidistance sampler's settings
# (gap_tol 1e-5) and its first objective: (dims, seed, max_iters) -> member.
SAMPLE_GOLDEN = {
    ((2, 2), 0, 4000): [
        [(0.21628442483413537+0j), (-0.041427302954226856+0.13862101262714094j),
         (-0.08817790875918317-0.11877540555242627j), (-0.2756474167058874-0.16205120471453774j)],
        [(-0.041427302954226856-0.13862101262714094j), (0.14173371045352998+0j),
         (-0.05139223036861258+0.09215140935741208j), (-0.02050773402979969+0.2512885187122663j)],
        [(-0.08817790875918317+0.11877540555242627j), (-0.05139223036861258-0.09215140935741208j),
         (0.10623929436051005+0j), (0.2191970511730727-0.08646276338303381j)],
        [(-0.2756474167058874+0.16205120471453774j), (-0.02050773402979969-0.2512885187122663j),
         (0.2191970511730727+0.08646276338303381j), (0.5357425703518246+0j)],
    ],
    ((2, 2), 1, 50): [
        [(0.2168178787544203+0j), (-0.10320870778546473+0.03731493657160807j),
         (-0.007354591464998386+0.0008002722599780093j), (-0.17986846927484576-0.19435783185521183j)],
        [(-0.10320870778546473-0.03731493657160807j), (0.0777459709107467+0j),
         (0.00676421184335402-0.08101108529729738j), (0.07497471616364193+0.12319241397943885j)],
        [(-0.007354591464998386-0.0008002722599780093j), (0.00676421184335402+0.08101108529729738j),
         (0.3519307022453967+0j), (0.014636303760318577+0.1076078732523785j)],
        [(-0.17986846927484576+0.19435783185521183j), (0.07497471616364193-0.12319241397943885j),
         (0.014636303760318577-0.1076078732523785j), (0.35350544808943624+0j)],
    ],
}


def test_sample_member_reproduces_golden_members():
    for (dims, seed, max_iters), golden in SAMPLE_GOLDEN.items():
        _, fiber = generated_fiber(dims, seed)
        rng = np.random.default_rng(7)
        objective = hermitize(crand(rng, 4, 4))
        objective /= np.linalg.norm(objective)
        cfg = SolverConfig(gap_tol=1e-5, max_iters=max_iters)
        member = _sample_member(fiber, objective, cfg)
        assert np.max(np.abs(member - np.array(golden))) <= 1e-12


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
