"""Unit tests for the decision layer: mu, coupling verdicts, ladders, max-flow.

The classical max-flow decision is cross-checked against an exhaustive
Hall-condition oracle; the quantum decisions against constructed instances
whose feasibility is known by design.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from qstrassen.bipartite import (
    DensityOperator,
    Subspace,
    partial_trace_1,
    partial_trace_2,
)
from qstrassen import sdp, strassen
from qstrassen.cli import CliError, generate_instance, mat_to_pairs, problem_from_dict
from qstrassen.fibers import FiberSpec
from qstrassen.linalg import HermitianOperator, trace_norm
from qstrassen.sdp import SolverConfig, verify_duality_certificates
from qstrassen.strassen import (
    ClassicalInstance,
    _decide,
    classical_quantum_consistency,
    classical_strassen,
    f_ladder,
    has_coupling,
    mu,
    sdp_ladder,
)

from oracles import hall_feasible

CFG = SolverConfig()


def crand(rng, p, q):
    return rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))


def random_state(rng, dim, rank):
    g = crand(rng, dim, rank)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def bell_subspace() -> Subspace:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return Subspace(4, v.reshape(4, 1))


def corner_subspace() -> Subspace:
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    return Subspace(4, v.reshape(4, 1))


def coupled_instance(rng, d, rank):
    """A state, its two marginals, and its support subspace (feasible by design)."""
    rho = random_state(rng, d * d, rank)
    w, v = np.linalg.eigh(rho)
    basis = v[:, w > 1e-12 * w[-1]]
    r1 = partial_trace_2(rho, d, d)
    r2 = partial_trace_1(rho, d, d)
    return r1, r2, Subspace(d * d, basis)


# ---------------------------------------------------------------------------
# mu


def test_mu_reaches_one_on_maximally_entangled():
    value, sol = mu(np.eye(2) / 2, np.eye(2) / 2, bell_subspace())
    assert value >= 1.0 - 1e-4
    assert sol.status == "optimal"


def test_mu_corner_value_is_min_of_weights():
    a, b = 0.3, 0.55
    value, _ = mu(np.diag([a, 1 - a]), np.diag([b, 1 - b]), corner_subspace())
    assert abs(value - min(a, b)) < 1e-5


def test_mu_handles_singular_marginals_by_support_restriction():
    r1 = np.diag([1.0, 0.0]).astype(complex)
    r2 = np.diag([1.0, 0.0]).astype(complex)
    value, sol = mu(r1, r2, corner_subspace())
    assert value >= 1.0 - 1e-4
    # the lifted optimizer still lives in the original ambient space
    assert sol.X.d1 == 2 and sol.X.d2 == 2


def test_mu_dual_pair_certifies_the_full_program_with_singular_marginal():
    # rank-2 rho1 on C^3, full-rank rho2, a random 4-dim subspace of C^9: the
    # solve runs on supp rho1 (x) C^3 and its dual pair is lifted back
    rng = np.random.default_rng(0)
    r1 = random_state(rng, 3, 2)
    r2 = random_state(rng, 3, 3)
    q, _ = np.linalg.qr(crand(rng, 9, 4))
    sub = Subspace(9, q)
    value, sol = mu(r1, r2, sub)
    assert sol.status == "optimal"
    assert sol.gap <= CFG.gap_tol
    assert sol.value <= value <= sol.dual
    rep = verify_duality_certificates(sub, r1, r2, sol)
    assert rep.passed
    assert rep.dual_feasibility_margin >= -1e-9
    y1, y2 = sol.Y[0].mat, sol.Y[1].mat
    dual = float(np.vdot(r1, y1).real + np.vdot(r2, y2).real)
    assert abs(dual - sol.dual) <= 1e-9
    # the returned X attains the value in the original program
    x = sol.X.mat
    assert abs(float(np.vdot(sub.projector.mat, x).real) - value) <= 1e-9
    assert np.linalg.eigvalsh(r1 - partial_trace_2(x, 3, 3)).min() >= -1e-9
    assert np.linalg.eigvalsh(r2 - partial_trace_1(x, 3, 3)).min() >= -1e-9


def test_mu_zero_when_subspace_misses_support():
    v = np.zeros(4, dtype=complex)
    v[3] = 1.0  # e1 (x) e1
    sub = Subspace(4, v.reshape(4, 1))
    value, sol = mu(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), sub)
    assert value == 0.0
    assert sol.status == "optimal"
    assert sol.iterations == 0


def singular_instance():
    """A state on span(e0, e1) (x) C^3, so rho1 has rank 2, and a random 4-dim subspace."""
    rng = np.random.default_rng(3)
    rho = np.zeros((3, 3, 3, 3), dtype=complex)
    rho[:2, :, :2, :] = random_state(rng, 6, 6).reshape(2, 3, 2, 3)
    rho = rho.reshape(9, 9)
    q, _ = np.linalg.qr(crand(rng, 9, 4))
    return partial_trace_2(rho, 3, 3), partial_trace_1(rho, 3, 3), Subspace(9, q)


def test_marginal_sdp_certifies_singular_marginal_like_mu():
    # solve_marginal_sdp itself compresses to the support product, so a
    # direct solve (as sdp_ladder makes) is as certified as mu
    r1, r2, sub = singular_instance()
    assert np.linalg.matrix_rank(r1, tol=1e-12) == 2
    sol = sdp.solve_marginal_sdp(sub, r1, r2, SolverConfig(max_iters=20_000))
    assert sol.status == "optimal"
    assert sol.gap <= CFG.gap_tol
    assert verify_duality_certificates(sub, r1, r2, sol).passed
    value, _ = mu(r1, r2, sub)
    assert abs(sol.value - value) <= CFG.gap_tol


def test_sdp_ladder_top_level_optimal_with_singular_marginal():
    r1, r2, sub = singular_instance()
    rep = sdp_ladder(
        DensityOperator(r1), DensityOperator(r2), sub, 3, SolverConfig(max_iters=5000)
    )
    top = rep.levels[-1]
    assert top.level == (3, 3)
    assert top.status == "optimal"
    assert top.gap <= CFG.gap_tol


def test_supported_solve_optimal_with_singular_marginal():
    # The subspace leaks onto ker rho1 (x) C^3, where no dominated operator
    # lives; solved on the support product, the bracket closes.
    r1, r2, sub = singular_instance()
    sol = sdp.solve_supported_overlap(sub, r1, r2, CFG)
    assert sol.status == "optimal"
    assert sol.gap <= CFG.gap_tol


def singular_supported_cases():
    """Random 2x4 and 3x3 instances with singular marginals, the subspace leaking out of S.

    rho is a rank-3 state on span(e1, ..) (x) C^d2, so rho1 has rank d1 - 1
    (and on 2x4 rho2 has rank 3). The subspace is range rho (feasible) or a
    random 2-dim subspace of S = supp rho1 (x) supp rho2, plus two random
    vectors that leak out of S.
    """
    for d1, d2 in ((2, 4), (3, 3)):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            rho = np.zeros((d1, d2, d1, d2), dtype=complex)
            block = random_state(rng, (d1 - 1) * d2, 3)
            rho[1:, :, 1:, :] = block.reshape(d1 - 1, d2, d1 - 1, d2)
            rho = rho.reshape(d1 * d2, d1 * d2)
            r1, r2 = partial_trace_2(rho, d1, d2), partial_trace_1(rho, d1, d2)
            if seed % 2:
                w, v = np.linalg.eigh(rho)
                inside = v[:, w > 1e-12 * w[-1]]
            else:
                w1, u1 = np.linalg.eigh(r1)
                w2, u2 = np.linalg.eigh(r2)
                s = np.kron(u1[:, w1 > 1e-12], u2[:, w2 > 1e-12])
                inside = s @ crand(rng, s.shape[1], 2)
            q, _ = np.linalg.qr(np.hstack([inside, crand(rng, d1 * d2, 2)]))
            yield r1, r2, Subspace(d1 * d2, q)


def assert_certified_bracket(sol, sub, r1, r2, cfg):
    """The supported solve's pair is dual feasible on the original program and attains its dual."""
    d1, d2 = len(r1), len(r2)
    y1, y2 = sol.Y[0].mat, sol.Y[1].mat
    assert min(np.linalg.eigvalsh(y1)[0], np.linalg.eigvalsh(y2)[0]) >= -1e-7
    v = sub.basis
    adjoint = v.conj().T @ (np.kron(y1, np.eye(d2)) + np.kron(np.eye(d1), y2)) @ v
    assert np.linalg.eigvalsh(adjoint - np.eye(sub.dim))[0] >= -1e-7
    assert abs(np.vdot(r1, y1).real + np.vdot(r2, y2).real - sol.dual) <= 1e-9
    assert sol.dual >= sol.value - 1e-9
    assert sol.status != "optimal" or sol.gap <= cfg.gap_tol


def test_supported_dual_pair_certifies_original_program_with_singular_marginal():
    refuted = 0
    for r1, r2, sub in singular_supported_cases():
        sol = sdp.solve_supported_overlap(sub, r1, r2, CFG)
        assert sol.status == "optimal"
        assert_certified_bracket(sol, sub, r1, r2, CFG)
        refuted += sol.dual < 1.0 - CFG.eps_decision
    assert 0 < refuted < 12


def test_supported_lift_rereads_status_from_the_lifted_bracket():
    # At a loose gap_tol the complement shift is small, and for a subspace
    # the identity repair after it can cost more than the half of gap_tol
    # the compressed solve leaves; the lifted bracket, not the compressed
    # one, must then set the status.
    loose = SolverConfig(gap_tol=0.03, max_iters=3000)
    for r1, r2, sub in singular_supported_cases():
        assert_certified_bracket(sdp.solve_supported_overlap(sub, r1, r2, loose), sub, r1, r2, loose)


def test_supported_tiny_marginal_eigenvalue_keeps_a_certified_bracket():
    # rho1 has an eigenvalue ~2e-13, below the support cut, and a vector of
    # range rho has a 1e-6 component along its eigenvector: the complement
    # shift would have to be ~1e18, so the lift cannot certify and the full
    # space is solved.
    for seed in range(2):
        rng = np.random.default_rng(seed)
        rho = np.zeros((3, 3, 3, 3), dtype=complex)
        rho[:2, :, :2, :] = random_state(rng, 6, 3).reshape(2, 3, 2, 3)
        phi, chi = np.zeros((3, 3), complex), np.zeros((3, 3), complex)
        phi[:2], chi[2] = crand(rng, 2, 3), crand(rng, 1, 3)
        psi = np.sqrt(1 - 1e-12) * phi / np.linalg.norm(phi) + 1e-6 * chi / np.linalg.norm(chi)
        rho = 0.7 * rho.reshape(9, 9) + 0.3 * np.outer(psi.reshape(-1), psi.reshape(-1).conj())
        r1, r2 = partial_trace_2(rho, 3, 3), partial_trace_1(rho, 3, 3)
        assert 0.0 < np.linalg.eigvalsh(r1)[0] < 1e-12
        w, v = np.linalg.eigh(rho)
        sub = Subspace(9, np.linalg.qr(np.hstack([v[:, w > 1e-14], crand(rng, 9, 2)]))[0])
        sol = sdp.solve_supported_overlap(sub, r1, r2, CFG)
        assert sol.status == "optimal"
        assert_certified_bracket(sol, sub, r1, r2, CFG)


def test_supported_direction_just_outside_support_keeps_a_certified_bracket():
    # One subspace vector lies 1e-9 outside S = supp rho1 (x) C^3. No
    # dominated operator reaches it, but a lifted dual pair would need a
    # complement shift of ~1e24 to cover it, far past what rounding allows;
    # the full-space solve certifies the dual, the compressed one the primal.
    cfg = SolverConfig(max_iters=2000)
    for seed in range(2):
        rng = np.random.default_rng(seed)
        rho = np.zeros((3, 3, 3, 3), dtype=complex)
        rho[:2, :, :2, :] = random_state(rng, 6, 3).reshape(2, 3, 2, 3)
        rho = rho.reshape(9, 9)
        r1, r2 = partial_trace_2(rho, 3, 3), partial_trace_1(rho, 3, 3)
        inside, out = np.zeros((3, 3), complex), np.zeros((3, 3), complex)
        inside[:2], out[2] = crand(rng, 2, 3), crand(rng, 1, 3)
        near = inside / np.linalg.norm(inside) + 1e-9 * out / np.linalg.norm(out)
        w, v = np.linalg.eigh(rho)
        basis = np.column_stack([v[:, -2:], near.reshape(-1), crand(rng, 9, 1)])
        sub = Subspace(9, np.linalg.qr(basis)[0])
        sol = sdp.solve_supported_overlap(sub, r1, r2, cfg)
        assert_certified_bracket(sol, sub, r1, r2, cfg)
        assert 0.5 < sol.value <= sol.dual < 1.0


def test_supported_zero_when_subspace_meets_support_only_at_zero():
    # S = span{|00>}; the Bell vector is not orthogonal to S, but no nonzero
    # vector of the subspace lies in S, so nothing dominated is supported there.
    r = np.diag([1.0, 0.0])
    sol = sdp.solve_supported_overlap(bell_subspace(), r, r, CFG)
    assert sol.value == 0.0
    assert sol.iterations == 0
    assert sol.status == "optimal"
    assert sol.dual <= CFG.gap_tol


def test_mu_rejects_bad_inputs():
    with pytest.raises(ValueError, match="rho1"):
        mu(np.diag([1.5, -0.5]), np.eye(2) / 2, bell_subspace())
    with pytest.raises(ValueError, match="does not match"):
        mu(np.eye(2) / 2, np.eye(2) / 2, Subspace(6, np.eye(6)[:, :1]))
    # Unit traces make mu = 1 mean a coupling; the overlap program alone
    # takes unequal ones.
    with pytest.raises(ValueError, match="^rho2: trace .* deviates from target 1.0"):
        mu(np.eye(2) / 2, np.eye(2) / 3, bell_subspace())


def _coupling_file(r1, r2):
    obj = generate_instance({"kind": "coupling", "dims": (2, 2), "seed": 0})
    obj["rho1"], obj["rho2"] = mat_to_pairs(r1), mat_to_pairs(r2)
    return obj


# Every public entry point that takes marginals, called on (rho1, rho2, X).
MARGINAL_ENTRY_POINTS = {
    "mu": lambda r1, r2, sub: mu(r1, r2, sub),
    "has_coupling": lambda r1, r2, sub: has_coupling(r1, r2, sub),
    "f_ladder": lambda r1, r2, sub: f_ladder(r1, r2, sub, 1),
    "sdp_ladder": lambda r1, r2, sub: sdp_ladder(r1, r2, sub, 2),
    "solve_marginal_sdp": lambda r1, r2, sub: sdp.solve_marginal_sdp(sub, r1, r2),
    "solve_supported_overlap": lambda r1, r2, sub: sdp.solve_supported_overlap(sub, r1, r2),
    "solve_f_min_full": lambda r1, r2, sub: sdp.solve_f_min_full(r1, r2, sub),
    "FiberSpec": lambda r1, r2, sub: FiberSpec(r1, r2),
    "problem_from_dict": lambda r1, r2, sub: problem_from_dict(_coupling_file(r1, r2)),
}


@pytest.mark.parametrize("entry", MARGINAL_ENTRY_POINTS)
def test_every_marginal_entry_point_rejects_a_non_psd_marginal(entry):
    # Equal unit traces, so only the PSD test can refuse the pair.
    call = MARGINAL_ENTRY_POINTS[entry]
    sub = Subspace(4, np.eye(4)[:, :2])
    with pytest.raises((ValueError, CliError), match="is not PSD: min eigenvalue -5.000e-01"):
        call(np.diag([1.5, -0.5]), np.eye(2) / 2, sub)
    call(np.eye(2) / 2, np.eye(2) / 2, sub)  # the same call on a valid pair passes


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve started on a non-finite marginal")


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", MARGINAL_ENTRY_POINTS)
def test_every_marginal_entry_point_rejects_a_non_finite_marginal(entry, bad, monkeypatch):
    # eigvalsh gives finite values for a NaN matrix, so the PSD test alone
    # passes it; the input checks reject it before any eigh or Newton step.
    monkeypatch.setattr(np.linalg, "eigh", _no_solve)
    monkeypatch.setattr(sdp, "_overlap_core", _no_solve)
    sub = Subspace(4, np.eye(4)[:, :2])
    with pytest.raises((ValueError, CliError), match="non-finite|magnitude guard"):
        MARGINAL_ENTRY_POINTS[entry](np.diag([0.5, bad]), np.eye(2) / 2, sub)


@pytest.mark.parametrize("big", [1e300, np.inf], ids=["1e300", "inf"])
@pytest.mark.parametrize("which", ["rho1", "rho2"])
@pytest.mark.parametrize(
    "entry",
    [
        "FiberSpec", "mu", "has_coupling", "f_ladder", "sdp_ladder",
        "solve_marginal_sdp", "solve_supported_overlap", "solve_f_min_full",
    ],
)
def test_marginal_above_the_magnitude_guard_is_named(entry, which, big):
    huge, fine = np.diag([0.5, big]), np.eye(2) / 2
    pair = (huge, fine) if which == "rho1" else (fine, huge)
    with pytest.raises(ValueError, match=rf"^{which} has entries above the magnitude guard 1e\+150$"):
        MARGINAL_ENTRY_POINTS[entry](*pair, Subspace(4, np.eye(4)[:, :2]))


def _values(obj):
    """A result's values bit for bit, wall times left out, for comparing results."""
    if is_dataclass(obj):
        return _values({f.name: getattr(obj, f.name) for f in fields(obj) if f.name != "wall_time"})
    if isinstance(obj, dict):
        return {k: _values(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_values(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.tobytes()
    if hasattr(type(obj), "__slots__"):
        return {s: _values(getattr(obj, s)) for s in type(obj).__slots__}
    return obj


@pytest.mark.parametrize("entry", [e for e in MARGINAL_ENTRY_POINTS if e != "problem_from_dict"])
def test_every_library_entry_point_reads_every_operator_type_alike(entry):
    # One input rule: an ndarray, a HermitianOperator and a DensityOperator of
    # the same matrix give the same result, bit for bit.
    r1 = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    r2 = np.array([[0.5, 0.2], [0.2, 0.5]])
    sub = Subspace(4, np.eye(4)[:, [0, 3]])
    results = [
        _values(MARGINAL_ENTRY_POINTS[entry](wrap(r1), wrap(r2), sub))
        for wrap in (np.asarray, HermitianOperator, DensityOperator)
    ]
    assert results[1] == results[0]
    assert results[2] == results[0]


# ---------------------------------------------------------------------------
# has_coupling


def test_has_coupling_true_with_valid_certificate():
    verdict, cert = has_coupling(np.eye(2) / 2, np.eye(2) / 2, bell_subspace())
    assert verdict is True
    assert cert is not None
    rho_hat = cert.mat
    p = bell_subspace().projector.mat
    off = np.eye(4) - p
    assert trace_norm(off @ rho_hat @ off) <= 1e-7
    marg_err = trace_norm(partial_trace_2(rho_hat, 2, 2) - np.eye(2) / 2) + trace_norm(
        partial_trace_1(rho_hat, 2, 2) - np.eye(2) / 2
    )
    assert marg_err <= 10.0 * CFG.eps_decision


def test_has_coupling_false_on_obstruction():
    verdict, cert = has_coupling(
        np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), corner_subspace()
    )
    assert verdict is False
    assert cert is None


def test_has_coupling_false_below_threshold():
    # optimum min(a, b) = 0.3 is far from 1, so the verdict must be negative
    verdict, cert = has_coupling(
        np.diag([0.3, 0.7]), np.diag([0.55, 0.45]), corner_subspace()
    )
    assert verdict is False
    assert cert is None


def test_has_coupling_on_random_constructed_instance():
    rng = np.random.default_rng(2)
    r1, r2, sub = coupled_instance(rng, 3, 2)
    verdict, cert = has_coupling(r1, r2, sub)
    assert verdict is True
    marg_err = trace_norm(partial_trace_2(cert.mat, 3, 3) - r1) + trace_norm(
        partial_trace_1(cert.mat, 3, 3) - r2
    )
    assert marg_err <= 1e-3


# ---------------------------------------------------------------------------
# _decide: one supported solve to gap_tol decides


@pytest.fixture(scope="module")
def decide_cases():
    """(feasible, marginals, _decide's result) per generated coupling instance.

    Generated coupling instances from 2x3 to 4x4, half infeasible; seeds 15
    (2x4) and 26 (2x3) are infeasible with mu within eps_decision of 1, so
    only a dual bound below mu's can refute them.
    """
    specs = [
        {"dims": dims, "seed": seed, "feasible": feasible}
        for dims in ((2, 3), (3, 3), (2, 4), (3, 4), (4, 4))
        for seed in (0, 1)
        for feasible in (True, False)
    ]
    specs += [
        {"dims": (2, 4), "seed": 15, "feasible": False},
        {"dims": (2, 3), "seed": 26, "feasible": False},
    ]
    cases = []
    for spec in specs:
        if spec["dims"] == (2, 3) and not spec["feasible"]:
            spec["subspace_dim"] = 3  # with 4 the perturbed marginals stay feasible
        p = problem_from_dict(generate_instance({"kind": "coupling", **spec}))
        cases.append((spec["feasible"], p, _decide(p.rho1, p.rho2, p.x_sub, CFG)))
    return cases


def test_threshold_stop_keeps_every_verdict(decide_cases):
    # The supported solve has no threshold stop: it runs to gap_tol, and its
    # verdict is the one a thresholded run had to keep, the generated
    # feasibility, on every instance.
    assert len(decide_cases) == 22
    verdicts = set()
    for feasible, _, (verdict, cert, sup, _) in decide_cases:
        assert sup.status == "optimal" and sup.gap <= CFG.gap_tol
        assert verdict == ("coupling" if feasible else "no_coupling"), (feasible, verdict)
        assert (cert is not None) == feasible
        verdicts.add(verdict)
    assert verdicts == {"coupling", "no_coupling"}


def test_decided_refutation_only_on_infeasible(decide_cases):
    # A refutation rests on the supported dual bound alone: it falls below
    # 1 - eps only on infeasible instances, and a coupling's value clears it.
    threshold = 1.0 - CFG.eps_decision
    seen = 0
    for feasible, _, (verdict, cert, sup, _) in decide_cases:
        if verdict == "coupling":
            assert feasible and sup.value >= threshold
            continue
        seen += 1
        assert not feasible
        assert verdict == "no_coupling" and cert is None
        assert sup.dual < threshold
    assert seen > 0


def test_decided_coupling_certificate_within_four_eps(decide_cases):
    eps = CFG.eps_decision
    seen = 0
    for _, p, (verdict, cert, sup, tested) in decide_cases:
        if verdict != "coupling":
            assert tested is None
            continue
        if sup.status != "optimal":
            continue
        seen += 1
        assert sup.value >= 1.0 - eps
        marg_err = trace_norm(partial_trace_2(cert.mat, p.d1, p.d2) - p.rho1) + trace_norm(
            partial_trace_1(cert.mat, p.d1, p.d2) - p.rho2
        )
        # _decide returns the error its certificate test read, the same sum.
        assert abs(tested - marg_err) <= 1e-15
        assert marg_err <= 4.0 * eps + 1e-9
    assert seen > 0


def test_decide_certifies_a_rank_deficient_marginal():
    # A state on span(e0, e1) (x) C^3, so rho1 has rank 2, in its range plus
    # two random vectors that leak onto ker rho1. The supported solve runs on
    # the support product; its certificate passes and its lifted dual pair
    # brackets the original program's value.
    rng = np.random.default_rng(4)
    rho = np.zeros((3, 3, 3, 3), dtype=complex)
    rho[:2, :, :2, :] = random_state(rng, 6, 3).reshape(2, 3, 2, 3)
    rho = rho.reshape(9, 9)
    w, v = np.linalg.eigh(rho)
    q, _ = np.linalg.qr(np.hstack([v[:, w > 1e-12 * w[-1]], crand(rng, 9, 2)]))
    sub = Subspace(9, q)
    r1, r2 = partial_trace_2(rho, 3, 3), partial_trace_1(rho, 3, 3)
    assert np.linalg.matrix_rank(r1, tol=1e-12) == 2
    verdict, cert, sup, _ = _decide(r1, r2, sub, CFG)
    assert verdict == "coupling" and cert is not None
    assert sup.status == "optimal"
    assert sup.value >= 1.0 - CFG.eps_decision
    assert_certified_bracket(sup, sub, r1, r2, CFG)


def test_supported_refutation_carries_a_feasible_dual_pair():
    # Every no_coupling from _decide rests on the supported solve's dual
    # pair: Y_i >= 0 and V^*(Y1 (x) I + I (x) Y2)V >= I, so its value
    # <rho1, Y1> + <rho2, Y2>, the reported dual bound, caps every coupling
    # supported in the subspace, and it lies below 1 - eps.
    threshold = 1.0 - CFG.eps_decision
    seen = 0
    for dims in ((2, 2), (2, 3), (2, 4)):
        for seed in range(30):
            spec = {"kind": "coupling", "dims": dims, "seed": seed, "feasible": False}
            p = problem_from_dict(generate_instance({**spec, "subspace_dim": 3}))
            sub = p.x_sub
            verdict, cert, sup, _ = _decide(p.rho1, p.rho2, sub, CFG)
            if verdict != "no_coupling":
                continue
            seen += 1
            assert cert is None
            y1, y2 = sup.Y[0].mat, sup.Y[1].mat
            assert min(np.linalg.eigvalsh(y1)[0], np.linalg.eigvalsh(y2)[0]) >= -1e-9
            v = sub.basis
            adjoint = v.conj().T @ (np.kron(y1, np.eye(p.d2)) + np.kron(np.eye(p.d1), y2)) @ v
            assert np.linalg.eigvalsh(adjoint - np.eye(sub.dim))[0] >= -1e-9, (dims, seed)
            value = np.vdot(p.rho1, y1).real + np.vdot(p.rho2, y2).real
            assert abs(value - sup.dual) <= 1e-12
            assert sup.dual < threshold
    assert seen >= 60


# ---------------------------------------------------------------------------
# f ladder


def test_f_ladder_decreases_to_zero_on_feasible_chain():
    # first direction alone cannot couple (I/2, I/2); adding the maximally
    # entangled vector makes the mismatch vanish
    e01 = np.zeros(4, dtype=complex)
    e01[1] = 1.0
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    basis = np.column_stack([e01, bell])
    rep = f_ladder(np.eye(2) / 2, np.eye(2) / 2, Subspace(4, basis), 2)
    assert rep.verdict == "coupling_exists"
    assert rep.criterion == "f_ladder"
    values = [lv.value for lv in rep.levels]
    assert len(values) == 2
    assert values[0] >= 0.9  # level 1 cannot do better than f = 1
    assert values[1] <= 1e-4
    assert all(lv.wall_time >= 0.0 for lv in rep.levels)


def test_f_ladder_monotone_under_warm_starts():
    rng = np.random.default_rng(3)
    d = 3
    rho = random_state(rng, d * d, 3)
    r1 = partial_trace_2(rho, d, d)
    r2 = partial_trace_1(rho, d, d)
    q, _ = np.linalg.qr(crand(rng, d * d, 4))
    rep = f_ladder(r1, r2, Subspace(d * d, q), 4)
    values = [lv.value for lv in rep.levels]
    assert all(values[i + 1] <= values[i] + 2e-6 for i in range(len(values) - 1))


def test_f_ladder_no_coupling_on_obstruction():
    rep = f_ladder(
        np.diag([0.0, 1.0]).astype(complex),
        np.diag([1.0, 0.0]).astype(complex),
        corner_subspace(),
        1,
    )
    assert rep.verdict == "no_coupling"
    assert rep.levels[0].lower_bound > rep.eps_decision


def truncation_chain():
    # rho1 = rho2 = I/3 on 3x3: the first three vectors |0,p> cannot couple
    # the pair (f = 4/3), the fourth completes (|0,0> + |1,1> + |2,2>)/sqrt 3.
    e = np.eye(9, dtype=complex)
    return Subspace(9, np.column_stack([e[0], e[1], e[2], (e[4] + e[8]) / np.sqrt(2.0)]))


def test_f_ladder_truncated_chain_is_undecided():
    chain = truncation_chain()
    rep = f_ladder(np.eye(3) / 3, np.eye(3) / 3, chain, 3)
    assert rep.verdict == "undecided"
    assert all(lv.lower_bound > rep.eps_decision for lv in rep.levels)
    rep = f_ladder(np.eye(3) / 3, np.eye(3) / 3, chain, 4)
    assert rep.verdict == "coupling_exists"
    assert rep.levels[-1].value < rep.eps_decision


@pytest.mark.parametrize("seed", [12, 13])
def test_f_ladder_levels_stop_at_eps(seed, monkeypatch):
    # Run to gap_tol by ADMM, level 4 of these chains stalled above it: 8,725
    # iterations on seed 12 and the whole 50,000 budget on seed 13, although
    # its value was below eps_decision early on.
    iterations = []
    solve = strassen.solve_f_min_full

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(strassen, "solve_f_min_full", counted)
    p = problem_from_dict(generate_instance({"kind": "f_ladder", "dims": (3, 3), "seed": seed}))
    rep = f_ladder(p.rho1, p.rho2, p.x_sub, p.n_max)
    assert rep.verdict == "coupling_exists"
    assert all(lv.status in ("optimal", "decided") for lv in rep.levels)
    assert max(iterations) <= 100
    # The levels up to the first one below eps report their solve's count;
    # every later level keeps that one's minimizer, decided at 0 iterations
    # without a solve.
    below = next(n for n, lv in enumerate(rep.levels, start=1) if lv.value < rep.eps_decision)
    assert len(iterations) == below < p.n_max
    assert [lv.iterations for lv in rep.levels] == iterations + [0] * (p.n_max - below)
    assert all(lv.status == "decided" for lv in rep.levels[below:])


def test_f_ladder_checks_its_marginals_once(monkeypatch):
    # f_ladder checks the pair once; every level solves on the checked,
    # normalized pair without checking it again.
    calls = []
    check = sdp._check_marginals

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(sdp, "_check_marginals", counted)
    p = problem_from_dict(generate_instance({"kind": "f_ladder", "dims": (2, 3), "seed": 0}))
    rep = f_ladder(p.rho1, p.rho2, p.x_sub, p.n_max)
    assert sum(lv.iterations > 0 for lv in rep.levels) >= 3
    assert len(calls) == 1


def test_f_ladder_normalizes_subnormalized_inputs():
    rep = f_ladder(np.eye(2) / 4, np.eye(2) / 4, bell_subspace(), 1)
    assert abs(rep.scale - 0.5) < 1e-12
    assert rep.verdict == "coupling_exists"


def test_f_ladder_rejects_zero_marginals():
    # PSD with equal traces passes the input check, but 0 cannot be normalized.
    with pytest.raises(ValueError, match="^marginals must have positive trace$"):
        f_ladder(np.zeros((2, 2)), np.zeros((2, 2)), bell_subspace(), 1)


def test_f_ladder_rejects_bad_n_max():
    with pytest.raises(ValueError, match="out of range"):
        f_ladder(np.eye(2) / 2, np.eye(2) / 2, bell_subspace(), 5)


# ---------------------------------------------------------------------------
# sdp ladder


def test_sdp_ladder_levels_report_their_solves_iterations(monkeypatch):
    iterations = []
    solve = strassen.solve_marginal_sdp

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(strassen, "solve_marginal_sdp", counted)
    p = problem_from_dict(generate_instance({"kind": "sdp_ladder", "dims": (2, 2), "seed": 0}))
    rep = sdp_ladder(p.rho1, p.rho2, p.x_sub, p.n_max)
    assert iterations and min(iterations) > 0
    assert [lv.iterations for lv in rep.levels] == iterations


def test_sdp_ladder_climbs_to_one_on_feasible_instance():
    rng = np.random.default_rng(4)
    d = 3
    rho = random_state(rng, d * d, 2)
    w, v = np.linalg.eigh(rho)
    sub = Subspace(d * d, v[:, w > 1e-12 * w[-1]])
    r1 = DensityOperator(partial_trace_2(rho, d, d))
    r2 = DensityOperator(partial_trace_1(rho, d, d))
    rep = sdp_ladder(r1, r2, sub, d)
    assert rep.verdict == "coupling_exists"
    assert rep.criterion == "sdp_ladder"
    assert rep.levels[-1].value > 1.0 - 1e-4
    assert rep.levels[-1].level == (3, 3)
    # a generic 2-dim subspace cannot survive the 1 (x) 1 truncation
    assert 1 in rep.skipped_levels


def test_sdp_ladder_no_coupling_on_independent_marginals():
    rng = np.random.default_rng(5)
    d = 3
    rho_a = random_state(rng, d * d, 2)
    rho_b = random_state(rng, d * d, 3)
    w, v = np.linalg.eigh(rho_a)
    sub = Subspace(d * d, v[:, w > 1e-12 * w[-1]])
    r1 = DensityOperator(partial_trace_2(rho_a, d, d))
    r2 = DensityOperator(partial_trace_1(rho_b, d, d))
    rep = sdp_ladder(r1, r2, sub, d)
    assert rep.verdict == "no_coupling"
    assert rep.levels[-1].dual_value < 1.0 - 1e-4


def test_sdp_ladder_rejects_bad_inputs():
    rng = np.random.default_rng(6)
    r1, r2, sub = coupled_instance(rng, 2, 1)
    with pytest.raises(ValueError, match="out of range"):
        sdp_ladder(DensityOperator(r1), DensityOperator(r2), sub, 3)
    with pytest.raises(ValueError, match="does not match"):
        sdp_ladder(
            DensityOperator(np.eye(3) / 3),
            DensityOperator(np.eye(3) / 3),
            sub,
            2,
        )


# ---------------------------------------------------------------------------
# classical instances and max-flow


def test_classical_instance_validation():
    with pytest.raises(ValueError, match="sides must be positive"):
        ClassicalInstance(0, 1, [], [1.0], set())
    with pytest.raises(ValueError, match="lengths do not match"):
        ClassicalInstance(2, 1, [1.0], [1.0], set())
    with pytest.raises(ValueError, match="negative entry"):
        ClassicalInstance(2, 1, [1.5, -0.5], [1.0], set())
    with pytest.raises(ValueError, match="does not sum to 1"):
        ClassicalInstance(2, 1, [0.4, 0.4], [1.0], set())
    with pytest.raises(ValueError, match="out of range"):
        ClassicalInstance(2, 2, [0.5, 0.5], [0.5, 0.5], {(2, 0)})


def test_classical_strassen_simple_cases():
    # single row and column joined by the only edge
    ok, coupling = classical_strassen(ClassicalInstance(1, 1, [1.0], [1.0], {(0, 0)}))
    assert ok is True
    assert abs(coupling[0, 0] - 1.0) < 1e-12
    # no edges cannot carry any mass
    ok, coupling = classical_strassen(ClassicalInstance(1, 1, [1.0], [1.0], set()))
    assert ok is False
    assert coupling is None


def test_classical_strassen_starved_row_is_infeasible():
    # row 0 exceeds the only column it can reach
    inst = ClassicalInstance(
        2,
        2,
        [0.75, 0.25],
        [0.5, 0.5],
        {(0, 0), (1, 0), (1, 1)},
    )
    ok, _ = classical_strassen(inst)
    assert ok is False
    assert not hall_feasible(inst.mu1, inst.mu2, set(inst.edges))


def test_classical_strassen_matches_hall_oracle():
    rng = np.random.default_rng(7)
    checked_feasible = 0
    for trial in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        mu1 = rng.dirichlet(np.ones(m))
        mu2 = rng.dirichlet(np.ones(n))
        edges = {
            (i, j) for i in range(m) for j in range(n) if rng.random() < 0.55
        }
        inst = ClassicalInstance(m, n, mu1, mu2, edges)
        ok, coupling = classical_strassen(inst)
        assert ok == hall_feasible(mu1, mu2, edges), f"trial {trial} disagrees"
        if ok:
            checked_feasible += 1
            assert np.all(coupling >= -1e-15)
            assert np.max(np.abs(coupling.sum(axis=1) - mu1)) < 1e-9
            assert np.max(np.abs(coupling.sum(axis=0) - mu2)) < 1e-9
            outside = [(i, j) for i in range(m) for j in range(n)
                       if (i, j) not in edges and coupling[i, j] != 0.0]
            assert not outside
    assert checked_feasible >= 20  # the sample must exercise both verdicts


# ---------------------------------------------------------------------------
# classical vs quantum agreement


def test_classical_quantum_consistency_on_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(8):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        mu1 = rng.dirichlet(np.ones(m))
        mu2 = rng.dirichlet(np.ones(n))
        edges = {
            (i, j) for i in range(m) for j in range(n) if rng.random() < 0.6
        }
        rep = classical_quantum_consistency(ClassicalInstance(m, n, mu1, mu2, edges))
        assert rep.agree, (m, n, sorted(edges))
        assert rep.classical_feasible == rep.quantum_verdict


def test_classical_quantum_consistency_with_singular_marginals():
    # Each mu1 has a zero entry and every other instance's mu2 has one too,
    # so rho_i = diag(mu_i) is singular and the supported solve runs on the
    # support product; the verdict must still match the exact flow oracle.
    rng = np.random.default_rng(11)
    verdicts = []
    for k in range(60):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        vecs = []
        for size, zero in ((m, True), (n, k % 2 == 0)):
            v = rng.dirichlet(np.ones(size))
            if zero:
                v[rng.integers(size)] = 0.0
            vecs.append(v / v.sum())
        edges = {(i, j) for i in range(m) for j in range(n) if rng.random() < 0.6}
        rep = classical_quantum_consistency(ClassicalInstance(m, n, *vecs, edges))
        assert rep.agree, (k, m, n, sorted(edges))
        verdicts.append(rep.classical_feasible)
    assert 5 <= sum(verdicts) < len(verdicts)


def test_classical_quantum_consistency_empty_support():
    rep = classical_quantum_consistency(
        ClassicalInstance(2, 2, [0.5, 0.5], [0.5, 0.5], set())
    )
    assert rep.classical_feasible is False
    assert rep.quantum_verdict is False
    assert rep.agree
