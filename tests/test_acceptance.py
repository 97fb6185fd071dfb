"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Every criterion is checked at its stated tolerance and wall-clock budget.
Instances are constructed with fixed seeds so the suite is reproducible; the
known-answer values come from explicit constructions (a coupling built inside
the subspace, truncations of a known coupling, diagonal embeddings checked
against exhaustive combinatorial oracles), never from the solver itself.
"""

from __future__ import annotations

import time

import numpy as np

from qstrassen.bipartite import (
    BipartiteOperator,
    Subspace,
    partial_trace_1,
    partial_trace_2,
    weak_vs_trace_demo,
)
from qstrassen.fibers import FiberSpec, dist_to_fiber, glue_coupling, semidistance_lower_bound
from qstrassen.linalg import (
    check_hs_product_bound,
    check_sv_product_bound,
    check_trace_inequality,
    hermitize,
    singular_values,
    trace_norm,
)
from qstrassen.sdp import (
    SolverConfig,
    solve_marginal_sdp,
    verify_duality_certificates,
)
from qstrassen.strassen import (
    ClassicalInstance,
    classical_quantum_consistency,
    f_ladder,
    has_coupling,
    mu,
    sdp_ladder,
)

from oracles import hall_feasible, partial_trace_1_sum, partial_trace_2_sum

# Solutions recorded by earlier criteria so the duality criterion can audit
# every solve of the run, not just its own instances.
SOLVED_LOG: list[tuple[str, float]] = []


def crand(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def herm(rng, n, scale=1.0):
    g = crand(rng, n)
    return hermitize(g + g.conj().T) * scale


def ginibre_state(rng, d, rank=None):
    g = crand(rng, d, rank or d)
    m = g @ g.conj().T
    return hermitize(m / float(np.trace(m).real))


def haar_frame(rng, dim, k):
    q, _ = np.linalg.qr(crand(rng, dim, k))
    return q[:, :k]


def coupled_instance(rng, d1, d2, k):
    """A coupling supported in a random k-dim subspace, with its marginals."""
    basis = haar_frame(rng, d1 * d2, k)
    rho = hermitize(basis @ ginibre_state(rng, k) @ basis.conj().T)
    r1 = partial_trace_2(rho, d1, d2)
    r2 = partial_trace_1(rho, d1, d2)
    return rho, r1, r2, Subspace(d1 * d2, basis)


def min_eig(h):
    return float(np.linalg.eigvalsh(hermitize(h))[0])


def verdict_line(capsys, num, label, violations, elapsed, budget=None):
    ok = not violations and (budget is None or elapsed < budget)
    tail = f"{elapsed:.1f}s" + (f", budget {budget:.0f}s" if budget is not None else "")
    with capsys.disabled():
        print(f"\nacceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({tail})")
    assert not violations, f"criterion {num}: " + "; ".join(violations[:5])
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


# ---------------------------------------------------------------------------


def test_01_partial_trace_oracle_equivalence(capsys):
    rng = np.random.default_rng(101)
    tic = time.perf_counter()
    bad = []
    for trial in range(500):
        d1 = int(rng.integers(1, 7))
        d2 = int(rng.integers(1, 7))
        f = herm(rng, d1 * d2)
        err2 = np.max(np.abs(partial_trace_2(f, d1, d2) - partial_trace_2_sum(f, d1, d2)))
        err1 = np.max(np.abs(partial_trace_1(f, d1, d2) - partial_trace_1_sum(f, d1, d2)))
        if max(err2, err1) > 1e-12:
            bad.append(f"trial {trial} dims ({d1},{d2}): entrywise error {max(err2, err1):.2e}")
    verdict_line(capsys, 1, "partial-trace oracle equivalence", bad, time.perf_counter() - tic, 5.0)


def test_02_trace_compatibility_suite(capsys):
    rng = np.random.default_rng(202)
    tic = time.perf_counter()
    bad = []
    for trial in range(200):
        d1 = int(rng.integers(1, 7))
        d2 = int(rng.integers(1, 7))
        psd = trial % 2 == 0
        f = ginibre_state(rng, d1 * d2) * 3.0 if psd else herm(rng, d1 * d2)
        m1 = partial_trace_2(f, d1, d2)
        m2 = partial_trace_1(f, d1, d2)
        for name, m in (("tr2", m1), ("tr1", m2)):
            if abs(np.trace(m) - np.trace(f)) > 1e-10:
                bad.append(f"trial {trial}: {name} trace off by {abs(np.trace(m) - np.trace(f)):.2e}")
            if trace_norm(m) > trace_norm(f) + 1e-9:
                bad.append(f"trial {trial}: {name} trace norm grew")
            if psd and min_eig(m) < -1e-10:
                bad.append(f"trial {trial}: {name} marginal not PSD ({min_eig(m):.2e})")
    verdict_line(capsys, 2, "marginal trace compatibility", bad, time.perf_counter() - tic, 10.0)


def test_03_singular_value_inequalities(capsys):
    rng = np.random.default_rng(303)
    tic = time.perf_counter()
    bad = []
    for trial in range(100):
        d = int(rng.integers(1, 9))
        e = int(rng.integers(1, 9))
        l = crand(rng, d, e)
        a = crand(rng, d, d)
        rep = check_sv_product_bound(a, crand(rng, d, d))
        if rep.min_margin < -1e-9:
            bad.append(f"trial {trial}: sv product margin {rep.min_margin:.2e}")

        n = int(rng.integers(1, min(d, e) + 1))
        frames = haar_frame(rng, e, n), haar_frame(rng, d, n)
        rep2 = check_trace_inequality(l, frames[0], frames[1])
        if rep2.margin < -1e-9:
            bad.append(f"trial {trial}: trace inequality margin {rep2.margin:.2e}")
        # sharpness: singular-vector frames meet the bound with equality
        spec = singular_values(l, check=True)
        xs = spec.right_vectors[:, :n]
        ys = spec.left_vectors[:, :n]
        sharp = check_trace_inequality(l, xs, ys)
        if abs(sharp.margin) > 1e-9:
            bad.append(f"trial {trial}: sharpness violated, margin {sharp.margin:.2e}")

        m = crand(rng, e, d)
        rep3 = check_hs_product_bound(l, m)
        if rep3.margin < -1e-9:
            bad.append(f"trial {trial}: hs product margin {rep3.margin:.2e}")
        if rep3.trace_identity_error > 1e-9:
            bad.append(f"trial {trial}: trace identity error {rep3.trace_identity_error:.2e}")
    verdict_line(capsys, 3, "singular-value inequality suite", bad, time.perf_counter() - tic, 20.0)


def test_04_feasible_coupling_round_trip(capsys):
    rng = np.random.default_rng(404)
    tic = time.perf_counter()
    bad = []
    for trial in range(50):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        k = int(rng.integers(2, min(6, d1 * d2) + 1))
        _, r1, r2, sub = coupled_instance(rng, d1, d2, k)
        value, sol = mu(r1, r2, sub)
        SOLVED_LOG.append((sol.status, sol.gap))
        if value < 1.0 - 1e-4:
            bad.append(f"trial {trial} dims ({d1},{d2}) k={k}: mu {value:.6f}")
            continue
        verdict, cert = has_coupling(r1, r2, sub)
        if not verdict or cert is None:
            bad.append(f"trial {trial}: verdict false on a constructed-feasible instance")
            continue
        marg_err = trace_norm(partial_trace_2(cert.mat, d1, d2) - r1) + trace_norm(
            partial_trace_1(cert.mat, d1, d2) - r2
        )
        if marg_err > 1e-3:
            bad.append(f"trial {trial}: certificate marginal error {marg_err:.2e}")
    verdict_line(capsys, 4, "feasible round-trip (50 instances)", bad, time.perf_counter() - tic, 300.0)


def test_05_infeasibility_detection(capsys):
    rng = np.random.default_rng(505)
    tic = time.perf_counter()
    bad = []
    # orthogonality obstruction: marginal supports and subspace cannot meet
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    obstruction_value, _ = mu(np.diag([0.0, 1.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex), Subspace(4, e00.reshape(-1, 1)))
    if obstruction_value > 1e-6:
        bad.append(f"obstruction instance reached mu {obstruction_value:.2e}")
    s = 0.2
    for trial in range(50):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        k = int(rng.integers(2, min(6, (d1 - 1) * d2) + 1))
        # Subspace inside V1 (x) H2 for a proper factor subspace V1: any
        # dominated operator overlaps at most the V1-mass of rho1, so mixing
        # mass onto the complement caps the optimum provably below 1.
        v1 = haar_frame(rng, d1, d1 - 1)
        lift = np.kron(v1, np.eye(d2))
        basis = lift @ haar_frame(rng, (d1 - 1) * d2, k)
        sub = Subspace(d1 * d2, basis)
        rho = hermitize(basis @ ginibre_state(rng, k) @ basis.conj().T)
        r1 = partial_trace_2(rho, d1, d2)
        r2 = partial_trace_1(rho, d1, d2)
        sigma = ginibre_state(rng, d1)
        outside = float(np.trace(sigma).real - np.trace(v1.conj().T @ sigma @ v1).real)
        while outside < 1e-2:  # keep the cap clear of the decision threshold
            sigma = ginibre_state(rng, d1)
            outside = float(np.trace(sigma).real - np.trace(v1.conj().T @ sigma @ v1).real)
        r1 = hermitize((1.0 - s) * r1 + s * sigma)
        value, sol = mu(r1, r2, sub)
        SOLVED_LOG.append((sol.status, sol.gap))
        cap = 1.0 - s * outside
        if value > cap + 1e-6:
            bad.append(f"trial {trial}: mu {value:.6f} exceeds the provable cap {cap:.6f}")
        if sol.dual >= 1.0 - 1e-4:
            bad.append(f"trial {trial}: dual bound {sol.dual:.6f} does not refute")
        verdict, _ = has_coupling(r1, r2, sub)
        if verdict:
            bad.append(f"trial {trial}: verdict true on a perturbed instance (mu {value:.6f})")
    verdict_line(capsys, 5, "infeasibility detection (50 perturbed)", bad, time.perf_counter() - tic, 300.0)


def test_06_duality_certificates(capsys):
    rng = np.random.default_rng(606)
    tic = time.perf_counter()
    bad = []
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    problems = [
        (Subspace(4, bell.reshape(-1, 1)), np.eye(2) / 2, np.eye(2) / 2),
        (Subspace(4, e00.reshape(-1, 1)), np.diag([0.3, 0.7]).astype(complex), np.diag([0.55, 0.45]).astype(complex)),
        (Subspace(4, e00.reshape(-1, 1)), np.diag([0.0, 1.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex)),
    ]
    for d1, d2 in ((2, 2), (2, 3), (3, 2), (3, 3)):
        dim = d1 * d2
        k = int(rng.integers(1, dim))
        sub = Subspace(dim, haar_frame(rng, dim, k))
        state = ginibre_state(rng, dim)
        problems.append((sub, partial_trace_2(state, d1, d2), partial_trace_1(state, d1, d2)))
    for idx, problem in enumerate(problems):
        sol = solve_marginal_sdp(*problem)
        rep = verify_duality_certificates(*problem, sol)
        if not rep.trivial_feasible or rep.trivial_margin < 1.0 - 1e-9:
            bad.append(f"problem {idx}: trivial pair margin {rep.trivial_margin:.2e}")
        if not rep.passed:
            bad.append(f"problem {idx}: certificate checks failed")
        if sol.status == "optimal" and sol.gap > 1e-6:
            bad.append(f"problem {idx}: optimal status with gap {sol.gap:.2e}")
    for status, gap in SOLVED_LOG:
        if status == "optimal" and gap > 1e-6:
            bad.append(f"earlier solve: optimal status with gap {gap:.2e}")
    verdict_line(capsys, 6, "duality certificates", bad, time.perf_counter() - tic)


def test_07_f_ladder_monotone_limit(capsys):
    rng = np.random.default_rng(707)
    tic = time.perf_counter()
    bad = []
    shapes = ((4, 3), (3, 4), (2, 6), (6, 2))
    for trial in range(20):
        d1, d2 = shapes[trial % len(shapes)]
        k = 2 + trial % 5
        n_max = min(k + 2, d1 * d2)
        basis = haar_frame(rng, d1 * d2, n_max)
        rho = hermitize(basis[:, :k] @ ginibre_state(rng, k) @ basis[:, :k].conj().T)
        r1 = partial_trace_2(rho, d1, d2)
        r2 = partial_trace_1(rho, d1, d2)
        rep = f_ladder(r1, r2, Subspace(d1 * d2, basis), n_max)
        values = [lv.value for lv in rep.levels]
        for j in range(len(values) - 1):
            if values[j + 1] > values[j] + 2e-6:
                bad.append(f"trial {trial}: level {j + 2} rose by {values[j + 1] - values[j]:.2e}")
        for lv in rep.levels:
            if lv.level >= k and lv.value > 1e-4:
                bad.append(f"trial {trial}: level {lv.level} >= support dim {k} has value {lv.value:.2e}")
        if rep.verdict != "coupling_exists":
            bad.append(f"trial {trial}: verdict {rep.verdict}")
    verdict_line(capsys, 7, "f-ladder monotone limit (20 instances)", bad, time.perf_counter() - tic, 600.0)


def test_08_sdp_ladder_geometric_decay(capsys):
    rng = np.random.default_rng(808)
    tic = time.perf_counter()
    bad = []
    d1 = d2 = 4
    decay = 0.5
    k = 3
    w1 = np.sqrt(decay) ** np.arange(d1)
    w2 = np.sqrt(decay) ** np.arange(d2)
    for trial in range(10):
        cols = []
        for _ in range(k):
            g = crand(rng, d1, d2)
            v = ((w1[:, None] * g) * w2[None, :]).reshape(-1)
            cols.append(v / np.linalg.norm(v))
        basis = np.linalg.qr(np.stack(cols, axis=1))[0][:, :k]
        lam = decay ** np.arange(k)
        lam = lam / lam.sum()
        rho = hermitize((basis * lam) @ basis.conj().T)
        r1 = partial_trace_2(rho, d1, d2)
        r2 = partial_trace_1(rho, d1, d2)
        sub = Subspace(d1 * d2, basis)

        rep = sdp_ladder(r1, r2, sub, min(d1, d2))
        top = rep.levels[-1]
        if top.level != (d1, d2) or top.value < 1.0 - 1e-4:
            bad.append(f"trial {trial}: top level {top.level} value {top.value:.6f}")
        if rep.verdict != "coupling_exists":
            bad.append(f"trial {trial}: verdict {rep.verdict}")
        full_value, sol = mu(r1, r2, sub)
        SOLVED_LOG.append((sol.status, sol.gap))
        if abs(top.value - full_value) > 1e-5:
            bad.append(f"trial {trial}: top {top.value:.7f} vs untruncated {full_value:.7f}")
        # truncation preserves marginal domination at every level
        for n in range(1, min(d1, d2) + 1):
            sel = [i * d2 + p for i in range(n) for p in range(n)]
            gamma = rho[np.ix_(sel, sel)]
            m1 = min_eig(hermitize(r1[:n, :n]) - partial_trace_2(gamma, n, n))
            m2 = min_eig(hermitize(r2[:n, :n]) - partial_trace_1(gamma, n, n))
            if min(m1, m2) < -1e-9:
                bad.append(f"trial {trial}: domination fails at level {n} ({min(m1, m2):.2e})")
    verdict_line(capsys, 8, "truncation ladder, geometric decay (10 instances)", bad, time.perf_counter() - tic, 900.0)


def test_09_classical_equivalence(capsys):
    rng = np.random.default_rng(909)
    tic = time.perf_counter()
    bad = []
    for trial in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        mu1 = rng.dirichlet(np.ones(m))
        mu2 = rng.dirichlet(np.ones(n))
        edges = {(i, j) for i in range(m) for j in range(n) if rng.random() < 0.55}
        inst = ClassicalInstance(m, n, mu1, mu2, edges)
        rep = classical_quantum_consistency(inst)
        if not rep.agree:
            bad.append(
                f"trial {trial} ({m}x{n}): quantum {rep.quantum_verdict} vs flow {rep.classical_feasible}"
            )
        if rep.classical_feasible != hall_feasible(mu1, mu2, edges):
            bad.append(f"trial {trial} ({m}x{n}): flow disagrees with the subset-condition oracle")
    verdict_line(capsys, 9, "classical equivalence (100 instances)", bad, time.perf_counter() - tic, 120.0)


def test_10_fiber_suite(capsys):
    rng = np.random.default_rng(1010)
    tic = time.perf_counter()
    bad = []

    def random_fiber(d1, d2, scale=1.0):
        state = ginibre_state(rng, d1 * d2) * scale
        return FiberSpec(partial_trace_2(state, d1, d2), partial_trace_1(state, d1, d2))

    for idx, (d1, d2) in enumerate(((2, 2), (2, 2), (3, 2), (2, 3), (2, 2))):
        fiber = random_fiber(d1, d2)
        member = fiber.product_coupling()
        dist, _ = dist_to_fiber(member, fiber)
        if dist > 1e-6:
            bad.append(f"member {idx}: distance {dist:.2e}")
        glued = glue_coupling(BipartiteOperator(0.5 * member.mat, d1, d2), fiber)
        err = trace_norm(partial_trace_2(glued.mat, d1, d2) - fiber.rho1.mat) + trace_norm(
            partial_trace_1(glued.mat, d1, d2) - fiber.rho2.mat
        )
        if err > 1e-9:
            bad.append(f"glue {idx}: marginal error {err:.2e}")
        if min_eig(glued.mat) < -1e-12:
            bad.append(f"glue {idx}: output not PSD")

    for idx, scale in enumerate((1.0, 0.7)):
        fiber = random_fiber(2, 2, scale)
        dist, _ = dist_to_fiber(np.zeros((4, 4), dtype=complex), fiber)
        target = float(np.trace(fiber.rho1.mat).real)
        if abs(dist - target) > 1e-6:
            bad.append(f"zero target {idx}: distance {dist:.8f} vs trace {target:.8f}")

    loose = SolverConfig(gap_tol=1e-3, max_iters=3000)
    for pair in range(20):
        fa = random_fiber(2, 2)
        fb = random_fiber(2, 2)
        floor = 0.5 * (
            trace_norm(fa.rho1.mat - fb.rho1.mat) + trace_norm(fa.rho2.mat - fb.rho2.mat)
        )
        rep = semidistance_lower_bound(fa, fb, samples=1, cfg=loose)
        if abs(rep.marginal_floor - floor) > 1e-9:
            bad.append(f"pair {pair}: reported floor {rep.marginal_floor:.6f} vs {floor:.6f}")
        if rep.bound < floor - 1e-12:
            bad.append(f"pair {pair}: bound {rep.bound:.6f} below the floor {floor:.6f}")
    verdict_line(capsys, 10, "fiber distance suite", bad, time.perf_counter() - tic, 300.0)


def test_11_weak_vs_trace_norm_demo(capsys):
    tic = time.perf_counter()
    bad = []
    for n in range(4, 13):
        rep = weak_vs_trace_demo(n)
        if rep.max_pairing != 0.0:
            bad.append(f"n={n}: pairing {rep.max_pairing!r} is not exactly 0")
        if rep.trace_norm_gap != 1.0:
            bad.append(f"n={n}: trace-norm gap {rep.trace_norm_gap!r} is not exactly 1")
    verdict_line(capsys, 11, "vanishing pairings vs unit trace norm", bad, time.perf_counter() - tic, 1.0)
