"""Unit tests for the dense Hermitian/general matrix kernels.

Derived quantities (eigenvalues, nearest-PSD points) are checked against the
independent oracles in oracles.py; inequality margins are checked for
nonnegativity on random inputs and for sharpness at the extremal
configurations where equality is attained.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qstrassen.linalg import (
    DEFAULT_TOL,
    EigendecompositionError,
    HermitianOperator,
    ToleranceConfig,
    as_matrix,
    check_hs_product_bound,
    check_sv_product_bound,
    check_trace_inequality,
    hermitian_eig,
    hermitize,
    psd_project,
    schatten_norm,
    singular_values,
    trace_norm,
)

from qstrassen.bipartite import BipartiteOperator, DensityOperator, Subspace
from qstrassen.fibers import FiberSpec
from qstrassen.strassen import ClassicalInstance

from oracles import charpoly_eigenvalues, psd_nearest_by_factor_descent


def crand(rng, p, q):
    return rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))


def herm(rng, d):
    a = crand(rng, d, d)
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# hermitize / as_matrix / HermitianOperator


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(ValueError, match="ndim"):
        as_matrix(np.zeros(3))
    with pytest.raises(ValueError, match="ndim"):
        as_matrix(np.zeros((2, 2, 2)))


def test_hermitize_rejects_non_square():
    with pytest.raises(ValueError, match="non-square"):
        hermitize(np.zeros((2, 3)))


def test_hermitize_returns_hermitian_part():
    rng = np.random.default_rng(0)
    a = crand(rng, 4, 4)
    h = hermitize(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, (a + a.conj().T) / 2)


def test_hermitian_operator_symmetrizes_and_freezes():
    rng = np.random.default_rng(1)
    a = crand(rng, 3, 3)
    op = HermitianOperator(a)
    assert op.dim == 3
    assert np.allclose(op.mat, op.mat.conj().T)
    assert abs(op.trace() - np.trace(op.mat).real) < 1e-14
    with pytest.raises(AttributeError, match="immutable"):
        op.mat = np.eye(3)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


# One of each immutable type; they share one immutability guard.
OPERATOR_TYPES = {
    "HermitianOperator": lambda: HermitianOperator(np.eye(2)),
    "BipartiteOperator": lambda: BipartiteOperator(np.eye(4), 2, 2),
    "DensityOperator": lambda: DensityOperator(np.eye(2) / 2),
    "Subspace": lambda: Subspace(4, np.eye(4)[:, :1]),
    "FiberSpec": lambda: FiberSpec(np.eye(2) / 2, np.eye(2) / 2),
    "ClassicalInstance": lambda: ClassicalInstance(1, 1, [1.0], [1.0], {(0, 0)}),
}


@pytest.mark.parametrize("name", OPERATOR_TYPES)
def test_every_operator_type_is_immutable(name):
    obj = OPERATOR_TYPES[name]()
    assert type(obj).__name__ == name
    for attr in (*type(obj).__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(obj, attr, None)


def test_hermitian_operator_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        HermitianOperator(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="dim >= 1"):
        HermitianOperator(np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# hermitian_eig


def test_hermitian_eig_matches_charpoly_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        h = herm(rng, 6)
        w, _ = hermitian_eig(h)
        w_oracle = charpoly_eigenvalues(h)
        assert np.max(np.abs(w - w_oracle)) < 1e-8


def test_hermitian_eig_order_and_reconstruction():
    rng = np.random.default_rng(3)
    h = herm(rng, 7)
    w, v = hermitian_eig(h, check=True)
    assert np.all(np.diff(w) <= 1e-14)
    assert np.allclose(v.conj().T @ v, np.eye(7), atol=1e-12)
    assert np.linalg.norm((v * w) @ v.conj().T - h) < 1e-12 * max(1.0, np.abs(w).max())


def test_hermitian_eig_accepts_operator_input():
    rng = np.random.default_rng(4)
    op = HermitianOperator(herm(rng, 4))
    w, v = hermitian_eig(op)
    assert w.shape == (4,)
    assert v.shape == (4, 4)


def test_eigendecomposition_error_carries_residual():
    err = EigendecompositionError("boom", residual=0.25)
    assert err.residual == 0.25
    assert isinstance(err, RuntimeError)


# ---------------------------------------------------------------------------
# psd_project


def test_psd_project_trivial_diagonal():
    out = psd_project(np.diag([2.0, -3.0]).astype(complex))
    assert np.allclose(out, np.diag([2.0, 0.0]))


def test_psd_project_matches_factor_descent_oracle():
    rng = np.random.default_rng(5)
    for trial in range(3):
        h = herm(rng, 3)
        p_lib = psd_project(h)
        p_oracle = psd_nearest_by_factor_descent(h, seed=trial)
        # the library point must be at least as close as the descent point
        assert np.linalg.norm(p_lib - h) <= np.linalg.norm(p_oracle - h) + 1e-8
        assert np.linalg.norm(p_lib - p_oracle) < 5e-3


def test_psd_project_idempotent_and_psd():
    rng = np.random.default_rng(6)
    h = herm(rng, 5)
    p = psd_project(h)
    w, _ = hermitian_eig(p)
    assert w.min() >= -1e-12
    assert np.linalg.norm(psd_project(p) - p) < 1e-10


def test_psd_project_preserves_type():
    rng = np.random.default_rng(7)
    h = herm(rng, 3)
    assert isinstance(psd_project(h), np.ndarray)
    out = psd_project(HermitianOperator(h))
    assert isinstance(out, HermitianOperator)
    assert np.array_equal(out.mat, psd_project(h))


def test_psd_project_reads_only_the_lower_triangle():
    rng = np.random.default_rng(14)
    for n in (2, 4):
        h = herm(rng, n)
        scrambled = h + np.triu(crand(rng, n, n), k=1)
        assert np.array_equal(psd_project(scrambled), psd_project(h))
    # One matrix at a time: a stack or a non-square array is rejected.
    for bad in (np.stack([herm(rng, 4) for _ in range(2)]), np.zeros((3, 4))):
        with pytest.raises(ValueError, match="square matrix"):
            psd_project(bad)


def test_psd_project_fixes_psd_input():
    rng = np.random.default_rng(8)
    a = crand(rng, 4, 4)
    p = a @ a.conj().T
    assert np.linalg.norm(psd_project(p) - p) < 1e-10


# ---------------------------------------------------------------------------
# Schatten norms and singular values


def test_schatten_two_is_entrywise():
    rng = np.random.default_rng(9)
    a = crand(rng, 3, 5)
    assert abs(schatten_norm(a, 2) - np.sqrt(np.sum(np.abs(a) ** 2))) < 1e-12


def test_schatten_norms_on_known_diagonal():
    a = np.diag([3.0, -4.0]).astype(complex)
    assert abs(schatten_norm(a, 1) - 7.0) < 1e-12
    assert abs(schatten_norm(a, 2) - 5.0) < 1e-12
    assert abs(schatten_norm(a, np.inf) - 4.0) < 1e-12
    assert abs(schatten_norm(a, "inf") - 4.0) < 1e-12
    assert abs(trace_norm(a) - 7.0) < 1e-12


def test_schatten_rejects_unsupported_index():
    for m in (np.eye(2), np.zeros((0, 0))):  # the empty matrix too, before its 0
        with pytest.raises(ValueError, match="unsupported Schatten index"):
            schatten_norm(m, 3)


def test_magnitude_guard_trips():
    with pytest.raises(ValueError, match="magnitude guard"):
        schatten_norm(np.array([[1e151 + 0j]]), 1)
    with pytest.raises(ValueError, match="magnitude guard"):
        singular_values(np.array([[1e151 + 0j]]))


def test_singular_values_squared_match_gram_eigenvalues():
    # sigma_i(A)^2 are the eigenvalues of A A*, computed via the charpoly oracle
    rng = np.random.default_rng(10)
    a = crand(rng, 5, 5)
    spec = singular_values(a, check=True)
    gram_eigs = charpoly_eigenvalues(a @ a.conj().T)
    assert np.max(np.abs(spec.values**2 - gram_eigs)) < 1e-6


def test_singular_spectrum_reconstructs():
    rng = np.random.default_rng(11)
    a = crand(rng, 4, 6)
    spec = singular_values(a, check=True)
    rebuilt = (spec.left_vectors * spec.values) @ spec.right_vectors.conj().T
    assert np.linalg.norm(rebuilt - a) < 1e-12 * max(1.0, spec.values[0])
    assert np.all(np.diff(spec.values) <= 1e-14)
    assert np.allclose(spec.left_vectors.conj().T @ spec.left_vectors, np.eye(4), atol=1e-12)
    assert np.allclose(spec.right_vectors.conj().T @ spec.right_vectors, np.eye(4), atol=1e-12)


def test_trace_norm_of_zero():
    assert trace_norm(np.zeros((3, 3), dtype=complex)) == 0.0


def test_hermitian_trace_norm_matches_the_svd_one(monkeypatch):
    # On a matrix equal to its conjugate transpose the singular values are
    # the |eigenvalues|: trace_norm and the operator norm read one eigvalsh,
    # no SVD, and agree with the SVD to rounding on indefinite,
    # rank-deficient, real and 1x1 matrices alike; the empty matrix gives 0.
    rng = np.random.default_rng(12)
    cases = [hermitize(crand(rng, n, n)) for n in (1, 2, 4, 6, 12)]
    low = crand(rng, 9, 2)
    cases += [hermitize(low @ low.conj().T), hermitize(rng.standard_normal((5, 5))), np.zeros((3, 3))]
    svd = [np.linalg.svd(m, compute_uv=False) for m in cases]

    def no_svd(*args, **kwargs):
        raise AssertionError("a Hermitian norm ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for m, s in zip(cases, svd):
        assert abs(trace_norm(m) - s.sum()) <= 1e-13
        assert abs(schatten_norm(m, np.inf) - s[0]) <= 1e-13
    for p in (1, np.inf):
        assert schatten_norm(np.zeros((0, 0), dtype=complex), p) == 0.0
    with pytest.raises(ValueError, match="magnitude guard"):
        trace_norm(np.diag([1e151, 1.0]).astype(complex))


def test_non_hermitian_schatten_norms_take_the_svd():
    # Anything short of exact Hermitian symmetry, a rounding-level
    # asymmetry or a NaN (NaN != NaN) included, goes to the SVD, which
    # reads the whole matrix and raises the package's error on a NaN.
    rng = np.random.default_rng(13)
    a = crand(rng, 4, 4)
    for m in (a, crand(rng, 3, 5), hermitize(a) + 1e-17 * a):
        s = np.linalg.svd(m, compute_uv=False)
        assert abs(trace_norm(m) - s.sum()) <= 1e-13
        assert abs(schatten_norm(m, np.inf) - s[0]) <= 1e-13
    nan = np.eye(3, dtype=complex)
    nan[1, 1] = np.nan
    with pytest.raises(EigendecompositionError, match="SVD did not converge"):
        trace_norm(nan)


# ---------------------------------------------------------------------------
# singular-value product bound


def test_sv_product_bound_nonnegative_margins():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = rng.integers(1, 7)
        q = rng.integers(1, 7)
        rep = check_sv_product_bound(crand(rng, p, q), crand(rng, q, p))
        assert rep.min_margin >= -1e-9


def test_sv_product_bound_sharp_at_unitary():
    # with A unitary, sigma(AL) = sigma(LA) = sigma(L) and ||A|| = 1
    rng = np.random.default_rng(13)
    qmat, _ = np.linalg.qr(crand(rng, 5, 5))
    lmat = crand(rng, 5, 5)
    rep = check_sv_product_bound(qmat, lmat)
    assert abs(rep.norm_a - 1.0) < 1e-12
    assert rep.min_margin >= -1e-9
    assert rep.min_margin <= 1e-9


def test_sv_product_bound_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="do not admit both products"):
        check_sv_product_bound(np.zeros((2, 3)), np.zeros((2, 3)))


def test_sv_product_bound_report_fields():
    rng = np.random.default_rng(14)
    a = crand(rng, 3, 4)
    lmat = crand(rng, 4, 3)
    rep = check_sv_product_bound(a, lmat)
    assert rep.sigma_al.shape == (3,)
    assert rep.sigma_la.shape == (4,)
    assert rep.margins_al.shape == rep.sigma_al.shape
    assert rep.margins_la.shape == rep.sigma_la.shape


# ---------------------------------------------------------------------------
# trace inequality


def test_trace_inequality_nonnegative_margin():
    rng = np.random.default_rng(15)
    for _ in range(30):
        p = int(rng.integers(2, 7))
        q = int(rng.integers(2, 7))
        n = int(rng.integers(1, min(p, q) + 1))
        lmat = crand(rng, p, q)
        x, _ = np.linalg.qr(crand(rng, q, n))
        y, _ = np.linalg.qr(crand(rng, p, n))
        rep = check_trace_inequality(lmat, x, y)
        assert rep.margin >= -1e-9


def test_trace_inequality_sharp_at_singular_vectors():
    rng = np.random.default_rng(16)
    for _ in range(5):
        lmat = crand(rng, 6, 4)
        spec = singular_values(lmat)
        n = 3
        rep = check_trace_inequality(lmat, spec.right_vectors[:, :n], spec.left_vectors[:, :n])
        assert abs(rep.margin) < 1e-9
        assert abs(rep.rhs - np.sum(spec.values[:n])) < 1e-12


def test_trace_inequality_rejects_non_orthonormal():
    lmat = np.eye(3, dtype=complex)
    bad = np.ones((3, 2), dtype=complex)
    good, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((3, 2)))
    with pytest.raises(ValueError, match="is not orthonormal"):
        check_trace_inequality(lmat, bad, good)
    with pytest.raises(ValueError, match="is not orthonormal"):
        check_trace_inequality(lmat, good, bad)


def test_trace_inequality_rejects_bad_cardinality_and_dims():
    rng = np.random.default_rng(18)
    lmat = crand(rng, 3, 2)
    x, _ = np.linalg.qr(crand(rng, 2, 2))
    y, _ = np.linalg.qr(crand(rng, 3, 3))
    with pytest.raises(ValueError, match="same number of columns"):
        check_trace_inequality(lmat, x, y)
    with pytest.raises(ValueError, match="cardinality"):
        check_trace_inequality(lmat, np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="do not match L"):
        check_trace_inequality(lmat, y[:, :1], x[:, :1])


def test_trace_inequality_cardinality_cap_uses_min_dimension():
    rng = np.random.default_rng(19)
    lmat = crand(rng, 4, 2)
    x, _ = np.linalg.qr(crand(rng, 2, 2))
    y, _ = np.linalg.qr(crand(rng, 4, 2))
    rep = check_trace_inequality(lmat, x, y)  # n = 2 = min(4, 2) is allowed
    assert rep.margin >= -1e-9


# ---------------------------------------------------------------------------
# Hilbert-Schmidt product bound


def test_hs_product_bound_nonnegative_margin_and_trace_identity():
    rng = np.random.default_rng(20)
    for _ in range(30):
        p = int(rng.integers(1, 7))
        q = int(rng.integers(1, 7))
        rep = check_hs_product_bound(crand(rng, p, q), crand(rng, q, p))
        assert rep.margin >= -1e-9
        assert rep.trace_identity_error < 1e-10


def test_hs_product_bound_sharp_at_adjoint_pair():
    # with M = L*, ||L L*||_1 = tr L L* = ||L||_2^2 exactly
    rng = np.random.default_rng(21)
    lmat = crand(rng, 4, 6)
    rep = check_hs_product_bound(lmat, lmat.conj().T)
    assert abs(rep.margin) < 1e-9
    assert abs(rep.hs_l - rep.hs_m) < 1e-12


def test_hs_product_bound_rejects_non_composable():
    with pytest.raises(ValueError, match="square product"):
        check_hs_product_bound(np.zeros((2, 3)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# property tests


def _complex_matrix(d1, d2, scale=3.0):
    elements = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)
    re = hnp.arrays(np.float64, (d1, d2), elements=elements)
    im = hnp.arrays(np.float64, (d1, d2), elements=elements)
    return st.builds(lambda a, b: a + 1j * b, re, im)


_square = st.integers(1, 4).flatmap(lambda d: _complex_matrix(d, d))
_square_pair = st.integers(1, 4).flatmap(
    lambda d: st.tuples(_complex_matrix(d, d), _complex_matrix(d, d))
)


@settings(max_examples=40, deadline=None)
@given(_square)
def test_hermitize_is_idempotent(a):
    h = hermitize(a)
    assert np.array_equal(hermitize(h), h)


@settings(max_examples=40, deadline=None)
@given(_square_pair)
def test_trace_norm_triangle_inequality(pair):
    a, b = pair
    assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9


@settings(max_examples=40, deadline=None)
@given(_square)
def test_schatten_norm_ordering(a):
    assert schatten_norm(a, np.inf) <= schatten_norm(a, 2) + 1e-9
    assert schatten_norm(a, 2) <= schatten_norm(a, 1) + 1e-9


@settings(max_examples=30, deadline=None)
@given(_square)
def test_psd_project_never_increases_distance_to_psd_points(a):
    # projection onto a convex set: ||P(h) - q|| <= ||h - q|| for any PSD q
    h = hermitize(a)
    p = psd_project(h)
    q = np.eye(h.shape[0], dtype=complex)
    assert np.linalg.norm(p - q) <= np.linalg.norm(h - q) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda pq: st.tuples(_complex_matrix(pq[0], pq[1]), _complex_matrix(pq[1], pq[0]))
))
def test_sv_product_margins_nonnegative_property(pair):
    a, lmat = pair
    assert check_sv_product_bound(a, lmat).min_margin >= -1e-9
