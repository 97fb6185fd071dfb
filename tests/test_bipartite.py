"""Unit tests for tensor-product bookkeeping.

Partial traces are checked against explicit index-sum oracles, the adjoint
marginal map against the pairing identity it is defined by, and the
truncation/compression helpers against hand-built configurations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstrassen.bipartite import (
    BipartiteOperator,
    DensityOperator,
    EmptySubspaceError,
    Subspace,
    WeakTraceReport,
    _kron_sum_mat,
    adjoint_marginal,
    composite_index,
    compress_subspace_h2_finite,
    marginal_pair,
    orthonormalize,
    partial_trace_1,
    partial_trace_2,
    subspace_from_vectors,
    truncation_projector,
    weak_vs_trace_demo,
)
from qstrassen.linalg import HermitianOperator

from oracles import partial_trace_1_sum, partial_trace_2_sum


def crand(rng, p, q):
    return rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))


def herm(rng, d):
    a = crand(rng, d, d)
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# composite index and partial traces


def test_composite_index_golden_values():
    assert composite_index(0, 0, 3) == 0
    assert composite_index(0, 2, 3) == 2
    assert composite_index(1, 0, 3) == 3
    assert composite_index(1, 2, 3) == 5


def test_composite_index_matches_kron():
    rng = np.random.default_rng(0)
    a = crand(rng, 2, 2)
    b = crand(rng, 3, 3)
    k = np.kron(a, b)
    for i in range(2):
        for j in range(2):
            for p in range(3):
                for q in range(3):
                    lhs = k[composite_index(i, p, 3), composite_index(j, q, 3)]
                    assert abs(lhs - a[i, j] * b[p, q]) < 1e-14


def test_partial_traces_match_index_sum_oracle():
    rng = np.random.default_rng(1)
    for d1, d2 in [(1, 1), (2, 2), (2, 3), (3, 2), (4, 5)]:
        f = herm(rng, d1 * d2)
        assert np.max(np.abs(partial_trace_2(f, d1, d2) - partial_trace_2_sum(f, d1, d2))) < 1e-12
        assert np.max(np.abs(partial_trace_1(f, d1, d2) - partial_trace_1_sum(f, d1, d2))) < 1e-12


def test_partial_trace_hand_computed_diagonal():
    f = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    assert np.allclose(partial_trace_2(f, 2, 2), np.diag([3.0, 7.0]))
    assert np.allclose(partial_trace_1(f, 2, 2), np.diag([4.0, 6.0]))


def test_partial_traces_preserve_trace():
    rng = np.random.default_rng(2)
    f = herm(rng, 12)
    t2 = partial_trace_2(f, 3, 4)
    t1 = partial_trace_1(f, 3, 4)
    assert abs(np.trace(t2) - np.trace(f)) < 1e-12
    assert abs(np.trace(t1) - np.trace(f)) < 1e-12


def test_partial_traces_of_product_state():
    rng = np.random.default_rng(3)
    a = herm(rng, 3)
    b = herm(rng, 4)
    f = np.kron(a, b)
    assert np.max(np.abs(partial_trace_2(f, 3, 4) - a * np.trace(b))) < 1e-12
    assert np.max(np.abs(partial_trace_1(f, 3, 4) - b * np.trace(a))) < 1e-12


def test_partial_trace_wrapped_and_raw_paths():
    rng = np.random.default_rng(4)
    f = BipartiteOperator(herm(rng, 6), 2, 3)
    out2 = partial_trace_2(f)
    out1 = partial_trace_1(f)
    assert isinstance(out2, HermitianOperator) and out2.dim == 2
    assert isinstance(out1, HermitianOperator) and out1.dim == 3
    raw = partial_trace_2(f.mat, 2, 3)
    assert isinstance(raw, np.ndarray)
    assert np.max(np.abs(raw - out2.mat)) < 1e-14


def test_partial_trace_raw_path_needs_dims():
    with pytest.raises(ValueError, match="explicit factor dimensions"):
        partial_trace_2(np.eye(6))
    with pytest.raises(ValueError, match="does not match dims"):
        partial_trace_1(np.eye(6), 2, 2)


def test_marginal_pair_consistent_with_single_calls():
    rng = np.random.default_rng(5)
    f = BipartiteOperator(herm(rng, 8), 2, 4)
    t2, t1 = marginal_pair(f)
    assert np.max(np.abs(t2.mat - partial_trace_2(f).mat)) < 1e-14
    assert np.max(np.abs(t1.mat - partial_trace_1(f).mat)) < 1e-14


# ---------------------------------------------------------------------------
# adjoint marginal map


def test_adjoint_marginal_pairing_identity():
    # <(tr_2 X, tr_1 X), (Y1, Y2)> = <X, Y1 (x) I + I (x) Y2>
    rng = np.random.default_rng(6)
    d1, d2 = 3, 4
    for _ in range(10):
        x = herm(rng, d1 * d2)
        y1 = herm(rng, d1)
        y2 = herm(rng, d2)
        lhs = np.vdot(y1, partial_trace_2(x, d1, d2)) + np.vdot(y2, partial_trace_1(x, d1, d2))
        rhs = np.vdot(adjoint_marginal(y1, y2).mat, x)
        assert abs(lhs - rhs) < 1e-11


def test_adjoint_marginal_equals_kron_reference():
    # the indexed form must give exactly the entries of the np.kron formula,
    # for every factor dimension 1-5 and for general (also real) factors
    rng = np.random.default_rng(7)
    for d1 in range(1, 6):
        for d2 in range(1, 6):
            y1 = herm(rng, d1)
            y2 = herm(rng, d2)
            ref = np.kron(y1, np.eye(d2)) + np.kron(np.eye(d1), y2)
            assert np.array_equal(adjoint_marginal(y1, y2).mat, ref)
            for g1 in (crand(rng, d1, d1), rng.standard_normal((d1, d1))):
                g2 = crand(rng, d2, d2)
                ref = np.kron(g1, np.eye(d2)) + np.kron(np.eye(d1), g2)
                assert np.array_equal(_kron_sum_mat(g1, g2), ref)


def test_adjoint_marginal_kernel_direction():
    # (I, -I) is in the kernel of the adjoint map
    out = adjoint_marginal(np.eye(3), -np.eye(5))
    assert np.max(np.abs(out.mat)) < 1e-14


def test_adjoint_marginal_shapes():
    out = adjoint_marginal(np.eye(2), np.eye(3))
    assert out.d1 == 2 and out.d2 == 3
    assert np.allclose(out.mat, 2.0 * np.eye(6))


# ---------------------------------------------------------------------------
# wrappers


def test_bipartite_operator_validation():
    with pytest.raises(ValueError, match="does not equal d1\\*d2"):
        BipartiteOperator(np.eye(5), 2, 3)
    with pytest.raises(ValueError, match="must be positive"):
        BipartiteOperator(np.eye(0), 0, 3)
    op = BipartiteOperator(np.eye(6), 2, 3)
    assert op.dim == 6
    with pytest.raises(AttributeError, match="immutable"):
        op.d1 = 5


def test_density_operator_validation():
    with pytest.raises(ValueError, match="not PSD"):
        DensityOperator(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="deviates from target"):
        DensityOperator(np.eye(2) / 3.0)
    rho = DensityOperator(np.eye(4) / 4.0)
    assert rho.dim == 4
    assert rho.trace_target == 1.0
    scaled = DensityOperator(np.eye(2), trace_target=2.0)
    assert scaled.trace_target == 2.0


def test_density_operator_trace_tolerance():
    rho = DensityOperator(np.eye(2) * (0.5 + 1e-10))
    assert rho.dim == 2
    with pytest.raises(ValueError, match="deviates"):
        DensityOperator(np.eye(2) * (0.5 + 1e-8))


# ---------------------------------------------------------------------------
# subspaces


def test_subspace_rejects_a_nan_basis():
    # A NaN Gram deviation fails every comparison, so the check tests for the good case.
    with pytest.raises(ValueError, match="basis is not orthonormal"):
        Subspace(2, np.array([[np.nan], [0.0]]))


def test_subspace_validation_and_projector():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(crand(rng, 5, 3))
    sub = Subspace(5, q)
    assert sub.dim == 3
    assert sub.ambient_dim == 5
    p = sub.projector.mat
    assert np.linalg.norm(p @ p - p) < 1e-12
    assert abs(np.trace(p).real - 3.0) < 1e-12
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(5, np.ones((5, 2)))
    with pytest.raises(EmptySubspaceError):
        Subspace(5, np.zeros((5, 0)))
    with pytest.raises(ValueError, match="basis must be"):
        Subspace(5, np.eye(4))


def test_subspace_from_vectors_drops_dependent_directions():
    v1 = np.array([1.0, 0.0, 0.0, 0.0])
    v2 = np.array([0.0, 1.0, 0.0, 0.0])
    v3 = v1 + v2
    sub = subspace_from_vectors(4, [v1, v2, v3])
    assert sub.dim == 2
    with pytest.raises(EmptySubspaceError, match="degenerate"):
        subspace_from_vectors(4, [np.zeros(4), 1e-14 * v1])
    with pytest.raises(ValueError, match="does not match ambient dim"):
        subspace_from_vectors(4, [np.ones(3)])


def test_orthonormalize_output_is_orthonormal():
    rng = np.random.default_rng(8)
    vecs = [crand(rng, 6, 1).ravel() for _ in range(4)]
    basis = orthonormalize(vecs, 6, 1e-10)
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-12


# ---------------------------------------------------------------------------
# truncation and compression


def test_truncation_projector_diagonal_pattern():
    proj = truncation_projector(2, 1, 3, 2)
    diag = np.diag(proj.mat).real
    expect = np.zeros(6)
    for i in range(2):
        expect[composite_index(i, 0, 2)] = 1.0
    assert np.allclose(diag, expect)
    assert np.linalg.norm(proj.mat @ proj.mat - proj.mat) == 0.0
    with pytest.raises(ValueError, match="out of range"):
        truncation_projector(4, 1, 3, 2)
    with pytest.raises(ValueError, match="out of range"):
        truncation_projector(0, 1, 3, 2)


def test_truncation_projector_full_is_identity():
    proj = truncation_projector(3, 2, 3, 2)
    assert np.allclose(proj.mat, np.eye(6))


def test_compress_subspace_finds_small_factor():
    # vectors supported on first-factor coordinates {0, 1} inside d1 = 4
    d1, d2 = 4, 2
    v1 = np.zeros(d1 * d2, dtype=complex)
    v1[composite_index(0, 0, d2)] = 1.0
    v2 = np.zeros(d1 * d2, dtype=complex)
    v2[composite_index(1, 1, d2)] = 1.0
    sub = subspace_from_vectors(d1 * d2, [v1, v2])
    embedding, compressed = compress_subspace_h2_finite(sub, d1, d2)
    assert embedding.shape == (4, 2)
    assert compressed.ambient_dim == 2 * d2
    assert compressed.dim == 2
    # lifting the compressed projector reproduces the original one
    lift = np.kron(embedding, np.eye(d2))
    back = lift @ compressed.projector.mat @ lift.conj().T
    assert np.linalg.norm(back - sub.projector.mat) < 1e-10


def test_compress_subspace_generic_input_is_lossless():
    rng = np.random.default_rng(9)
    d1, d2 = 3, 2
    q, _ = np.linalg.qr(crand(rng, d1 * d2, 2))
    sub = Subspace(d1 * d2, q)
    embedding, compressed = compress_subspace_h2_finite(sub, d1, d2)
    lift = np.kron(embedding, np.eye(d2))
    back = lift @ compressed.projector.mat @ lift.conj().T
    assert np.linalg.norm(back - sub.projector.mat) < 1e-10


def test_compress_subspace_rejects_dim_mismatch():
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(crand(rng, 6, 2))
    sub = Subspace(6, q)
    with pytest.raises(ValueError, match="does not match"):
        compress_subspace_h2_finite(sub, 2, 2)


# ---------------------------------------------------------------------------
# shifting-state demo


def test_weak_vs_trace_demo_window_values():
    for n in range(1, 4):
        rep = weak_vs_trace_demo(n)
        assert rep.max_pairing == 1.0
        assert rep.trace_norm_gap == 1.0
    for n in range(4, 13):
        rep = weak_vs_trace_demo(n)
        assert isinstance(rep, WeakTraceReport)
        assert rep.d1 == n + 1 and rep.d2 == 3
        assert rep.max_pairing == 0.0
        assert rep.trace_norm_gap == 1.0


def test_weak_vs_trace_demo_rejects_bad_n():
    with pytest.raises(ValueError, match="n must be >= 1"):
        weak_vs_trace_demo(0)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_partial_trace_linearity_property(seed, d1, d2):
    rng = np.random.default_rng(seed)
    f = herm(rng, d1 * d2)
    g = herm(rng, d1 * d2)
    lhs = partial_trace_2(f + 2.0 * g, d1, d2)
    rhs = partial_trace_2(f, d1, d2) + 2.0 * partial_trace_2(g, d1, d2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_marginals_of_psd_are_psd_property(seed, d1, d2):
    rng = np.random.default_rng(seed)
    a = crand(rng, d1 * d2, d1 * d2)
    f = a @ a.conj().T
    for marg in marginal_pair(f, d1, d2):
        assert np.linalg.eigvalsh((marg + marg.conj().T) / 2).min() >= -1e-10
