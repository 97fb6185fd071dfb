"""Tensor-product bookkeeping: partial traces, subspaces, truncation projectors.

The composite index convention is fixed once and for all: the pair (i, p) with
i in [d1], p in [d2] maps to the flat index i*d2 + p (first factor major).
Every matrix in the package and in the file format uses this order; it is what
``numpy.kron`` produces and what the reshape-based partial traces assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    DEFAULT_TOL, HermitianOperator, _check_orthonormal, _check_psd, _Frozen, as_matrix, hermitize,
)

__all__ = [
    "BipartiteOperator",
    "DensityOperator",
    "Subspace",
    "EmptySubspaceError",
    "composite_index",
    "partial_trace_2",
    "partial_trace_1",
    "marginal_pair",
    "adjoint_marginal",
    "subspace_from_vectors",
    "truncation_projector",
    "compress_subspace_h2_finite",
    "weak_vs_trace_demo",
    "WeakTraceReport",
]


class EmptySubspaceError(ValueError):
    """All spanning vectors were degenerate; the subspace would be empty."""


def composite_index(i: int, p: int, d2: int) -> int:
    """Flat index of the basis vector e_i (x) e_p."""
    return i * d2 + p


class BipartiteOperator(_Frozen):
    """Hermitian operator on a d1 (x) d2 tensor product space."""

    __slots__ = ("d1", "d2", "op")

    def __init__(self, mat, d1: int, d2: int):
        if d1 < 1 or d2 < 1:
            raise ValueError(f"factor dimensions must be positive, got ({d1}, {d2})")
        op = HermitianOperator(mat)
        if op.dim != d1 * d2:
            raise ValueError(f"operator dim {op.dim} does not equal d1*d2 = {d1 * d2}")
        self._set(d1=d1, d2=d2, op=op)

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.d1 * self.d2

    def __repr__(self) -> str:
        return f"BipartiteOperator(d1={self.d1}, d2={self.d2}, trace={self.op.trace():.6g})"


class DensityOperator(_Frozen):
    """PSD Hermitian operator with a prescribed trace (1 for normalized states), both to 1e-9."""

    __slots__ = ("op", "trace_target")

    def __init__(self, mat, trace_target: float = 1.0):
        op = HermitianOperator(mat)
        _check_psd(op.mat, "density operator")
        tr = op.trace()
        dev = abs(tr - trace_target)
        if not dev <= 1e-9:
            raise ValueError(f"trace {tr!r} deviates from target {trace_target!r} by {dev:.3e}")
        self._set(op=op, trace_target=float(trace_target))

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim}, trace={self.trace_target:g})"


class Subspace(_Frozen):
    """Subspace given by orthonormal basis columns, with its projector cached."""

    __slots__ = ("ambient_dim", "basis", "_projector")

    def __init__(self, ambient_dim: int, basis):
        b = np.asarray(basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != ambient_dim:
            raise ValueError(f"basis must be {ambient_dim} x k, got shape {b.shape}")
        if b.shape[1] < 1:
            raise EmptySubspaceError("subspace needs at least one basis vector")
        _check_orthonormal(b, "basis")
        b = b.copy()
        b.setflags(write=False)
        self._set(ambient_dim=int(ambient_dim), basis=b, _projector=None)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def check_factors(self, d1: int, d2: int) -> None:
        """Raise ``ValueError`` unless the ambient space is d1 (x) d2."""
        if self.ambient_dim != d1 * d2:
            raise ValueError(f"subspace ambient dim {self.ambient_dim} does not match {d1}*{d2}")

    @property
    def projector(self) -> HermitianOperator:
        if self._projector is None:
            p = self.basis @ self.basis.conj().T
            self._set(_projector=HermitianOperator(p))
        return self._projector

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def _trace2_mat(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    return np.einsum("ipjp->ij", m.reshape(d1, d2, d1, d2))


def _trace1_mat(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    return np.einsum("ipiq->pq", m.reshape(d1, d2, d1, d2))


@lru_cache(maxsize=None)
def _kron_sum_index(d1: int, d2: int):
    """Read-only indices of Y1 (x) I and of I (x) Y2 into [vec Y1, vec Y2, 0]."""
    i, p, j, q = np.ogrid[:d1, :d2, :d1, :d2]
    zero = d1 * d1 + d2 * d2
    idx = np.stack([np.where(p == q, i * d1 + j, zero),
                    np.where(i == j, d1 * d1 + p * d2 + q, zero)]).reshape(2, d1 * d2, d1 * d2)
    idx.setflags(write=False)
    return idx


def _kron_sum_mat(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Y1 (x) I + I (x) Y2 as a fresh complex matrix, the adjoint of (tr_2, tr_1).

    Two ``take``s with cached index arrays give the entries of np.kron at
    about half the cost of broadcast products.
    """
    idx1, idx2 = _kron_sum_index(y1.shape[0], y2.shape[0])
    flat = np.concatenate((y1.reshape(-1), y2.reshape(-1), [0j]))
    out = flat.take(idx1)
    out += flat.take(idx2)
    return out


def _resolve_bipartite(f, d1, d2):
    if isinstance(f, BipartiteOperator):
        return f.mat, f.d1, f.d2, True
    if d1 is None or d2 is None:
        raise ValueError("raw matrix input needs explicit factor dimensions d1, d2")
    m = as_matrix(f)
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {m.shape} does not match dims ({d1}, {d2})")
    return m, d1, d2, False


def partial_trace_2(f, d1: int | None = None, d2: int | None = None):
    """Trace out the second factor: (tr_2 F)[i, j] = sum_p F[(i,p), (j,p)].

    Accepts a BipartiteOperator (returns a HermitianOperator) or a raw matrix
    with explicit dims (returns an ndarray). Trace is preserved.
    """
    m, d1, d2, wrapped = _resolve_bipartite(f, d1, d2)
    out = _trace2_mat(m, d1, d2)
    return HermitianOperator(out) if wrapped else out


def partial_trace_1(f, d1: int | None = None, d2: int | None = None):
    """Trace out the first factor: (tr_1 F)[p, q] = sum_i F[(i,p), (i,q)]."""
    m, d1, d2, wrapped = _resolve_bipartite(f, d1, d2)
    out = _trace1_mat(m, d1, d2)
    return HermitianOperator(out) if wrapped else out


def marginal_pair(f, d1: int | None = None, d2: int | None = None):
    """Both marginals (tr_2 F, tr_1 F) of a bipartite operator."""
    m, d1, d2, wrapped = _resolve_bipartite(f, d1, d2)
    t2 = _trace2_mat(m, d1, d2)
    t1 = _trace1_mat(m, d1, d2)
    if wrapped:
        return HermitianOperator(t2), HermitianOperator(t1)
    return t2, t1


def adjoint_marginal(y1, y2) -> BipartiteOperator:
    """Adjoint of the marginal map: (Y1, Y2) -> Y1 (x) I + I (x) Y2.

    Satisfies the pairing identity <(tr_2 X, tr_1 X), (Y1, Y2)> = <X, Y1 (x) I + I (x) Y2>.
    """
    m1 = hermitize(y1)
    m2 = hermitize(y2)
    return BipartiteOperator(_kron_sum_mat(m1, m2), m1.shape[0], m2.shape[0])


def orthonormalize(vectors, ambient_dim: int, drop_tol: float) -> np.ndarray:
    """Modified two-pass Gram-Schmidt; near-dependent vectors are dropped.

    Inputs are normalized first, so the drop threshold acts on the relative
    residual. Returns the orthonormal columns (possibly none).
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        w = np.asarray(v, dtype=complex).reshape(-1)
        if w.shape[0] != ambient_dim:
            raise ValueError(f"vector length {w.shape[0]} does not match ambient dim {ambient_dim}")
        nrm = float(np.linalg.norm(w))
        if nrm <= drop_tol:
            continue
        w = w / nrm
        for _ in range(2):
            for b in basis:
                w = w - b * np.vdot(b, w)
        nrm = float(np.linalg.norm(w))
        if nrm > drop_tol:
            basis.append(w / nrm)
    if not basis:
        return np.zeros((ambient_dim, 0), dtype=complex)
    return np.column_stack(basis)


def subspace_from_vectors(ambient_dim: int, vectors) -> Subspace:
    """Build a Subspace from a spanning set (orthonormalized, rank deficiency tolerated).

    Raises EmptySubspaceError when every vector is degenerate.
    """
    basis = orthonormalize(vectors, ambient_dim, DEFAULT_TOL.subspace_drop)
    if basis.shape[1] == 0:
        raise EmptySubspaceError("all spanning vectors were dropped as degenerate")
    return Subspace(ambient_dim, basis)


def truncation_projector(n1: int, n2: int, d1: int, d2: int) -> BipartiteOperator:
    """Projector onto span{e_i (x) e_p : i < n1, p < n2} inside the d1 (x) d2 space."""
    if not (1 <= n1 <= d1) or not (1 <= n2 <= d2):
        raise ValueError(f"truncation levels ({n1}, {n2}) out of range for dims ({d1}, {d2})")
    diag1 = np.zeros(d1)
    diag1[:n1] = 1.0
    diag2 = np.zeros(d2)
    diag2[:n2] = 1.0
    proj = np.kron(np.diag(diag1), np.diag(diag2)).astype(complex)
    return BipartiteOperator(proj, d1, d2)


def compress_subspace_h2_finite(x: Subspace, d1: int, d2: int) -> tuple[np.ndarray, Subspace]:
    """Shrink the first factor to the span of the subspace's factor-1 slices.

    Writing each basis vector as x_l = sum_p u_{l,p} (x) e_p, the vectors
    u_{l,p} span a subspace H1' of the first factor with dim <= dim(x) * d2,
    and x lies inside H1' (x) H2. Returns the isometric embedding (orthonormal
    columns of shape d1 x d1') and the subspace re-expressed on the compressed
    d1' (x) d2 space.
    """
    x.check_factors(d1, d2)
    vr = x.basis.reshape(d1, d2, x.dim)
    slices = [vr[:, p, l] for l in range(x.dim) for p in range(d2)]
    embedding = orthonormalize(slices, d1, DEFAULT_TOL.subspace_drop)
    r = embedding.shape[1]
    if r == 0:
        raise EmptySubspaceError("subspace has no factor-1 content")
    compressed = np.einsum("ir,ipl->rpl", embedding.conj(), vr).reshape(r * d2, x.dim)
    # The compression is an isometry on the subspace, so columns stay orthonormal;
    # re-orthonormalize anyway to shed roundoff before the Subspace validation.
    basis = orthonormalize(compressed.T, r * d2, DEFAULT_TOL.subspace_drop)
    if basis.shape[1] != x.dim:
        raise ValueError("compression unexpectedly dropped subspace directions")
    return embedding, Subspace(r * d2, basis)


@dataclass(frozen=True)
class WeakTraceReport:
    """Weak pairings versus the trace-norm of a marginal for one shifting pure state."""

    n: int
    d1: int
    d2: int
    max_pairing: float
    trace_norm_gap: float


def weak_vs_trace_demo(n: int) -> WeakTraceReport:
    """Finite window of the escaping-state effect: pairings vanish, the marginal does not.

    The state rho_n = (e_n (x) e_1)(e_n (x) e_1)^* drifts along the first
    factor's basis as n grows. Its pairings against every fixed test vector
    supported on the first 3 coordinates of each factor drop to exactly zero
    once n > 3, while the second marginal stays e_1 e_1^* with trace norm
    exactly 1. Computed on the finite window d1 = n + 1, d2 = 3 (the second
    factor only needs to hold the test-vector window).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d1 = n + 1
    d2 = 3
    v = np.zeros(d1 * d2, dtype=complex)
    v[composite_index(n - 1, 0, d2)] = 1.0  # e_n (x) e_1, 1-based labels
    rho = np.outer(v, v.conj())
    # The pairing of e_j (x) e_q with rho (e_i (x) e_p) is the entry rho[(j, q), (i, p)].
    max_pairing = np.abs(rho.reshape(d1, d2, d1, d2)[:3, :3, :3, :3]).max()
    marg2 = _trace1_mat(rho, d1, d2)
    gap = float(np.sum(np.abs(np.linalg.eigvalsh(marg2))))
    return WeakTraceReport(n=n, d1=d1, d2=d2, max_pairing=float(max_pairing), trace_norm_gap=gap)
