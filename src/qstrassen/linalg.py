"""Dense complex Hermitian/general matrix kernels.

Eigendecompositions, singular value decompositions, PSD projection, Schatten
norms, and the singular-value inequality checkers the rest of the package
builds on, with the scalar helpers (extreme eigenvalues, traces, pairings)
and the input checks (marginal pair, orthonormal basis) that every entry
point shares. Conventions used throughout:

- eigenvalues and singular values are returned sorted nonincreasing;
- complex scalars are ordinary double-precision complex numbers, no arbitrary
  precision anywhere;
- the package-wide tolerances are the constants of ``DEFAULT_TOL``, a
  :class:`ToleranceConfig`.

All functions are pure; values are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "EigendecompositionError",
    "HermitianOperator",
    "SingularSpectrum",
    "hermitize",
    "hermitian_eig",
    "psd_project",
    "schatten_norm",
    "singular_values",
    "trace_norm",
    "SvProductBound",
    "TraceInequalityBound",
    "HsProductBound",
    "check_sv_product_bound",
    "check_trace_inequality",
    "check_hs_product_bound",
]

_MAGNITUDE_GUARD = 1e150


@dataclass(frozen=True)
class ToleranceConfig:
    """Central numeric tolerances; the package reads them from ``DEFAULT_TOL``.

    reconstruction: relative factorization residual for eig/SVD outputs
    orthonormal: Gram-matrix deviation allowed for orthonormal vector sets
    subspace_drop: Gram-Schmidt residual norm below which a vector is dropped
    support_rel: relative eigenvalue threshold for support detection
    """

    reconstruction: float = 1e-9
    orthonormal: float = 1e-10
    subspace_drop: float = 1e-10
    support_rel: float = 1e-10


DEFAULT_TOL = ToleranceConfig()


class EigendecompositionError(RuntimeError):
    """Iterative eigensolver/SVD failed to converge within its budget.

    Carries the factorization residual (when one could be computed) so the
    caller can report how bad the failure was.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class _Frozen:
    """Base of the package's immutable types: ``_set`` writes fields, assignment raises."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def as_matrix(a) -> np.ndarray:
    """The complex matrix of an operator argument, the one rule every entry point reads by.

    Arrays (and nested lists) convert to a complex ndarray. A HermitianOperator
    gives its matrix, and a DensityOperator or BipartiteOperator the matrix of
    the HermitianOperator it holds in ``.op``.
    """
    if not isinstance(a, np.ndarray):  # so the ndarray path costs one check
        a = getattr(a, "op", a)
        if isinstance(a, HermitianOperator):
            return a.mat
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def _herm_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2 of a square matrix, as a fresh array."""
    return (m + m.conj().T) / 2


def hermitize(a) -> np.ndarray:
    """Return the Hermitian part (A + A*)/2 as a fresh array."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"cannot hermitize a non-square matrix of shape {m.shape}")
    return _herm_part(m)


class HermitianOperator(_Frozen):
    """Dense complex Hermitian matrix with its dimension.

    Construction symmetrizes, so the stored matrix is exactly Hermitian up to
    floating point. The entries are frozen (numpy write flag cleared).
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = as_matrix(mat)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"Hermitian operator must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("Hermitian operator must have dim >= 1")
        with np.errstate(invalid="ignore"):  # an inf entry turns NaN; the input checks reject both
            m = _herm_part(m)
        m.setflags(write=False)
        self._set(mat=m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim}, trace={self.trace():.6g})"


@dataclass(frozen=True)
class SingularSpectrum:
    """SVD data: nonincreasing values and orthonormal left/right vector columns.

    Satisfies A = sum_i values[i] * left[:, i] right[:, i]^* up to the
    reconstruction tolerance.
    """

    values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


def _eigh(m: np.ndarray):
    """np.linalg.eigh (ascending eigenvalues) with the package's error type."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(
            f"eigendecomposition did not converge for dim {m.shape[-1]}: {exc}"
        ) from exc


def hermitian_eig(h, check: bool = False):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : HermitianOperator or array
        Input matrix; it is symmetrized before factorization.
    check : bool
        When True, verify the reconstruction residual
        ||V diag(w) V* - H||_F <= DEFAULT_TOL.reconstruction * max(1, ||H||_2)
        and raise EigendecompositionError if it fails.

    Returns
    -------
    (w, v) : eigenvalues sorted nonincreasing (real 1-D array) and the
        matching orthonormal eigenvector columns.
    """
    m = hermitize(h)
    w, v = _eigh(m)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    if check:
        resid = float(np.linalg.norm((v * w) @ v.conj().T - m))
        bound = DEFAULT_TOL.reconstruction * max(1.0, float(np.abs(w).max(initial=0.0)))
        if resid > bound:
            raise EigendecompositionError(
                f"eigendecomposition residual {resid:.3e} exceeds {bound:.3e}", residual=resid
            )
    return w, v


def psd_project(h):
    """Frobenius-nearest positive semidefinite matrix.

    Reads only the lower triangle of ``h``, as ``eigh`` does: hermitize a
    possibly non-Hermitian input first. Negative eigenvalues are clipped to
    zero and the result is hermitized, exactly Hermitian. Returns a
    HermitianOperator when given one, otherwise a plain array.
    """
    if isinstance(h, HermitianOperator):
        return HermitianOperator(psd_project(h.mat))
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    w, v = _eigh(m)
    np.maximum(w, 0.0, out=w)
    return _herm_part((v * w) @ v.conj().T)


def _guard_magnitude(m: np.ndarray, name: str = "matrix") -> None:
    if m.size and float(np.max(np.abs(m))) > _MAGNITUDE_GUARD:
        raise ValueError(f"{name} has entries above the magnitude guard {_MAGNITUDE_GUARD:g}")


def _tr(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def _hs(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt pairing Re tr(a^* b)."""
    return float(np.vdot(a, b).real)


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(m))[0])


def _max_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(m))[-1])


def _check_psd(m: np.ndarray, name: str) -> None:
    """Finite entries and PSD to -1e-9; eigvalsh gives finite values for a NaN matrix."""
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has a non-finite entry")
    low = _min_eig(m)
    if low < -1e-9:
        raise ValueError(f"{name} is not PSD: min eigenvalue {low:.3e}")


def _check_marginals(r1, r2, names=("rho1", "rho2"), equal_traces: bool = True) -> None:
    """Each marginal within the magnitude guard and PSD to -1e-9, then traces equal to 1e-9."""
    for name, r in zip(names, (r1, r2)):
        _guard_magnitude(r, name)
        _check_psd(r, name)
    dev = abs(_tr(r1) - _tr(r2))
    if equal_traces and not dev <= 1e-9:
        raise ValueError(
            f"Sigma membership violated: |tr {names[0]} - tr {names[1]}| = {dev:.3e} exceeds 1e-9"
        )


def _check_orthonormal(v: np.ndarray, name: str) -> None:
    """The columns of ``v`` are orthonormal: Gram deviation within DEFAULT_TOL.orthonormal."""
    tol = DEFAULT_TOL.orthonormal
    dev = float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1])), initial=0.0))
    if not dev <= tol:  # also rejects NaN
        raise ValueError(f"{name} is not orthonormal within {tol:g}: Gram deviation {dev:.3e}")


def schatten_norm(a, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}.

    p=1 sums the singular values, p=2 is the Frobenius norm computed directly
    from the entries, p=inf is the largest singular value.
    """
    m = as_matrix(a)
    _guard_magnitude(m)
    if p == 2:
        return float(np.sqrt(np.sum(np.abs(m) ** 2)))
    if m.size == 0:
        return 0.0
    s = _svdvals(m)
    if p == 1:
        return float(np.sum(s))
    if p in (np.inf, float("inf")) or p == "inf":
        return float(s[0])
    raise ValueError(f"unsupported Schatten index {p!r}; use 1, 2, or inf")


def trace_norm(a) -> float:
    """Trace norm ||A||_1 (sum of singular values)."""
    return schatten_norm(a, 1)


def singular_values(a, check: bool = False) -> SingularSpectrum:
    """Full singular value decomposition as a SingularSpectrum.

    The returned triple satisfies A = sum_i s_i g_i f_i^* with g/f the left
    and right vector columns and s nonincreasing (tiny negatives clamped).
    """
    m = as_matrix(a)
    _guard_magnitude(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"SVD did not converge: {exc}") from exc
    s = np.maximum(s, 0.0)
    spec = SingularSpectrum(values=s, left_vectors=u, right_vectors=vh.conj().T)
    if check:
        resid = float(np.linalg.norm((u * s) @ vh - m))
        top = float(s[0]) if s.size else 0.0
        if resid > DEFAULT_TOL.reconstruction * max(1.0, top):
            raise EigendecompositionError(f"SVD residual {resid:.3e} too large", residual=resid)
    return spec


def _svdvals(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.zeros(0)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"SVD did not converge: {exc}") from exc


@dataclass(frozen=True)
class SvProductBound:
    """Per-index margins for sigma_i(AL) <= sigma_i(L) ||A|| and the LA twin."""

    sigma_l: np.ndarray
    norm_a: float
    sigma_al: np.ndarray
    sigma_la: np.ndarray
    margins_al: np.ndarray
    margins_la: np.ndarray

    @property
    def min_margin(self) -> float:
        vals = np.concatenate([self.margins_al, self.margins_la])
        return float(vals.min()) if vals.size else 0.0


@dataclass(frozen=True)
class TraceInequalityBound:
    """Report for sum_i |<L x_i, y_i>| <= sum of the top singular values."""

    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class HsProductBound:
    """Report for ||LM||_1 <= ||L||_2 ||M||_2 plus the trace identity tr LM = <L, M^*>."""

    hs_l: float
    hs_m: float
    trace_norm_lm: float
    trace_lm: complex
    inner_lm: complex

    @property
    def margin(self) -> float:
        return self.hs_l * self.hs_m - self.trace_norm_lm

    @property
    def trace_identity_error(self) -> float:
        return abs(self.trace_lm - self.inner_lm)


def _padded(s: np.ndarray, n: int) -> np.ndarray:
    if s.size >= n:
        return s[:n]
    return np.concatenate([s, np.zeros(n - s.size)])


def check_sv_product_bound(a, l) -> SvProductBound:
    """Margins of the product bounds sigma_i(AL), sigma_i(LA) <= sigma_i(L) ||A||.

    Both products AL and LA must be defined, i.e. A is p x q and L is q x p.
    Margins are sigma_i(L) ||A|| - sigma_i(AL) per index (and the LA twin);
    they are nonnegative up to roundoff for every valid input pair.
    """
    am = as_matrix(a)
    lm = as_matrix(l)
    if am.shape[1] != lm.shape[0] or lm.shape[1] != am.shape[0]:
        raise ValueError(f"shapes {am.shape} and {lm.shape} do not admit both products AL and LA")
    sigma_l = _svdvals(lm)
    norm_a = float(_svdvals(am)[0]) if am.size else 0.0
    sigma_al = _svdvals(am @ lm)
    sigma_la = _svdvals(lm @ am)
    bound_al = _padded(sigma_l, sigma_al.size) * norm_a
    bound_la = _padded(sigma_l, sigma_la.size) * norm_a
    return SvProductBound(
        sigma_l=sigma_l,
        norm_a=norm_a,
        sigma_al=sigma_al,
        sigma_la=sigma_la,
        margins_al=bound_al - sigma_al,
        margins_la=bound_la - sigma_la,
    )


def check_trace_inequality(l, xs, ys) -> TraceInequalityBound:
    """Check sum_i |<L x_i, y_i>| against the sum of L's top singular values.

    xs and ys are matrices whose columns are the two orthonormal vector sets;
    they must have the same cardinality n, with n at most the matching
    dimension of L. Equality is attained when xs/ys are the right/left
    singular vectors of L.
    """
    lm = as_matrix(l)
    x = np.asarray(xs, dtype=complex)
    y = np.asarray(ys, dtype=complex)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("xs and ys must be matrices with the same number of columns")
    n = x.shape[1]
    if x.shape[0] != lm.shape[1] or y.shape[0] != lm.shape[0]:
        raise ValueError(
            f"vector dimensions {x.shape[0]}, {y.shape[0]} do not match L of shape {lm.shape}"
        )
    if n > min(lm.shape):
        raise ValueError(f"cardinality {n} exceeds min dimension {min(lm.shape)} of L")
    _check_orthonormal(x, "xs")
    _check_orthonormal(y, "ys")
    pair = np.einsum("ij,ik,kj->j", y.conj(), lm, x)
    lhs = float(np.sum(np.abs(pair)))
    rhs = float(np.sum(_svdvals(lm)[:n]))
    return TraceInequalityBound(lhs=lhs, rhs=rhs)


def check_hs_product_bound(l, m) -> HsProductBound:
    """Check ||LM||_1 <= ||L||_2 ||M||_2 and the identity tr LM = <L, M^*>.

    L must be p x q and M q x p so that LM is square. The inner product is
    the Hilbert-Schmidt pairing <A, B> = tr(B^* A), evaluated entrywise as an
    independent route to the trace.
    """
    lm_ = as_matrix(l)
    mm = as_matrix(m)
    if lm_.shape[1] != mm.shape[0] or mm.shape[1] != lm_.shape[0]:
        raise ValueError(f"shapes {lm_.shape} and {mm.shape} do not compose to a square product")
    prod = lm_ @ mm
    return HsProductBound(
        hs_l=schatten_norm(lm_, 2),
        hs_m=schatten_norm(mm, 2),
        trace_norm_lm=float(np.sum(_svdvals(prod))),
        trace_lm=complex(np.trace(prod)),
        inner_lm=complex(np.vdot(mm.conj().T, lm_)),
    )
