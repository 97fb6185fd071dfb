"""Independent oracles the unit and acceptance tests check the library against.

Everything in here is deliberately primitive: quadruple loops, characteristic
polynomials, exhaustive subset enumeration, grid search. None of it calls back
into qstrassen, so agreement between an oracle and the library is meaningful
evidence rather than a tautology. Keep it that way when editing.
"""

from __future__ import annotations

import itertools

import numpy as np


def charpoly_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via characteristic-polynomial roots.

    Coefficients come from the Faddeev-LeVerrier recursion, roots from
    ``np.roots`` (companion-matrix QR, a different algorithm and code path
    than ``eigh``). Returns the real parts sorted nonincreasing; imaginary
    dust is asserted small since the input is Hermitian.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    coeffs = np.zeros(d + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(h)
    for k in range(1, d + 1):
        m = h @ m + coeffs[k - 1] * np.eye(d)
        coeffs[k] = -np.trace(h @ m) / k
    roots = np.roots(coeffs)
    assert np.max(np.abs(roots.imag)) < 1e-6, "charpoly oracle: complex roots on Hermitian input"
    return np.sort(roots.real)[::-1]


def psd_nearest_by_factor_descent(
    h: np.ndarray, iters: int = 4000, restarts: int = 6, seed: int = 0
) -> np.ndarray:
    """Frobenius-nearest PSD matrix via gradient descent on a factor L (P = L L*).

    Avoids eigendecompositions entirely so it is independent of the library's
    projection. The factored objective ||L L* - H||_F^2 is nonconvex in L but
    has no spurious local minima at full factor rank; a handful of random
    restarts makes the best-of runs reliable at the d <= 4 sizes we use.
    """
    h = np.asarray(h, dtype=complex)
    h = (h + h.conj().T) / 2
    d = h.shape[0]
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.linalg.norm(h)))
    best = None
    best_val = np.inf
    for _ in range(restarts):
        l = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * 0.3 * scale
        step = 0.25 / (scale ** 2 + 1.0)
        for it in range(iters):
            m = l @ l.conj().T - h
            grad = 4.0 * (m @ l)
            l_new = l - step * grad
            if not np.all(np.isfinite(l_new)):
                step *= 0.5
                continue
            l = l_new
            if it % 500 == 499:
                step *= 0.7  # cool down for a tight tail
        val = float(np.linalg.norm(l @ l.conj().T - h) ** 2)
        if val < best_val:
            best_val = val
            best = l @ l.conj().T
    out = (best + best.conj().T) / 2
    return out


def partial_trace_2_sum(f: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Trace out the second factor with explicit index sums, (i,p) -> i*d2 + p."""
    out = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for p in range(d2):
                out[i, j] += f[i * d2 + p, j * d2 + p]
    return out


def partial_trace_1_sum(f: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Trace out the first factor with explicit index sums, (i,p) -> i*d2 + p."""
    out = np.zeros((d2, d2), dtype=complex)
    for p in range(d2):
        for q in range(d2):
            for i in range(d1):
                out[p, q] += f[i * d2 + p, i * d2 + q]
    return out


def golden_section_min(fn, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi]; returns (argmin, min)."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = (a + b) / 2
    return x, fn(x)


def hall_feasible(mu1: np.ndarray, mu2: np.ndarray, edges: set[tuple[int, int]], slack: float = 1e-12) -> bool:
    """Exhaustive Hall-type condition for the transportation polytope.

    A coupling with support inside ``edges`` exists iff for every subset S of
    rows, mu1(S) <= mu2(N(S)) where N(S) is the set of columns reachable from
    S. Checks all 2^m subsets; fine for m <= ~15.
    """
    m = len(mu1)
    n = len(mu2)
    neighbors = [set(j for (i2, j) in edges if i2 == i) for i in range(m)]
    for mask in range(1, 1 << m):
        rows = [i for i in range(m) if mask >> i & 1]
        cols: set[int] = set()
        for i in rows:
            cols |= neighbors[i]
        lhs = sum(mu1[i] for i in rows)
        rhs = sum(mu2[j] for j in cols if j < n)
        if lhs > rhs + slack:
            return False
    return True


def marginal_map_real_matrix(d1: int, d2: int) -> np.ndarray:
    """Real matrix of X -> (tr_2 X, tr_1 X) on the real vector space of Hermitian matrices.

    Hermitian d x d matrices are coordinatized by d^2 reals: the diagonal,
    then sqrt-2-scaled real and imaginary parts of the strict upper triangle.
    Used to compute kernel directions of the marginal map for fiber grids.
    """

    def herm_basis(d):
        basis = []
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, i] = 1.0
            basis.append(e)
        s = 1.0 / np.sqrt(2.0)
        for i in range(d):
            for j in range(i + 1, d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = s
                e[j, i] = s
                basis.append(e)
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1j * s
                e[j, i] = -1j * s
                basis.append(e)
        return basis

    def herm_coords(a, d):
        v = [a[i, i].real for i in range(d)]
        s = np.sqrt(2.0)
        for i in range(d):
            for j in range(i + 1, d):
                v.append(a[i, j].real * s)
                v.append(a[i, j].imag * s)
        return np.array(v)

    big = herm_basis(d1 * d2)
    rows = []
    for e in big:
        t2 = partial_trace_2_sum(e, d1, d2)
        t1 = partial_trace_1_sum(e, d1, d2)
        rows.append(np.concatenate([herm_coords(t2, d1), herm_coords(t1, d2)]))
    return np.array(rows).T  # maps coords of X to coords of the marginal pair


def marginal_kernel_directions(d1: int, d2: int, count: int, seed: int = 0) -> list[np.ndarray]:
    """Random Hermitian directions K with tr_2 K = 0 and tr_1 K = 0.

    Spanning directions come from the SVD nullspace of the real marginal-map
    matrix; random combinations of them give generic kernel elements.
    """
    mat = marginal_map_real_matrix(d1, d2)
    _, s, vt = np.linalg.svd(mat, full_matrices=True)
    null = vt[np.sum(s > 1e-10):]
    d = d1 * d2

    def coords_to_herm(v):
        a = np.zeros((d, d), dtype=complex)
        k = 0
        for i in range(d):
            a[i, i] = v[k]
            k += 1
        s2 = 1.0 / np.sqrt(2.0)
        for i in range(d):
            for j in range(i + 1, d):
                a[i, j] = (v[k] + 1j * v[k + 1]) * s2
                a[j, i] = np.conj(a[i, j])
                k += 2
        return a

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = rng.standard_normal(null.shape[0])
        v = w @ null
        k = coords_to_herm(v)
        nrm = np.linalg.norm(k)
        if nrm > 1e-12:
            out.append(k / nrm)
    return out


def all_subsets(items):
    """All subsets of a finite iterable, as tuples."""
    items = list(items)
    return itertools.chain.from_iterable(itertools.combinations(items, r) for r in range(len(items) + 1))


def support_scale_bisect(m1, m2, r1, r2, allow: float, steps: int = 50) -> float:
    """Largest t in [0, 1] with t*m1 <= r1 and t*m2 <= r2 up to ``allow``, by bisection.

    The feasibility test is min_eig(r - t*m) >= -allow on both marginals. It
    holds on an interval [0, t*] when it holds at 0, so ``steps`` halvings pin
    t* to 2^-steps from below. Returns 0 when even t = 0 fails the test.
    """

    def min_eig(m):
        m = np.asarray(m, dtype=complex)
        return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])

    def ok(t: float) -> bool:
        return min_eig(r1 - t * m1) >= -allow and min_eig(r2 - t * m2) >= -allow

    if ok(1.0):
        return 1.0
    if not ok(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo
