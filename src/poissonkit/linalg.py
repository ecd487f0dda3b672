"""Exact linear algebra over Gaussian rationals.

Matrices are lists of lists of :class:`GaussianRational`.  One Gauss-Jordan
elimination, :func:`rref`, answers rank, kernel, solve, inverse and span
questions; :func:`det` keeps a separate fraction-free (Bareiss) elimination,
and :func:`minor_sums` reads every sum of squared minors from one
characteristic polynomial over the Gaussian integers, with neither.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .scalars import GaussianRational, ZERO, ONE


def sort_with_sign(indices):
    """Sort an index tuple, returning (sorted tuple, sign of the sorting
    permutation), or None if an index repeats (the wedge vanishes)."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    # insertion sort, counting transpositions
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    return tuple(idx), sign


def mat(rows) -> list:
    return [[GaussianRational.coerce(x) for x in row] for row in rows]


def zeros(n: int, m: int) -> list:
    return [[ZERO for _ in range(m)] for _ in range(n)]


def identity(n: int) -> list:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> list:
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        for j in range(m):
            s = ZERO
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


def mat_vec(a, v) -> list:
    return [sum((a[i][j] * v[j] for j in range(len(v))), ZERO) for i in range(len(a))]


def mat_add(a, b) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a) -> list:
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_mat(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def rank(matrix) -> int:
    """Exact rank: the number of pivots of :func:`rref`."""
    return len(rref(matrix)[1])


def rref(matrix):
    """Reduced row echelon form over the field; returns (rref, pivot columns)."""
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv_row = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                piv_row = i
                break
        if piv_row is None:
            continue
        m[r], m[piv_row] = m[piv_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(matrix) -> list:
    """Basis of the right kernel (list of vectors)."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    red, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(matrix, rhs):
    """One exact solution of ``A x = b`` or ``None`` if inconsistent."""
    if not matrix:
        return [] if all(GaussianRational.coerce(b).is_zero() for b in rhs) else None
    aug = [list(row) + [GaussianRational.coerce(b)] for row, b in zip(matrix, rhs)]
    red, pivots = rref(aug)
    ncols = len(matrix[0])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def inverse(matrix):
    """Exact inverse, or ``None`` if singular."""
    n = len(matrix)
    aug = [list(row) + list(idr) for row, idr in zip(matrix, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def det(matrix) -> GaussianRational:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Public API, and deliberately not built on :func:`rref`, so the tests can
    use it as a rank oracle independent of :func:`rank`.  ``poisson.r_k``
    does not call it: the minor sums come from :func:`minor_sums`.
    """
    n = len(matrix)
    if n == 0:
        return ONE
    m = [list(row) for row in matrix]
    prev = ONE
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = None
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    swap = i
                    break
            if swap is None:
                return ZERO
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = ZERO
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def minor_sums(matrix) -> list:
    """``[r_0, ..., r_n]`` for an n x n ``matrix``, where ``r_k`` is the sum of
    ``|minor|^2`` over all k x k minors, as exact ``Fraction`` values.

    By Cauchy-Binet, ``r_k(A) = e_k(A A^H)``: the k-th elementary symmetric
    function of the eigenvalues of the Hermitian matrix ``A A^H``, i.e.
    ``(-1)^k`` times a coefficient of its characteristic polynomial.  With
    ``d`` the common denominator of ``A`` and ``M = d A = P + iQ`` over the
    Gaussian integers, ``H = M M^H = (P P^T + Q Q^T) + i(Q P^T - P Q^T)`` has
    an integer characteristic polynomial, which Faddeev-LeVerrier computes in
    O(n^4) integer operations; ``r_k = e_k(H) / d^(2k)``.  Independent of
    :func:`rank`, :func:`rref` and :func:`det`, so the rank-vs-minors
    cross-checks compare two different computations.
    """
    n = len(matrix)
    d = lcm(*(x.d for row in matrix for x in row))
    p = [[x.a * (d // x.d) for x in row] for row in matrix]
    q = [[x.b * (d // x.d) for x in row] for row in matrix]
    hr = [[_dot(pa, pb) + _dot(qa, qb) for pb, qb in zip(p, q)] for pa, qa in zip(p, q)]
    hi = [[_dot(qa, pb) - _dot(pa, qb) for pb, qb in zip(p, q)] for pa, qa in zip(p, q)]
    # Faddeev-LeVerrier: N_1 = I, c_k = -tr(H N_k) / k, N_(k+1) = H N_k + c_k I;
    # det(t I - H) = sum_k c_k t^(n-k) and e_k(H) = (-1)^k c_k.
    nr = [[int(i == j) for j in range(n)] for i in range(n)]
    ni = [[0] * n for _ in range(n)]
    sums = [Fraction(1)]
    for k in range(1, n + 1):
        cr, ci = list(zip(*nr)), list(zip(*ni))
        nr = [[_dot(a, x) - _dot(b, y) for x, y in zip(cr, ci)] for a, b in zip(hr, hi)]
        ni = [[_dot(a, y) + _dot(b, x) for x, y in zip(cr, ci)] for a, b in zip(hr, hi)]
        tr = sum(nr[i][i] for i in range(n))
        if tr % k or sum(ni[i][i] for i in range(n)):
            raise ArithmeticError(f"Faddeev-LeVerrier step {k} is not exact over Z[i]")
        c = -tr // k
        sums.append(Fraction(c if k % 2 == 0 else -c, d ** (2 * k)))
        for i in range(n):
            nr[i][i] += c
    return sums


def in_span(vectors, v) -> bool:
    """Exact membership of ``v`` in the span of ``vectors``."""
    if all(GaussianRational.coerce(x).is_zero() for x in v):
        return True
    if not vectors:
        return False
    base = rank(vectors)
    return rank(list(vectors) + [list(v)]) == base


def subspace_equal(basis_a, basis_b) -> bool:
    """Exact equality of spans."""
    ra = rank(basis_a)
    rb = rank(basis_b)
    if ra != rb:
        return False
    return rank(list(basis_a) + list(basis_b)) == ra


def annihilator(vectors, dim: int) -> list:
    """Basis of the annihilator in the dual of ``span(vectors)`` inside R^dim."""
    if not vectors:
        return [row[:] for row in identity(dim)]
    return nullspace([list(v) for v in vectors])
