"""Exact linear algebra over Gaussian rationals.

Matrices are lists of lists of :class:`GaussianRational` (ints, Fractions
and rational strings are coerced).  One Gauss-Jordan elimination,
:func:`rref`, answers rank, kernel, solve, inverse and span questions;
:func:`det` keeps a separate fraction-free (Bareiss) elimination, and
:func:`minor_sums` reads every sum of squared minors from the power sums
``tr(H^k)`` of one Hermitian integer matrix ``H`` through Newton's
identities, with none of :func:`rank`, :func:`rref` and :func:`det`.

Elimination and products run on integer rows: :func:`_int_row` writes a row
as Python ints over one denominator, :func:`rref` and :func:`rank` eliminate
with ``p*x - f*y`` on primitive integer rows, and :func:`mat_mul` and
:func:`mat_vec` take one integer dot product per output entry, as do
:func:`linear_rows` and :func:`bilinear_rows`, whose rows are converted once
for many calls.  :func:`rank` and :func:`minor_sums` are :func:`_int_row`
followed by an integer-row kernel, :func:`_rank_rows` and
:func:`_elementary_sums`, which a caller holding integer rows (such as
``poisson.stratify_sample``) calls directly.  Only input with an imaginary
part is eliminated one :class:`GaussianRational` at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .scalars import GaussianRational, ZERO, ONE, _make


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


def _int_row(row) -> tuple:
    """``row`` as integers over one denominator: ``(a, b, d)`` with
    ``row[j] == (a[j] + b[j]*i) / d``, ``d`` the lcm of the entries'
    denominators, and ``b`` None when no entry has an imaginary part.
    Ints and Fractions are read directly; other entries that are not
    :class:`GaussianRational` are coerced here, once."""
    try:
        ds = [x.d for x in row]
    except AttributeError:
        try:
            ds = [x.denominator for x in row]
        except AttributeError:
            row = [GaussianRational.coerce(x) for x in row]
            ds = [x.d for x in row]
        else:
            d = lcm(*ds)
            return [x.numerator * (d // e) for x, e in zip(row, ds)], None, d
    b = [x.b for x in row]
    if ds.count(1) == len(ds):
        return [x.a for x in row], (b if any(b) else None), 1
    d = lcm(*set(ds))
    a = [x.a * (d // x.d) for x in row]
    return a, ([x.b * (d // x.d) for x in row] if any(b) else None), d


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _int_dot(u, v) -> GaussianRational:
    """The dot product of two rows given by :func:`_int_row`."""
    (a, b, d), (c, e, f) = u, v
    re, im = _dot(a, c), 0
    if b is not None:
        im = _dot(b, c)
        if e is not None:
            re -= _dot(b, e)
    if e is not None:
        im += _dot(a, e)
    return _make(re, im, d * f)


def mat_mul(a, b) -> list:
    cols = [_int_row(col) for col in zip(*b)]
    return [[_int_dot(r, c) for c in cols] for r in map(_int_row, a)]


def mat_vec(a, v) -> list:
    return linear_rows(a)(v)


def linear_rows(matrix):
    """The map ``v -> matrix . v``.  The rows are converted to integer rows
    here, once; each call converts ``v`` and takes one integer dot product
    per row."""
    rows = [_int_row(row) for row in matrix]

    def values(v) -> list:
        v = _int_row(v)
        return [_int_dot(r, v) for r in rows]

    return values


def bilinear_rows(matrix):
    """The map ``(u, v) -> [sum_{k,l} row[k*len(v) + l] * u[k] * v[l] for
    row in matrix]``.  The rows are converted to integer rows here, once;
    each call converts ``u`` and ``v``, forms their outer product in ints and
    takes one integer dot product per row."""
    rows = [_int_row(row) for row in matrix]

    def values(u, v) -> list:
        (ua, ub, ud), (va, vb, vd) = _int_row(u), _int_row(v)
        if ub is None and vb is None:
            w = ([x * y for x in ua for y in va], None, ud * vd)
        else:
            u, v = list(zip(ua, ub or [0] * len(ua))), list(zip(va, vb or [0] * len(va)))
            w = ([x * y - p * q for x, p in u for y, q in v],
                 [x * q + p * y for x, p in u for y, q in v], ud * vd)
        return [_int_dot(r, w) for r in rows]

    return values


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
    """Exact rank: the number of pivots of the elimination :func:`rref` runs,
    without its back substitution and without building any scalar."""
    rows = [_int_row(row) for row in matrix]
    p = [a for a, _, _ in rows]
    if all(b is None for _, b, _ in rows):
        return _rank_rows(p)
    return _rank_rows(p, [b or [0] * len(a) for a, b, _ in rows])


def _rank_rows(p, q=None) -> int:
    """The rank of the matrix with integer rows ``p + i*q`` (``q`` None when
    every entry is real).  Scaling a row does not change the rank, so rows
    over different denominators need no common one.  The rows are not
    modified."""
    if q is None:
        return len(_eliminate([a for a in p if any(a)], jordan=False))
    return len(_gaussian_rref([[_make(x, y, 1) for x, y in zip(a, b)]
                               for a, b in zip(p, q)])[1])


def rref(matrix):
    """Reduced row echelon form over the field; returns (rref, pivot columns).

    Real input is eliminated on integer rows, and a scalar is built only for
    each nonzero entry of a pivot row."""
    rows = [_int_row(row) for row in matrix]
    if not rows or not rows[0][0]:
        return [list(row) for row in matrix], []
    if any(b is not None for _, b, _ in rows):
        return _gaussian_rref(mat(matrix))
    m = [a for a, _, _ in rows if any(a)]
    pivots = _eliminate(m, jordan=True)
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        if p < 0:
            row, p = [-x for x in row], -p
        out.append([_make(x, 0, p) if x else ZERO for x in row])
    ncols = len(rows[0][0])
    out.extend([ZERO] * ncols for _ in range(len(rows) - len(pivots)))
    return out, pivots


def _eliminate(m, jordan: bool) -> list:
    """Fraction-free Gaussian elimination in place on the nonzero integer
    rows ``m``: ``x -> p*x - f*y`` with the common factor of ``p`` and ``f``
    removed, and every changed row divided by the gcd of its entries, so the
    rows stay primitive.  Pivot rows end first, in order; with ``jordan``
    each pivot column is cleared above its pivot too.  Returns the pivot
    columns."""
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        prow = m[r]
        g = gcd(*prow)
        if g > 1:
            prow = m[r] = [x // g for x in prow]
        p = prow[c]
        for i in range(0 if jordan else r + 1, nrows):
            f = m[i][c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * x - b * y for x, y in zip(m[i], prow)]
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _gaussian_rref(m):
    """:func:`rref` one :class:`GaussianRational` at a time, for input with an
    imaginary part; ``m`` is a coerced, non-empty matrix and is overwritten."""
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


def minor_sums(matrix) -> list:
    """``[r_0, ..., r_n]`` for an n x n ``matrix``, where ``r_k`` is the sum of
    ``|minor|^2`` over all k x k minors, as exact ``Fraction`` values.

    All n^2 entries are written over one denominator ``d``, ``M = d A`` over
    the Gaussian integers, and ``r_k = e_k(M M^H) / d^(2k)`` with
    :func:`_elementary_sums`: power sums and Newton's identities on the
    Hermitian integer matrix ``M M^H``.  Independent of :func:`rank`,
    :func:`rref` and :func:`det`, so the rank-vs-minors cross-checks compare
    two different computations.
    """
    n = len(matrix)
    # all n^2 entries as one row, so over one common denominator
    a, b, d = _int_row([x for row in matrix for x in row])
    p = [a[i * n:(i + 1) * n] for i in range(n)]
    q = None if b is None else [b[i * n:(i + 1) * n] for i in range(n)]
    return [Fraction(e, d ** (2 * k)) for k, e in enumerate(_elementary_sums(p, q))]


def _elementary_sums(p, q=None) -> list:
    """``[e_0(H), ..., e_n(H)]``, integers, for ``H = M M^H`` and ``M = P + iQ``
    the n x n integer matrix with rows ``p`` and ``q`` (``q`` None when ``M``
    is real).

    By Cauchy-Binet ``e_k(H)`` is the sum of ``|minor|^2`` over the k x k
    minors of ``M``.  ``H = (P P^T + Q Q^T) + i(Q P^T - P Q^T)`` is Hermitian,
    so is each power ``H^j``, and ``(X H)_ab = sum_c X_ac conj(H_bc)`` takes
    rows of both factors.  Only ``H, ..., H^ceil(n/2)`` are formed; each
    power sum ``p_k = tr(H^i H^(k-i))``, with ``i = ceil(k/2)``, is one dot
    product of the flattened factors, ``Re sum X_ab conj(Y_ab)``.  Newton's
    identities ``k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) p_i`` then divide
    exactly over the integers; a division that is not exact or a power sum
    with an imaginary part raises ``ArithmeticError``.  When ``q`` is None
    every step runs on the real parts alone.
    """
    n = len(p)
    powers = (n + 1) // 2
    if q is None:
        h = x = _symmetric_product(p, p)
        flat = [_flat(h)]
        for _ in range(powers - 1):
            x = _symmetric_product(x, h)
            flat.append(_flat(x))
        sums = [sum(h[a][a] for a in range(n))]
        sums += [_dot(flat[(k + 1) // 2 - 1], flat[k // 2 - 1]) for k in range(2, n + 1)]
    else:
        hr = [[_dot(pa, pb) + _dot(qa, qb) for pb, qb in zip(p, q)] for pa, qa in zip(p, q)]
        hi = [[_dot(qa, pb) - _dot(pa, qb) for pb, qb in zip(p, q)] for pa, qa in zip(p, q)]
        xr, xi = hr, hi
        flat = [(_flat(hr), _flat(hi))]
        for _ in range(powers - 1):
            xr, xi = ([[_dot(a, h) + _dot(b, g) for h, g in zip(hr, hi)] for a, b in zip(xr, xi)],
                      [[_dot(b, h) - _dot(a, g) for h, g in zip(hr, hi)] for a, b in zip(xr, xi)])
            flat.append((_flat(xr), _flat(xi)))
        sums, imaginary = [sum(hr[a][a] for a in range(n))], [sum(hi[a][a] for a in range(n))]
        for k in range(2, n + 1):
            (xr, xi), (yr, yi) = flat[(k + 1) // 2 - 1], flat[k // 2 - 1]
            sums.append(_dot(xr, yr) + _dot(xi, yi))
            imaginary.append(_dot(xi, yr) - _dot(xr, yi))
        if any(imaginary):
            raise ArithmeticError("a power sum has an imaginary part")
    # k e_k = sum_i e_(k-i) (-1)^(i-1) p_i
    signed = [x if k % 2 else -x for k, x in enumerate(sums, 1)]
    e = [1]
    for k in range(1, n + 1):
        s = sum(map(mul, reversed(e), signed))
        if s % k:
            raise ArithmeticError(f"Newton's identity {k} is not exact over Z")
        e.append(s // k)
    return e


def _symmetric_product(x, y) -> list:
    """``X Y^T`` for integer rows ``x`` and ``y`` whose product is known to be
    symmetric: one dot product per entry on and above the diagonal."""
    n = len(x)
    out = [[0] * n for _ in range(n)]
    for a, xa in enumerate(x):
        oa = out[a]
        for b in range(a, n):
            oa[b] = out[b][a] = _dot(xa, y[b])
    return out


def _flat(rows) -> list:
    return [x for row in rows for x in row]


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
