"""Exact linear algebra over Gaussian rationals.

Matrices are lists of lists of :class:`GaussianRational` (ints, Fractions
and rational strings are coerced).  One Gauss-Jordan elimination,
:func:`rref`, answers rank, kernel, solve, inverse and span questions;
:func:`det` keeps a separate fraction-free (Bareiss) elimination, and
:func:`minor_sums` reads every sum of squared minors from the power sums
``tr(H^k)`` of one Hermitian integer matrix ``H`` through Newton's
identities, with none of :func:`rank`, :func:`rref` and :func:`det`.

Elimination and products run on integers: :func:`_int_row` writes a vector
and :func:`_int_mat` a matrix as ints ``P + iQ`` over one denominator;
:func:`rref`, :func:`rank` and :func:`_int_inverse` eliminate with
``p*x - f*y`` on primitive integer rows, and the private helpers multiply,
add and invert with no scalar in between, so callers (the sampled checks of
``action``, ``poisson.stratify_sample``, ``lie.cohomology_dim``) build
scalars only to report, and :func:`mat_mul`, :func:`mat_vec` and
:func:`inverse` wrap them.  Gaussian input is eliminated as its real form
:func:`_realified`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
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
    if row and type(row[0]) is int and {int}.issuperset(map(type, row)):
        return list(row), None, 1
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


def _shape(a) -> tuple:
    """``(rows, columns)`` of the matrix ``a``; ``ValueError`` when its rows
    differ in length."""
    m = len(a[0]) if a else 0
    if any(len(row) != m for row in a):
        raise ValueError(f"ragged matrix: rows of lengths {sorted({len(row) for row in a})}")
    return len(a), m


def mat_mul(a, b) -> list:
    if a and _shape(a)[1] != _shape(b)[0]:
        raise ValueError(f"shape mismatch: {_shape(a)} times {_shape(b)}")
    return _scalars(_int_mul(_int_mat(a), _int_mat(b)))


def mat_vec(a, v) -> list:
    if a and _shape(a)[1] != len(v):
        raise ValueError(f"shape mismatch: {_shape(a)} times a vector of length {len(v)}")
    return _scalars(_int_mat_vec(_int_mat(a), _int_row(v)))


def _int_mat(rows) -> tuple:
    """``rows`` as ``(P, Q, d)``, ``rows[i][j] == (P[i][j] + Q[i][j]*i) / d``:
    :func:`_int_row` of all entries at once (``Q`` None when all are real)."""
    a, b, d = _int_row([x for row in rows for x in row])
    shape = lambda it: [list(islice(it, len(row))) for row in rows]  # noqa: E731
    return shape(iter(a)), b and shape(iter(b)), d


def _int_columns(v, n: int) -> tuple:
    """The integer matrix whose columns are the length-n blocks of ``v``."""
    a, b, d = v
    return [a[r::n] for r in range(n)], b and [b[r::n] for r in range(n)], d


def _scalars(v) -> list:
    """An integer vector, or the rows of an integer matrix, as scalars."""
    a, b, d = v
    if a and type(a[0]) is list:
        return [_scalars((x, y, d)) for x, y in zip(a, b or [None] * len(a))]
    if b is None:
        return [_make(x, 0, d) if x else ZERO for x in a]
    return [_make(x, y, d) if x or y else ZERO for x, y in zip(a, b)]


def _lin(x, y, s: int = 1, t: int = 1) -> list:
    """``s*x + t*y`` for integer lists, or lists of rows, of one shape."""
    if x and type(x[0]) is list:
        return [[s * u + t * v for u, v in zip(a, b)] for a, b in zip(x, y)]
    return [s * u + t * v for u, v in zip(x, y)]


def _bilinear(f, x, y) -> tuple:
    """``f(x, y)``, for ``f`` bilinear over Z, at ``x = (P + iQ)/d`` and ``y = (R +
    iS)/e``: ``f(P, R) - f(Q, S)`` and ``f(P, S) + f(Q, R)`` over ``d*e``."""
    (p, q, d), (r, s, e) = x, y
    if q is None and s is None:
        return f(p, r), None, d * e
    q, s = q or _lin(p, p, 0, 0), s or _lin(r, r, 0, 0)
    return _lin(f(p, r), f(q, s), 1, -1), _lin(f(p, s), f(q, r)), d * e


def _int_add(x, y, t: int = 1) -> tuple:
    """``x + t*y`` for integer vectors or matrices, over the lcm of ``d, e``."""
    (p, q, d), (r, s, e) = x, y
    g = gcd(d, e)
    u, w = e // g, t * (d // g)
    im = None if q is None and s is None else _lin(q or _lin(p, p, 0, 0), s or _lin(r, r, 0, 0), u, w)
    return _lin(p, r, u, w), im, d // g * e


def _int_mul(x, y, transposed: bool = False) -> tuple:
    """The product ``x . y`` of two integer matrices, or ``x . y^T``."""
    return _bilinear(lambda p, r: [[_dot(a, c) for c in (r if transposed else list(zip(*r)))]
                                   for a in p], x, y)


def _int_mat_vec(m, v) -> tuple:
    return _bilinear(lambda p, a: [_dot(row, a) for row in p], m, v)


def _int_inverse(m):
    """The inverse of a square integer matrix ``P/d``, or None when singular:
    row i of ``P^-1`` is that of ``[P | 1]`` after :func:`_eliminate` over its
    pivot; ``(P + iQ)^-1 = X + iY`` is the inverse of the real form
    :func:`_realified`, X in its even rows and Y in its odd rows, even columns."""
    p, q, d = m
    if q is not None:
        inv = _int_inverse((_realified(p, q), None, d))
        return inv and ([r[::2] for r in inv[0][::2]], [r[::2] for r in inv[0][1::2]], inv[2])
    n = len(p)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(p)]
    if _eliminate(rows, jordan=True) != list(range(n)):
        return None
    den = lcm(*(row[i] for i, row in enumerate(rows)))
    return [[d * (den // row[i]) * x for x in row[n:]] for i, row in enumerate(rows)], None, den


def _realified(p, q) -> list:
    """The real form of ``P + iQ``: row r becomes the real and the imaginary
    part of ``(P + iQ)[r] . z`` in the coordinates ``(Re z_0, Im z_0, Re z_1,
    ...)``, so a Gaussian pivot in column c is the real pivot pair ``(2c,
    2c + 1)``.  A system over Q(i) is solvable exactly when its real form is,
    over Q."""
    out = []
    for u, v in zip(p, q):
        out.append([x for a, b in zip(u, v) for x in (a, -b)])
        out.append([x for a, b in zip(u, v) for x in (b, a)])
    return out


def mat_add(a, b) -> list:
    if _shape(a) != _shape(b):
        raise ValueError(f"shape mismatch: {_shape(a)} plus {_shape(b)}")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b) -> list:
    if _shape(a) != _shape(b):
        raise ValueError(f"shape mismatch: {_shape(a)} minus {_shape(b)}")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a) -> list:
    """Rows of ``a`` as columns; ragged rows raise ``ValueError``."""
    _shape(a)
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    """Entry for entry equality; False for matrices of different shapes."""
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_mat(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


_SCALARS = object()     # rank's default: coerce the rows of ``matrix``


def rank(matrix, imag=_SCALARS) -> int:
    """Exact rank: the number of pivots of the elimination :func:`rref` runs,
    without its back substitution and without building any scalar.

    ``rank(matrix)`` reads rows of scalars (ints, Fractions, rational strings
    and :class:`GaussianRational`), and ragged rows raise ``ValueError``.
    ``rank(matrix, imag)``, ``imag`` None included, is the rank of ``matrix +
    i*imag`` for integer rows of one shape, taken as they are (no check, no
    copy), ``imag`` None when every entry is real."""
    if imag is not _SCALARS:
        return _rank_rows(matrix, imag)
    _shape(matrix)
    rows = [_int_row(row) for row in matrix]
    p = [a for a, _, _ in rows]
    if all(b is None for _, b, _ in rows):
        return _rank_rows(p)
    return _rank_rows(p, [b or [0] * len(a) for a, b, _ in rows])


def _rank_rows(p, q=None) -> int:
    """The rank of the matrix with integer rows ``p + i*q`` (``q`` None when
    every entry is real), and with ``q`` half the rank of the real form
    :func:`_realified`, whose column order the rank ignores.  Scaling a row
    does not change the rank, so rows over different denominators need no
    common one.  A real matrix with more nonzero rows than columns is
    eliminated transposed, without its zero columns, so :func:`_eliminate`
    runs on the short side.  The rows are not modified."""
    if q is not None:
        return _rank_rows(_realified(p, q)) // 2
    m = [a for a in p if any(a)]
    if m and len(m) > len(m[0]):
        m = [c for c in zip(*m) if any(c)]
    return len(_eliminate(m, jordan=False))


def rref(matrix):
    """Reduced row echelon form over the field; returns (rref, pivot columns).

    The input is eliminated on integer rows, Gaussian input as its real form
    :func:`_realified`, whose pivot pair ``(2c, 2c + 1)`` is the pivot c and
    whose first row of the pair holds ``(Re x, -Im x)`` for each entry x of
    the pivot row.  A scalar is built only for each nonzero entry of a pivot
    row.  Ragged rows raise ``ValueError``."""
    _shape(matrix)
    rows = [_int_row(row) for row in matrix]
    if not rows or not rows[0][0]:
        return [list(row) for row in matrix], []
    ncols = len(rows[0][0])
    if all(b is None for _, b, _ in rows):
        m = [a for a, _, _ in rows if any(a)]
        pivots = _eliminate(m, jordan=True)
        parts = [(row, None) for row in m[:len(pivots)]]
    else:
        real = _realified([a for a, _, _ in rows], [b or [0] * ncols for _, b, _ in rows])
        m = [row for row in real if any(row)]
        pivots = [c // 2 for c in _eliminate(m, jordan=True)[::2]]
        parts = [(row[::2], row[1::2]) for row in m[:2 * len(pivots):2]]
    out = []
    for (a, b), c in zip(parts, pivots):
        s = 1 if a[c] > 0 else -1
        out.append(_scalars(([s * x for x in a], b and [-s * x for x in b], s * a[c])))
    out.extend([ZERO] * ncols for _ in range(len(rows) - len(pivots)))
    return out, pivots


def _eliminate(m, jordan: bool) -> list:
    """Fraction-free Gaussian elimination in place on the nonzero integer
    rows ``m`` (lists or tuples): ``x -> p*x - f*y`` with the common factor
    of ``p`` and ``f`` removed, and every changed row divided by the gcd of
    its entries, so the rows stay primitive.  Pivot rows end first, in
    order.  Without ``jordan`` a row that an update turns to zero is
    removed from ``m``, so ``m`` ends with its pivot rows alone; with
    ``jordan`` each pivot column is cleared above its pivot too and every
    row is kept.  Returns the pivot columns."""
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
        vanished = False
        for i in range(0 if jordan else r + 1, nrows):
            f = m[i][c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * x - b * y for x, y in zip(m[i], prow)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            elif not g:
                vanished = True
            m[i] = row
        pivots.append(c)
        r += 1
        if vanished and not jordan:
            m[r:] = [row for row in islice(m, r, None) if any(row)]
            nrows = len(m)
        if r == nrows:
            break
    return pivots


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
    """One exact solution of ``A x = b`` or ``None`` if inconsistent;
    ``ValueError`` when ``A`` is ragged or ``b`` is not one entry per row."""
    shape = _shape(matrix)
    if shape[0] != len(rhs):
        raise ValueError(f"shape mismatch: {shape} with a right-hand side of length {len(rhs)}")
    if not matrix:
        return []
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
    """Exact inverse, or ``None`` if singular (:func:`_int_inverse`)."""
    inv = _int_inverse(_int_mat(matrix))
    return inv and _scalars(inv)


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
    p, q, d = _int_mat(matrix)
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
    """Exact membership of ``v`` in the span of ``vectors``; ``ValueError``
    when a vector's length is not ``len(v)``."""
    if any(len(u) != len(v) for u in vectors):
        raise ValueError(f"vectors of lengths {sorted({len(u) for u in vectors})}, "
                         f"not {len(v)}")
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
