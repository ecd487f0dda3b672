"""Test oracles: the evaluation routes of ``poissonkit`` before
``stratify_sample`` read one integer matrix per point, and two functions
that only tests called.

* ``faddeev_leverrier_minor_sums``: every sum of squared minors from the
  characteristic polynomial of ``H = M M^H``, by the Faddeev-LeVerrier
  recurrence (n products of n x n integer matrices), where
  :func:`poissonkit.linalg.minor_sums` now takes power sums and Newton's
  identities;
* ``eval_matrix_per_entry``: the skew matrix of a bivector at a point, one
  :meth:`~poissonkit.poly.MultiPoly.eval_at` per stored component, where
  :meth:`~poissonkit.poisson.PolyBivector.eval_matrix` now reads the
  integer evaluator built once per bivector;
* ``max_rank_from_minors``: the rank of a bivector at a point as the largest
  even k with a nonzero sum of squared k x k minors, formerly
  ``poissonkit.poisson.max_rank_from_minors``;
* ``is_abelian``: whether every bracket of a Lie algebra's basis vanishes,
  formerly the method ``LieAlgebra.is_abelian``;
* ``jacobiator``: one jacobiator of a Lie algebra as scalars, by three
  ``LieAlgebra.bracket`` calls, formerly the method
  ``LieAlgebra.jacobiator``, where ``check_jacobi`` now reads the integer
  structure constants;
* ``module_axiom_failures``: the basis pairs on which a module's axiom
  fails, by scalar matrix products, sums and comparisons, formerly the body
  of ``LieModule.check_axiom``, which now reads the integer tables.

The first two bodies are unchanged, apart from the names they import; the
last four read the package through public names only.
"""

from __future__ import annotations

from fractions import Fraction

from poissonkit import linalg
from poissonkit.linalg import _dot, _int_row
from poissonkit.scalars import GaussianRational


def faddeev_leverrier_minor_sums(matrix) -> list:
    """``[r_0, ..., r_n]`` for an n x n ``matrix``, where ``r_k`` is the sum of
    ``|minor|^2`` over all k x k minors, as exact ``Fraction`` values.

    With ``d`` the common denominator of ``A`` and ``M = d A = P + iQ`` over the
    Gaussian integers, ``H = M M^H = (P P^T + Q Q^T) + i(Q P^T - P Q^T)`` has an
    integer characteristic polynomial, which Faddeev-LeVerrier computes in
    O(n^4) integer operations; ``r_k = e_k(H) / d^(2k)``.
    """
    n = len(matrix)
    # all n^2 entries as one row, so over one common denominator
    a, b, d = _int_row([x for row in matrix for x in row])
    p = [a[i * n:(i + 1) * n] for i in range(n)]
    real = b is None
    if real:
        hr = [[_dot(pa, pb) for pb in p] for pa in p]
    else:
        q = [b[i * n:(i + 1) * n] for i in range(n)]
        hr = [[_dot(pa, pb) + _dot(qa, qb) for pb, qb in zip(p, q)] for pa, qa in zip(p, q)]
        hi = [[_dot(qa, pb) - _dot(pa, qb) for pb, qb in zip(p, q)] for pa, qa in zip(p, q)]
        ni = [[0] * n for _ in range(n)]
    # Faddeev-LeVerrier: N_1 = I, c_k = -tr(H N_k) / k, N_(k+1) = H N_k + c_k I;
    # det(t I - H) = sum_k c_k t^(n-k) and e_k(H) = (-1)^k c_k.
    nr = [[int(i == j) for j in range(n)] for i in range(n)]
    sums = [Fraction(1)]
    for k in range(1, n + 1):
        cr = list(zip(*nr))
        if real:
            nr = [[_dot(a, x) for x in cr] for a in hr]
        else:
            ci = list(zip(*ni))
            nr = [[_dot(a, x) - _dot(b, y) for x, y in zip(cr, ci)] for a, b in zip(hr, hi)]
            ni = [[_dot(a, y) + _dot(b, x) for x, y in zip(cr, ci)] for a, b in zip(hr, hi)]
        tr = sum(nr[i][i] for i in range(n))
        if tr % k or (not real and sum(ni[i][i] for i in range(n))):
            raise ArithmeticError(f"Faddeev-LeVerrier step {k} is not exact over Z[i]")
        c = -tr // k
        sums.append(Fraction(c if k % 2 == 0 else -c, d ** (2 * k)))
        for i in range(n):
            nr[i][i] += c
    return sums


def eval_matrix_per_entry(pi, point) -> list:
    """Exact skew matrix of values of the bivector ``pi`` at a rational point."""
    if len(point) != pi.n:
        raise ValueError("point has wrong dimension")
    vals = [GaussianRational.coerce(x) for x in point]
    m = linalg.zeros(pi.n, pi.n)
    for (i, j), p in pi.comps.items():
        val = p.over(pi.vars).eval_at(vals)
        m[i][j] = val
        m[j][i] = -val
    return m


def max_rank_from_minors(pi, point) -> int:
    """max{2k : r_{2k}(point) != 0}, an independent route to the rank."""
    sums = linalg.minor_sums(pi.eval_matrix(point))
    return max(k for k in range(0, len(sums), 2) if sums[k])


def is_abelian(L) -> bool:
    """Whether every structure constant of the Lie algebra ``L`` is zero."""
    return all(c.is_zero() for i in range(L.dim) for j in range(L.dim)
               for c in L.basis_bracket(i, j))


def jacobiator(L, i: int, j: int, k: int) -> list:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
    e = linalg.identity(L.dim)
    s1 = L.bracket(L.basis_bracket(i, j), e[k])
    s2 = L.bracket(L.basis_bracket(j, k), e[i])
    s3 = L.bracket(L.basis_bracket(k, i), e[j])
    return [a + b + c for a, b, c in zip(s1, s2, s3)]


def module_axiom_failures(M) -> list:
    """The pairs i < j with rho([e_i, e_j]) != rho(e_i)rho(e_j) - rho(e_j)rho(e_i)."""
    bad = []
    L = M.algebra
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            comm = linalg.mat_sub(
                linalg.mat_mul(M.mats[i], M.mats[j]),
                linalg.mat_mul(M.mats[j], M.mats[i]),
            )
            expect = linalg.zeros(M.dim, M.dim)
            for k in range(L.dim):
                c = L.structure_constant(i, j, k)
                if not c.is_zero():
                    expect = linalg.mat_add(
                        expect, [[c * x for x in row] for row in M.mats[k]]
                    )
            if not linalg.mat_eq(comm, expect):
                bad.append((i, j))
    return bad
