"""The sampled group-check routes that ``poissonkit.action`` replaced, kept as
test oracles: each computes the same exact values by the direct route.
``numeric_h_residual`` is the float route to the cocycle identity that
:func:`poissonkit.action.solve_h_certificate` proves over all of SL(2)."""

from fractions import Fraction
import random

from poissonkit import action as A
from poissonkit import linalg
from poissonkit.scalars import GaussianRational, ONE, Q, ZERO


def coadjoint_by_elimination(defining_mats, g) -> list:
    """Coad_g with the n conjugates g^{-1} D_i g built by matrix products and
    their coordinates read from one elimination of the basis system beside
    them (free coordinates 0)."""
    g = linalg.mat(g)
    ginv = linalg.inverse(g)
    if ginv is None:
        raise ValueError("group matrix is singular")
    basis = [linalg.mat(m) for m in defining_mats]
    n, d = len(basis), len(g)
    conj = [linalg.mat_mul(linalg.mat_mul(ginv, m), g) for m in basis]
    red, pivots = linalg.rref(
        [[m[a][b] for m in basis + conj] for a in range(d) for b in range(d)]
    )
    if pivots and pivots[-1] >= n:
        raise ValueError("matrix does not lie in the algebra span")
    co = linalg.zeros(n, n)
    for r, pc in enumerate(pivots):
        for i in range(n):
            co[i][pc] = red[r][n + i]
    return co


def tangential_failures_by_solve(a, points) -> list:
    """(point, generator) pairs where pi(p) alpha = lam(e_i)(p) has no
    solution, one ``linalg.solve`` per nonzero generator value."""
    failures = []
    for p in points:
        M = a.bivector.eval_matrix(p)
        for i, vals in enumerate(a.field_values(p)):
            if all(v.is_zero() for v in vals):
                continue
            if linalg.solve(M, vals) is None:
                failures.append((list(p), i))
    return failures


def _wedge_matrix(u, v) -> list:
    n = len(u)
    return [[u[i] * v[j] - u[j] * v[i] for j in range(n)] for i in range(n)]


def poisson_action_residuals_pairwise(a, samples) -> list:
    """The residual strings of ``check_poisson_action`` with the r-matrix
    term built as mat_vec(mat_mul(G, rho_k), x) once per pair and index."""
    out = []
    for g, x in samples:
        G = a.lift(g)
        xv = [GaussianRational.coerce(t) for t in x]
        gx = linalg.mat_vec(G, xv)
        lhs = a.bivector.eval_matrix(gx)
        rhs = linalg.mat_mul(linalg.mat_mul(G, a.bivector.eval_matrix(xv)), linalg.transpose(G))
        if a.rmatrix is not None:
            n = a.target_dim
            acc = linalg.zeros(n, n)
            rho = a.lift_generators
            for (i, j), lam in sorted(a.rmatrix.comps.items()):
                left_i = linalg.mat_vec(linalg.mat_mul(G, rho[i]), xv)
                left_j = linalg.mat_vec(linalg.mat_mul(G, rho[j]), xv)
                right_i = linalg.mat_vec(rho[i], gx)
                right_j = linalg.mat_vec(rho[j], gx)
                w = linalg.mat_sub(_wedge_matrix(left_i, left_j), _wedge_matrix(right_i, right_j))
                acc = linalg.mat_add(acc, [[lam * t for t in row] for row in w])
            rhs = linalg.mat_add(rhs, acc)
        diff = linalg.mat_sub(lhs, rhs)
        if not linalg.is_zero_mat(diff):
            out.append([[str(t) for t in row] for row in diff])
    return out


def sl2_samples_by_products(count: int, seed: int = 0) -> list:
    """``sl2_rational_samples`` as products with fresh elementary matrices."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = linalg.identity(2)
        for _ in range(rng.randint(1, 3)):
            t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if rng.random() < 0.5:
                e = [[ONE, Q(t)], [ZERO, ONE]]
            else:
                e = [[ONE, ZERO], [Q(t), ONE]]
            g = linalg.mat_mul(g, e)
        out.append(g)
    return out


def numeric_h_residual(l1, l2, l3, c, count: int = 1000, seed: int = 0) -> float:
    """Max float residual of the cocycle identity of ``solve_h_certificate``
    over exact group samples, each relative to the size of its terms,
    max(1, |h(gx)|, |h(x)|)."""
    h = A.quadratic_h(l1, l2, l3, c)

    def h_at(p):
        v = h.eval({"x1": p[0], "x2": p[1]})
        return v.real if isinstance(v, complex) else float(v)

    gs = A.sl2_rational_samples(count, seed=seed)
    rng = random.Random(seed + 1)
    l1f, l2f, l3f = (float(GaussianRational.coerce(v).re) for v in (l1, l2, l3))
    lp, lm = l1f + l3f, l1f - l3f
    worst = 0.0
    for g in gs:
        xf = [float(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(2)]
        gm = [[float(t.re) for t in row] for row in g]
        gx = [gm[0][0] * xf[0] + gm[0][1] * xf[1], gm[1][0] * xf[0] + gm[1][1] * xf[1]]
        h_gx, h_x = h_at(gx), h_at(xf)
        lhs = h_gx - h_x
        A1, A2, A3, A4 = gm[0][0], gm[0][1], gm[1][0], gm[1][1]
        rhs = 0.25 * (
            (lp * A1 * A1 - lm * A3 * A3 - 2 * l2f * A1 * A3 - lp) * xf[0] ** 2
            + (lp * A2 * A2 - lm * A4 * A4 - 2 * l2f * A2 * A4 + lm) * xf[1] ** 2
            + (2 * lp * A1 * A2 - 2 * lm * A3 * A4 - 4 * l2f * A2 * A3) * xf[0] * xf[1]
        )
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(h_gx), abs(h_x)))
    return worst
