"""The sampled group-check routes that ``poissonkit.action`` replaced, kept as
test oracles: each computes the same exact values by the direct route.

``poisson_action_report`` and ``psi_cocycle_report`` are the scalar bodies of
``check_poisson_action`` and of the ``psi_cocycle_check`` triple loop before
those checks ran on integer matrices; they give each group element its lift
and Coad_g by ``coadjoint_by_elimination``, each point its values by
``MultiPoly.eval_at``, and return the report's ``to_json()``.
``numeric_h_residual`` is the float route to the cocycle identity that
:func:`poissonkit.action.solve_h_certificate` proves over all of SL(2)."""

from fractions import Fraction
import random

from poissonkit import action as A
from poissonkit import linalg
from poissonkit.poisson import casimir_check
from poissonkit.scalars import GaussianRational, ONE, Q, ZERO

from evaluation_oracles import eval_matrix_per_entry


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
        G = lift_by_elimination(a, g)
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


def lift_by_elimination(a, g) -> list:
    """The matrix by which ``g`` acts on the target of ``a``: the
    determinant-one relation in scalars, and Coad_g by
    :func:`coadjoint_by_elimination` on a coadjoint action."""
    m = linalg.mat(g)
    if a.sl2 and m[0][0] * m[1][1] - m[0][1] * m[1][0] != ONE:
        raise ValueError("matrix fails the group relation")
    return coadjoint_by_elimination(a.defining_mats, m) if a.coadjoint else m


def poisson_action_report(a, samples) -> dict:
    """``check_poisson_action(a, samples).to_json()``, one scalar operation at
    a time: pi(g x) against G pi(x) G^T plus the r-matrix term, whose
    left[k] = G rho_k x and right[k] = rho_k g x."""
    failures = []
    for g, x in samples:
        G = lift_by_elimination(a, g)
        xv = [GaussianRational.coerce(t) for t in x]
        gx = linalg.mat_vec(G, xv)
        lhs = eval_matrix_per_entry(a.bivector, gx)
        rhs = linalg.mat_mul(linalg.mat_mul(G, eval_matrix_per_entry(a.bivector, xv)),
                             linalg.transpose(G))
        if a.rmatrix is not None:
            n = a.target_dim
            acc = linalg.zeros(n, n)
            rho = a.lift_generators
            ks = {k for ij in a.rmatrix.comps for k in ij}
            left = {k: linalg.mat_vec(G, linalg.mat_vec(rho[k], xv)) for k in ks}
            right = {k: linalg.mat_vec(rho[k], gx) for k in ks}
            for (i, j), lam in sorted(a.rmatrix.comps.items()):
                w = linalg.mat_sub(
                    _wedge_matrix(left[i], left[j]), _wedge_matrix(right[i], right[j])
                )
                acc = linalg.mat_add(acc, [[lam * t for t in row] for row in w])
            rhs = linalg.mat_add(rhs, acc)
        diff = linalg.mat_sub(lhs, rhs)
        if not linalg.is_zero_mat(diff):
            failures.append(
                {
                    "g": [[str(t) for t in row] for row in linalg.mat(g)],
                    "x": [str(t) for t in xv],
                    "residual": [[str(t) for t in row] for row in diff],
                }
            )
    return A.ActionCheckReport(passed=not failures, mode="symbolic", failures=failures,
                               samples=len(samples)).to_json()


def psi_cocycle_report(a, m, triples) -> dict:
    """``psi_cocycle_check(a, m, triples).to_json()``, one scalar operation at
    a time: Sigma(gh, x) - Sigma(g, x) - Coad_g Sigma(h, x) per triple, with
    Sigma(k, x) = m(k x) - Coad_k m(x), and the Casimir property of the
    components of Sigma(g, .) at the first g."""
    vs = a.bivector.vars
    comps = [c.over(vs) for c in m.components]

    def m_at(point):
        vals = [GaussianRational.coerce(t) for t in point]
        return [c.eval_at(vals) for c in comps]

    def maps(k):
        lifted = lift_by_elimination(a, k)
        return lifted, (lifted if a.coadjoint else coadjoint_by_elimination(a.defining_mats, k))

    def sigma(at, xv, m_x):
        lifted, co = at
        return [u - v for u, v in zip(m_at(linalg.mat_vec(lifted, xv)), linalg.mat_vec(co, m_x))]

    violations, first = [], None
    for g, h, x in triples:
        g, h = linalg.mat(g), linalg.mat(h)
        at_gh, at_g, at_h = maps(linalg.mat_mul(g, h)), maps(g), maps(h)
        first = first or at_g
        xv = [GaussianRational.coerce(t) for t in x]
        m_x = m_at(xv)
        t2 = linalg.mat_vec(at_g[1], sigma(at_h, xv, m_x))
        res = [u - v - w for u, v, w in zip(sigma(at_gh, xv, m_x), sigma(at_g, xv, m_x), t2)]
        if any(res):
            violations.append({"residual": [str(t) for t in res], "x": [str(t) for t in x]})
    cas_ok = True
    if first:
        lifted, co = first
        gx = A.linear_action_fields([lifted], vs)[0]
        gx_sym = [gx.component(i) for i in range(gx.n)]
        for k in range(a.algebra.dim):
            comp = m.components[k].over(gx.vars).substitute(gx_sym) - m.of_vector(co[k])
            cas_ok = cas_ok and casimir_check(a.bivector, comp)
    return A.PsiCocycleReport(passed=not violations, max_violations=violations,
                              samples=len(triples), casimir_ok=cas_ok).to_json()


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
    terms = [(float(t.re), e) for e, t in h.terms.items()]    # h has real coefficients

    def h_at(p):
        return sum(t * p[0] ** e[0] * p[1] ** e[1] for t, e in terms)

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
