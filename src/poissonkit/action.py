"""Linear matrix-group Poisson actions, momentum maps, and the equivariance
obstruction cocycles, restricted to groups with zero Poisson structure for
all momentum machinery (the dual group is then the dual vector space).

Group-level data lives in :class:`LinearPoissonAction`: the infinitesimal
generators acting on the target (their field values are matrix-vector
products) and the defining matrices of the algebra, from which the group
relation, the exact lift ``g -> n x n matrix`` and, through
:func:`coadjoint_table`, the exact coadjoint matrix all follow.  The
sampled group checks do per sample only the work that depends on the
sample, on integer matrices (``linalg._int_mat``) up to a failure record:
Coad_g costs one integer inversion and one product with a table the action
builds once (:func:`coadjoint_table`), a tangentiality point one integer
elimination, and a psi-cocycle call each distinct group element once.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from . import linalg
from .bialgebra import RMatrix
from .lie import (COADJOINT, TRIVIAL, LieAlgebra, abelian, ce_differential, representation, sl2,
                  sl2_defining_matrices)
from .multivector import schouten
from .poisson import (
    PolyBivector,
    PolyVectorField,
    _int_evaluator,
    bracket_fn,
    casimir_check,
    differential,
    hamiltonian_field,
    lie_derivative_bivector,
    lie_poisson,
)
from .poly import MultiPoly, _as_vars, _merged_chart, generators, sl2_relation_ideal
from .scalars import GaussianRational, Q, ZERO, ONE

# the local-minimality probe of check_commutator_inclusion: seeded points at
# offsets k * radius, k in -2..2, in each coordinate
NEIGHBORHOOD_RADIUS = Fraction(1, 7)
NEIGHBORHOOD_SAMPLES = 6


# -- exact group helpers ----------------------------------------------------------


def sl2_rational_samples(count: int, seed: int = 0) -> list:
    """Exact determinant-one samples: products of one to three elementary
    matrices [[1, t], [0, 1]] or [[1, 0], [t, 1]], each drawn as an integer
    matrix over the product of the denominators of its t."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g, d = [[1, 0], [0, 1]], 1
        for _ in range(rng.randint(1, 3)):
            num, den = rng.randint(-4, 4), rng.randint(1, 3)
            # g times an elementary matrix: add t = num/den times one column to the other
            src, dst = (0, 1) if rng.random() < 0.5 else (1, 0)
            for row in g:
                row[dst], row[src] = den * row[dst] + num * row[src], den * row[src]
            d *= den
        out.append(linalg._scalars((g, None, d)))
    return out


def spans_sl2(mats) -> bool:
    """True iff the defining matrices are 2x2 and span sl(2): only such groups
    get the exact sampler and the determinant-one group relation."""
    if not all(len(m) == 2 and len(m[0]) == 2 and (m[0][0] + m[1][1]).is_zero() for m in mats):
        return False
    return linalg.rank([[m[0][0], m[0][1], m[1][0]] for m in mats]) == 3


def coadjoint_table(defining_mats):
    """The map g -> Coad_g on integer matrices (``linalg._int_mat``), with the
    work that does not depend on g done here, once.  Coad_g is the matrix of
    Ad*_{g^{-1}}, i.e. <Coad_g mu, Y> = <mu, Ad_{g^{-1}} Y>: row i holds the
    coordinates of g^{-1} D_i g in the defining basis D, free coordinates 0;
    ``ValueError`` when g is singular or a conjugate leaves the span of D.
    This is the left action on the dual space; its infinitesimal generator is
    the module-valid coadjoint representation.

    One elimination of [B | 1], B the d^2 x n basis system (column j is D_j
    flattened), gives E with E B in reduced form: its rows against B's pivot
    columns are a left inverse (free coordinates stay 0), and the rows below
    them span the left null space of B.  Contracted with every D_i, each row
    is bilinear in (g^{-1}, g):

        (E vec(g^{-1} D_i g))[r] = sum E[r][ab] g^{-1}[a][c] D_i[c][e] g[e][b],

    so a g costs one integer inversion, one outer product and one product with
    the table: Coad_g column by column, then values that vanish on the span."""
    basis = [linalg.mat(m) for m in defining_mats]
    n, d = len(basis), len(basis[0])
    dd = d * d
    unit = linalg.identity(dd)
    red, pivots = linalg.rref([[m[a][b] for m in basis] + unit[a * d + b]
                               for a in range(d) for b in range(d)])
    coords = [pc for pc in pivots if pc < n]
    placed = [red[coords.index(c)] if c in coords else [ZERO] * (n + dd) for c in range(n)]
    R = range(d)
    table = linalg._int_mat([
        [row[n + a * d + b] * m[c][e] for a in R for c in R for e in R for b in R]
        for rows in (placed, red[len(coords):]) for row in rows for m in basis
    ])

    def coad(g) -> tuple:
        if len(g[0]) != d or any(len(row) != d for row in g[0]):
            raise ValueError(f"group matrix must be {d}x{d}")
        ginv = linalg._int_inverse(g)
        if ginv is None:
            raise ValueError("group matrix is singular")
        outer = linalg._bilinear(lambda p, r: [x * y for u in p for x in u for v in r for y in v],
                                 ginv, g)
        p, q, e = linalg._int_mat_vec(table, outer)
        if any(p[n * n:]) or q and any(q[n * n:]):
            raise ValueError("matrix does not lie in the algebra span")
        return linalg._int_columns((p[:n * n], q and q[:n * n], e), n)

    return coad


# -- infinitesimal actions -----------------------------------------------------------


def linear_action_fields(rep_mats, variables) -> list:
    """lam(X)(x) = X.x as linear-coefficient vector fields (d/dt exp(tX)x at 0)."""
    vs = _as_vars(variables)
    gens = [MultiPoly.variable(vs, v.name) for v in vs]
    fields = []
    for a in range(len(rep_mats)):
        M = linalg.mat(rep_mats[a])
        fields.append(PolyVectorField(vs, [
            MultiPoly.sum_of_products(vs, [(c, (g,)) for c, g in zip(row, gens)]) for row in M]))
    return fields


def dressing_generator_matrices(L: LieAlgebra) -> list:
    """Generators of the dressing vector fields on the dual space of a group
    with zero Poisson structure: d(X) = X_{<mu, X>} for the linear bivector,
    i.e. (M_a mu)_i = sum_k C^k_{ai} mu_k.

    These are the negatives of the module-valid coadjoint matrices: the
    Hamiltonian fields of linear functions form a homomorphism into vector
    fields, while left-action generators form an anti-homomorphism.
    """
    return [[[-x for x in row] for row in m] for m in representation(L, COADJOINT).mats]


def linear_isotropy(rep_mats, point) -> list:
    """Basis of the isotropy subalgebra {X : sum_a X_a rep_mats[a] . p = 0} at
    a point of the linear action generated by ``rep_mats``.  On the dressing
    generators its rows are <mu, [e_a, e_j]>, so it is the coadjoint isotropy."""
    p = [GaussianRational.coerce(x) for x in point]
    return linalg.nullspace(linalg.transpose([linalg.mat_vec(m, p) for m in rep_mats]))


# -- the bundled action object ---------------------------------------------------------


def _det_one(g) -> bool:
    """det(P + iQ) = d^2 for a 2x2 integer matrix g = (P + iQ)/d."""
    (det,), im, dd = linalg._bilinear(lambda p, r: [p[0][0] * r[1][1] - p[0][1] * r[1][0]], g, g)
    return det == dd and not (im and im[0])


class LinearPoissonAction:
    """A matrix-group action on a polynomial Poisson space.

    ``rep_mats`` generate the infinitesimal action on the target.  The group
    is generated by ``defining_mats`` (default ``rep_mats``) and acts on the
    target by g itself, or by Coad_g when ``coadjoint`` is set; the lift, its
    generators and the group relation are derived from these once.
    """

    def __init__(self, algebra: LieAlgebra, rep_mats: list, bivector: PolyBivector,
                 rmatrix: RMatrix | None = None, defining_mats: list | None = None,
                 coadjoint: bool = False):
        self.algebra = algebra
        self.rep_mats = [linalg.mat(m) for m in rep_mats]
        self.bivector = bivector
        self.rmatrix = rmatrix
        self.defining_mats = (self.rep_mats if defining_mats is None
                              else [linalg.mat(m) for m in defining_mats])
        self.coadjoint = coadjoint
        dim = self.algebra.dim
        if dim < 1 or len(self.rep_mats) != dim or len(self.defining_mats) != dim:
            raise ValueError("need a nonzero algebra and one generator and one defining "
                             "matrix per basis element")
        if self.rmatrix is not None and self.rmatrix.algebra != self.algebra:
            raise ValueError("the r-matrix must lie in Lambda^2 of the acting algebra")
        n = self.target_dim
        if self.coadjoint:
            # Coad_g reads coordinates in the defining basis, so it must be a basis
            if linalg.rank([[x for row in m for x in row] for m in self.defining_mats]) < dim:
                raise ValueError("coadjoint actions need linearly independent defining matrices")
            self.lift_generators = representation(self.algebra, COADJOINT).mats
            d = len(self.defining_mats[0])
        else:       # the group matrix acts on the target itself
            self.lift_generators = self.rep_mats
            d = n
        for mats, size in ((self.rep_mats + self.lift_generators, n), (self.defining_mats, d)):
            if any(len(m) != size or any(len(row) != size for row in m) for m in mats):
                raise ValueError(f"action matrices must be {size}x{size}")
        self.sl2 = spans_sl2(self.defining_mats)

    def _int_lift(self, g) -> tuple:
        """The n x n matrix by which the group element g acts on the target, on
        integer matrices (:func:`linalg._int_mat`); ``ValueError`` when g fails
        the group relation: determinant one when the defining matrices span
        sl(2) (see :func:`spans_sl2`), none otherwise."""
        if self.sl2 and not _det_one(g):
            raise ValueError("matrix fails the group relation")
        return self._int_coad(g) if self.coadjoint else g

    def _int_coad(self, g) -> tuple:
        """Coad_g of :func:`coadjoint_table` on integer matrices."""
        return self._coad(g)

    @functools.cached_property
    def _coad(self):
        return coadjoint_table(self.defining_mats)

    @property
    def target_dim(self) -> int:
        return self.bivector.n

    def fields(self) -> list:
        return self._fields

    @functools.cached_property
    def _fields(self) -> list:
        return linear_action_fields(self.rep_mats, self.bivector.vars)

    def homomorphism_sign(self):
        """The global sign eps with lam([X,Y]) = eps [lam(X), lam(Y)], or None.

        Returns 'abelian' when all brackets vanish so both signs fit.
        """
        L, fields = self.algebra, self.fields()
        seen = set()
        for i, j in itertools.combinations(range(L.dim), 2):
            lhs = fields[i].scale(ZERO)
            for c, f in zip(L.basis_bracket(i, j), fields):
                lhs = lhs + f.scale(c)
            rhs = schouten(fields[i], fields[j])
            if lhs.is_zero() and rhs.is_zero():
                continue
            if (lhs - rhs).is_zero():
                seen.add(1)
            elif (lhs + rhs).is_zero():
                seen.add(-1)
            else:
                return None
        if not seen:
            return "abelian"
        if len(seen) > 1:
            return None
        return seen.pop()

    def field_values(self, point) -> list:
        """lam(e_a)(p) = rep_mats[a] . p for every generator."""
        flat, n = linalg._scalars(self._int_field_values(linalg._int_row(point))), self.target_dim
        return [flat[a:a + n] for a in range(0, len(flat), n)]

    def _int_field_values(self, x) -> tuple:
        """:meth:`field_values` at an integer x, flattened."""
        return linalg._int_mat_vec(self._generator_rows, x)

    @functools.cached_property
    def _generator_rows(self) -> tuple:
        return linalg._int_mat([row for m in self.rep_mats for row in m])


# -- worked bundles ---------------------------------------------------------------------


def quadratic_h(l1, l2, l3, c, variables=("x1", "x2")) -> MultiPoly:
    """h = (l1+l3)/4 x1^2 - (l1-l3)/4 x2^2 - l2/2 x1 x2 + c."""
    l1, l2, l3, c = (GaussianRational.coerce(v) for v in (l1, l2, l3, c))
    x1, x2 = generators(*variables)
    return MultiPoly.sum_of_products(x1.vars, [
        ((l1 + l3) / 4, (x1, x1)), (-(l1 - l3) / 4, (x2, x2)), (-l2 / 2, (x1, x2)), (c, ())])


def sl2_plane_action(l1, l2, l3, c) -> LinearPoissonAction:
    """The natural determinant-one group action on the plane with bivector
    h(x1, x2) d_1 ^ d_2, h as above, and the r-matrix family on sl(2)."""
    L = sl2()
    h = quadratic_h(l1, l2, l3, c)
    pi = PolyBivector(("x1", "x2"), {(0, 1): h})
    lam = RMatrix.sl2_family(L, l1, l2, l3)
    return LinearPoissonAction(
        algebra=L,
        rep_mats=sl2_defining_matrices(),
        bivector=pi,
        rmatrix=lam,
    )


def diagonal_subgroup_action(c) -> LinearPoissonAction:
    """The one-parameter diagonal subgroup acting on the plane with the
    bivector (c - x1 x2) d_1 ^ d_2 (orbits are the hyperbolas x1 x2 = const)."""
    h = Q("1/2")
    e1 = [[h, ZERO], [ZERO, -h]]
    x1, x2 = generators("x1", "x2")
    pi = PolyBivector(("x1", "x2"), {(0, 1): MultiPoly.constant(x1.vars, c) - x1 * x2})
    return LinearPoissonAction(
        algebra=abelian(1),
        rep_mats=[e1],
        bivector=pi,
    )


def rotation_plane_action() -> LinearPoissonAction:
    """One-dimensional rotation action on the symplectic plane; the standard
    momentum map is (x^2 + y^2)/2."""
    R = [[ZERO, Q(-1)], [ONE, ZERO]]
    pi = PolyBivector.constant_symplectic(2, names=("x", "y"))
    return LinearPoissonAction(
        algebra=abelian(1),
        rep_mats=[R],
        bivector=pi,
    )


def coadjoint_dressing_bundle(L: LieAlgebra, defining_mats,
                              rmatrix: RMatrix | None = None) -> LinearPoissonAction:
    """The dual space of a trivial-structure group: linear bivector, dressing
    generators as the infinitesimal action, exact coadjoint lift.

    The lift is the left action <Coad_g mu, Y> = <mu, Ad_{g^{-1}} Y>; its own
    generators are the negatives of the dressing generators (the standard
    sign slack between left translations and Hamiltonian generators).
    """
    return LinearPoissonAction(
        algebra=L,
        rep_mats=dressing_generator_matrices(L),
        bivector=lie_poisson(L),
        rmatrix=rmatrix,
        defining_mats=defining_mats,
        coadjoint=True,
    )


# -- group-level Poisson-action check ----------------------------------------------------


def check_poisson_action(a: LinearPoissonAction, samples) -> dict:
    """Evaluate pi(g x) = dsigma_g pi(x) + dsigma^x pi_G(g) exactly at exact
    sample pairs; pi_G(g) is the coboundary left-minus-right translate of the
    r-matrix (zero when no r-matrix is attached).  With the lift generators
    rho_k, that term is G B(x) G^T - B(g x) for B(y) = sum lam_ij rho_i y ^
    rho_j y = C Lam C^T (columns C_k = rho_k y, Lam the r-matrix's skew
    matrix), so the residual is F(g x) - G F(x) G^T with F = pi + B."""
    pi, n = a.bivector, a.target_dim
    if a.rmatrix is not None:
        rho = linalg._int_mat([row for m in a.lift_generators for row in m])
        k = range(a.algebra.dim)
        lam = linalg._int_mat([[a.rmatrix.component(i, j) for j in k] for i in k])

    def corrected(y) -> tuple:
        at = pi._int_matrix_at(y)
        if a.rmatrix is None:
            return at
        C = linalg._int_columns(linalg._int_mat_vec(rho, y), n)
        return linalg._int_add(at, linalg._int_mul(linalg._int_mul(C, lam), C, True))

    failures = []
    for g, x in samples:
        G = a._int_lift(linalg._int_mat(g))
        xv = linalg._int_row(x)
        diff = linalg._int_add(corrected(linalg._int_mat_vec(G, xv)),
                               linalg._int_mul(linalg._int_mul(G, corrected(xv)), G, True), -1)
        if any(map(any, diff[0])) or diff[1] and any(map(any, diff[1])):
            failures.append({"g": [[str(t) for t in row] for row in linalg.mat(g)],
                             "x": [str(GaussianRational.coerce(t)) for t in x],
                             "residual": [[str(t) for t in row] for row in linalg._scalars(diff)]})
    return {"passed": not failures, "mode": "symbolic", "samples": len(samples),
            "failures": failures}


# -- the quadratic cocycle identity on the plane ------------------------------------------


def solve_h_certificate(l1, l2, l3, c) -> dict:
    """Construct the closed-form h and certify the group cocycle identity

        h(g x) - h(x) = (quadratic form in the group entries and x)

    as a polynomial identity after reduction modulo the determinant relation;
    ``certificate`` is the normal form of lhs - rhs modulo that relation.
    """
    l1, l2, l3, cc = (GaussianRational.coerce(v) for v in (l1, l2, l3, c))
    names = ("a1", "a2", "a3", "a4", "x1", "x2")
    a1, a2, a3, a4, x1, x2 = generators(*names)
    h = quadratic_h(l1, l2, l3, cc, variables=("x1", "x2"))
    lhs = h.substitute([a1 * x1 + a2 * x2, a3 * x1 + a4 * x2]) - h.over(a1.vars)
    # the right-hand side's factor 1/4 goes into every coefficient
    lp, lm, l2 = (l1 + l3) / 4, (l1 - l3) / 4, l2 / 4
    rhs = MultiPoly.sum_of_products(a1.vars, [
        (lp, (x1, x1, a1, a1)), (-lm, (x1, x1, a3, a3)), (-2 * l2, (x1, x1, a1, a3)), (-lp, (x1, x1)),
        (lp, (x2, x2, a2, a2)), (-lm, (x2, x2, a4, a4)), (-2 * l2, (x2, x2, a2, a4)), (lm, (x2, x2)),
        (2 * lp, (x1, x2, a1, a2)), (-2 * lm, (x1, x2, a3, a4)), (-4 * l2, (x1, x2, a2, a3))])
    ideal = sl2_relation_ideal()
    cert = ideal.reduce(lhs - rhs)
    return {"passed": cert.is_zero(), "mode": "symbolic", "h": str(h), "certificate": str(cert)}


# -- structure preservation and tangentiality ----------------------------------------------


def check_structure_preserved(a: LinearPoissonAction) -> dict:
    """L_{lam(e_i)} pi = 0 symbolically for every generator."""
    rows = []
    for i, f in enumerate(a.fields()):
        lv = lie_derivative_bivector(a.bivector, f)
        rows.append({"index": i, "preserved": lv.is_zero(), "residual": str(lv)})
    return {"passed": all(r["preserved"] for r in rows), "mode": "symbolic", "per_generator": rows}


def tangential_coefficient_predicate(l1, l2, l3, c) -> bool:
    """l1 + l3 > 0, l1^2 + l2^2 - l3^2 < 0, c >= 0 (exact rational compare)."""
    l1, l2, l3, c = (Fraction(v) if not isinstance(v, Fraction) else v for v in (l1, l2, l3, c))
    return (l1 + l3 > 0) and (l1 * l1 + l2 * l2 - l3 * l3 < 0) and (c >= 0)


def tangential_check(a: LinearPoissonAction, points) -> dict:
    """At each exact point, solvability of pi(p) alpha = lam(e_i)(p) for every
    generator (membership of the orbit directions in the image of the anchor).

    One integer elimination per point of [P | F], for pi(p) = P/d and the
    values F/e (scaling a block keeps each system's solvability), or, for
    Gaussian values, of the real form ``linalg._realified`` of P + iQ with
    the rows of F and G interleaved beside it in the same order; generator i
    fails exactly when its column is nonzero in some row below P's pivots."""
    failures = []
    n, k = a.target_dim, len(a.rep_mats)
    for point in points:
        x = linalg._int_row(point)
        p, q, _ = a.bivector._int_matrix_at(x)
        f, g, _ = linalg._int_columns(a._int_field_values(x), n)
        rows, width = [u + v for u, v in zip(p, f)], n
        if q is not None or g is not None:
            q, g = q or linalg._lin(p, p, 0, 0), g or linalg._lin(f, f, 0, 0)
            values = (v for fg in zip(f, g) for v in fg)
            rows, width = [u + v for u, v in zip(linalg._realified(p, q), values)], 2 * n
        pivots = linalg._eliminate(rows, jordan=False)
        below = rows[sum(c < width for c in pivots):]
        failures += [{"point": [str(t) for t in point], "generator": i}
                     for i in range(k) if any(row[width + i] for row in below)]
    return {"passed": not failures, "mode": "symbolic", "points": len(points), "failures": failures}


def find_rank_drop_witness(l1, l2, l3, c):
    """A rational point where the quadratic h vanishes (so the bivector rank
    drops) while the group orbit directions do not, or None if the small
    search finds nothing rational."""
    h = quadratic_h(l1, l2, l3, c)
    t, = generators("t")
    # lines x1 = 1 and x2 = 1: rational roots of the restricted quadratic
    for fixed in (0, 1):
        line = [t, t]
        line[fixed] = 1
        q = h.substitute(line)
        A, B, C = (q.terms.get((k,), ZERO).re for k in (2, 1, 0))
        for root in _rational_roots(A, B, C):
            pt = [root, root]
            pt[fixed] = Fraction(1)
            if h.eval({"x1": pt[0], "x2": pt[1]}).is_zero():
                return pt
    return None


def _rational_roots(A: Fraction, B: Fraction, C: Fraction) -> list:
    if A == 0:
        return [] if B == 0 else [-C / B]
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    num, den = disc.numerator, disc.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return []
    s = Fraction(rn, rd)
    return [(-B + s) / (2 * A), (-B - s) / (2 * A)]


# -- the covector map and the bracket identity ----------------------------------------------


def xi_f(a: LinearPoissonAction, f: MultiPoly) -> list:
    """Components of the covector field xi_f: <xi_f(p), e_i> = lam(e_i)(f)(p)."""
    f = f.over(a.bivector.vars)
    return [fld.apply(f) for fld in a.fields()]


def check_action_bracket_identity(a: LinearPoissonAction, dual_algebra: LieAlgebra, f: MultiPoly,
             g: MultiPoly) -> dict:
    """lam(X)({f,g}) = {lam(X)f, g} + {f, lam(X)g} + <X, [xi_f, xi_g]_*>,
    verified as a polynomial identity for each basis X."""
    pi = a.bivector
    f = f.over(pi.vars)
    g = g.over(pi.vars)
    xf = xi_f(a, f)
    xg = xi_f(a, g)
    n = a.algebra.dim
    # [xi_f, xi_g]_* expanded with polynomial coefficients
    dual_products = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k, c in enumerate(dual_algebra.basis_bracket(i, j)):
                dual_products[k] += [(c, (xf[i], xg[j])), (-c, (xf[j], xg[i]))]
    dual_comp = [MultiPoly.sum_of_products(pi.vars, products) for products in dual_products]
    fg = bracket_fn(pi, f, g)
    residuals = []
    ok = True
    for k, fld in enumerate(a.fields()):
        lhs = fld.apply(fg)
        rhs = bracket_fn(pi, fld.apply(f), g) + bracket_fn(pi, f, fld.apply(g)) + dual_comp[k]
        res = lhs - rhs
        if not res.is_zero():
            ok = False
        residuals.append({"index": k, "residual": str(res)})
    return {"passed": ok, "mode": "symbolic", "residuals": residuals}


# -- isotropy and annihilator -------------------------------------------------------------


def _strings(basis) -> list:
    """Each vector of ``basis`` as a list of strings."""
    return [[str(x) for x in v] for v in basis]


def isotropy_and_annihilator(a: LinearPoissonAction, point, dual_algebra: LieAlgebra) -> dict:
    """Exact isotropy subalgebra at a point, its annihilator, and whether the
    annihilator is abelian for the supplied dual bracket."""
    iso = linear_isotropy(a.rep_mats, point)
    ann = linalg.annihilator(iso, a.algebra.dim)
    abelian_ok = True
    for u, v in itertools.combinations(ann, 2):
        if any(dual_algebra.bracket(u, v)):
            abelian_ok = False
            break
    return {"isotropy": _strings(iso), "annihilator": _strings(ann),
            "annihilator_abelian": abelian_ok}


# -- momentum maps --------------------------------------------------------------------------


class MomentumMap:
    def __init__(self, algebra: LieAlgebra, components: list):
        self.algebra = algebra
        self.components = components    # one MultiPoly per basis element

    def of_vector(self, X) -> MultiPoly:
        chart = functools.reduce(_merged_chart, (c.vars for c in self.components))
        return MultiPoly.sum_of_products(chart, [(xi, (comp.over(chart),))
                                                 for xi, comp in zip(X, self.components)])

    def eval_exact(self, variables, point) -> list:
        """The exact components at ``point``, given in the order of ``variables``."""
        at = _int_evaluator(_as_vars(variables), self.components)
        return linalg._scalars(at(linalg._int_row(point)))


def identity_momentum_map(L: LieAlgebra, pi: PolyBivector, shift=None) -> MomentumMap:
    """m(e_i) = mu_i (+ constant shift), the tautological map on the dual space."""
    comps = []
    for i, v in enumerate(pi.vars):
        p = MultiPoly.variable(pi.vars, v.name)
        if shift is not None:
            p = p + MultiPoly.constant(pi.vars, shift[i])
        comps.append(p)
    return MomentumMap(L, comps)


def momentum_check(a: LinearPoissonAction, m: MomentumMap) -> dict:
    """lam(e_i) = X_{m(e_i)} per basis element, as a polynomial identity."""
    pi = a.bivector
    residuals = [fld - hamiltonian_field(pi, m.components[i]) for i, fld in enumerate(a.fields())]
    return {"passed": all(r.is_zero() for r in residuals), "mode": "symbolic",
            "residuals": [{"index": i, "residual": str(r)} for i, r in enumerate(residuals)]}


def _solve_scale(lhs, rhs) -> tuple:
    """``(t, residuals)``: the t with ``lhs_k = t * rhs_k`` for every k, read
    off the first term of the first nonzero ``rhs_k`` (0 when all are zero),
    and the residuals ``lhs_k - t * rhs_k``, all zero iff such a t exists."""
    t = next((left.terms.get(e, ZERO) / c for left, right in zip(lhs, rhs)
              for e, c in right.terms.items()), ZERO)
    return t, [left - right.scale(t) for left, right in zip(lhs, rhs)]


def solve_momentum_normalization(a: LinearPoissonAction) -> dict:
    """Solve both momentum-map families of the first generator field lam of
    an action on the plane with bivector pi = h d_1 ^ d_2, exactly: s and
    the residuals h*lam_k - s*X_h,k of J = s*log|h| (``passed`` iff all
    vanish), and the residuals 4*h^3*lam_k^2 - a^2*X_h,k^2 of J = a*|h|^(-1/2).

    For J = s*log|h|, X_J = (s/h) X_h, so lam = X_J iff h*lam = s*X_h.  For
    J = a*|h|^(-1/2), X_J = -(a/2) h^(-3/2) X_h where h > 0, so lam = X_J
    forces 4*h^3*lam_k^2 = a^2*X_h,k^2 there, hence as polynomials.  Each is
    linear in its one unknown, s or a^2, which one coefficient fixes
    (:func:`_solve_scale`); the identity is then checked term by term."""
    pi = a.bivector
    if pi.n != 2:
        raise ValueError("the momentum families need a bivector h d_1 ^ d_2 on the plane")
    h = pi.component(0, 1)
    lam = [a.fields()[0].component(k) for k in range(2)]
    xh = [hamiltonian_field(pi, h).component(k) for k in range(2)]
    s, log_residual = _solve_scale([h * v for v in lam], xh)
    h3 = (h * h * h).scale(4)
    _, power_residual = _solve_scale([h3 * v * v for v in lam], [v * v for v in xh])
    return {"family": "s*log|h|", "solved_constant": str(s),
            "residual": [str(r) for r in log_residual],
            "passed": all(r.is_zero() for r in log_residual), "mode": "symbolic",
            "power_family_consistent": all(r.is_zero() for r in power_residual),
            "power_family_residual": [str(r) for r in power_residual]}


# -- the obstruction cochain -----------------------------------------------------------------


def gamma(a: LinearPoissonAction, m: MomentumMap) -> dict:
    """Gamma_{X,Y} = m([X,Y]) - {m(X), m(Y)} on basis pairs, as the dict
    ``{(i, j): MultiPoly}`` over i < j, with the pullback route through the
    linear dual-space bivector computed independently and asserted equal."""
    L = a.algebra
    pi = a.bivector
    e = linalg.identity(L.dim)
    entries = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            route_b = m.of_vector(L.bracket(e[i], e[j])) - bracket_fn(pi, m.components[i], m.components[j])
            # independent route: pull back the dual-space pairing and use the
            # anchor-and-pair form of the plane bracket
            pullback = m.of_vector(L.basis_bracket(i, j))
            pair = pi.pair(
                differential(m.components[i], pi.vars),
                differential(m.components[j], pi.vars),
            )
            route_a = pullback - pair
            if not (route_a - route_b).is_zero():
                raise AssertionError("the two obstruction formulas disagree")
            entries[(i, j)] = route_b
    return entries


def gamma_cocycle_residuals(a: LinearPoissonAction, G: dict,
                            m: MomentumMap | None = None) -> list:
    """d_2 Gamma on all basis triples, where d_2 : C^2 -> C^3 is the
    Chevalley-Eilenberg differential with trivial coefficients (g acts
    trivially on Casimirs), applied to the entries ``{(i, j): MultiPoly}``
    of :func:`gamma`, with polynomial coefficients.  When the momentum map
    is supplied, the displayed route with the plane brackets is computed as
    well, and both must agree."""
    L = a.algebra
    if L.dim < 3:       # no triples, and ce_differential needs degree <= dim
        return []
    pi = a.bivector
    d2 = ce_differential(L, representation(L, TRIVIAL), 2)
    gammas = [G[I] for I in d2.domain_basis]
    chart = functools.reduce(_merged_chart, (p.vars for p in gammas))
    e = linalg.identity(L.dim)
    out = []
    for (i, j, k), row in zip(d2.codomain_basis, d2.matrix):
        acc = MultiPoly.sum_of_products(chart, [(c, (p.over(chart),)) for c, p in zip(row, gammas)])
        if m is not None:
            products = []
            for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                bxy = L.bracket(e[x], e[y])
                products += [(1, (bracket_fn(pi, m.of_vector(bxy), m.components[z]),)),
                             (-1, (m.of_vector(L.bracket(bxy, e[z])),))]
            if not (acc - MultiPoly.sum_of_products(pi.vars, products)).is_zero():
                raise AssertionError("the two d_2 routes disagree")
        out.append(((i, j, k), acc))
    return out


def gamma_checks(a: LinearPoissonAction, G: dict,
                 m: MomentumMap | None = None) -> dict:
    """Checks on the entries ``{(i, j): MultiPoly}`` of :func:`gamma`:
    (i) every entry is a Casimir; (ii) d_2 Gamma = 0 symbolically (see
    :func:`gamma_cocycle_residuals`); (iii) exactness of a constant Gamma:
    solve d_1 phi = Gamma for a constant correction phi, where
    d_1 : C^1 -> C^2 is the Chevalley-Eilenberg differential with trivial
    coefficients, (d_1 phi)(e_i, e_j) = -phi([e_i, e_j]).  The class is
    reported unsolvable when it is nonzero; it passes when (i) and (ii)
    hold and the correction is not unsolvable."""
    pi = a.bivector
    cas_fail = []
    for (i, j), p in sorted(G.items()):
        if not casimir_check(pi, p):
            cas_fail.append([i, j])
    cres = gamma_cocycle_residuals(a, G, m)
    cocycle_ok = all(r.is_zero() for _, r in cres)

    solvable = correction = corrected_zero = None
    d1 = ce_differential(a.algebra, representation(a.algebra, TRIVIAL), 1)
    try:
        consts = [G[I].as_constant() for I in d1.codomain_basis]
    except ValueError:
        consts = None
    if consts is not None:
        correction = linalg.solve(d1.matrix, consts)
        solvable = correction is not None
        if solvable:
            corrected_zero = linalg.mat_vec(d1.matrix, correction) == consts
    return {
        "passed": not cas_fail and cocycle_ok and solvable is not False,
        "mode": "symbolic",
        "casimir_ok": not cas_fail,
        "casimir_failures": cas_fail,
        "cocycle_ok": cocycle_ok,
        "cocycle_residuals": [{"triple": list(t), "residual": str(r)}
                              for t, r in cres if not r.is_zero()],
        "correction_solvable": solvable,
        "correction": [str(x) for x in correction] if correction else None,
        "corrected_vanishes": corrected_zero,
    }


# -- the group cocycle ------------------------------------------------------------------------


def _group_maps(a: LinearPoissonAction, g) -> tuple:
    """(lift(g), Coad_g) of an integer g; on a coadjoint action, one matrix."""
    lifted = a._int_lift(g)
    return lifted, (lifted if a.coadjoint else a._int_coad(g))


def _sigma(m_at, maps: tuple, x, m_x) -> tuple:
    """Sigma(g, x) on integers, from m's evaluator ``m_at``, g's maps and m(x)."""
    lifted, co = maps
    return linalg._int_add(m_at(linalg._int_mat_vec(lifted, x)), linalg._int_mat_vec(co, m_x), -1)


def sigma(a: LinearPoissonAction, m: MomentumMap, g, x) -> list:
    """Sigma(g, x) = m(g x) - Coad_g m(x) in the dual space (exact)."""
    m_at, xv = _int_evaluator(a.bivector.vars, m.components), linalg._int_row(x)
    return linalg._scalars(_sigma(m_at, _group_maps(a, linalg._int_mat(g)), xv, m_at(xv)))


def psi_cocycle_check(a: LinearPoissonAction, m: MomentumMap, triples) -> dict:
    """Psi(gh) = Psi(g) + Ad*_{g^{-1}} Psi(h) exactly at sampled (g, h, x),
    plus the Casimir property of the components of Sigma(g, .).  Each triple
    evaluates m(x) once, and each distinct group element of the call gets its
    lift and Coad once."""
    violations, first, maps = [], None, {}
    m_at = _int_evaluator(a.bivector.vars, m.components)

    def group_maps(k):
        # elements recur (the CLI's triples are cyclic): key k by its reduced integers
        flat = [t for part in k[:2] if part for row in part for t in row] + [k[2]]
        c = math.gcd(*flat)
        key = tuple(t // c for t in flat)
        if key not in maps:
            maps[key] = _group_maps(a, k)
        return maps[key]

    for g, h, x in triples:
        g, h = linalg._int_mat(g), linalg._int_mat(h)
        at_gh, at_g, at_h = (group_maps(k) for k in (linalg._int_mul(g, h), g, h))
        first = first or at_g
        xv = linalg._int_row(x)
        m_x = m_at(xv)
        t2 = linalg._int_mat_vec(at_g[1], _sigma(m_at, at_h, xv, m_x))
        res = linalg._int_add(linalg._int_add(_sigma(m_at, at_gh, xv, m_x),
                                              _sigma(m_at, at_g, xv, m_x), -1), t2, -1)
        if any(res[0]) or res[1] and any(res[1]):
            violations.append({"residual": [str(t) for t in linalg._scalars(res)],
                               "x": [str(t) for t in x]})
    # Casimir property of <Sigma(g, .), Y>: symbolic when components are
    # polynomial in the base point
    cas_ok = True
    if first:
        lifted, co = map(linalg._scalars, first)
        gx = linear_action_fields([lifted], a.bivector.vars)[0]
        gx_sym = [gx.component(i) for i in range(gx.n)]
        for k in range(a.algebra.dim):
            # m_k(gx) symbolically: components are polynomials in mu
            comp = m.components[k].over(gx.vars).substitute(gx_sym) - m.of_vector(co[k])
            if not casimir_check(a.bivector, comp):
                cas_ok = False
    return {"passed": not violations and cas_ok, "mode": "symbolic", "samples": len(triples),
            "violations": violations, "sigma_components_casimir": cas_ok}


# -- kernel/image of the momentum differential --------------------------------------------------


def momentum_kernel_image(a: LinearPoissonAction, m: MomentumMap, point) -> dict:
    """At a symplectic point: ker m_* against the symplectic orthogonal of the
    orbit directions, and im m_* against the annihilator of the isotropy."""
    pi = a.bivector
    M = pi.eval_matrix(point)
    if linalg.rank(M) != pi.n:
        raise ValueError("bivector is degenerate at the point; a symplectic point is required")
    assign = {v.name: GaussianRational.coerce(x) for v, x in zip(pi.vars, point)}
    jac = []
    for comp in m.components:
        jac.append([comp.partial(v.name).eval(assign) for v in pi.vars])
    kernel = linalg.nullspace(jac)
    image = [list(col) for col in zip(*jac)]  # columns of the jacobian span im m_*

    # symplectic orthogonal of the orbit: v with omega(lam(e_i)(p), v) = 0,
    # which is pi applied to the annihilator of the orbit directions
    orthogonal = [linalg.mat_vec(M, beta) for beta in linalg.nullspace(a.field_values(point))]

    ann = linalg.annihilator(linear_isotropy(a.rep_mats, point), a.algebra.dim)

    kernel_ok = linalg.subspace_equal(kernel, orthogonal)
    image_ok = linalg.subspace_equal(image, ann)
    return {"passed": kernel_ok and image_ok, "mode": "symbolic",
            "kernel": _strings(kernel), "image": _strings(image),
            "kernel_matches_symplectic_orthogonal": kernel_ok,
            "image_matches_isotropy_annihilator": image_ok}


# -- the commutator-inclusion check ---------------------------------------------------------------


def check_commutator_inclusion(a: LinearPoissonAction, m: MomentumMap, point) -> dict:
    """[g_u, g_u] inside g_p for u = m(p), with a sampled local-minimality
    probe of dim g_{m(.)} around the point (warn-only)."""
    L = a.algebra
    pi = a.bivector
    dressing = dressing_generator_matrices(L)
    gu = linear_isotropy(dressing, m.eval_exact(pi.vars, point))
    gp = linear_isotropy(a.rep_mats, point)

    ok = True
    for X, Y in itertools.combinations(gu, 2):
        if not linalg.in_span(gp, L.bracket(X, Y)):
            ok = False
    warn = False
    rng = random.Random(0)
    dim_u = len(gu)
    for _ in range(NEIGHBORHOOD_SAMPLES):
        q = [GaussianRational.coerce(x) + Q(rng.randint(-2, 2) * NEIGHBORHOOD_RADIUS)
             for x in point]
        if len(linear_isotropy(dressing, m.eval_exact(pi.vars, q))) < dim_u:
            warn = True
    return {"passed": ok, "mode": "symbolic", "dim_isotropy_at_value": dim_u,
            "dim_isotropy_at_point": len(gp), "local_minimality_warning": warn}
