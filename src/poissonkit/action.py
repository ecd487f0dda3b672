"""Linear matrix-group Poisson actions, momentum maps, and the equivariance
obstruction cocycles, restricted to groups with zero Poisson structure for
all momentum machinery (the dual group is then the dual vector space).

Group-level data lives in :class:`LinearPoissonAction`: the infinitesimal
generators acting on the target (their field values are matrix-vector
products) and the defining matrices of the algebra, from which the group
relation, the exact lift ``g -> n x n matrix`` and, through
:func:`coadjoint_matrix`, the exact coadjoint matrix all follow.  The
sampled group checks do per sample only the work that depends on the
sample: Coad_g costs one inversion and integer dot products against a table
the action builds once (:func:`coadjoint_table`), a tangentiality point one
elimination, and a psi-cocycle call each distinct group element once.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .bialgebra import RMatrix
from .lie import (COADJOINT, TRIVIAL, LieAlgebra, abelian, ce_differential, representation, sl2,
                  sl2_defining_matrices)
from .multivector import schouten
from .poisson import (
    PolyBivector,
    PolyVectorField,
    bracket_fn,
    casimir_check,
    differential,
    hamiltonian_field,
    lie_derivative_bivector,
    lie_poisson,
)
from .poly import MultiPoly, NumericField, _as_vars, generators, sl2_relation_ideal
from .scalars import GaussianRational, Q, ZERO, ONE

POINTWISE_TOL = 1e-6
# the local-minimality probe of check_commutator_inclusion: seeded points at
# offsets k * radius, k in -2..2, in each coordinate
NEIGHBORHOOD_RADIUS = Fraction(1, 7)
NEIGHBORHOOD_SAMPLES = 6


# -- exact group helpers ----------------------------------------------------------


def sl2_rational_samples(count: int, seed: int = 0) -> list:
    """Exact determinant-one samples: products of one to three elementary
    matrices [[1, t], [0, 1]] or [[1, 0], [t, 1]]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = linalg.identity(2)
        for _ in range(rng.randint(1, 3)):
            t = Q(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            # g times an elementary matrix: add t times one column to the other
            src, dst = (0, 1) if rng.random() < 0.5 else (1, 0)
            for row in g:
                row[dst] = row[dst] + t * row[src]
        out.append(g)
    return out


def spans_sl2(mats) -> bool:
    """True iff the defining matrices are 2x2 and span sl(2): only such groups
    get the exact sampler and the determinant-one group relation."""
    if not all(len(m) == 2 and len(m[0]) == 2 and (m[0][0] + m[1][1]).is_zero() for m in mats):
        return False
    return linalg.rank([[m[0][0], m[0][1], m[1][0]] for m in mats]) == 3


def exact_group_samples(a: LinearPoissonAction, count: int, seed: int):
    """Exact group samples for the action, or None when there is no exact
    sampler (see :func:`spans_sl2`)."""
    if a.sl2:
        return sl2_rational_samples(count, seed=seed)
    return None


def coadjoint_table(defining_mats):
    """The map g -> Coad_g of :func:`coadjoint_matrix`, with the work that
    does not depend on g done here, once.

    One elimination of [B | 1], B the d^2 x n basis system (column j is D_j
    flattened), gives E with E B in reduced form: its rows against B's pivot
    columns are a left inverse (free coordinates stay 0), and the rows below
    them span the left null space of B.  Contracted with every D_i, each row
    is bilinear in (g^{-1}, g):

        (E vec(g^{-1} D_i g))[r] = sum E[r][ab] g^{-1}[a][c] D_i[c][e] g[e][b],

    so a g costs one inversion, one outer product and one integer dot
    product per (i, r)."""
    basis = [linalg.mat(m) for m in defining_mats]
    n, d = len(basis), len(basis[0])
    dd = d * d
    unit = linalg.identity(dd)
    red, pivots = linalg.rref([[m[a][b] for m in basis] + unit[a * d + b]
                               for a in range(d) for b in range(d)])
    coords = [pc for pc in pivots if pc < n]
    R = range(d)
    values = linalg.bilinear_rows([
        [row[n + a * d + b] * m[c][e] for a in R for c in R for e in R for b in R]
        for m in basis for row in red
    ])

    def coad(g) -> list:
        g = linalg.mat(g)
        if len(g) != d or any(len(row) != d for row in g):
            raise ValueError(f"group matrix must be {d}x{d}")
        ginv = linalg.inverse(g)
        if ginv is None:
            raise ValueError("group matrix is singular")
        vals = values([x for row in ginv for x in row], [x for row in g for x in row])
        co = linalg.zeros(n, n)
        for i in range(n):
            block = vals[i * dd:(i + 1) * dd]
            if any(block[len(coords):]):
                raise ValueError("matrix does not lie in the algebra span")
            for pc, x in zip(coords, block):
                co[i][pc] = x
        return co

    return coad


def coadjoint_matrix(defining_mats, g) -> list:
    """Matrix of Ad*_{g^{-1}}, i.e. <Coad_g mu, Y> = <mu, Ad_{g^{-1}} Y>.

    Row i holds the coordinates of g^{-1} D_i g in the defining basis D, free
    coordinates 0, read through the table of :func:`coadjoint_table`;
    ``ValueError`` when g is singular or a conjugate leaves the span of D.
    This is the left action on the dual space; its infinitesimal generator is
    the module-valid coadjoint representation."""
    return coadjoint_table(defining_mats)(g)


# -- infinitesimal actions -----------------------------------------------------------


def linear_action_fields(rep_mats, variables) -> list:
    """lam(X)(x) = X.x as linear-coefficient vector fields (d/dt exp(tX)x at 0)."""
    vs = _as_vars(variables)
    gens = [MultiPoly.variable(vs, v.name) for v in vs]
    fields = []
    for a in range(len(rep_mats)):
        comps = []
        M = linalg.mat(rep_mats[a])
        for i in range(len(gens)):
            acc = MultiPoly.zero(vs)
            for j in range(len(gens)):
                if not M[i][j].is_zero():
                    acc = acc + gens[j].scale(M[i][j])
            comps.append(acc)
        fields.append(PolyVectorField(vs, comps))
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


@dataclass
class LinearPoissonAction:
    """A matrix-group action on a polynomial Poisson space.

    ``rep_mats`` generate the infinitesimal action on the target.  The group
    is generated by ``defining_mats`` (default ``rep_mats``) and acts on the
    target by g itself, or by Coad_g when ``coadjoint`` is set; the lift, its
    generators and the group relation are derived from these once.
    """

    algebra: LieAlgebra
    rep_mats: list
    bivector: PolyBivector
    rmatrix: RMatrix | None = None
    defining_mats: list | None = None
    coadjoint: bool = False

    def __post_init__(self):
        self.rep_mats = [linalg.mat(m) for m in self.rep_mats]
        self.defining_mats = (self.rep_mats if self.defining_mats is None
                              else [linalg.mat(m) for m in self.defining_mats])
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
        self._fields = None
        self._coad = None

    def contains(self, g) -> bool:
        """The group relation: determinant one when the defining matrices span
        sl(2) (see :func:`spans_sl2`); any matrix passes otherwise."""
        if not self.sl2:
            return True
        m = linalg.mat(g)
        return m[0][0] * m[1][1] - m[0][1] * m[1][0] == ONE

    def lift(self, g) -> list:
        """The n x n matrix by which the group element g acts on the target;
        ``ValueError`` when g fails the group relation."""
        if not self.contains(g):
            raise ValueError("matrix fails the group relation")
        if self.coadjoint:
            return self.coad(g)
        return linalg.mat(g)

    def coad(self, g) -> list:
        """Coad_g (see :func:`coadjoint_matrix`) through the table of
        :func:`coadjoint_table`, built on the first call."""
        if self._coad is None:
            self._coad = coadjoint_table(self.defining_mats)
        return self._coad(g)

    @property
    def target_dim(self) -> int:
        return self.bivector.n

    def fields(self) -> list:
        if self._fields is None:
            self._fields = linear_action_fields(self.rep_mats, self.bivector.vars)
        return self._fields

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
        p = [GaussianRational.coerce(x) for x in point]
        return [linalg.mat_vec(m, p) for m in self.rep_mats]


# -- worked bundles ---------------------------------------------------------------------


def quadratic_h(l1, l2, l3, c, variables=("x1", "x2")) -> MultiPoly:
    """h = (l1+l3)/4 x1^2 - (l1-l3)/4 x2^2 - l2/2 x1 x2 + c."""
    l1, l2, l3, c = (GaussianRational.coerce(v) for v in (l1, l2, l3, c))
    x1, x2 = generators(*variables)
    quarter = Q("1/4")
    half = Q("1/2")
    return (
        (x1 * x1).scale(quarter * (l1 + l3))
        - (x2 * x2).scale(quarter * (l1 - l3))
        - (x1 * x2).scale(half * l2)
        + MultiPoly.constant(x1.vars, c)
    )


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


def _wedge_matrix(u, v) -> list:
    n = len(u)
    return [[u[i] * v[j] - u[j] * v[i] for j in range(n)] for i in range(n)]


@dataclass
class ActionCheckReport:
    passed: bool
    mode: str
    failures: list
    samples: int

    def to_json(self):
        return {
            "passed": self.passed,
            "mode": self.mode,
            "samples": self.samples,
            "failures": self.failures,
        }


def check_poisson_action(a: LinearPoissonAction, samples) -> ActionCheckReport:
    """Evaluate pi(g x) = dsigma_g pi(x) + dsigma^x pi_G(g) exactly at exact
    sample pairs; pi_G(g) is the coboundary left-minus-right translate of the
    r-matrix (zero when no r-matrix is attached)."""
    failures = []
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
            # left[k] = G rho_k x and right[k] = rho_k g x, once per index k
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
    return ActionCheckReport(
        passed=not failures, mode="symbolic", failures=failures, samples=len(samples)
    )


# -- the quadratic cocycle identity on the plane ------------------------------------------


@dataclass
class HCertificate:
    h: MultiPoly
    certificate: MultiPoly     # normal form of lhs - rhs modulo the group relation
    passed: bool

    def to_json(self):
        return {
            "passed": self.passed,
            "mode": "symbolic",
            "h": str(self.h),
            "certificate": str(self.certificate),
        }


def solve_h_certificate(l1, l2, l3, c) -> HCertificate:
    """Construct the closed-form h and certify the group cocycle identity

        h(g x) - h(x) = (quadratic form in the group entries and x)

    as a polynomial identity after reduction modulo the determinant relation.
    """
    l1, l2, l3, cc = (GaussianRational.coerce(v) for v in (l1, l2, l3, c))
    names = ("a1", "a2", "a3", "a4", "x1", "x2")
    a1, a2, a3, a4, x1, x2 = generators(*names)
    h = quadratic_h(l1, l2, l3, cc, variables=("x1", "x2"))
    lhs = h.substitute([a1 * x1 + a2 * x2, a3 * x1 + a4 * x2]) - h.over(a1.vars)
    quarter = Q("1/4")
    lp = l1 + l3
    lm = l1 - l3
    rhs = (
        (x1 * x1) * ((a1 * a1).scale(lp) - (a3 * a3).scale(lm) - (a1 * a3).scale(Q(2) * l2) - lp)
        + (x2 * x2) * ((a2 * a2).scale(lp) - (a4 * a4).scale(lm) - (a2 * a4).scale(Q(2) * l2) + lm)
        + (x1 * x2) * ((a1 * a2).scale(Q(2) * lp) - (a3 * a4).scale(Q(2) * lm) - (a2 * a3).scale(Q(4) * l2))
    ).scale(quarter)
    ideal = sl2_relation_ideal()
    cert = ideal.reduce(lhs - rhs)
    return HCertificate(h=h, certificate=cert, passed=cert.is_zero())


def numeric_h_residual(l1, l2, l3, c, count: int = 1000, seed: int = 0) -> float:
    """Max float residual of the cocycle identity over exact group samples,
    each relative to the size of its terms, max(1, |h(gx)|, |h(x)|)."""
    h = quadratic_h(l1, l2, l3, c)

    def h_at(p):
        v = h.eval({"x1": p[0], "x2": p[1]})
        return v.real if isinstance(v, complex) else float(v)

    gs = sl2_rational_samples(count, seed=seed)
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


# -- structure preservation and tangentiality ----------------------------------------------


@dataclass
class PreservationReport:
    passed: bool
    per_generator: list   # (index, preserved, residual string)

    def to_json(self):
        return {
            "passed": self.passed,
            "mode": "symbolic",
            "per_generator": [
                {"index": i, "preserved": ok, "residual": res}
                for i, ok, res in self.per_generator
            ],
        }


def check_structure_preserved(a: LinearPoissonAction) -> PreservationReport:
    """L_{lam(e_i)} pi = 0 symbolically for every generator."""
    rows = []
    for i, f in enumerate(a.fields()):
        lv = lie_derivative_bivector(a.bivector, f)
        rows.append((i, lv.is_zero(), str(lv)))
    return PreservationReport(passed=all(ok for _, ok, _ in rows), per_generator=rows)


def tangential_coefficient_predicate(l1, l2, l3, c) -> bool:
    """l1 + l3 > 0, l1^2 + l2^2 - l3^2 < 0, c >= 0 (exact rational compare)."""
    l1, l2, l3, c = (Fraction(v) if not isinstance(v, Fraction) else v for v in (l1, l2, l3, c))
    return (l1 + l3 > 0) and (l1 * l1 + l2 * l2 - l3 * l3 < 0) and (c >= 0)


@dataclass
class TangentialReport:
    passed: bool
    failures: list   # (point, generator index)
    points: int

    def to_json(self):
        return {
            "passed": self.passed,
            "mode": "symbolic",
            "points": self.points,
            "failures": [
                {"point": [str(x) for x in p], "generator": i} for p, i in self.failures
            ],
        }


def tangential_check(a: LinearPoissonAction, points) -> TangentialReport:
    """At each exact point, solvability of pi(p) alpha = lam(e_i)(p) for every
    generator (membership of the orbit directions in the image of the anchor).

    One elimination per point: row-reduce [pi(p) | lam(e_1)(p) ... lam(e_k)(p)];
    generator i fails exactly when its column is nonzero in some row below the
    pivots that lie in pi's columns."""
    failures = []
    n = a.target_dim
    for p in points:
        M = a.bivector.eval_matrix(p)
        vals = a.field_values(p)
        red, pivots = linalg.rref([row + [v[r] for v in vals] for r, row in enumerate(M)])
        below = red[sum(pc < n for pc in pivots):]
        failures += [(list(p), i) for i in range(len(vals)) if any(row[n + i] for row in below)]
    return TangentialReport(passed=not failures, failures=failures, points=len(points))


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
            if GaussianRational.coerce(h.eval({"x1": pt[0], "x2": pt[1]})).is_zero():
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


@dataclass
class ActionBracketReport:
    passed: bool
    residuals: list   # per basis index, residual polynomial string

    def to_json(self):
        return {
            "passed": self.passed,
            "mode": "symbolic",
            "residuals": [{"index": i, "residual": r} for i, r in self.residuals],
        }


def check_action_bracket_identity(a: LinearPoissonAction, dual_algebra: LieAlgebra, f: MultiPoly,
             g: MultiPoly) -> ActionBracketReport:
    """lam(X)({f,g}) = {lam(X)f, g} + {f, lam(X)g} + <X, [xi_f, xi_g]_*>,
    verified as a polynomial identity for each basis X."""
    pi = a.bivector
    f = f.over(pi.vars)
    g = g.over(pi.vars)
    xf = xi_f(a, f)
    xg = xi_f(a, g)
    n = a.algebra.dim
    # [xi_f, xi_g]_* expanded with polynomial coefficients
    dual_comp = [MultiPoly.zero(pi.vars) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeff = xf[i] * xg[j] - xf[j] * xg[i]
            if coeff.is_zero():
                continue
            vec = dual_algebra.basis_bracket(i, j)
            for k in range(n):
                if not vec[k].is_zero():
                    dual_comp[k] = dual_comp[k] + coeff.scale(vec[k])
    fg = bracket_fn(pi, f, g)
    residuals = []
    ok = True
    for k, fld in enumerate(a.fields()):
        lhs = fld.apply(fg)
        rhs = bracket_fn(pi, fld.apply(f), g) + bracket_fn(pi, f, fld.apply(g)) + dual_comp[k]
        res = lhs - rhs
        if not res.is_zero():
            ok = False
        residuals.append((k, str(res)))
    return ActionBracketReport(passed=ok, residuals=residuals)


# -- isotropy and annihilator -------------------------------------------------------------


@dataclass
class IsotropyReport:
    isotropy_basis: list
    annihilator_basis: list
    annihilator_abelian: bool

    def to_json(self):
        return {
            "isotropy": [[str(x) for x in v] for v in self.isotropy_basis],
            "annihilator": [[str(x) for x in v] for v in self.annihilator_basis],
            "annihilator_abelian": self.annihilator_abelian,
        }


def isotropy_and_annihilator(a: LinearPoissonAction, point,
                             dual_algebra: LieAlgebra) -> IsotropyReport:
    """Exact isotropy subalgebra at a point, its annihilator, and whether the
    annihilator is abelian for the supplied dual bracket."""
    iso = linear_isotropy(a.rep_mats, point)
    ann = linalg.annihilator(iso, a.algebra.dim)
    abelian_ok = True
    for u, v in itertools.combinations(ann, 2):
        if any(dual_algebra.bracket(u, v)):
            abelian_ok = False
            break
    return IsotropyReport(
        isotropy_basis=iso, annihilator_basis=ann, annihilator_abelian=abelian_ok
    )


# -- momentum maps --------------------------------------------------------------------------


@dataclass
class MomentumMap:
    algebra: LieAlgebra
    components: list        # MultiPoly (symbolic) or NumericField per basis element

    def is_symbolic(self) -> bool:
        return all(isinstance(c, MultiPoly) for c in self.components)

    def of_vector(self, X) -> MultiPoly:
        acc = None
        for xi, comp in zip(X, self.components):
            c = GaussianRational.coerce(xi)
            term = comp.scale(c)
            acc = term if acc is None else acc + term
        return acc

    def eval_exact(self, variables, point) -> list:
        assign = {v.name: GaussianRational.coerce(x) for v, x in zip(variables, point)}
        return [GaussianRational.coerce(c.eval(assign)) for c in self.components]


def identity_momentum_map(L: LieAlgebra, pi: PolyBivector, shift=None) -> MomentumMap:
    """m(e_i) = mu_i (+ constant shift), the tautological map on the dual space."""
    comps = []
    for i, v in enumerate(pi.vars):
        p = MultiPoly.variable(pi.vars, v.name)
        if shift is not None:
            p = p + MultiPoly.constant(pi.vars, shift[i])
        comps.append(p)
    return MomentumMap(L, comps)


def _field_vs_hamiltonian(pi: PolyBivector, fld: PolyVectorField, comp: NumericField,
                          pf) -> list:
    """Component pairs (lam^k, X_comp^k) of a generator field and the
    Hamiltonian field of ``comp`` at a float point, by finite differences."""
    mflt = pi.eval_matrix_float(pf)
    grad = comp.gradient(pf)
    sharp = [sum(grad[j] * mflt[j][k] for j in range(pi.n)) for k in range(pi.n)]
    assign = {v.name: x for v, x in zip(pi.vars, pf)}
    return [(complex(fld.component(k).eval(assign)).real, sv) for k, sv in enumerate(sharp)]


@dataclass
class MomentumReport:
    passed: bool
    mode: str
    residuals: list
    max_residual: float | None = None

    def to_json(self):
        out = {
            "passed": self.passed,
            "mode": self.mode,
            "residuals": self.residuals,
        }
        if self.max_residual is not None:
            out["max_residual"] = self.max_residual
        return out


def momentum_check(a: LinearPoissonAction, m: MomentumMap, points=None,
                   tol: float = POINTWISE_TOL) -> MomentumReport:
    """lam(e_i) = X_{m(e_i)} per basis element: symbolically for polynomial
    components, pointwise with finite differences otherwise."""
    pi = a.bivector
    if m.is_symbolic():
        residuals = []
        ok = True
        for i, fld in enumerate(a.fields()):
            xm = hamiltonian_field(pi, m.components[i])
            res = fld - xm
            if not res.is_zero():
                ok = False
            residuals.append({"index": i, "residual": str(res)})
        return MomentumReport(passed=ok, mode="symbolic", residuals=residuals)
    if points is None:
        raise ValueError("numeric momentum check requires sample points")
    worst = 0.0
    residuals = []
    for p in points:
        pf = [float(x) for x in p]
        for fld, comp in zip(a.fields(), m.components):
            if not isinstance(comp, NumericField):
                comp = NumericField.from_poly(comp)
            r = max(abs(lv - sv) for lv, sv in _field_vs_hamiltonian(pi, fld, comp, pf))
            worst = max(worst, float(r))
    residuals.append({"max_residual": worst})
    return MomentumReport(passed=bool(worst < tol), mode="numeric", residuals=residuals,
                          max_residual=worst)


@dataclass
class NormalizationReport:
    family: str
    solved_constant: float
    max_residual: float
    consistent: bool

    def to_json(self):
        return {
            "family": self.family,
            "solved_constant": self.solved_constant,
            "max_residual": self.max_residual,
            "passed": self.consistent,
            "mode": "numeric",
        }


def solve_momentum_normalization(a: LinearPoissonAction, family, points,
                                 tol: float = POINTWISE_TOL) -> NormalizationReport:
    """Fit the single scale constant of a one-parameter momentum-map family
    ``family(s) -> NumericField`` at the first sample, then test the fit on
    the rest.  Reports failure when no constant works globally."""
    pi = a.bivector
    fld = a.fields()[0]

    def pairs(s, p):
        return _field_vs_hamiltonian(pi, fld, family(s), [float(x) for x in p])

    def signed(s):
        # first nonzero component difference at the first sample, signed
        return next((lv - sv for lv, sv in pairs(s, points[0]) if abs(lv) + abs(sv) > 1e-14), 0.0)

    # the residual is affine in s: solve on the first sample by secant
    s0 = signed(0.0)
    s1 = signed(1.0)
    best = 0.0 if abs(s1 - s0) < 1e-14 else float(s0 / (s0 - s1))
    worst = max(float(max(abs(lv - sv) for lv, sv in pairs(best, p))) for p in points)
    return NormalizationReport(
        family="fitted", solved_constant=best, max_residual=worst,
        consistent=bool(worst < tol),
    )


# -- the obstruction cochain -----------------------------------------------------------------


@dataclass
class GammaCochain:
    algebra: LieAlgebra
    entries: dict    # (i, j) with i < j -> MultiPoly


def gamma(a: LinearPoissonAction, m: MomentumMap) -> GammaCochain:
    """Gamma_{X,Y} = m([X,Y]) - {m(X), m(Y)}, with the pullback route through
    the linear dual-space bivector computed independently and asserted equal."""
    if not m.is_symbolic():
        raise ValueError("the obstruction cochain needs polynomial components")
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
    return GammaCochain(L, entries)


@dataclass
class GammaChecksReport:
    casimir_ok: bool
    casimir_failures: list
    cocycle_ok: bool
    cocycle_residuals: list
    correction_solvable: bool | None
    correction: list | None
    corrected_vanishes: bool | None

    @property
    def ok(self):
        solv = self.correction_solvable in (True, None)
        return self.casimir_ok and self.cocycle_ok and solv

    def to_json(self):
        return {
            "passed": self.ok,
            "mode": "symbolic",
            "casimir_ok": self.casimir_ok,
            "casimir_failures": self.casimir_failures,
            "cocycle_ok": self.cocycle_ok,
            "cocycle_residuals": self.cocycle_residuals,
            "correction_solvable": self.correction_solvable,
            "correction": [str(x) for x in self.correction] if self.correction else None,
            "corrected_vanishes": self.corrected_vanishes,
        }


def gamma_cocycle_residuals(a: LinearPoissonAction, G: GammaCochain,
                            m: MomentumMap | None = None) -> list:
    """d_2 Gamma on all basis triples, where d_2 : C^2 -> C^3 is the
    Chevalley-Eilenberg differential with trivial coefficients (g acts
    trivially on Casimirs), applied to the entries with polynomial
    coefficients.  When the momentum map is supplied, the displayed route
    with the plane brackets is computed as well, and both must agree."""
    L = a.algebra
    if L.dim < 3:       # no triples, and ce_differential needs degree <= dim
        return []
    pi = a.bivector
    d2 = ce_differential(L, representation(L, TRIVIAL), 2)
    gammas = [G.entries[I] for I in d2.domain_basis]
    e = linalg.identity(L.dim)
    out = []
    for (i, j, k), row in zip(d2.codomain_basis, d2.matrix):
        acc = MultiPoly.zero(gammas[0].vars)
        for c, p in zip(row, gammas):
            if not c.is_zero():
                acc = acc + p.scale(c)
        if m is not None:
            acc2 = None
            for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                bxy = L.bracket(e[x], e[y])
                t2 = bracket_fn(pi, m.of_vector(bxy), m.components[z]) - m.of_vector(
                    L.bracket(bxy, e[z])
                )
                acc2 = t2 if acc2 is None else acc2 + t2
            if not (acc - acc2).is_zero():
                raise AssertionError("the two d_2 routes disagree")
        out.append(((i, j, k), acc))
    return out


def gamma_checks(a: LinearPoissonAction, G: GammaCochain,
                 m: MomentumMap | None = None) -> GammaChecksReport:
    """(i) every entry is a Casimir; (ii) d_2 Gamma = 0 symbolically (see
    :func:`gamma_cocycle_residuals`); (iii) exactness of a constant Gamma:
    solve d_1 phi = Gamma for a constant correction phi, where
    d_1 : C^1 -> C^2 is the Chevalley-Eilenberg differential with trivial
    coefficients, (d_1 phi)(e_i, e_j) = -phi([e_i, e_j]).  The class is
    reported unsolvable when it is nonzero."""
    pi = a.bivector
    cas_fail = []
    for (i, j), p in sorted(G.entries.items()):
        if not casimir_check(pi, p):
            cas_fail.append([i, j])
    cres = gamma_cocycle_residuals(a, G, m)
    cocycle_ok = all(r.is_zero() for _, r in cres)

    solvable = correction = corrected_zero = None
    d1 = ce_differential(a.algebra, representation(a.algebra, TRIVIAL), 1)
    try:
        consts = [G.entries[I].as_constant() for I in d1.codomain_basis]
    except ValueError:
        consts = None
    if consts is not None:
        correction = linalg.solve(d1.matrix, consts)
        solvable = correction is not None
        if solvable:
            corrected_zero = linalg.mat_vec(d1.matrix, correction) == consts
    return GammaChecksReport(
        casimir_ok=not cas_fail,
        casimir_failures=cas_fail,
        cocycle_ok=cocycle_ok,
        cocycle_residuals=[
            {"triple": list(t), "residual": str(r)} for t, r in cres if not r.is_zero()
        ],
        correction_solvable=solvable,
        correction=correction,
        corrected_vanishes=corrected_zero,
    )


# -- the group cocycle ------------------------------------------------------------------------


def _group_maps(a: LinearPoissonAction, g) -> tuple:
    """(lift(g), Coad_g); on a coadjoint action both are the one matrix."""
    lifted = a.lift(g)
    return lifted, (lifted if a.coadjoint else a.coad(g))


def _sigma(a: LinearPoissonAction, m: MomentumMap, maps: tuple, xv, m_x) -> list:
    lifted, co = maps
    m_gx = m.eval_exact(a.bivector.vars, linalg.mat_vec(lifted, xv))
    return [u - v for u, v in zip(m_gx, linalg.mat_vec(co, m_x))]


def sigma(a: LinearPoissonAction, m: MomentumMap, g, x) -> list:
    """Sigma(g, x) = m(g x) - Coad_g m(x) in the dual space (exact)."""
    maps = _group_maps(a, g)
    xv = [GaussianRational.coerce(t) for t in x]
    return _sigma(a, m, maps, xv, m.eval_exact(a.bivector.vars, xv))


@dataclass
class PsiCocycleReport:
    passed: bool
    max_violations: list
    samples: int
    casimir_ok: bool

    def to_json(self):
        return {
            "passed": self.passed and self.casimir_ok,
            "mode": "symbolic",
            "samples": self.samples,
            "violations": self.max_violations,
            "sigma_components_casimir": self.casimir_ok,
        }


def psi_cocycle_check(a: LinearPoissonAction, m: MomentumMap, triples) -> PsiCocycleReport:
    """Psi(gh) = Psi(g) + Ad*_{g^{-1}} Psi(h) exactly at sampled (g, h, x),
    plus the Casimir property of the components of Sigma(g, .).  Each triple
    evaluates m(x) once, and each distinct group element of the call gets its
    lift and Coad once."""
    violations, first, maps = [], None, {}

    def group_maps(k):
        # triples often share elements (the CLI's are cyclic, h_i = g_(i+1));
        # entries are in lowest terms, so their integer triples are the key
        key = tuple((x.a, x.b, x.d) for row in k for x in row)
        if key not in maps:
            maps[key] = _group_maps(a, k)
        return maps[key]

    for g, h, x in triples:
        g, h = linalg.mat(g), linalg.mat(h)
        at_gh, at_g, at_h = (group_maps(k) for k in (linalg.mat_mul(g, h), g, h))
        first = first or at_g
        xv = [GaussianRational.coerce(t) for t in x]
        m_x = m.eval_exact(a.bivector.vars, xv)
        lhs = _sigma(a, m, at_gh, xv, m_x)
        t1 = _sigma(a, m, at_g, xv, m_x)
        t2 = linalg.mat_vec(at_g[1], _sigma(a, m, at_h, xv, m_x))
        res = [u - v - w for u, v, w in zip(lhs, t1, t2)]
        if any(res):
            violations.append(
                {"residual": [str(t) for t in res], "x": [str(t) for t in x]}
            )
    # Casimir property of <Sigma(g, .), Y>: symbolic when components are
    # polynomial in the base point
    cas_ok = True
    if first:
        lifted, co = first
        gx = linear_action_fields([lifted], a.bivector.vars)[0]
        gx_sym = [gx.component(i) for i in range(gx.n)]
        for k in range(a.algebra.dim):
            # m_k(gx) symbolically: components are polynomials in mu
            comp = m.components[k].over(gx.vars).substitute(gx_sym) - m.of_vector(co[k])
            if not casimir_check(a.bivector, comp):
                cas_ok = False
    return PsiCocycleReport(
        passed=not violations, max_violations=violations, samples=len(triples),
        casimir_ok=cas_ok,
    )


# -- kernel/image of the momentum differential --------------------------------------------------


@dataclass
class KernelImageReport:
    kernel_basis: list
    image_basis: list
    kernel_matches_orthogonal: bool
    image_matches_annihilator: bool

    @property
    def ok(self):
        return self.kernel_matches_orthogonal and self.image_matches_annihilator

    def to_json(self):
        return {
            "passed": self.ok,
            "mode": "symbolic",
            "kernel": [[str(x) for x in v] for v in self.kernel_basis],
            "image": [[str(x) for x in v] for v in self.image_basis],
            "kernel_matches_symplectic_orthogonal": self.kernel_matches_orthogonal,
            "image_matches_isotropy_annihilator": self.image_matches_annihilator,
        }


def momentum_kernel_image(a: LinearPoissonAction, m: MomentumMap, point) -> KernelImageReport:
    """At a symplectic point: ker m_* against the symplectic orthogonal of the
    orbit directions, and im m_* against the annihilator of the isotropy."""
    pi = a.bivector
    M = pi.eval_matrix(point)
    if linalg.rank(M) != pi.n:
        raise ValueError("bivector is degenerate at the point; a symplectic point is required")
    if not m.is_symbolic():
        raise ValueError("exact kernel/image computation needs polynomial components")
    assign = {v.name: GaussianRational.coerce(x) for v, x in zip(pi.vars, point)}
    jac = []
    for comp in m.components:
        jac.append(
            [GaussianRational.coerce(comp.partial(v.name).eval(assign)) for v in pi.vars]
        )
    kernel = linalg.nullspace(jac)
    image = [list(col) for col in zip(*jac)]  # columns of the jacobian span im m_*

    # symplectic orthogonal of the orbit: v with omega(lam(e_i)(p), v) = 0,
    # expressed through covectors beta_i solving pi^T beta = lam(e_i)(p)
    orbit = a.field_values(point)
    piT = linalg.transpose(M)
    covs = []
    for v in orbit:
        if all(x.is_zero() for x in v):
            continue
        beta = linalg.solve(piT, v)
        if beta is None:
            raise AssertionError("nondegenerate matrix failed to solve")
        covs.append(beta)
    orthogonal = linalg.nullspace(covs) if covs else [list(r) for r in linalg.identity(pi.n)]

    ann = linalg.annihilator(linear_isotropy(a.rep_mats, point), a.algebra.dim)

    return KernelImageReport(
        kernel_basis=kernel,
        image_basis=image,
        kernel_matches_orthogonal=linalg.subspace_equal(kernel, orthogonal),
        image_matches_annihilator=linalg.subspace_equal(image, ann),
    )


# -- the commutator-inclusion check ---------------------------------------------------------------


@dataclass
class CommutatorInclusionReport:
    inclusion_holds: bool
    isotropy_dual_dim: int
    isotropy_point_dim: int
    local_minimality_warning: bool

    def to_json(self):
        return {
            "passed": self.inclusion_holds,
            "mode": "symbolic",
            "dim_isotropy_at_value": self.isotropy_dual_dim,
            "dim_isotropy_at_point": self.isotropy_point_dim,
            "local_minimality_warning": self.local_minimality_warning,
        }


def check_commutator_inclusion(a: LinearPoissonAction, m: MomentumMap,
                               point) -> CommutatorInclusionReport:
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
    return CommutatorInclusionReport(
        inclusion_holds=ok,
        isotropy_dual_dim=dim_u,
        isotropy_point_dim=len(gp),
        local_minimality_warning=warn,
    )
