"""Classical r-matrices, dual Lie brackets, Lie bialgebras, and the abelian
Poisson-Lie structures on products of tori and vector groups.

Elements of Lambda g are :class:`AlgMultiVector` s, whose Schouten bracket
is :func:`poissonkit.multivector.schouten`, the one bracket of the package;
an r-matrix is a degree-2 one, and ad_X is the bracket with X of degree 1.

Sign calibration.  Writing ``(Lam ctr xi)^i = sum_j Lam^{ij} xi_j`` for the
contraction, the dual bracket

    [xi, eta]_* = ad*_{Lam xi} eta - ad*_{Lam eta} xi

is computed with the pairing ``<ad*_X mu, Y> = +<mu, [X, Y]>``.  This is the
composite that reproduces the worked sl(2) dual brackets and agrees with the
duality route ``<[xi, eta]_*, X> = (ad_X Lam)(xi, eta)``; flipping either
factor alone flips the whole bracket.  (The module-valid coadjoint
representation in :mod:`poissonkit.lie` keeps the opposite sign; only the
composite here is calibrated.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import linalg
from .lie import LieAlgebra
from .multivector import PolyMultiVector, schouten
from .poisson import PolyBivector, jacobi_check
from .poly import ANGULAR, MultiPoly, Var, generators
from .scalars import GaussianRational, Q, ZERO, coeff_from_json


# -- constant-coefficient multivectors on a Lie algebra ---------------------------


class AlgMultiVector(PolyMultiVector):
    """An element of Lambda^p g: scalar components on frames e1∧e2.  Its
    Schouten bracket is :func:`~poissonkit.multivector.schouten`, and
    ad_X T is ``schouten(X, T)`` with X of degree 1."""

    def __init__(self, algebra: LieAlgebra, degree: int, comps=None):
        self.algebra = algebra
        self.n = algebra.dim
        self.degree = degree
        self.comps = self._collect({idx: GaussianRational.coerce(c)
                                    for idx, c in (comps or {}).items()})

    def _zero(self):
        return ZERO

    def _frame(self, key) -> str:
        return "e" + "∧e".join(str(i + 1) for i in key)

    def _space(self):
        return self.algebra

    def _tensor(self, degree: int, comps):
        return AlgMultiVector(self.algebra, degree, comps)

    def _frame_bracket(self, f, i, g, j) -> list:
        """f g [e_i, e_j] from the structure constants, as (sign, factors,
        index) triples; a coefficient None stands for 1."""
        coeffs = tuple(c for c in (f, g) if c is not None)
        return [(1, coeffs + (ck,), k)
                for k, ck in enumerate(self.algebra.basis_bracket(i, j)) if not ck.is_zero()]

    def _sum_products(self, products):
        """The scalar ``sum c * f1 * f2 * ...`` of ``(c, factors)``."""
        acc = ZERO
        for c, factors in products:
            c = GaussianRational.coerce(c)
            for x in factors:
                c = c * x
            acc = acc + c
        return acc


def _element(L: LieAlgebra, X) -> AlgMultiVector:
    """The coefficient vector X as a degree-1 element of Lambda g."""
    return AlgMultiVector(L, 1, {(a,): x for a, x in enumerate(X)})


# -- r-matrices ---------------------------------------------------------------------


class RMatrix(AlgMultiVector):
    """An element Lam of Lambda^2 g, from ``{(i, j): coeff}`` meaning
    ``coeff * e_i ^ e_j`` (keys that sort alike add up)."""

    def __init__(self, algebra: LieAlgebra, coeffs: dict):
        super().__init__(algebra, 2, coeffs)

    @classmethod
    def from_matrix(cls, algebra: LieAlgebra, matrix) -> "RMatrix":
        """From the skew n x n matrix Lam^{ij}, as a bundle gives it."""
        n = algebra.dim
        m = linalg.mat(matrix)
        if len(m) != n or any(len(r) != n for r in m):
            raise ValueError("r-matrix must be n x n")
        if any(m[i][j] != -m[j][i] for i in range(n) for j in range(i, n)):
            raise ValueError("r-matrix must be skew-symmetric")
        return cls(algebra, {(i, j): m[i][j] for i in range(n) for j in range(i + 1, n)})

    @classmethod
    def sl2_family(cls, algebra: LieAlgebra, l1, l2, l3) -> "RMatrix":
        """lam1 e1^e2 + lam2 e2^e3 + lam3 e3^e1."""
        return cls(algebra, {(0, 1): l1, (1, 2): l2, (2, 0): l3})

    def contract(self, xi) -> list:
        """(Lam xi)^i = sum_j Lam^{ij} xi_j."""
        x = [GaussianRational.coerce(v) for v in xi]
        out = [ZERO] * self.algebra.dim
        for (i, j), c in self.comps.items():
            out[i] = out[i] + c * x[j]
            out[j] = out[j] - c * x[i]
        return out

    def to_json(self) -> dict:
        n = self.algebra.dim
        return {"lambda": [[self.component(i, j).to_json() for j in range(n)] for i in range(n)]}

    @staticmethod
    def from_json(algebra: LieAlgebra, d: dict) -> "RMatrix":
        rows = [[coeff_from_json(c) for c in row] for row in d["lambda"]]
        return RMatrix.from_matrix(algebra, rows)


def delta_from_r(r: RMatrix, X) -> AlgMultiVector:
    """The coboundary cocycle delta(X) = ad_X Lam in Lambda^2 g."""
    return schouten(_element(r.algebra, X), r)


@dataclass
class InvarianceReport:
    bracket: AlgMultiVector
    invariant: bool
    residuals: list  # (basis index, AlgMultiVector) for violations

    def to_json(self):
        return {
            "passed": self.invariant,
            "mode": "symbolic",
            "schouten_square": str(self.bracket),
            "violations": [{"index": i, "residual": str(t)} for i, t in self.residuals],
        }


def schouten_wedge_bracket(r: RMatrix) -> InvarianceReport:
    """[Lam, Lam] in Lambda^3 g plus the ad-invariance verdict."""
    L = r.algebra
    sq = schouten(r, r)
    residuals = []
    for i, X in enumerate(linalg.identity(L.dim)):
        res = schouten(_element(L, X), sq)
        if not res.is_zero():
            residuals.append((i, res))
    return InvarianceReport(bracket=sq, invariant=not residuals, residuals=residuals)


def _coad_plus(L: LieAlgebra, X, mu) -> list:
    """The pairing <A(X) mu, Y> = +<mu, [X, Y]> used inside the calibrated
    dual bracket (not the module-valid coadjoint; see the module docstring)."""
    Xc = [GaussianRational.coerce(x) for x in X]
    muc = [GaussianRational.coerce(m) for m in mu]
    out = []
    for ej in linalg.identity(L.dim):
        br = L.bracket(Xc, ej)
        out.append(sum((muc[k] * br[k] for k in range(L.dim)), ZERO))
    return out


def dual_bracket_from_r(r: RMatrix, xi, eta) -> list:
    """[xi, eta]_* = ad*_{Lam xi} eta - ad*_{Lam eta} xi on g*."""
    L = r.algebra
    a = _coad_plus(L, r.contract(xi), eta)
    b = _coad_plus(L, r.contract(eta), xi)
    return [x - y for x, y in zip(a, b)]


def dual_algebra_from_r(r: RMatrix) -> LieAlgebra:
    """The dual Lie algebra on g* with brackets from the r-matrix."""
    n = r.algebra.dim
    e = linalg.identity(n)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = dual_bracket_from_r(r, e[i], e[j])
            if any(vec):
                brackets[(i, j)] = vec
    basis = tuple(b + "*" for b in r.algebra.basis)
    return LieAlgebra(n, brackets, basis=basis)


def delta_duality_residuals(r: RMatrix) -> list:
    """Cross-check <[e_i*, e_j*]_*, e_k> = (ad_{e_k} Lam)(e_i*, e_j*).

    Returns the list of (i, j, k, residual) violations (empty when the
    calibrated conventions are coherent).
    """
    L = r.algebra
    n = L.dim
    e = linalg.identity(n)
    deltas = [delta_from_r(r, X) for X in e]
    # both sides are skew in (i, j): compute i < j, mirror the rest with a
    # sign, and list the violations in (i, j, k) order
    res = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = dual_bracket_from_r(r, e[i], e[j])
            res[i, j] = [br[k] - deltas[k].component(i, j) for k in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                vec = res[i, j] if i < j else [-v for v in res[j, i]]
                out.extend((i, j, k, v) for k, v in enumerate(vec) if not v.is_zero())
    return out


# -- Lie bialgebras --------------------------------------------------------------------


@dataclass
class LieBialgebra:
    """A pair (g, g*) of bracket structures."""

    primal: LieAlgebra
    dual: LieAlgebra

    @staticmethod
    def from_r_matrix(r: RMatrix) -> "LieBialgebra":
        return LieBialgebra(primal=r.algebra, dual=dual_algebra_from_r(r))

    def delta(self, k: int) -> AlgMultiVector:
        """delta(e_k) in Lambda^2 g, dual to the bracket on g*:
        delta(e_k)^{ij} = <e_k, [e_i*, e_j*]_*>."""
        n = self.primal.dim
        return AlgMultiVector(self.primal, 2, {(i, j): self.dual.structure_constant(i, j, k)
                                               for i in range(n) for j in range(i + 1, n)})


@dataclass
class BialgebraReport:
    jacobi_primal: bool
    jacobi_dual: bool
    cocycle: bool
    cocycle_residuals: list

    @property
    def ok(self):
        return self.jacobi_primal and self.jacobi_dual and self.cocycle

    def to_json(self):
        return {
            "passed": self.ok,
            "mode": "symbolic",
            "jacobi_primal": self.jacobi_primal,
            "jacobi_dual": self.jacobi_dual,
            "cocycle": self.cocycle,
            "cocycle_residuals": [
                {"pair": list(p), "residual": str(t)} for p, t in self.cocycle_residuals
            ],
        }


def validate_bialgebra(b: LieBialgebra) -> BialgebraReport:
    """Checks (i) Jacobi on g, (ii) Jacobi on g*, (iii) the 1-cocycle
    condition delta([X,Y]) = ad_X.delta(Y) - ad_Y.delta(X) on basis pairs."""
    L = b.primal
    jp = L.check_jacobi().ok
    jd = b.dual.check_jacobi().ok
    residuals = []
    n = L.dim
    e = [_element(L, X) for X in linalg.identity(n)]
    deltas = [b.delta(k) for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = AlgMultiVector(L, 2, {})
            for k, c in enumerate(L.basis_bracket(i, j)):
                if not c.is_zero():
                    lhs = lhs + deltas[k].scale(c)
            rhs = schouten(e[i], deltas[j]) - schouten(e[j], deltas[i])
            diff = lhs - rhs
            if not diff.is_zero():
                residuals.append(((i, j), diff))
    return BialgebraReport(
        jacobi_primal=jp, jacobi_dual=jd, cocycle=not residuals,
        cocycle_residuals=residuals,
    )


# -- abelian Poisson-Lie structures on T^m x R^n -----------------------------------------


def _torus_vector_vars(m: int, n: int):
    return tuple(
        [Var(f"th{i+1}", ANGULAR) for i in range(m)] + [Var(f"x{i+1}") for i in range(n)]
    )


@dataclass
class AbelianPLStructure:
    """A candidate multiplicative bivector on T^m x R^n.

    Either built from structure constants (the canonical linear form
    ``sum C^k_{ij} u_k d_i ^ d_j`` with the zero block C^k = 0 for k <= m) or
    supplied directly as a bivector with Laurent coefficients in the torus
    coordinates.
    """

    m: int
    n: int
    bivector: PolyBivector
    constants: dict | None = None   # {(i, j, k): coeff} when of linear type

    @staticmethod
    def from_constants(m: int, n: int, constants: dict) -> "AbelianPLStructure":
        """Build the linear bivector from constants.

        Coefficients on torus indices (k < m) would be bare angles, which are
        not periodic and have no Laurent representation; such terms stay in
        the constants table for the zero-block check but cannot enter the
        bivector.
        """
        if m < 0 or n < 0:
            raise ValueError("m and n must be >= 0")
        dim = m + n
        norm = {}
        for (i, j, k), c in constants.items():
            if not all(0 <= x < dim for x in (i, j, k)):
                raise ValueError(f"constant index ({i}, {j}, {k}) out of range for dimension {dim}")
            c = GaussianRational.coerce(c)
            if c.is_zero():
                continue
            if i == j:
                raise ValueError(f"constant ({i}, {j}, {k}) must vanish: [e_i, e_i] = 0")
            norm[(i, j, k)] = c
        variables = _torus_vector_vars(m, n)
        xs = [MultiPoly.variable(variables, v.name) for v in variables]
        entries = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                entries[(i, j)] = MultiPoly.sum_of_products(
                    variables, [(norm[i, j, k], (xs[k],)) for k in range(m, dim) if (i, j, k) in norm])
        return AbelianPLStructure(m, n, PolyBivector(variables, entries), norm)

    @staticmethod
    def torus2_line_example(a, b, c) -> "AbelianPLStructure":
        """The mixed Laurent-coefficient bivector on T^2 x R:

            x * ( a e^{i(th1+th2)} d_th1 ^ d_th2
                + b e^{i th1}       d_th1 ^ d_x
                + c e^{i th2}       d_th2 ^ d_x ).
        """
        variables = _torus_vector_vars(2, 1)
        x = MultiPoly.variable(variables, "x1")
        w1w2 = MultiPoly.monomial(variables, (1, 1, 0), 1)
        w1 = MultiPoly.monomial(variables, (1, 0, 0), 1)
        w2 = MultiPoly.monomial(variables, (0, 1, 0), 1)
        entries = {
            (0, 1): (x * w1w2).scale(a),
            (0, 2): (x * w1).scale(b),
            (1, 2): (x * w2).scale(c),
        }
        return AbelianPLStructure(2, 1, PolyBivector(variables, entries), None)

    @staticmethod
    def torus2_line_linear(a, b, c) -> "AbelianPLStructure":
        """The genuinely multiplicative linear structure on T^2 x R with the
        same coefficient triple: x * (a d_th1^d_th2 + b d_th1^d_x + c d_th2^d_x)."""
        return AbelianPLStructure.from_constants(
            2, 1, {(0, 1, 2): a, (0, 2, 2): b, (1, 2, 2): c}
        )


@dataclass
class AbelianPLReport:
    unit_vanishes: bool
    zero_block: bool
    zero_block_violations: list
    jacobi: bool
    jacobi_residual: str
    multiplicative: bool
    multiplicativity_violations: list
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return self.unit_vanishes and self.zero_block and self.jacobi and self.multiplicative

    def failing_identities(self) -> list:
        out = []
        if not self.unit_vanishes:
            out.append("unit-vanishing pi(e) = 0")
        if not self.zero_block:
            out.append("zero-block / linear coefficient condition")
        if not self.jacobi:
            out.append("Jacobi identity [pi, pi] = 0")
        if not self.multiplicative:
            out.append("additive multiplicativity pi(u v) = pi(u) + pi(v)")
        return out

    def to_json(self):
        return {
            "passed": self.ok,
            "mode": "symbolic",
            "unit_vanishes": self.unit_vanishes,
            "zero_block": self.zero_block,
            "zero_block_violations": self.zero_block_violations,
            "jacobi": self.jacobi,
            "jacobi_residual": self.jacobi_residual,
            "multiplicative": self.multiplicative,
            "multiplicativity_violations": [
                {"component": list(k), "residual": str(rs)}
                for k, rs in self.multiplicativity_violations
            ],
            "failing_identities": self.failing_identities(),
            "notes": self.notes,
        }


def abelian_pl_check(s: AbelianPLStructure) -> AbelianPLReport:
    """Verify the three defining identities of an abelian multiplicative
    structure; verdicts are reported per identity, never assumed."""
    pi = s.bivector
    notes = []

    # unit: all angular coordinates at w = 1, vector coordinates at 0
    unit = {}
    for v in pi.vars:
        unit[v.name] = Q(1) if v.kind == ANGULAR else Q(0)
    unit_ok = all(p.eval(unit).is_zero() for p in pi.comps.values())

    # zero block / linearity: components must be linear in the coordinates
    # with no constant term and no angular dependence (a function linear and
    # periodic in an angle is constant in it).  For linear structures this is
    # exactly C^k_{ij} = 0 for k <= m.
    violations = []
    if s.constants is not None:
        for (i, j, k), c in s.constants.items():
            if k < s.m and not c.is_zero():
                violations.append([i, j, k])
        zero_block = not violations
    else:
        zero_block = True
        for (i, j), p in pi.comps.items():
            if p.depends_on_angular():
                violations.append([i, j, -1])
                zero_block = False
                notes.append(
                    f"component ({i},{j}) carries angular (Laurent) factors, so it "
                    "cannot be linear-multiplicative on the universal cover"
                )
            if p.affine_degree() > 1 or not p.constant_term().is_zero():
                violations.append([i, j, -2])
                zero_block = False

    if s.constants is not None and not zero_block:
        # torus-index coefficients stand for bare angles, which the linear
        # bivector cannot represent; check the constants directly instead
        L = _algebra_from_constants(s.m + s.n, s.constants)
        jac_ok = L.check_jacobi().ok
        jac_residual = "0" if jac_ok else "nonzero structure-constant cyclic sums"
        mult_viol = [((i, j), MultiPoly.variable(pi.vars, pi.vars[k].name))
                     for (i, j, k) in ((v[0], v[1], v[2]) for v in violations)]
        notes.append(
            "nonzero torus-index coefficients give bare-angle terms that are "
            "not periodic, so no multiplicative bivector descends to the torus"
        )
        return AbelianPLReport(
            unit_vanishes=unit_ok,
            zero_block=False,
            zero_block_violations=violations,
            jacobi=jac_ok,
            jacobi_residual=jac_residual,
            multiplicative=False,
            multiplicativity_violations=mult_viol,
            notes=notes,
        )

    jac = jacobi_check(pi)

    # additive multiplicativity: pi(u*v) = pi(u) + pi(v) on the doubled chart
    # (u, v), v primed with the suffix "__b"; the group law acts per coordinate
    # kind: x -> x + x', and angles add, so units multiply, w -> w * w'.
    n = len(pi.vars)
    doubled = generators(*pi.vars, *(Var(v.name + "__b", v.kind) for v in pi.vars))
    primed = doubled[n:]
    law = [a * b if x.kind == ANGULAR else a + b for x, a, b in zip(pi.vars, doubled, primed)]
    mult_viol = []
    for (i, j), p in sorted(pi.comps.items()):
        res = p.substitute(law) - p - p.substitute(primed)
        if not res.is_zero():
            mult_viol.append(((i, j), res))

    return AbelianPLReport(
        unit_vanishes=unit_ok,
        zero_block=zero_block,
        zero_block_violations=violations,
        jacobi=jac.ok,
        jacobi_residual=str(jac.residual),
        multiplicative=not mult_viol,
        multiplicativity_violations=mult_viol,
        notes=notes,
    )


def _algebra_from_constants(dim: int, constants: dict) -> LieAlgebra:
    brackets: dict = {}
    for (i, j, k), c in constants.items():
        if i < j:
            vec = brackets.setdefault((i, j), [ZERO] * dim)
            vec[k] = vec[k] + GaussianRational.coerce(c)
        elif j < i:
            vec = brackets.setdefault((j, i), [ZERO] * dim)
            vec[k] = vec[k] - GaussianRational.coerce(c)
    return LieAlgebra(dim, brackets)


# -- the log-coordinate identity on multiplicative groups ------------------------------


@dataclass
class LogIdentityReport:
    passed: bool
    residuals: list     # (rho, delta, gamma) -> nonzero polynomial in the logs l_k

    def to_json(self):
        return {
            "passed": self.passed,
            "mode": "symbolic",
            "residuals": [{"triple": list(t), "residual": str(r)} for t, r in self.residuals],
        }


def check_log_coordinate_identity(L: LieAlgebra) -> LogIdentityReport:
    """The log-coordinate Jacobi expression of the multiplicative bivector
    ``pi^{mu nu}(z) = sum_d C^d_{mu nu} z_mu z_nu ln z_d``, as a polynomial in
    formal logs ``l_k = ln z_k``, tested for zero.

    The expression at each (rho, delta, gamma) is the Jacobiator of that
    bivector divided by ``z_rho z_delta z_gamma``: over the cyclic shifts
    (r, d, g) it sums ``C^k_{rd} (C^m_{rg} + C^m_{dg}) l_k l_m``, quadratic in
    the logs, and ``C^j_{rd} C^m_{jg} l_m``, whose coefficients are the
    structure-constant Jacobi sums.  It is one sum of products per triple,
    and it is zero for every triple iff the constants satisfy the Jacobi
    identity.
    """
    n = L.dim
    logs = generators(*(f"l{k + 1}" for k in range(n)))
    C = [[[L.structure_constant(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]
    residuals = []
    for triple in itertools.permutations(range(n), 3):
        rho, delta, gamma = triple
        products = []
        for r, d, g in ((rho, delta, gamma), (delta, gamma, rho), (gamma, rho, delta)):
            for k in range(n):
                if C[r][d][k]:
                    products += [(C[r][d][k] * (C[r][g][m] + C[d][g][m]), (logs[k], logs[m]))
                                 for m in range(n)]
                    products += [(C[r][d][k] * C[k][g][m], (logs[m],)) for m in range(n)]
        res = MultiPoly.sum_of_products(logs[0].vars, products)
        if not res.is_zero():
            residuals.append((triple, res))
    return LogIdentityReport(passed=not residuals, residuals=residuals)
