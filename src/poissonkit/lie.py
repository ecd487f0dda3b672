"""Lie algebras by structure constants, modules, and Lie algebra cohomology.

Conventions fixed here and relied on throughout the package:

* ``bracket`` returns ``[X, Y]^k = sum_{i,j} C^k_{ij} X^i Y^j``;
* the coadjoint module satisfies ``<ad*_X mu, Y> = -<mu, [X, Y]>`` (this is
  the sign that makes it an honest module);
* bases of ``Lambda^p g*`` are ordered lexicographically by index tuple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import linalg
from .scalars import GaussianRational, Q, ZERO, coeff_from_json, json_int

TRIVIAL = "trivial"
ADJOINT = "adjoint"
COADJOINT = "coadjoint"


class LieAlgebra:
    """A finite-dimensional Lie algebra given by structure constants.

    Skew-symmetry ``C^k_{ij} = -C^k_{ji}`` is enforced at construction; the
    Jacobi identity is checkable through :meth:`check_jacobi`, never assumed.
    """

    def __init__(self, dim: int, brackets: dict, basis=None):
        """``brackets`` maps an index pair ``(i, j)`` with ``i < j`` to the
        coefficient vector of ``[e_i, e_j]``; omitted pairs are zero."""
        self.dim = int(dim)
        self.basis = tuple(basis) if basis else tuple(f"e{i+1}" for i in range(dim))
        if len(self.basis) != self.dim or not all(isinstance(s, str) for s in self.basis):
            raise ValueError("basis names must be one string per dimension")
        table = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index ({i}, {j}) out of range for dimension {dim}")
            if i == j:
                if any(GaussianRational.coerce(x) for x in vec):
                    raise ValueError("[e_i, e_i] must vanish")
                continue
            v = [GaussianRational.coerce(x) for x in vec]
            if len(v) != dim:
                raise ValueError("bracket result has wrong length")
            for k in range(dim):
                table[i][j][k] = v[k]
                table[j][i][k] = -v[k]
        self._table = table
        self._nonzero = None

    # -- inspection ------------------------------------------------------

    def structure_constant(self, i: int, j: int, k: int) -> GaussianRational:
        """C^k_{ij}, the e_k coefficient of [e_i, e_j]."""
        return self._table[i][j][k]

    def basis_bracket(self, i: int, j: int) -> list:
        return list(self._table[i][j])

    def _nonzero_brackets(self) -> list:
        """For each pair (i, j), the nonzero structure constants of [e_i, e_j]
        as ``(k, C^k_ij)`` pairs; built on the first call, like
        :meth:`LieModule._nonzero_entries`."""
        if self._nonzero is None:
            self._nonzero = [[[(k, c) for k, c in enumerate(vec) if c] for vec in row]
                             for row in self._table]
        return self._nonzero

    def bracket(self, X, Y) -> list:
        """[X, Y] for coefficient vectors X, Y."""
        if len(X) != self.dim or len(Y) != self.dim:
            raise ValueError("coefficient vectors must have the algebra dimension")
        Xc = [GaussianRational.coerce(x) for x in X]
        Yc = [GaussianRational.coerce(y) for y in Y]
        out = [ZERO] * self.dim
        for i in range(self.dim):
            if Xc[i].is_zero():
                continue
            for j in range(self.dim):
                if Yc[j].is_zero():
                    continue
                coeff = Xc[i] * Yc[j]
                row = self._table[i][j]
                for k in range(self.dim):
                    if not row[k].is_zero():
                        out[k] = out[k] + coeff * row[k]
        return out

    def ad_matrix(self, i: int) -> list:
        """Matrix of ad_{e_i} acting on coefficient vectors (column j = [e_i, e_j])."""
        n = self.dim
        return [[self._table[i][j][k] for j in range(n)] for k in range(n)]

    def __eq__(self, other):
        """The same structure constants; basis names are only labels."""
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self is other or self._table == other._table

    # -- Jacobi ------------------------------------------------------------

    def jacobiator(self, i: int, j: int, k: int) -> list:
        """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
        e = linalg.identity(self.dim)
        s1 = self.bracket(self.basis_bracket(i, j), e[k])
        s2 = self.bracket(self.basis_bracket(j, k), e[i])
        s3 = self.bracket(self.basis_bracket(k, i), e[j])
        return [a + b + c for a, b, c in zip(s1, s2, s3)]

    def check_jacobi(self) -> "JacobiReport":
        violations = []
        for i, j, k in itertools.combinations(range(self.dim), 3):
            res = self.jacobiator(i, j, k)
            if any(res):
                violations.append(((i, j, k), res))
        return JacobiReport(ok=not violations, violations=violations)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        brackets = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                vec = self._table[i][j]
                if any(vec):
                    brackets.append(
                        {"i": i, "j": j, "result": [c.to_json() for c in vec]}
                    )
        return {"dim": self.dim, "basis": list(self.basis), "brackets": brackets}

    @staticmethod
    def from_json(d: dict) -> "LieAlgebra":
        dim = json_int(d["dim"])
        brackets = {}
        for b in d.get("brackets", []):
            i, j = json_int(b["i"]), json_int(b["j"])
            if (i, j) in brackets or (j, i) in brackets:
                raise ValueError(f"bracket ({i}, {j}) is listed twice")
            brackets[(i, j)] = [coeff_from_json(x) for x in b["result"]]
        return LieAlgebra(dim, brackets, basis=d.get("basis"))


@dataclass
class JacobiReport:
    ok: bool
    violations: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "passed": self.ok,
            "mode": "symbolic",
            "violations": [
                {"indices": list(idx), "residual": [str(c) for c in res]}
                for idx, res in self.violations
            ],
        }


# -- stock algebras -------------------------------------------------------------


def sl2() -> LieAlgebra:
    """[e1,e2]=e3, [e2,e3]=e1, [e3,e1]=-e2 (split real form, half-Pauli basis)."""
    return LieAlgebra(
        3,
        {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, 1, 0]},
    )


def so3() -> LieAlgebra:
    """[e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2."""
    return LieAlgebra(
        3,
        {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]},
    )


def heisenberg3() -> LieAlgebra:
    """[e1,e2]=e3, all other brackets zero."""
    return LieAlgebra(3, {(0, 1): [0, 0, 1]})


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {})


def sl2_defining_matrices() -> list:
    """2x2 matrices e1 = diag(1,-1)/2, e2 = [[0,1],[-1,0]]/2, e3 = [[0,1],[1,0]]/2."""
    h = Q("1/2")
    return [
        [[h, ZERO], [ZERO, -h]],
        [[ZERO, h], [-h, ZERO]],
        [[ZERO, h], [h, ZERO]],
    ]


# -- modules ----------------------------------------------------------------------


class LieModule:
    """A representation given by one matrix per basis element."""

    def __init__(self, algebra: LieAlgebra, matrices, kind: str = "custom"):
        self.algebra = algebra
        self.mats = [linalg.mat(m) for m in matrices]
        if len(self.mats) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        self.dim = len(self.mats[0]) if self.mats else 0
        for m in self.mats:
            if len(m) != self.dim or any(len(r) != self.dim for r in m):
                raise ValueError("action matrices must be square of equal size")
        self.kind = kind
        self._report = None
        self._nonzero = None

    def act(self, i: int, v) -> list:
        return linalg.mat_vec(self.mats[i], v)

    def _nonzero_entries(self) -> list:
        """For each row of each rho(e_i), its nonzero entries as ``(column,
        value)`` pairs; built on the first call, like :meth:`check_axiom`."""
        if self._nonzero is None:
            self._nonzero = [[[(v, x) for v, x in enumerate(r) if x] for r in m]
                             for m in self.mats]
        return self._nonzero

    def check_axiom(self) -> "ModuleReport":
        """rho([X,Y]) = rho(X)rho(Y) - rho(Y)rho(X) on all basis pairs.

        Evaluated on the first call only: the matrices are not mutated after
        construction, so later calls return the same report.
        """
        if self._report is not None:
            return self._report
        bad = []
        L = self.algebra
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                comm = linalg.mat_sub(
                    linalg.mat_mul(self.mats[i], self.mats[j]),
                    linalg.mat_mul(self.mats[j], self.mats[i]),
                )
                expect = linalg.zeros(self.dim, self.dim)
                for k in range(L.dim):
                    c = L.structure_constant(i, j, k)
                    if not c.is_zero():
                        expect = linalg.mat_add(
                            expect, [[c * x for x in row] for row in self.mats[k]]
                        )
                if not linalg.mat_eq(comm, expect):
                    bad.append((i, j))
        self._report = ModuleReport(ok=not bad, failing_pairs=bad)
        return self._report


@dataclass
class ModuleReport:
    ok: bool
    failing_pairs: list = field(default_factory=list)


def representation(L: LieAlgebra, kind: str, dim: int = 1) -> LieModule:
    """Named module constructions: trivial, adjoint, coadjoint.

    Coadjoint convention: <ad*_X mu, Y> = -<mu, [X, Y]>, i.e. the matrix of
    ad*_{e_i} is minus the transpose of ad_{e_i}.
    """
    n = L.dim
    if kind == TRIVIAL:
        return LieModule(L, [linalg.zeros(dim, dim) for _ in range(n)], kind=TRIVIAL)
    if kind == ADJOINT:
        return LieModule(L, [L.ad_matrix(i) for i in range(n)], kind=ADJOINT)
    if kind == COADJOINT:
        mats = []
        for i in range(n):
            ad = L.ad_matrix(i)
            mats.append([[-ad[k][j] for k in range(n)] for j in range(n)])
        return LieModule(L, mats, kind=COADJOINT)
    raise ValueError(f"unknown representation kind {kind!r}")


# -- Chevalley-Eilenberg complex ------------------------------------------------


@dataclass
class CochainComplexSlice:
    """The differential C^p -> C^{p+1} for cochains with values in a module.

    ``matrix`` rows are indexed by (J, w) with J a (p+1)-combination and w a
    module basis index; columns by (I, v) likewise.  Index tuples are listed
    lexicographically.
    """

    degree: int
    matrix: list
    domain_basis: list
    codomain_basis: list


def ce_differential(L: LieAlgebra, M: LieModule, p: int) -> CochainComplexSlice:
    """Standard Lie algebra cohomology differential in the induced basis.

    Each (p+1)-set J is walked once, and each term of
    ``(dc)(e_J) = sum_a (-1)^a rho(e_{J_a}) c(e_{J-a})
    + sum_{a<b} (-1)^{a+b} c([e_{J_a}, e_{J_b}] ^ e_{J-a-b})``
    is written into the column block of the p-set that ``c`` is evaluated on.
    """
    n = L.dim
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} out of range 0..{n}")
    axiom = M.check_axiom()
    if not axiom.ok:
        raise ValueError(f"invalid module: axiom fails on pairs {axiom.failing_pairs}")
    dimV = M.dim
    dom = list(itertools.combinations(range(n), p))
    cod = list(itertools.combinations(range(n), p + 1))
    col = {I: ci * dimV for ci, I in enumerate(dom)}
    matrix = linalg.zeros(len(cod) * dimV, len(dom) * dimV)
    action = M._nonzero_entries()
    brackets = L._nonzero_brackets()

    for ri, J in enumerate(cod):
        rows = matrix[ri * dimV:(ri + 1) * dimV]
        # module action part: (-1)^a rho(e_{J_a}) fills the block of J minus J_a
        for a in range(p + 1):
            c0 = col[J[:a] + J[a + 1:]]
            for row, entries in zip(rows, action[J[a]]):
                for v, x in entries:
                    if a % 2:
                        row[c0 + v] -= x
                    else:
                        row[c0 + v] += x
        # bracket insertion part: a multiple of the identity on the module
        for a, b in itertools.combinations(range(p + 1), 2):
            rest = J[:a] + J[a + 1:b] + J[b + 1:]
            for k, c in brackets[J[a]][J[b]]:
                if k in rest:
                    continue
                I, sign = linalg.sort_with_sign((k,) + rest)
                c0, s = col[I], Q((-1) ** (a + b) * sign) * c
                for w, row in enumerate(rows):
                    row[c0 + w] += s

    return CochainComplexSlice(degree=p, matrix=matrix, domain_basis=dom, codomain_basis=cod)


def cohomology_dim(L: LieAlgebra, M: LieModule, p: int) -> int:
    """dim H^p(L, M) = dim ker(d_p) - rank(d_{p-1}), all ranks exact."""
    n = L.dim
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} out of range 0..{n}")
    dimCp = math.comb(n, p) * M.dim
    rank_dp = linalg.rank(ce_differential(L, M, p).matrix) if p < n else 0
    rank_prev = linalg.rank(ce_differential(L, M, p - 1).matrix) if p > 0 else 0
    return dimCp - rank_dp - rank_prev
