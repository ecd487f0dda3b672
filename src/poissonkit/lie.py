"""Lie algebras by structure constants, modules, and Lie algebra cohomology.

Conventions fixed here and relied on throughout the package:

* ``bracket`` returns ``[X, Y]^k = sum_{i,j} C^k_{ij} X^i Y^j``;
* the coadjoint module satisfies ``<ad*_X mu, Y> = -<mu, [X, Y]>`` (this is
  the sign that makes it an honest module);
* bases of ``Lambda^p g*`` are ordered lexicographically by index tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import linalg
from .scalars import GaussianRational, Q, ZERO, coeff_from_json

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
        if len(self.basis) != self.dim:
            raise ValueError("basis names do not match dimension")
        table = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in brackets.items():
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

    # -- inspection ------------------------------------------------------

    def structure_constant(self, i: int, j: int, k: int) -> GaussianRational:
        """C^k_{ij}, the e_k coefficient of [e_i, e_j]."""
        return self._table[i][j][k]

    def basis_bracket(self, i: int, j: int) -> list:
        return list(self._table[i][j])

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

    def is_abelian(self) -> bool:
        return all(
            self._table[i][j][k].is_zero()
            for i in range(self.dim)
            for j in range(self.dim)
            for k in range(self.dim)
        )

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
        dim = int(d["dim"])
        brackets = {}
        for b in d.get("brackets", []):
            vec = [coeff_from_json(x) for x in b["result"]]
            brackets[(int(b["i"]), int(b["j"]))] = vec
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

    def act(self, i: int, v) -> list:
        return linalg.mat_vec(self.mats[i], v)

    def check_axiom(self) -> "ModuleReport":
        """rho([X,Y]) = rho(X)rho(Y) - rho(Y)rho(X) on all basis pairs."""
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
        return ModuleReport(ok=not bad, failing_pairs=bad)


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
    """Standard Lie algebra cohomology differential in the induced basis."""
    n = L.dim
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} out of range 0..{n}")
    axiom = M.check_axiom()
    if not axiom.ok:
        raise ValueError(f"invalid module: axiom fails on pairs {axiom.failing_pairs}")
    dimV = M.dim
    dom = list(itertools.combinations(range(n), p))
    cod = list(itertools.combinations(range(n), p + 1))
    rows = len(cod) * dimV
    cols = len(dom) * dimV
    matrix = linalg.zeros(rows, cols)
    basis = linalg.identity(dimV)

    def c_eval(I: tuple, K: tuple):
        """Sign of e_I^* on the wedge e_K, or None unless K reorders I."""
        hit = linalg.sort_with_sign(K)
        return hit[1] if hit is not None and hit[0] == I else None

    for ci, I in enumerate(dom):
        for v in range(dimV):
            # evaluate d(c) for c = e_I^* (x) basis-vector v on each (p+1)-tuple J
            vec = basis[v]
            for ri, J in enumerate(cod):
                acc = [ZERO] * dimV
                # module action part
                for a in range(p + 1):
                    rest = J[:a] + J[a + 1:]
                    sign = c_eval(I, rest)
                    if sign is None:
                        continue
                    acted = M.act(J[a], vec)
                    s = Q((-1) ** a * sign)
                    acc = [x + s * y for x, y in zip(acc, acted)]
                # bracket insertion part
                for a in range(p + 1):
                    for b in range(a + 1, p + 1):
                        br = L.basis_bracket(J[a], J[b])
                        rest = tuple(
                            J[t] for t in range(p + 1) if t != a and t != b
                        )
                        for k in range(n):
                            if br[k].is_zero():
                                continue
                            sign = c_eval(I, (k,) + rest)
                            if sign is None:
                                continue
                            s = Q((-1) ** (a + b) * sign) * br[k]
                            acc = [x + s * y for x, y in zip(acc, vec)]
                for w in range(dimV):
                    if not acc[w].is_zero():
                        matrix[ri * dimV + w][ci * dimV + v] = acc[w]

    return CochainComplexSlice(degree=p, matrix=matrix, domain_basis=dom, codomain_basis=cod)


def cohomology_dim(L: LieAlgebra, M: LieModule, p: int) -> int:
    """dim H^p(L, M) = dim ker(d_p) - rank(d_{p-1}), all ranks exact."""
    n = L.dim
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} out of range 0..{n}")
    import math

    dimCp = math.comb(n, p) * M.dim
    rank_dp = linalg.rank(ce_differential(L, M, p).matrix) if p < n else 0
    rank_prev = linalg.rank(ce_differential(L, M, p - 1).matrix) if p > 0 else 0
    return dimCp - rank_dp - rank_prev
