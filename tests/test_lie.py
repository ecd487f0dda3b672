import cProfile
import fractions
import itertools
import math
import pstats

import pytest

from poissonkit import lie, linalg
from poissonkit.lie import (
    CochainComplexSlice,
    LieAlgebra,
    abelian,
    ce_differential,
    cohomology_dim,
    heisenberg3,
    representation,
    sl2,
    so3,
)
from poissonkit.scalars import Q, ZERO, ONE

from conftest import book3, filiform4, gl2, sl2_sl2
from evaluation_oracles import is_abelian


def test_jacobi_examples():
    assert sl2().check_jacobi().ok
    assert abelian(4).check_jacobi().ok
    # corrupted: [e1,e2]=e3, [e2,e3]=e2, [e3,e1]=0 fails with an e3 residual on (1,2,3)
    bad = LieAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [0, 1, 0]})
    rep = bad.check_jacobi()
    assert not rep.ok
    (idx, res), = rep.violations
    assert idx == (0, 1, 2)
    assert res[2] == Q(-1) and res[0].is_zero() and res[1].is_zero()


def test_bracket_examples(sl2):
    e = lambda i: [ONE if t == i else ZERO for t in range(3)]
    assert sl2.bracket(e(0), e(1)) == [Q(0), Q(0), Q(1)]
    X = [Q(1), Q(2), Q(-1)]
    assert all(v.is_zero() for v in sl2.bracket(X, X))
    # bilinearity: [e1+e2, e3] = [e1,e3] + [e2,e3] = e2 + e1
    assert sl2.bracket([1, 1, 0], e(2)) == [Q(1), Q(1), Q(0)]


def test_bracket_properties(sl2, rng):
    from conftest import rand_point

    for _ in range(20):
        X = rand_point(rng, 3)
        Y = rand_point(rng, 3)
        Z = rand_point(rng, 3)
        XY = sl2.bracket(X, Y)
        YX = sl2.bracket(Y, X)
        assert all((a + b).is_zero() for a, b in zip(XY, YX))
        jac = [
            a + b + c
            for a, b, c in zip(
                sl2.bracket(sl2.bracket(X, Y), Z),
                sl2.bracket(sl2.bracket(Y, Z), X),
                sl2.bracket(sl2.bracket(Z, X), Y),
            )
        ]
        assert all(v.is_zero() for v in jac)


def test_representations(sl2):
    triv = representation(sl2, "trivial")
    assert all(linalg.is_zero_mat(m) for m in triv.mats)
    adj = representation(sl2, "adjoint")
    assert adj.check_axiom().ok
    # ad_{e1} e2 = e3
    assert adj.act(0, [0, 1, 0]) == [Q(0), Q(0), Q(1)]
    coad = representation(sl2, "coadjoint")
    assert coad.check_axiom().ok
    # <ad*_{e1} e3*, e2> = -<e3*, [e1, e2]> = -1
    assert coad.act(0, [0, 0, 1])[1] == Q(-1)


def test_invalid_module_rejected(sl2):
    bad = lie.LieModule(sl2, [linalg.identity(2) for _ in range(3)])
    assert not bad.check_axiom().ok
    for _ in range(2):      # the cached verdict rejects later calls too
        for p in range(sl2.dim + 1):
            with pytest.raises(ValueError, match="invalid module"):
                ce_differential(sl2, bad, p)
    assert bad.check_axiom().failing_pairs == [(0, 1), (0, 2), (1, 2)]


def test_ce_differential_examples(sl2):
    ab = abelian(2)
    triv2 = representation(ab, "trivial")
    for p in range(0, 3):
        assert linalg.is_zero_mat(ce_differential(ab, triv2, p).matrix) or \
            not ce_differential(ab, triv2, p).matrix
    triv = representation(sl2, "trivial")
    d0 = ce_differential(sl2, triv, 0)
    assert linalg.is_zero_mat(d0.matrix)
    # on 1-cochains: (d xi)(X, Y) = -xi([X, Y]); for xi = e3*, (e1,e2) -> -1
    d1 = ce_differential(sl2, triv, 1)
    # domain basis: singletons (0,), (1,), (2,); codomain: pairs (0,1),(0,2),(1,2)
    row = d1.codomain_basis.index((0, 1))
    col = d1.domain_basis.index((2,))
    assert d1.matrix[row][col] == Q(-1)


@pytest.mark.parametrize("algebra_fn", [sl2, so3, heisenberg3, filiform4,
                                        lambda: abelian(3), lambda: abelian(4)])
def test_d_squared_zero(algebra_fn):
    L = algebra_fn()
    assert L.check_jacobi().ok
    for kind in ("trivial", "adjoint", "coadjoint"):
        M = representation(L, kind)
        for p in range(0, L.dim - 1):
            d_p = ce_differential(L, M, p)
            d_p1 = ce_differential(L, M, p + 1)
            comp = linalg.mat_mul(d_p1.matrix, d_p.matrix)
            assert linalg.is_zero_mat(comp), (kind, p)


def test_cohomology_dims():
    L = sl2()
    triv = representation(L, "trivial")
    assert cohomology_dim(L, triv, 1) == 0
    assert cohomology_dim(L, triv, 2) == 0
    adj = representation(L, "adjoint")
    assert cohomology_dim(L, adj, 1) == 0
    assert cohomology_dim(L, adj, 2) == 0
    ab2 = abelian(2)
    t = representation(ab2, "trivial")
    assert cohomology_dim(ab2, t, 2) == 1
    # heisenberg has nonvanishing H^2 with trivial coefficients
    H = heisenberg3()
    th = representation(H, "trivial")
    assert cohomology_dim(H, th, 2) == 2


def test_exact_rank_makes_no_fraction_call():
    # a call count, not a timing: the scalar kernel is integer arithmetic, so
    # fractions.py belongs to printing and JSON only
    L = sl2()
    adj = representation(L, "adjoint")
    profile = cProfile.Profile()
    profile.enable()
    dims = [cohomology_dim(L, adj, p) for p in range(4)]
    r = linalg.rank(ce_differential(L, adj, 1).matrix)
    profile.disable()
    calls = {func: stat[1] for func, stat in pstats.Stats(profile).stats.items()
             if func[0] == fractions.__file__}
    assert calls == {}
    assert dims == [0, 0, 0, 0] and r == 6


def test_cohomology_dims_more():
    # semisimple vanishing also for the compact form and coadjoint coefficients
    K = so3()
    for kind in ("trivial", "adjoint", "coadjoint"):
        M = representation(K, kind)
        if kind != "trivial":
            assert cohomology_dim(K, M, 1) == 0
            assert cohomology_dim(K, M, 2) == 0
    L = sl2()
    coad = representation(L, "coadjoint")
    assert cohomology_dim(L, coad, 1) == 0 and cohomology_dim(L, coad, 2) == 0
    # top and bottom degrees with trivial coefficients on a unimodular algebra
    triv = representation(L, "trivial")
    assert cohomology_dim(L, triv, 0) == 1
    assert cohomology_dim(L, triv, 3) == 1


def _dense_ce_differential(L, M, p):
    """Reference builder: evaluate d(e_I^* (x) v) on every (p+1)-set J by
    asking, for each term, whether its index tuple reorders I."""
    n, dimV = L.dim, M.dim
    dom = list(itertools.combinations(range(n), p))
    cod = list(itertools.combinations(range(n), p + 1))
    matrix = linalg.zeros(len(cod) * dimV, len(dom) * dimV)
    basis = linalg.identity(dimV)

    def c_eval(I, K):
        """Sign of e_I^* on the wedge e_K, or None unless K reorders I."""
        hit = linalg.sort_with_sign(K)
        return hit[1] if hit is not None and hit[0] == I else None

    for ci, I in enumerate(dom):
        for v in range(dimV):
            vec = basis[v]
            for ri, J in enumerate(cod):
                acc = [ZERO] * dimV
                for a in range(p + 1):
                    sign = c_eval(I, J[:a] + J[a + 1:])
                    if sign is None:
                        continue
                    s = Q((-1) ** a * sign)
                    acc = [x + s * y for x, y in zip(acc, M.act(J[a], vec))]
                for a in range(p + 1):
                    for b in range(a + 1, p + 1):
                        br = L.basis_bracket(J[a], J[b])
                        rest = tuple(J[t] for t in range(p + 1) if t != a and t != b)
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


@pytest.mark.parametrize("algebra_fn,max_degree", [
    (sl2, None), (so3, None), (heisenberg3, None), (filiform4, None),
    (lambda: abelian(3), None), (gl2, None), (sl2_sl2, 2), (book3, None),
])
def test_ce_differential_matches_dense_builder(algebra_fn, max_degree):
    L = algebra_fn()
    top = L.dim if max_degree is None else max_degree
    for kind in ("trivial", "adjoint", "coadjoint"):
        M = representation(L, kind)
        for p in range(top + 1):
            fast, dense = ce_differential(L, M, p), _dense_ce_differential(L, M, p)
            assert fast.matrix == dense.matrix, (kind, p)
            assert fast.domain_basis == dense.domain_basis
            assert fast.codomain_basis == dense.codomain_basis


def test_module_axiom_evaluated_once_per_module(monkeypatch):
    calls = []
    real = linalg.mat_eq
    monkeypatch.setattr(linalg, "mat_eq", lambda a, b: calls.append(1) or real(a, b))
    L = sl2()
    M = representation(L, "adjoint")
    for p in range(L.dim + 1):
        ce_differential(L, M, p)
        cohomology_dim(L, M, p)
    assert M.check_axiom().ok
    assert len(calls) == math.comb(L.dim, 2)    # one comparison per basis pair, once


def _sympy_rank(sympy, matrix):
    if not matrix:
        return 0
    return sympy.Matrix([[sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im) for x in row]
                         for row in matrix]).rank()


@pytest.mark.parametrize("algebra_fn", [sl2, heisenberg3, filiform4])
def test_cohomology_dims_match_sympy_ranks(algebra_fn):
    sympy = pytest.importorskip("sympy")
    L = algebra_fn()
    n = L.dim
    for kind in ("trivial", "adjoint", "coadjoint"):
        M = representation(L, kind)
        ranks = [_sympy_rank(sympy, ce_differential(L, M, p).matrix) for p in range(n + 1)]
        for p in range(n + 1):
            expect = math.comb(n, p) * M.dim - ranks[p] - (ranks[p - 1] if p else 0)
            assert cohomology_dim(L, M, p) == expect, (kind, p)


@pytest.mark.parametrize("algebra_fn,kind", [
    (sl2, "trivial"), (sl2, "adjoint"), (heisenberg3, "trivial"),
    (lambda: abelian(3), "trivial"),
])
def test_euler_characteristic_consistency(algebra_fn, kind):
    """Alternating sums of cohomology dims equal alternating sums of cochain
    dims (a telescoping identity; consistency test of the rank computations)."""
    L = algebra_fn()
    M = representation(L, kind)
    n = L.dim
    lhs = sum((-1) ** p * cohomology_dim(L, M, p) for p in range(n + 1))
    rhs = sum((-1) ** p * math.comb(n, p) * M.dim for p in range(n + 1))
    assert lhs == rhs


def test_json_roundtrip(sl2):
    d = sl2.to_json()
    L2 = LieAlgebra.from_json(d)
    assert L2.dim == 3 and L2.basis == sl2.basis
    for i in range(3):
        for j in range(3):
            assert L2.basis_bracket(i, j) == sl2.basis_bracket(i, j)
    # unlisted pairs default to zero
    L3 = LieAlgebra.from_json({"dim": 2, "brackets": []})
    assert is_abelian(L3) and not is_abelian(sl2)
