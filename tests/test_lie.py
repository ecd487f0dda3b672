import cProfile
import fractions
import itertools
import math
import pstats
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from poissonkit import lie, linalg, scalars
from poissonkit.lie import (
    LieAlgebra,
    abelian,
    ce_differential,
    cohomology_dim,
    heisenberg3,
    representation,
    sl2,
    so3,
)
from poissonkit.scalars import GaussianRational, Q, ZERO, ONE

from conftest import book3, conjugated, filiform4, gl2, scaled_basis, sl2_sl2
from evaluation_oracles import is_abelian, jacobiator, module_axiom_failures

KINDS = ("trivial", "adjoint", "coadjoint")
I = GaussianRational(0, 1)
RATIONAL_FACTORS = [Q("1/2"), Q(3), Q("-2/3")]


def sl2_rational_basis():
    """sl2 in the basis e1/2, 3 e2, -2/3 e3: rational structure constants."""
    return scaled_basis(sl2(), RATIONAL_FACTORS)


def sl2_gaussian_basis():
    """sl2 in the basis i e1, e2/2, (1+i) e3: Gaussian structure constants."""
    return scaled_basis(sl2(), [I, Q("1/2"), Q(1, 1)])


def sl2_gaussian_adjoint():
    """The adjoint module of sl2 conjugated by [[1, i, 0], [0, 1, 0], [0, 0, 1]]."""
    g = [[ONE, I, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    g_inv = [[ONE, -I, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    return [conjugated(representation(sl2(), "adjoint"), g, g_inv)]


def sl2_defining():
    """The defining module of sl2 (entries over 2, integer structure
    constants) and of ``sl2_rational_basis`` (entries over 12, structure
    constants over 36), so each table is put over the other's denominator."""
    mats = lie.sl2_defining_matrices()
    return [lie.LieModule(sl2(), mats, kind="defining"),
            lie.LieModule(sl2_rational_basis(), [[[s * x for x in row] for row in m]
                                                 for s, m in zip(RATIONAL_FACTORS, mats)],
                          kind="defining")]


def _modules(made):
    """The modules a test case makes, or the three named modules of its algebra."""
    return made if isinstance(made, list) else [representation(made, kind) for kind in KINDS]


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


def _rand_entry(rng, gaussian):
    part = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))  # noqa: E731
    return GaussianRational(part(), part() if gaussian else 0)


@pytest.mark.parametrize("gaussian", [False, True])
def test_jacobi_violations_match_the_scalar_jacobiator(gaussian, rng=random.Random(29)):
    for n in (3, 4, 5):
        L = LieAlgebra(n, {(i, j): [_rand_entry(rng, gaussian) for _ in range(n)]
                           for i, j in itertools.combinations(range(n), 2)})
        expect = [(ijk, res) for ijk in itertools.combinations(range(n), 3)
                  if any(res := jacobiator(L, *ijk))]
        assert expect and L.check_jacobi().violations == expect
    for L in (sl2_rational_basis(), sl2_gaussian_basis()):
        assert L.check_jacobi().ok


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
    assert linalg.mat_vec(adj.mats[0], [0, 1, 0]) == [Q(0), Q(0), Q(1)]
    coad = representation(sl2, "coadjoint")
    assert coad.check_axiom().ok
    # <ad*_{e1} e3*, e2> = -<e3*, [e1, e2]> = -1
    assert linalg.mat_vec(coad.mats[0], [0, 0, 1])[1] == Q(-1)


STOCK_ALGEBRAS = [sl2, so3, heisenberg3, gl2, sl2_sl2, sl2_gaussian_basis]


@pytest.mark.parametrize("algebra_fn", STOCK_ALGEBRAS)
def test_module_axiom_matches_the_scalar_oracle(algebra_fn):
    """The integer route's report equals the scalar oracle's on every stock
    module, and on modules with one entry moved by a rational, a pure
    imaginary or a Gaussian amount."""
    L, failed, rng = algebra_fn(), 0, random.Random(algebra_fn.__name__)
    for kind in KINDS:
        M = representation(L, kind)
        assert M.check_axiom().ok and module_axiom_failures(M) == []
        for amount in (Q("1/3"), GaussianRational(0, Fraction(2, 5)),
                       GaussianRational(Fraction(-1, 2), Fraction(2, 5))):
            for _ in range(3):
                mats = [[list(row) for row in m] for m in M.mats]
                k, r, c = rng.randrange(L.dim), rng.randrange(M.dim), rng.randrange(M.dim)
                mats[k][r][c] = mats[k][r][c] + amount
                bad = lie.LieModule(L, mats, kind="corrupted")
                expect, rep = module_axiom_failures(bad), bad.check_axiom()
                assert rep.ok == (not expect) and rep.failing_pairs == expect, (kind, k, r, c)
                failed += bool(expect)
    assert failed >= 9


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
                    acc = [x + s * y for x, y in zip(acc, linalg.mat_vec(M.mats[J[a]], vec))]
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
    return SimpleNamespace(degree=p, matrix=matrix, domain_basis=dom, codomain_basis=cod)


@pytest.mark.parametrize("algebra_fn,max_degree", [
    (sl2, None), (so3, None), (heisenberg3, None), (filiform4, None),
    (lambda: abelian(3), None), (gl2, None), (sl2_sl2, 2), (book3, None),
    (sl2_rational_basis, None), (sl2_gaussian_basis, None), (sl2_gaussian_adjoint, None),
    (sl2_defining, None),
])
def test_ce_differential_matches_dense_builder(algebra_fn, max_degree):
    for M in _modules(algebra_fn()):
        L = M.algebra
        top = L.dim if max_degree is None else max_degree
        for p in range(top + 1):
            fast, dense = ce_differential(L, M, p), _dense_ce_differential(L, M, p)
            assert fast.matrix == dense.matrix, (M.kind, p)
            assert fast.domain_basis == dense.domain_basis
            assert fast.codomain_basis == dense.codomain_basis


def test_module_axiom_evaluated_once_per_module(monkeypatch):
    calls = []
    real = linalg._int_mul
    monkeypatch.setattr(linalg, "_int_mul", lambda *a: calls.append(1) or real(*a))
    L = sl2()
    M = representation(L, "adjoint")
    for p in range(L.dim + 1):
        ce_differential(L, M, p)
        cohomology_dim(L, M, p)
    assert M.check_axiom().ok
    assert len(calls) == 1      # one integer product d_1 d_0 for all basis pairs, once


def _sympy_rank(sympy, matrix):
    if not matrix:
        return 0
    return sympy.Matrix([[sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im) for x in row]
                         for row in matrix]).rank()


@pytest.mark.parametrize("algebra_fn", [sl2, heisenberg3, filiform4, sl2_rational_basis,
                                        sl2_gaussian_basis, sl2_gaussian_adjoint, sl2_defining])
def test_cohomology_dims_match_sympy_ranks(algebra_fn):
    sympy = pytest.importorskip("sympy")
    for M in _modules(algebra_fn()):
        L, n = M.algebra, M.algebra.dim
        ranks = [_sympy_rank(sympy, ce_differential(L, M, p).matrix) for p in range(n + 1)]
        for p in range(n + 1):
            expect = math.comb(n, p) * M.dim - ranks[p] - (ranks[p - 1] if p else 0)
            assert cohomology_dim(L, M, p) == expect, (M.kind, p)


@pytest.mark.parametrize("algebra_fn", [sl2_rational_basis, sl2_gaussian_basis,
                                        sl2_gaussian_adjoint, sl2_defining])
def test_cohomology_dims_do_not_depend_on_the_basis(algebra_fn):
    dims = lambda M: [cohomology_dim(M.algebra, M, p) for p in range(4)]  # noqa: E731
    plain = {M.kind: dims(M) for M in _modules(sl2()) + sl2_defining()[:1]}
    for M in _modules(algebra_fn()):
        assert dims(M) == plain[M.kind], M.kind


def test_warm_cohomology_sweep_and_jacobi_check_build_no_scalar():
    # a call count: the differentials are integer rows and the jacobiators
    # integer sums, so a scalar is built only to report
    L, jacobi = gl2(), sl2_sl2()
    M = representation(L, "coadjoint")
    sweep = lambda: [cohomology_dim(L, M, p) for p in range(L.dim + 1)]  # noqa: E731
    dims = sweep()
    profile = cProfile.Profile()
    profile.enable()
    assert sweep() == dims and jacobi.check_jacobi().ok
    profile.disable()
    made = sum(stat[1] for func, stat in pstats.Stats(profile).stats.items()
               if func[0] == scalars.__file__ and func[2] == "_make")
    assert made == 0


def test_cohomology_sweep_ranks_the_rows_as_built_on_the_short_side(monkeypatch):
    # cohomology_dim hands its integer rows to linalg.rank as they are, and
    # _eliminate sees the transpose of each tall differential
    L = sl2()
    M = representation(L, "adjoint")
    ce_differential(L, M, 0)        # the module's integer table, built once
    int_rows, shapes = [], []
    int_row, eliminate = linalg._int_row, linalg._eliminate
    monkeypatch.setattr(linalg, "_int_row", lambda row: int_rows.append(row) or int_row(row))
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda m, jordan: shapes.append((len(m), len(m[0]))) or eliminate(m, jordan))
    assert [cohomology_dim(L, M, p) for p in range(4)] == [0, 0, 0, 0]
    assert not int_rows
    assert len(shapes) == 6 and all(rows <= cols for rows, cols in shapes)


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
