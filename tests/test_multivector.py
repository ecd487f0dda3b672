import itertools
from fractions import Fraction

import pytest

from bracket_oracles import ad_multivector, alg_schouten, lie_bracket_fields
from conftest import random_constant_algebra, sl2_sl2
from poissonkit import lie
from poissonkit.bialgebra import AlgMultiVector
from poissonkit.multivector import PolyMultiVector, schouten
from poissonkit.poisson import PolyBivector, PolyVectorField, jacobiator
from poissonkit.poly import MultiPoly, generators
from poissonkit.scalars import GaussianRational, Q


def test_vector_field_degeneration():
    vs = ("x", "y")
    x, y = generators(*vs)
    one = MultiPoly.constant(vs, 1)
    zero = MultiPoly.zero(vs)
    dx = PolyVectorField(vs, [one, zero])
    x_dx = PolyVectorField(vs, [x, zero])
    br = schouten(dx, x_dx)
    assert br.component(0) == one and br.component(1).is_zero()


def test_schouten_matches_jacobi_lie(rng):
    from conftest import rand_poly

    vs = ("x", "y", "z")
    gens = generators(*vs)
    variables = gens[0].vars
    for _ in range(10):
        V = [rand_poly(rng, variables, gens) for _ in range(3)]
        W = [rand_poly(rng, variables, gens) for _ in range(3)]
        lhs = schouten(PolyVectorField(variables, V), PolyVectorField(variables, W))
        rhs = lie_bracket_fields(variables, V, W)
        for i in range(3):
            assert (lhs.component(i) - rhs[i]).is_zero()


def test_constant_bivector_square_vanishes():
    pi = PolyBivector.constant_symplectic(4)
    sq = schouten(pi, pi)
    assert sq.is_zero()


def test_square_proportional_to_cyclic_jacobiator(rng):
    """[pi, pi] and the cyclic coordinate sums cut out the same trivector up
    to a single global constant (computed routes are independent)."""
    from conftest import rand_poly

    vs = ("x", "y", "z")
    gens = generators(*vs)
    variables = gens[0].vars
    ratios = set()
    for _ in range(10):
        entries = {
            (i, j): rand_poly(rng, variables, gens)
            for (i, j) in ((0, 1), (0, 2), (1, 2))
        }
        pi = PolyBivector(variables, entries)
        sq = schouten(pi, pi)
        cyc = jacobiator(pi)
        assert sq.is_zero() == cyc.is_zero()
        if not cyc.is_zero():
            a = sq.component(0, 1, 2)
            b = cyc.component(0, 1, 2)
            if not b.is_zero():
                # a = ratio * b for a constant ratio
                bt = next(iter(b.terms.items()))
                at = a.terms.get(bt[0])
                assert at is not None
                ratio = at / bt[1]
                assert (a - b.scale(ratio)).is_zero()
                ratios.add((str(ratio)))
    assert len(ratios) <= 1  # one global convention constant


def _rand_alg_mv(rng, L, deg, density=0.8):
    """A random element of Lambda^deg g with small rational components."""
    return AlgMultiVector(L, deg, {
        key: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for key in itertools.combinations(range(L.dim), deg) if rng.random() < density
    })


def test_graded_antisymmetry(rng):
    """[A, B] = -(-1)^{(a-1)(b-1)} [B, A] on random multivectors: polynomial
    fields on R^3 and elements of Lambda g over a random-constant algebra."""
    from conftest import rand_poly

    vs = ("x", "y", "z")
    gens = generators(*vs)
    variables = gens[0].vars
    L = random_constant_algebra(rng, 4)

    def rand_mv(deg):
        comps = {}
        for key in itertools.combinations(range(3), deg):
            if rng.random() < 0.8:
                comps[key] = rand_poly(rng, variables, gens)
        return PolyMultiVector(variables, deg, comps)

    for make in (rand_mv, lambda deg: _rand_alg_mv(rng, L, deg)):
        for a_deg, b_deg in ((1, 1), (1, 2), (2, 2), (2, 3), (1, 3)):
            A = make(a_deg)
            B = make(b_deg)
            lhs = schouten(A, B)
            rhs = schouten(B, A)
            sign = (-1) ** ((a_deg - 1) * (b_deg - 1))
            assert (lhs + rhs.scale(Q(sign))).is_zero(), (make, a_deg, b_deg)


def test_schouten_on_lambda_g_matches_the_structure_constant_oracles(rng):
    """On random elements of Lambda^p g, schouten equals the old own loop
    over structure constants, and with a degree-1 left argument it equals
    the Leibniz extension of ad."""
    algebras = [lie.sl2(), lie.so3(), lie.heisenberg3(), sl2_sl2(),
                random_constant_algebra(rng, 4)]
    nonzero = 0
    for L in algebras:
        for _ in range(4):
            for p, q in itertools.product(range(1, L.dim + 1), repeat=2):
                if p + q - 1 > L.dim:
                    continue
                A, B = _rand_alg_mv(rng, L, p), _rand_alg_mv(rng, L, q)
                got = schouten(A, B)
                assert isinstance(got, AlgMultiVector) and got.degree == p + q - 1
                assert str(got) == str(alg_schouten(L, A, B)), (L.basis, p, q)
                nonzero += not got.is_zero()
                if p == 1:
                    X = [A.component(a) for a in range(L.dim)]
                    assert str(got) == str(ad_multivector(L, X, B)), (L.basis, q)
    assert nonzero > 100


def test_schouten_rejects_mixed_spaces(sl2):
    e1 = AlgMultiVector(sl2, 1, {(0,): 1})
    field = PolyVectorField(("x", "y", "z"), generators("x", "y", "z"))
    for A, B in ((e1, field), (field, e1)):
        with pytest.raises(ValueError, match="one space"):
            schouten(A, B)
    with pytest.raises(ValueError, match="one space"):
        schouten(e1, AlgMultiVector(lie.so3(), 2, {(1, 2): 1}))
    # equal structure constants are one space, whichever object holds them
    assert str(schouten(e1, AlgMultiVector(lie.sl2(), 2, {(1, 2): 1}))) == "0"
    assert str(schouten(e1, AlgMultiVector(lie.sl2(), 1, {(1,): 1}))) == "(1) e3"


def test_wedge_sorting_sign():
    vs = ("x", "y")
    one = MultiPoly.constant(vs, 1)
    T = PolyMultiVector(vs, 2, {(1, 0): one})
    assert T.component(0, 1) == -one
    assert T.component(1, 0) == one
    assert PolyMultiVector(vs, 2, {(0, 0): one}).is_zero()


def test_jacobi_residual_string_and_signs():
    x1, x2, x3, x4 = generators("x1", "x2", "x3", "x4")
    pi = PolyBivector(x1.vars, {(0, 1): x1 * x2, (1, 2): x3, (2, 3): x1, (0, 3): x2 * x2})
    cyc = jacobiator(pi)
    assert str(cyc) == ("(x1*x3) d_x1^d_x2^d_x3 + (x2^3) d_x1^d_x2^d_x4"
                        " + (-2*x2*x3) d_x1^d_x3^d_x4 + (x1*x2 + x1) d_x2^d_x3^d_x4")
    assert str(schouten(pi, pi)) == (
        "(-2*x1*x3) d_x1^d_x2^d_x3 + (-2*x2^3) d_x1^d_x2^d_x4"
        " + (4*x2*x3) d_x1^d_x3^d_x4 + (-2*x1*x2 + -2*x1) d_x2^d_x3^d_x4")
    signs = {(0, 1, 2): "x1*x3", (2, 1, 0): "-1*x1*x3", (1, 3, 0): "x2^3",
             (0, 2, 3): "-2*x2*x3", (3, 2, 1): "-1*x1*x2 + -1*x1", (0, 0, 1): "0"}
    assert {idx: str(cyc.component(*idx)) for idx in signs} == signs


def test_bivector_from_unsorted_and_repeated_keys():
    x1, x2, x3, x4 = generators("x1", "x2", "x3", "x4")
    one = MultiPoly.constant(x1.vars, 1)
    pi = PolyBivector(x1.vars, {(1, 0): x1, (0, 1): x2, (2, 1): x3 * x3, (0, 2): one,
                                (2, 0): one, (3, 3): MultiPoly.zero(x1.vars)})
    assert str(pi) == "(-1*x1 + x2) d_x1^d_x2 + (-1*x3^2) d_x2^d_x3"
    signs = {(0, 1): "-1*x1 + x2", (1, 0): "x1 + -1*x2", (1, 2): "-1*x3^2",
             (2, 1): "x3^2", (0, 2): "0", (3, 3): "0"}
    assert {idx: str(pi.component(*idx)) for idx in signs} == signs


def test_alg_multivector_with_partly_cancelling_keys():
    a = AlgMultiVector(lie.abelian(4), 3, {(0, 1, 2): 1, (2, 0, 1): -1, (1, 0, 3): 2, (3, 1, 0): 5,
                                           (2, 1, 3): GaussianRational(0, 1), (1, 1, 2): 7})
    assert str(a) == "(-7) e1∧e2∧e4 + (-1*i) e2∧e3∧e4"
    signs = {(0, 1, 2): "0", (0, 1, 3): "-7", (3, 0, 1): "-7", (1, 0, 3): "7",
             (1, 2, 3): "-1*i", (3, 2, 1): "1*i", (1, 1, 2): "0"}
    assert {idx: str(a.component(*idx)) for idx in signs} == signs


def _quadratic_bivectors(n, rng):
    """Two random quadratic bivectors on R^n and one log-canonical one
    (c_ij x_i x_j, Poisson for any constants)."""
    vs = generators(*(f"x{i+1}" for i in range(n)))[0].vars
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for _ in range(2):
        entries = {}
        for i, j in pairs:
            for _ in range(rng.randint(1, 2)):
                exp = [0] * n
                exp[rng.randrange(n)] += 1
                exp[rng.randrange(n)] += 1
                term = MultiPoly.monomial(vs, tuple(exp), rng.randint(-3, 3))
                entries[(i, j)] = entries.get((i, j), MultiPoly.zero(vs)) + term
        out.append(PolyBivector(vs, entries))
    log_canonical = {}
    for i, j in pairs:
        exp = [0] * n
        exp[i] = exp[j] = 1
        log_canonical[(i, j)] = MultiPoly.monomial(vs, tuple(exp), rng.randint(-3, 3))
    out.append(PolyBivector(vs, log_canonical))
    return out


def _to_sympy(sp, p, symbols):
    acc = sp.Integer(0)
    for exp, c in p.terms.items():
        coeff = sp.Rational(str(c.re)) + sp.I * sp.Rational(str(c.im))
        acc += coeff * sp.Mul(*(s ** e for s, e in zip(symbols, exp)))
    return acc


@pytest.mark.parametrize("n", [3, 4, 5])
def test_jacobiator_matches_sympy(n, rng):
    """Every component of the cyclic Jacobiator against {{x_i,x_j},x_k} + c.p.
    computed by sympy; [pi, pi] vanishes exactly when that sympy sum does."""
    sp = pytest.importorskip("sympy")
    zero_seen = set()
    for pi in _quadratic_bivectors(n, rng):
        xs = sp.symbols(f"x1:{n + 1}")
        P = [[_to_sympy(sp, pi.component(a, b), xs) for b in range(n)] for a in range(n)]
        cyc = jacobiator(pi)
        sym_zero = True
        for i, j, k in itertools.combinations(range(n), 3):
            ref = sp.expand(sum(P[a][k] * sp.diff(P[i][j], xs[a])
                                + P[a][i] * sp.diff(P[j][k], xs[a])
                                + P[a][j] * sp.diff(P[k][i], xs[a]) for a in range(n)))
            assert sp.expand(_to_sympy(sp, cyc.component(i, j, k), xs) - ref) == 0
            assert sp.expand(_to_sympy(sp, cyc.component(k, j, i), xs) + ref) == 0
            sym_zero = sym_zero and ref == 0
        assert schouten(pi, pi).is_zero() == sym_zero
        zero_seen.add(sym_zero)
    assert zero_seen == {True, False}
