import itertools
from fractions import Fraction

import pytest

from bracket_oracles import (ad_multivector, alg_schouten, jacobiator_product_then_add,
                             lie_bracket_fields, schouten_multiplying)
from conftest import random_constant_algebra, sl2_sl2
from poissonkit import lie
from poissonkit.bialgebra import AlgMultiVector, RMatrix, delta_from_r
from poissonkit.multivector import PolyMultiVector, schouten
from poissonkit.poisson import PolyBivector, PolyVectorField, jacobi_check, jacobiator
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


def test_sums_and_equality_reject_mixed_spaces(sl2):
    e1_sl2 = AlgMultiVector(sl2, 1, {(0,): 1})
    e1_so3 = AlgMultiVector(lie.so3(), 1, {(0,): 1})
    assert e1_sl2 != e1_so3
    xy = PolyBivector(("x", "y"), {(0, 1): generators("x", "y")[0]})
    uv = PolyBivector(("u", "v"), {(0, 1): generators("u", "v")[0]})
    assert xy != uv
    for A, B in ((e1_sl2, e1_so3), (xy, uv), (xy, AlgMultiVector(sl2, 2, {(0, 1): 1}))):
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ValueError, match="one space"):
                op(A, B)
    # equal structure constants and equal charts are one space
    assert e1_sl2 + AlgMultiVector(lie.sl2(), 1, {(0,): 1}) == e1_sl2.scale(2)
    assert (xy - PolyBivector(("x", "y"), {(0, 1): generators("x", "y")[0]})).is_zero()


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


@pytest.mark.parametrize("degree, key", [(1, (5,)), (1, (-1,)), (2, (2, 3)), (2, (-1, 0))])
def test_keys_out_of_range_are_rejected_by_both_containers(sl2, degree, key):
    # every key lies outside the (x, y) chart and outside sl2 (dimension 3)
    x, _ = generators("x", "y")
    for make in (lambda: PolyMultiVector(x.vars, degree, {key: x}),
                 lambda: AlgMultiVector(sl2, degree, {key: 1})):
        with pytest.raises(ValueError, match="out of range"):
            make()


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


def _same(got, want):
    assert got == want and str(got) == str(want)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_jacobi_routes_equal_their_product_then_add_oracles(n, rng):
    """Both Jacobi routes, and the Lie derivative schouten(V, pi), equal the
    oracles that multiply and add one term at a time, on random quadratic
    bivectors and on one with Gaussian coefficients and mixed denominators."""
    from conftest import rand_poly

    bivectors = _quadratic_bivectors(n, rng)
    vs = bivectors[0].vars
    gens = generators(*vs)
    gaussian = Q(Fraction(1, 2), Fraction(-2, 3))
    bivectors.append(PolyBivector(vs, {
        key: rand_poly(rng, vs, gens).scale(gaussian if rng.random() < 0.5 else Q(1, 0))
        for key in itertools.combinations(range(n), 2)}))
    field = PolyVectorField(vs, [rand_poly(rng, vs, gens) for _ in range(n)])
    for pi in bivectors:
        _same(jacobiator(pi), jacobiator_product_then_add(pi))
        _same(schouten(pi, pi), schouten_multiplying(pi, pi))
        _same(schouten(field, pi), schouten_multiplying(field, pi))
    _same(schouten(field, field), schouten_multiplying(field, field))


def test_lambda_g_brackets_equal_the_multiplying_oracle(rng):
    """[r, r] and delta(X) = ad_X r for sl2 and so3 r-matrices, also at a
    Gaussian X, equal the oracle that multiplies out each frame bracket."""
    for L in (lie.sl2(), lie.so3()):
        for _ in range(6):
            r = RMatrix(L, {key: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                            for key in itertools.combinations(range(3), 2)})
            _same(schouten(r, r), schouten_multiplying(r, r))
            for X in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [Q(2, -1), Fraction(1, 3), -4]):
                element = AlgMultiVector(L, 1, {(a,): x for a, x in enumerate(X)})
                _same(delta_from_r(r, X), schouten_multiplying(element, r))


def _count_frame_brackets(monkeypatch, cls):
    calls = [0]

    def counted(self, f, i, g, j, _orig=cls._frame_bracket):
        calls[0] += 1
        return _orig(self, f, i, g, j)
    monkeypatch.setattr(cls, "_frame_bracket", counted)
    return calls


def test_an_even_square_brackets_each_unordered_pair_once(monkeypatch, rng):
    """[A, A] of a bivector visits each unordered pair of its P components
    once (4 frame brackets a pair); [A, B] of an equal but distinct copy, and
    the square of a vector field, keep the ordered loop, with the same result."""
    from conftest import rand_poly

    vs = generators(*(f"x{i+1}" for i in range(6)))[0].vars
    gens = generators(*vs)
    comps = {}
    for key in itertools.combinations(range(6), 2):
        while key not in comps or comps[key].is_zero():
            comps[key] = rand_poly(rng, vs, gens).scale(Q(Fraction(1, 2), -2))
    pi = PolyBivector(vs, comps)
    P = len(pi.comps)
    calls = _count_frame_brackets(monkeypatch, PolyBivector)
    square = schouten(pi, pi)
    assert P == 15 and calls[0] == 4 * P * (P + 1) // 2 == 480
    calls[0] = 0
    ordered = schouten(pi, PolyBivector(vs, dict(pi.comps)))
    assert calls[0] == 4 * P * P == 900
    _same(square, ordered)
    assert not square.is_zero()

    field = PolyVectorField(vs, [rand_poly(rng, vs, gens) for _ in range(6)])
    field_calls = _count_frame_brackets(monkeypatch, PolyVectorField)
    schouten(field, field)
    assert field_calls[0] == len(field.comps) ** 2

    sl2 = lie.sl2()
    r = RMatrix(sl2, {(0, 1): Q(1, 2), (0, 2): Q(Fraction(-1, 3)), (1, 2): Q(0, Fraction(5, 2))})
    calls = _count_frame_brackets(monkeypatch, RMatrix)
    square = schouten(r, r)
    assert calls[0] == 4 * 3 * 4 // 2
    calls[0] = 0
    ordered = schouten(r, AlgMultiVector(sl2, 2, dict(r.comps)))
    assert calls[0] == 4 * 3 * 3
    _same(square, ordered)
    assert not square.is_zero()


def test_jacobi_check_builds_no_intermediate_polynomial(monkeypatch, rng):
    """On a 6-variable quadratic bivector, both Jacobi routes sum their
    products with the fused kernel: no polynomial product or sum is formed."""
    pi = _quadratic_bivectors(6, rng)[0]
    calls = {"__mul__": 0, "__add__": 0}
    for name in calls:
        def counted(self, other, _orig=getattr(MultiPoly, name), _name=name):
            calls[_name] += 1
            return _orig(self, other)
        monkeypatch.setattr(MultiPoly, name, counted)
    report = jacobi_check(pi)
    monkeypatch.undo()
    assert calls == {"__mul__": 0, "__add__": 0}
    assert not report["passed"] and report["routes_consistent"]
    assert report["residual"] == str(jacobiator_product_then_add(pi))
    _same(jacobiator(pi), jacobiator_product_then_add(pi))
    _same(schouten(pi, pi), schouten_multiplying(pi, pi))
