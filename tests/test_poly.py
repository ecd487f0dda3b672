from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poissonkit.poly import (
    ANGULAR,
    MultiPoly,
    Var,
    generators,
    sl2_relation_ideal,
)
from poissonkit.scalars import GaussianRational, I, Q

VARS = ("x", "y", "z")


def poly_strategy():
    coeff = st.fractions(max_denominator=8, min_value=-8, max_value=8)
    exps = st.tuples(*(st.integers(0, 3) for _ in VARS))
    term = st.tuples(exps, coeff)
    return st.lists(term, max_size=5).map(
        lambda ts: MultiPoly(VARS, {e: GaussianRational(c) for e, c in ts})
    )


def test_examples():
    x, y = generators("x", "y")
    assert (x + 1) * (x - 1) == x * x - 1
    assert (x * y) * (x * y) == x ** 2 * y ** 2
    assert (x ** 2 * y).partial("x") == 2 * x * y
    assert (x ** 2).partial("y").is_zero()


def test_angular_laurent():
    th = Var("th", ANGULAR)
    w = MultiPoly.variable([th], "th")
    winv = MultiPoly.monomial([th], [-1], 1)
    assert w * winv == MultiPoly.constant([th], 1)
    assert w.partial("th") == w.scale(I)
    assert winv.partial("th") == winv.scale(GaussianRational(0, -1))
    # evaluation at an exact unit-circle point (w = i)
    val = (w * w).eval({"th": GaussianRational(0, 1)})
    assert val == Q(-1)


def test_kind_collision_rejected():
    th_aff = MultiPoly.variable(["th"], "th")
    th_ang = MultiPoly.variable([Var("th", ANGULAR)], "th")
    with pytest.raises(ValueError):
        th_aff + th_ang
    with pytest.raises(ValueError):
        th_aff * th_ang
    # no common chart, but equality still has an answer
    assert th_aff != th_ang and th_ang != th_aff
    assert not th_aff == th_ang
    assert MultiPoly.constant(["th"], 2) == MultiPoly.constant([Var("th", ANGULAR)], 2)


def test_equal_charts_are_one_object():
    x, y = generators("x", "y")
    chart = x.vars
    assert y.vars is chart
    for spec in (("x", "y"), ["x", "y"], (Var("x"), Var("y")), [("x", "affine"), ("y", "affine")],
                 (["x", "affine"], ["y", "affine"]), iter(["x", "y"])):
        assert MultiPoly.constant(spec, 1).vars is chart
    assert (x * y + x).vars is chart and (x * y).partial("x").vars is chart
    assert x.over(("x", "y", "z")).vars is generators("x", "y", "z")[0].vars
    # what is not a chart stays rejected, every time it is asked for
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate"):
            MultiPoly.constant(("x", "x"), 1)
        with pytest.raises(ValueError, match="kind"):
            MultiPoly.constant([("x", "polar")], 1)


def test_over_moves_onto_a_chart_or_raises():
    x, y = generators("x", "y")
    p = x * y ** 2
    assert p.over(p.vars) is p
    moved = p.over(("y", "z", "x"))
    assert moved.var_names() == ("y", "z", "x") and moved.terms == {(2, 0, 1): Q(1)}
    with pytest.raises(ValueError, match="chart"):
        p.over(("x", "z"))
    with pytest.raises(ValueError, match="chart"):
        MultiPoly.variable([Var("x", ANGULAR)], "x").over(("x", "y"))
    # the chart moves inside the package raise the same error
    from poissonkit.poisson import PolyBivector, hamiltonian_flow
    with pytest.raises(ValueError, match="chart"):
        PolyBivector(("x", "z"), {(0, 1): p})
    plane = PolyBivector(("x", "z"), {(0, 1): MultiPoly.constant(("x", "z"), 1)})
    with pytest.raises(ValueError, match="chart"):
        hamiltonian_flow(plane, p, [0.0, 0.0], 0.1, 2)


def test_affine_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(-1,): Q(1)})


@settings(max_examples=60)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


CHART = (Var("x"), Var("y"), Var("t", ANGULAR))
OTHER_CHART = (Var("t", ANGULAR), Var("z"), Var("x"))


def gaussian_poly_strategy(chart):
    """Polynomials with Gaussian-rational coefficients and, on an angular
    variable, Laurent exponents; repeated exponents add up."""
    part = st.fractions(max_denominator=6, min_value=-6, max_value=6)
    coeff = st.builds(GaussianRational, part, part | st.just(Fraction(0)))
    exps = st.tuples(*(st.integers(-2, 2) if v.kind == ANGULAR else st.integers(0, 2)
                       for v in chart))
    return st.lists(st.tuples(exps, coeff), max_size=5).map(
        lambda ts: MultiPoly(chart, dict(ts)))


def _rebuilt_the_same(p):
    """``p`` is what the validating constructor makes of its own terms."""
    rebuilt = MultiPoly(p.vars, p.terms)
    assert rebuilt.vars == p.vars and rebuilt.terms == p.terms
    assert all(not c.is_zero() for c in p.terms.values())
    assert all(type(v) is Var for v in p.vars)


@given(gaussian_poly_strategy(CHART), gaussian_poly_strategy(CHART),
       gaussian_poly_strategy(OTHER_CHART), st.sampled_from([0, 1, -2, Fraction(1, 3), I, Q(2, -1)]))
def test_trusted_results_are_valid_polynomials(p, q, r, c):
    merged = CHART + (Var("z"),)
    for result in (p + q, p - q, -p, p * q, p + r, r - p, p * r, p.scale(c), p * c,
                   p + c, c * p, c + p, c - p, p.over(merged), r.over(merged), q - q):
        _rebuilt_the_same(result)
    for name in ("x", "y", "t"):
        _rebuilt_the_same(p.partial(name))


@given(gaussian_poly_strategy(CHART) | poly_strategy(), st.randoms(use_true_random=False))
def test_memoized_partial_is_the_derivative_of_a_fresh_copy(p, rnd):
    names = list(p.var_names())
    rnd.shuffle(names)
    for name in names:
        d = p.partial(name)
        assert p.partial(name) is d
        fresh = MultiPoly(p.vars, p.terms).partial(name)
        assert d == fresh and d.terms == fresh.terms
        _rebuilt_the_same(d)


def test_reduce_mod_examples():
    ideal = sl2_relation_ideal()
    a1, a2, a3, a4 = generators("a1", "a2", "a3", "a4")
    assert ideal.reduce(a1 * a4) == a2 * a3 + 1
    assert ideal.reduce(a2 * a3) == a2 * a3
    assert ideal.reduce(a1 ** 2 * a4 ** 2) == (a2 * a3 + 1) ** 2
    assert ideal.reduce(ideal.generator).is_zero()


def test_reduce_mod_ideal_invariant(rng):
    """reduce(p*g + r) == reduce(r) for arbitrary p and r."""
    from conftest import rand_poly

    ideal = sl2_relation_ideal()
    gens = generators("a1", "a2", "a3", "a4")
    variables = gens[0].vars
    for _ in range(15):
        p = rand_poly(rng, variables, gens)
        r = rand_poly(rng, variables, gens)
        assert ideal.reduce(p * ideal.generator + r) == ideal.reduce(r)


def test_group_translate():
    """The group law of T^m x R^n as a substitution onto the doubled chart."""
    xx, xb = generators("x", "x__b")
    p = MultiPoly.variable(["x"], "x") ** 2
    # (x + x')^2 = x^2 + 2 x x' + x'^2
    assert p.substitute([xx + xb]) == xx ** 2 + (xx * xb).scale(Q(2)) + xb ** 2
    th, thb = Var("th", ANGULAR), Var("th__b", ANGULAR)
    w, wb = generators(th, thb)
    assert MultiPoly.variable([th], "th").substitute([w * wb]) == MultiPoly([th, thb], {(1, 1): Q(1)})
    # w^-2 -> (w w')^-2, a Laurent monomial stays one
    winv2 = MultiPoly.monomial([th], [-2], Q(3))
    assert winv2.substitute([w * wb]) == MultiPoly([th, thb], {(-2, -2): Q(3)})
    assert winv2.substitute([(w * wb).scale(Q(2))]) == MultiPoly([th, thb], {(-2, -2): Q("3/4")})


def test_substitute_rejects_a_wrong_count_mixed_charts_and_inverting_a_sum():
    x, y = generators("x", "y")
    t, = generators("t")
    with pytest.raises(ValueError, match="need 2 images"):
        (x * y).substitute([t])
    with pytest.raises(ValueError, match="different charts"):
        (x * y).substitute([t, x])
    th = Var("th", ANGULAR)
    winv = MultiPoly.monomial([th], [-1], 1)
    w, = generators(th)
    with pytest.raises(ValueError, match="not one term"):
        winv.substitute([w + 1])
    assert winv.substitute([1]) == 1 and (x * y).substitute([2, Q("1/2")]) == 1


def laurent_strategy():
    """A polynomial in the angular unit w and the affine x with exponents of w
    in -2..2, and images on (s, t): a Laurent monomial in s for w, any
    polynomial for x."""
    coeff = st.fractions(max_denominator=6, min_value=-6, max_value=6)
    vs = (Var("w", ANGULAR), Var("x"))
    img_vs = (Var("s", ANGULAR), Var("t"))
    term = st.tuples(st.tuples(st.integers(-2, 2), st.integers(0, 3)), coeff)
    poly = st.lists(term, max_size=5).map(
        lambda ts: MultiPoly(vs, {e: GaussianRational(c) for e, c in ts}))
    nonzero = coeff.filter(bool)
    w_img = st.tuples(st.integers(-2, 2), nonzero).map(
        lambda e: MultiPoly(img_vs, {(e[0], 0): GaussianRational(e[1])}))
    x_img = st.lists(st.tuples(st.tuples(st.integers(-1, 1), st.integers(0, 2)), coeff),
                     max_size=3).map(lambda ts: MultiPoly(img_vs, {e: GaussianRational(c)
                                                                  for e, c in ts}))
    return st.tuples(poly, w_img, x_img)


@given(laurent_strategy(), st.fractions(max_denominator=5, min_value=-3, max_value=3).filter(bool),
       st.fractions(max_denominator=5, min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
def test_substitute_then_eval_is_eval_at_the_images(data, s, t):
    p, w_img, x_img = data
    pt = {"s": s, "t": t}
    at_images = {"w": w_img.eval(pt), "x": x_img.eval(pt)}
    assert p.substitute([w_img, x_img]).eval(pt) == p.eval(at_images)


def test_hash_agrees_with_chart_free_equality():
    x1, = generators("x1")
    assert x1 == x1.over(("x1", "x2"))
    assert len({x1, x1.over(("x1", "x2")), x1.over(("x2", "x1"))}) == 1
    assert len({x1, generators("x2")[0], x1.scale(Q(2))}) == 3


def test_equal_values_hash_alike_and_other_objects_compare_unequal():
    x, = generators("x")
    three, zero = MultiPoly.constant(x.vars, 3), MultiPoly.zero(x.vars)
    assert three == 3 and hash(three) == hash(3) and len({three, 3, Q(3)}) == 1
    assert zero == 0 and hash(zero) == hash(0) and len({zero, 0}) == 1
    for p in (x, three, zero):
        assert p != None and not p == None  # noqa: E711
        assert p != "abc" and not p == "abc"


def test_json_roundtrip():
    x, y = generators("x", "y")
    p = x ** 2 - (x * y).scale(Q("2/3")) + 1
    assert MultiPoly.from_json(p.to_json()) == p
    th = Var("th", ANGULAR)
    w = MultiPoly([th], {(-2,): GaussianRational(Fraction(1, 2), Fraction(3))})
    assert MultiPoly.from_json(w.to_json()) == w


def test_lex_leading_and_eval():
    ideal = sl2_relation_ideal()
    assert ideal.lead_exp == (1, 0, 0, 1)
    x, y = generators("x", "y")
    p = x * y + y ** 3
    assert p.eval({"x": 2, "y": Fraction(1, 2)}) == Q("9/8")
    with pytest.raises(TypeError):
        p.eval({"x": 2.0, "y": 0.5})


@st.composite
def scaled_products(draw):
    """Products ``(c, factors)`` of zero to three factors drawn from a few
    polynomials (zero and the Laurent monomials w, i/w among them), with
    ``c`` +-1, a small integer (zero included), a Fraction or a Gaussian
    rational, and some products repeated with ``-c`` so that sums cancel,
    partly or to zero."""
    pool = draw(st.lists(gaussian_poly_strategy(CHART), min_size=1, max_size=4))
    pool += [MultiPoly.zero(CHART), MultiPoly.monomial(CHART, (0, 0, 1)),
             MultiPoly.monomial(CHART, (0, 0, -1), I)]
    factors = st.lists(st.sampled_from(pool), max_size=3).map(tuple)
    part = st.fractions(max_denominator=4, min_value=-2, max_value=2)
    coeffs = (st.sampled_from([1, -1]) | st.integers(-3, 3) | part
              | st.builds(GaussianRational, part, part))
    products = draw(st.lists(st.tuples(coeffs, factors), max_size=6))
    cancel = draw(st.lists(st.booleans(), min_size=len(products), max_size=len(products)))
    return products + [(-c, f) for (c, f), x in zip(products, cancel) if x]


@settings(max_examples=100, deadline=None)
@given(scaled_products())
def test_sum_of_products_is_the_product_then_add_sum(products):
    """Equal to the ring route term for term, in the same term order: the
    float flow compiles terms in that order."""
    from bracket_oracles import sum_product_then_add

    got = MultiPoly.sum_of_products(CHART, products)
    want = sum_product_then_add(CHART, products)
    assert got == want and str(got) == str(want)
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.vars is want.vars
    _rebuilt_the_same(got)


def test_sum_of_products_cancels_to_zero_and_rejects_other_charts():
    x, y = generators("x", "y")
    gaussian = x.scale(Q("1/2", 3))
    p, q = gaussian + 1, y.scale(Q("2/3")) - x
    products = [(1, (p, q)), (-1, (q, p)), (1, (p, p, q)), (-1, (q, p, p))]
    zero = MultiPoly.sum_of_products(("x", "y"), products)
    assert zero.is_zero() and zero.vars is x.vars
    assert MultiPoly.sum_of_products(x.vars, [(1, (p,)), (-1, (gaussian,))]) == 1
    with pytest.raises(ValueError, match="chart"):
        MultiPoly.sum_of_products(x.vars, [(1, (p, x.over(("x", "y", "z"))))])
    with pytest.raises(ValueError, match="chart"):
        MultiPoly.sum_of_products(("y", "x"), [(1, (p,))])


@settings(max_examples=60, deadline=None)
@given(gaussian_poly_strategy(CHART),
       st.lists(st.builds(GaussianRational, st.fractions(max_denominator=5, min_value=-3,
                                                         max_value=3),
                          st.fractions(max_denominator=5, min_value=-3, max_value=3)),
                min_size=3, max_size=3).filter(lambda vs: not vs[2].is_zero()))
def test_eval_at_is_substitution_of_constants(p, values):
    """The exact evaluation in chart order equals the constant that the
    polynomial composition gives, and the named exact ``eval`` returns it."""
    want = p.substitute(values).constant_term()
    assert p.eval_at(values) == want
    assert p.eval(dict(zip(p.var_names(), values))) == want
