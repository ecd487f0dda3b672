import cProfile
import functools
import io
import itertools
import math
import os
import pstats
import random
import re
import struct
import tokenize
import tracemalloc
import warnings
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evaluation_oracles
import flow_oracle
from one_form_oracles import compare_one_form_conventions, pairing_identity_check
import poissonkit
from poissonkit import lie, linalg, poisson
from poissonkit.bundles import load_bundle
from poissonkit.multivector import PolyMultiVector, schouten
from poissonkit.poisson import (
    PolyBivector,
    PolyOneForm,
    PolyVectorField,
    StratifyConfig,
    bracket_fn,
    casimir_check,
    differential,
    hamiltonian_field,
    hamiltonian_flow,
    jacobi_check,
    jacobiator,
    lie_derivative_bivector,
    lie_poisson,
    one_form_bracket,
    r_k,
    rank_at,
    sample_points,
    stratify_sample,
)
from poissonkit.poly import AFFINE, ANGULAR, MultiPoly, _as_vars, generators
from poissonkit.scalars import GaussianRational, I, Q


def test_sharp_anchor(plane):
    vs = ("x", "y")
    x, y = generators(*vs)
    assert str(plane.sharp(differential(x, vs))) == "(1) d_y"
    assert plane.sharp(PolyOneForm(vs, (MultiPoly.zero(vs), MultiPoly.zero(vs)))).is_zero()
    pix = PolyBivector(vs, {(0, 1): x})
    s = pix.sharp(differential(y, vs))
    assert s.component(0) == -x and s.component(1).is_zero()


def test_components_on_a_reordered_chart_act_as_on_the_chart(plane):
    """Fields and one-forms keep their components on their own chart, so
    sharp, pair and apply read a component given on ("y", "x") as the same
    function."""
    vs = ("x", "y")
    x, y = generators(*vs)
    yx, xy = generators("y", "x")
    V = PolyVectorField(vs, (xy * xy, yx))
    alpha = PolyOneForm(vs, (yx, xy + 1))
    assert V.component(0).vars is x.vars and alpha.component(1).vars is x.vars
    assert V.apply(xy * yx) == x * x * y + x * y
    assert V.pair(alpha) == x * x * y + y * x + y
    assert str(plane.sharp(alpha)) == str(plane.sharp(PolyOneForm(vs, (y, x + 1))))


def test_bracket_fn(plane, sl2_lp):
    vs = ("x", "y")
    x, y = generators(*vs)
    assert bracket_fn(plane, x, y) == MultiPoly.constant(vs, 1)
    f = x ** 2 + y
    assert bracket_fn(plane, f, f).is_zero()
    mu = [MultiPoly.variable(sl2_lp.vars, v.name) for v in sl2_lp.vars]
    assert bracket_fn(sl2_lp, mu[0], mu[1]) == MultiPoly.zero(sl2_lp.vars) + mu[2]


def test_leibniz(plane, rng):
    from conftest import rand_poly

    vs = ("x", "y")
    gens = generators(*vs)
    variables = gens[0].vars
    for _ in range(10):
        f = rand_poly(rng, variables, gens)
        g = rand_poly(rng, variables, gens)
        h = rand_poly(rng, variables, gens)
        lhs = bracket_fn(plane, f * g, h)
        rhs = f * bracket_fn(plane, g, h) + bracket_fn(plane, f, h) * g
        assert (lhs - rhs).is_zero()


def test_hamiltonian_field(plane):
    vs = ("x", "y")
    x, y = generators(*vs)
    assert str(hamiltonian_field(plane, x)) == "(1) d_y"
    assert hamiltonian_field(plane, MultiPoly.constant(vs, 5)).is_zero()
    f = (x * x + y * y).scale(Q("1/2"))
    Xf = hamiltonian_field(plane, f)
    assert Xf.component(0) == -y and Xf.component(1) == x


def test_hamiltonian_bracket_identity(plane, rng):
    from conftest import rand_poly
    from bracket_oracles import lie_bracket_fields

    vs = ("x", "y")
    gens = generators(*vs)
    variables = gens[0].vars
    for _ in range(8):
        f = rand_poly(rng, variables, gens)
        g = rand_poly(rng, variables, gens)
        Xf = hamiltonian_field(plane, f)
        Xg = hamiltonian_field(plane, g)
        lb = lie_bracket_fields(variables, [Xf.component(i) for i in range(2)],
                                [Xg.component(i) for i in range(2)])
        Xfg = hamiltonian_field(plane, bracket_fn(plane, f, g))
        assert all((lb[i] - Xfg.component(i)).is_zero() for i in range(2))


def test_jacobi_check():
    vs = ("x", "y")
    x, y = generators(*vs)
    anything = PolyBivector(vs, {(0, 1): x * y + x ** 2})
    assert jacobi_check(anything)["passed"]  # no trivectors in two variables
    lp = lie_poisson(lie.sl2())
    assert jacobi_check(lp)["passed"]
    vs3 = ("x1", "x2", "x3")
    x1, x2, x3 = generators(*vs3)
    bad = PolyBivector(vs3, {(0, 1): x3, (1, 2): x2})
    rep = jacobi_check(bad)
    assert not rep["passed"] and rep["routes_consistent"]
    assert rep["residual"] == str(jacobiator(bad))
    assert jacobiator(bad).component(0, 1, 2) == -(MultiPoly.zero(vs3) + x3)


def test_lie_poisson_abelian_is_zero():
    assert lie_poisson(lie.abelian(4)).is_zero()


def test_lie_poisson_matches_constants(rng):
    """Linear-bivector Jacobi agrees with structure-constant Jacobi on random
    perturbations (both routes computed independently)."""
    base = lie.sl2()
    for trial in range(20):
        brackets = {}
        for (i, j) in ((0, 1), (1, 2), (0, 2)):
            vec = base.basis_bracket(i, j)
            if rng.random() < 0.5:
                k = rng.randint(0, 2)
                vec = list(vec)
                vec[k] = vec[k] + Q(Fraction(rng.randint(-2, 2)))
            brackets[(i, j)] = vec
        L = lie.LieAlgebra(3, brackets)
        assert jacobi_check(lie_poisson(L))["passed"] == L.check_jacobi().ok


def test_one_form_bracket(plane, sl2_lp, rng):
    from conftest import rand_poly

    vs = ("x", "y")
    x, y = generators(*vs)
    # {df, dg} = d{f, g} including the anchor case d{x,y} = 0
    assert one_form_bracket(plane, differential(x, vs), differential(y, vs)).is_zero()
    alpha = differential(x, vs)
    assert one_form_bracket(plane, alpha, alpha).is_zero()
    m = [MultiPoly.variable(sl2_lp.vars, v.name) for v in sl2_lp.vars]
    ofb = one_form_bracket(sl2_lp, differential(m[0], sl2_lp.vars), differential(m[1], sl2_lp.vars))
    assert str(ofb) == "(1) dmu3"
    gens = generators(*vs)
    variables = gens[0].vars
    for _ in range(8):
        f = rand_poly(rng, variables, gens)
        g = rand_poly(rng, variables, gens)
        pi = PolyBivector(variables, {(0, 1): rand_poly(rng, variables, gens)})
        lhs = one_form_bracket(pi, differential(f, variables), differential(g, variables))
        rhs = differential(bracket_fn(pi, f, g), variables)
        assert (lhs - rhs).is_zero()


def test_one_form_convention_report(plane):
    vs = ("x", "y")
    x, y = generators(*vs)
    rep = compare_one_form_conventions(plane, differential(x, vs), differential(y, vs))
    assert rep["match_verbatim"]  # the two displays agree on exact forms
    pix = PolyBivector(vs, {(0, 1): x})
    alpha = PolyOneForm(vs, (y, MultiPoly.zero(vs)))
    beta = PolyOneForm(vs, (MultiPoly.zero(vs), x))
    rep2 = compare_one_form_conventions(pix, alpha, beta)
    assert not rep2["match_verbatim"]  # and differ on general one-forms


def test_degree_one_fields_print_and_check_their_length():
    # printed forms recorded while vector fields and one-forms had their own classes
    vs = ("x", "y")
    x, y = generators(*vs)
    zero = MultiPoly.zero(vs)
    pix = PolyBivector(vs, {(0, 1): x})
    rep = compare_one_form_conventions(pix, PolyOneForm(vs, (y, zero)), PolyOneForm(vs, (zero, x)))
    assert rep["difference"] == "(-2*x*y) dx + (-2*x^2) dy"
    assert str(differential(x * y - y, vs)) == "(y) dx + (x + -1) dy"
    X = hamiltonian_field(pix, y * y)
    assert str(X) == "(-2*x*y) d_x"
    assert (X - X).is_zero() and str(X - X) == "0" and X + X == X.scale(Q(2))
    for cls in (PolyVectorField, PolyOneForm):
        for comps in ((x,), (x, y, x)):
            with pytest.raises(ValueError):
                cls(vs, comps)


def test_identity_22(plane, rng):
    from conftest import rand_poly

    vs = ("x", "y")
    gens = generators(*vs)
    variables = gens[0].vars
    zero = PolyVectorField(variables, (MultiPoly.zero(variables), MultiPoly.zero(variables)))
    x = gens[0]
    alpha = differential(x, variables)
    assert pairing_identity_check(plane, zero, alpha, alpha)["passed"]
    corrected = verbatim = 0
    for _ in range(20):
        pi = PolyBivector(variables, {(0, 1): rand_poly(rng, variables, gens)})
        V = PolyVectorField(variables, (rand_poly(rng, variables, gens),
                                        rand_poly(rng, variables, gens)))
        al = PolyOneForm(variables, (rand_poly(rng, variables, gens),
                                     rand_poly(rng, variables, gens)))
        be = PolyOneForm(variables, (rand_poly(rng, variables, gens),
                                     rand_poly(rng, variables, gens)))
        rep = pairing_identity_check(pi, V, al, be)
        corrected += rep["passed"]
        verbatim += rep["verbatim_holds"]
    assert corrected == 20
    assert verbatim < 20  # the displayed sign placement does not hold in general


def test_hamiltonian_flows_preserve(plane, sl2_lp, rng):
    from conftest import rand_poly

    vs = ("x", "y")
    gens = generators(*vs)
    variables = gens[0].vars
    for _ in range(5):
        f = rand_poly(rng, variables, gens)
        assert lie_derivative_bivector(plane, hamiltonian_field(plane, f)).is_zero()
    mu_gens = [MultiPoly.variable(sl2_lp.vars, v.name) for v in sl2_lp.vars]
    for _ in range(5):
        f = rand_poly(rng, sl2_lp.vars, mu_gens)
        assert lie_derivative_bivector(sl2_lp, hamiltonian_field(sl2_lp, f)).is_zero()
    zeroV = PolyVectorField(variables, (MultiPoly.zero(variables), MultiPoly.zero(variables)))
    assert lie_derivative_bivector(plane, zeroV).is_zero()


def test_rank_and_minors(sl2_lp):
    sym4 = PolyBivector.constant_symplectic(4)
    assert rank_at(sym4, [1, 2, 3, 4]) == 4
    vs = ("x", "y")
    x, _ = generators(*vs)
    pix = PolyBivector(vs, {(0, 1): x})
    assert rank_at(pix, [0, 5]) == 0
    assert rank_at(sl2_lp, [1, 0, 0]) == 2
    assert r_k(pix, [2, 3], 2) == 16
    assert r_k(sl2_lp, [1, 0, 0], 3) == 0
    sym2 = PolyBivector.constant_symplectic(2)
    assert r_k(sym2, [7, -9], 2) == 1


def test_rank_minor_consistency(rng):
    from conftest import rand_poly, rand_point

    for _ in range(25):
        n = rng.randint(2, 5)
        vs = tuple(f"x{i+1}" for i in range(n))
        gens = generators(*vs)
        variables = gens[0].vars
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    entries[(i, j)] = rand_poly(rng, variables, gens)
        pi = PolyBivector(variables, entries)
        p = rand_point(rng, n)
        assert rank_at(pi, p) == evaluation_oracles.max_rank_from_minors(pi, p)


def test_stratify(sl2_lp):
    sym4 = PolyBivector.constant_symplectic(4)
    rep = stratify_sample(sym4, StratifyConfig(count=100, seed=1))
    assert rep["histogram"] == {"4": 100}
    assert rep["minor_consistency"] and rep["max_rank_dominates"]

    rep2 = stratify_sample(sl2_lp, StratifyConfig(count=1000, seed=2))
    assert rep2["minor_consistency"]
    assert set(rep2["histogram"]) <= {"0", "2"}
    assert rep2["histogram"].get("2", 0) >= 999  # rank drops only at the origin

    vs = ("x", "y")
    x, _ = generators(*vs)
    pix = PolyBivector(vs, {(0, 1): x})
    rep3 = stratify_sample(
        pix, StratifyConfig(count=50, seed=3, include_points=[[0, 1], [1, 1]])
    )
    assert "0" in rep3["histogram"] and "2" in rep3["histogram"]


def test_sampled_points_draw_affine_coordinates_as_before_and_angular_ones_on_the_circle():
    chart = _as_vars([("w", ANGULAR), "x", ("v", ANGULAR)])
    for seed in range(20):
        rows = sample_points(chart, 30, seed, scale=6, denom_power=2)
        # the same draws as the Fraction sampler: t = a / 2^j per coordinate, in order
        rng = random.Random(seed)
        ts = [[Fraction(rng.randint(-6, 6), 2 ** rng.randint(0, 2)) for _ in chart]
              for _ in rows]
        for (u, v, q), t in zip(rows, ts):
            w, x, z = linalg._scalars((u, v, q))
            assert x == t[1]
            for k, value in ((0, w), (2, z)):
                assert u[k] ** 2 + v[k] ** 2 == q * q      # modulus 1
                assert value == (1 + I * t[k]) / (1 - I * t[k])
        affine = sample_points(("x", "y"), 30, seed, scale=6, denom_power=2)
        rng = random.Random(seed)
        assert [linalg._scalars(row) for row in affine] == [
            [Fraction(rng.randint(-6, 6), 2 ** rng.randint(0, 2)) for _ in range(2)]
            for _ in affine]
        assert all(v is None for _, v, _ in affine)


def test_a_coefficient_vanishing_only_off_the_circle_leaves_one_stratum():
    # (w - 2) d_th^d_x: w = 2 is no point of the unit circle, so the rank is 2 everywhere
    chart = _as_vars([("th", ANGULAR), "x"])
    w = MultiPoly.variable(chart, "th")
    pi = PolyBivector(chart, {(0, 1): w - 2})
    for seed in range(10):
        rep = stratify_sample(pi, StratifyConfig(count=100, seed=seed))
        assert rep["passed"] and rep["histogram"] == {"2": 100}


def test_stratify_at_n_8():
    rep = stratify_sample(PolyBivector.constant_symplectic(8), StratifyConfig(count=10, seed=1))
    assert rep["histogram"] == {"8": 10} and rep["minor_consistency"]

    # log-canonical x_i x_j q_ij d_i^d_j: Poisson for every constant q, of rank
    # 8 off the coordinate hyperplanes and lower on them
    x = generators(*(f"x{i+1}" for i in range(8)))
    pi = PolyBivector(x[0].vars, {(i, j): x[i] * x[j] * ((i + 2 * j) % 5 - 2)
                                  for i in range(8) for j in range(i + 1, 8)})
    cfg = StratifyConfig(count=30, seed=4, scale=2, denom_power=1)
    rep = stratify_sample(pi, cfg)
    assert rep["minor_consistency"]
    rng = random.Random(cfg.seed)
    points = [[Fraction(rng.randint(-cfg.scale, cfg.scale), 2 ** rng.randint(0, cfg.denom_power))
               for _ in range(8)] for _ in range(cfg.count)]
    expected: dict = {}
    for p in points:
        r = rank_at(pi, p)
        expected[r] = expected.get(r, 0) + 1
    assert rep["histogram"] == {str(k): v for k, v in expected.items()}
    assert 8 in expected and len(expected) > 1


def test_stratify_at_n_12_cross_checks_by_minor_sums(monkeypatch):
    # above PFAFFIAN_MAX_N the rank is cross-checked by Cauchy-Binet minor sums
    assert poisson.PFAFFIAN_MAX_N < 12
    pfaffians, sums = [], []
    _counting(monkeypatch, poisson, "_pfaffian_order", pfaffians)
    _counting(monkeypatch, poisson.linalg, "_elementary_sums", sums)
    rep = stratify_sample(PolyBivector.constant_symplectic(12), StratifyConfig(count=4, seed=1))
    assert rep["histogram"] == {"12": 4} and rep["minor_consistency"] and rep["passed"]

    # x_i x_j q_ij d_i^d_j on x1..x11 only, so x12 is a Casimir: rank at most
    # 10 everywhere, and lower on the coordinate hyperplanes
    x = generators(*(f"x{i+1}" for i in range(12)))
    pi = PolyBivector(x[0].vars, {(i, j): x[i] * x[j] * ((i + 2 * j) % 5 - 2)
                                  for i in range(11) for j in range(i + 1, 11)})
    cfg = StratifyConfig(count=12, seed=4, scale=2, denom_power=1)
    rep = stratify_sample(pi, cfg)
    assert rep["minor_consistency"] and rep["passed"]
    expected: dict = {}
    for u, _, q in sample_points(pi.vars, cfg.count, cfg.seed, cfg.scale, cfg.denom_power):
        r = rank_at(pi, [Fraction(a, q) for a in u])
        expected[r] = expected.get(r, 0) + 1
    assert rep["histogram"] == {str(k): v for k, v in sorted(expected.items())}
    assert max(expected) == 10 and len(expected) > 1
    assert pfaffians == [] and len(sums) == 16


@pytest.mark.parametrize("n", [6, 12])
def test_stratify_fails_when_the_rank_disagrees_with_its_cross_check(monkeypatch, n):
    # a negative control for both routes: Pfaffians at n = 6, minor sums at n = 12
    rank_rows = poisson.linalg._rank_rows
    monkeypatch.setattr(poisson.linalg, "_rank_rows",
                        lambda p, q=None: max(rank_rows(p, q) - 2, 0))
    rep = stratify_sample(PolyBivector.constant_symplectic(n), StratifyConfig(count=3, seed=2))
    assert rep["histogram"] == {str(n - 2): 3}
    assert rep["minor_consistency"] is False and rep["passed"] is False


def _wedges(rng, n, count, gaussian):
    """The integer rows ``(p, q)`` of sum_{t < count} u_t ^ v_t on Z[i]^n, of
    rank at most 2 count; ``q`` is None when ``gaussian`` is false."""
    def vector():
        return [complex(rng.randint(-3, 3), rng.randint(-3, 3) if gaussian else 0)
                for _ in range(n)]
    m = [[0j] * n for _ in range(n)]
    for _ in range(count):
        u, v = vector(), vector()
        for a in range(n):
            for b in range(n):
                m[a][b] += u[a] * v[b] - v[a] * u[b]
    p = [[int(z.real) for z in row] for row in m]
    return p, ([[int(z.imag) for z in row] for row in m] if gaussian else None)


def _principal(p, q, s) -> list:
    """The principal submatrix of ``p + i*q`` on the indices ``s``, as scalars."""
    return [linalg._scalars(([p[a][b] for b in s], q and [q[a][b] for b in s], 1)) for a in s]


@pytest.mark.parametrize("gaussian", [False, True])
def test_each_pfaffian_squared_is_its_principal_minor(gaussian):
    rng = random.Random(37)
    for n in range(7):
        for count in range(4):
            p, q = _wedges(rng, n, count, gaussian)
            levels = list(poisson._pfaffians(p, q))
            assert len(levels) == n // 2
            for size, (real, imag) in zip(range(2, n + 1, 2), levels):
                subsets = list(itertools.combinations(range(n), size))
                assert len(real) == len(subsets) and (imag is None) is (not gaussian)
                for t, s in enumerate(subsets):
                    pf = GaussianRational(real[t], imag[t] if gaussian else 0)
                    assert pf * pf == linalg.det(_principal(p, q, s))
    # the sign: Pf = m01 m23 - m02 m13 + m03 m12 = 1*6 - 2*5 + 3*4
    m = poisson._skew(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [1, 2, 3, 4, 5, 6])
    assert [real for real, _ in poisson._pfaffians(m)] == [[1, 2, 3, 4, 5, 6], [8]]


@pytest.mark.parametrize("gaussian", [False, True])
def test_the_pfaffian_order_is_the_rank(gaussian):
    rng = random.Random(41)
    for n in range(11):
        for count in range(6):
            p, q = _wedges(rng, n, count, gaussian)
            # a zeroed row and column lower the rank of some of the samples
            for a in rng.sample(range(n), n // 4):
                for m in filter(None, (p, q)):
                    m[a] = [0] * n
                    for row in m:
                        row[a] = 0
            assert poisson._pfaffian_order(p, q) == linalg._rank_rows(p, q) <= 2 * count
            if gaussian:  # i p: its Pfaffians of order 2, 6, 10 are purely imaginary
                zero = [[0] * n for _ in range(n)]
                assert poisson._pfaffian_order(zero, p) == linalg._rank_rows(zero, p)


def test_the_pfaffian_plan_lists_every_even_subset_once():
    assert poisson._pfaffian_plan(0) == []
    for n in range(1, 11):
        plan = poisson._pfaffian_plan(n)
        assert poisson._pfaffian_plan(n) is plan
        assert [len(level) for level in plan] == [math.comb(n, k) for k in range(2, n + 1, 2)]
        assert sum(map(len, plan)) == 2 ** (n - 1) - 1
    for m in ([], [[0]]):
        assert poisson._pfaffian_order(m) == poisson._pfaffian_order(m, m) == 0
        assert linalg._rank_rows(m) == linalg._rank_rows(m, m) == 0


def test_the_pfaffian_order_uses_no_elimination(monkeypatch):
    rng = random.Random(43)
    cases = [_wedges(rng, n, count, gaussian) for n in (4, 7, 10)
             for count in (1, 2, 5) for gaussian in (False, True)]
    expected = [linalg._rank_rows(p, q) for p, q in cases]
    for name in ("_eliminate", "_rank_rows", "rank", "rref", "det"):
        monkeypatch.setattr(linalg, name,
                            lambda *a, name=name: pytest.fail(f"_pfaffian_order called {name}"))
    assert [poisson._pfaffian_order(p, q) for p, q in cases] == expected


def _counting(monkeypatch, owner, name, log):
    """Replace ``owner.name`` by a wrapper that appends its arguments to ``log``."""
    inner = getattr(owner, name)

    def wrapper(*args):
        log.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, wrapper)


def test_stratify_evaluates_each_point_once_for_both_routes(monkeypatch, sl2_lp):
    # call counts, not timings: one integer evaluation per point, whose rows
    # both integer kernels read, and no scalar arithmetic in the sample loop
    rows, ranks, pfaffians, scalar_ops = [], [], [], []
    evaluate = PolyBivector._int_matrix_at
    monkeypatch.setattr(PolyBivector, "_int_matrix_at",
                        lambda self, pt: rows.append(evaluate(self, pt)) or rows[-1])
    _counting(monkeypatch, poisson.linalg, "_rank_rows", ranks)
    _counting(monkeypatch, poisson, "_pfaffian_order", pfaffians)
    for name in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                 "__rtruediv__", "__neg__", "__pow__"):
        _counting(monkeypatch, GaussianRational, name, scalar_ops)
    # eval_matrix builds its scalars with linalg._scalars, so linalg holds every _make
    _counting(monkeypatch, poisson.linalg, "_make", scalar_ops)
    rep = stratify_sample(sl2_lp, StratifyConfig(count=12, seed=5, include_points=[[0, 0, 0]]))
    assert rep["sample_count"] == 13 and rep["minor_consistency"]
    assert len(rows) == len(ranks) == len(pfaffians) == 13
    assert all(p is rk[0] is pf[0] and q is rk[1] is pf[1]
               for (p, q, _), rk, pf in zip(rows, ranks, pfaffians))
    assert scalar_ops == []


@st.composite
def bivectors_and_points(draw):
    """A bivector on 1-4 affine or angular variables, with Gaussian
    coefficients over mixed denominators and Laurent terms in the angular
    variables, and a point whose values are ints, Fractions, Gaussian
    rationals or zero."""
    n = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from([AFFINE, ANGULAR]), min_size=n, max_size=n))
    chart = _as_vars([(f"z{i}", kind) for i, kind in enumerate(kinds)])
    part = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    coeff = st.builds(GaussianRational, part, part | st.just(Fraction(0)))
    exps = st.tuples(*(st.integers(-2, 2) if k == ANGULAR else st.integers(0, 2) for k in kinds))
    poly = st.lists(st.tuples(exps, coeff), max_size=3).map(lambda ts: MultiPoly(chart, dict(ts)))
    index = st.integers(0, n - 1)
    keys = st.tuples(index, index).filter(lambda ij: ij[0] != ij[1])
    pi = PolyBivector(chart, draw(st.dictionaries(keys, poly, max_size=2 * n)))
    value = (st.just(0) | st.integers(-3, 3) | part
             | st.builds(GaussianRational, part, part))
    return pi, draw(st.lists(value, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(bivectors_and_points())
def test_integer_evaluator_matches_the_eval_at_route(case):
    pi, point = case
    try:
        expected = evaluation_oracles.eval_matrix_per_entry(pi, point)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            pi.eval_matrix(point)
        return
    got = pi.eval_matrix(point)
    assert got == expected
    assert all(type(x) is GaussianRational for row in got for x in row)


def test_a_zero_value_at_a_negative_power_raises_on_both_routes():
    chart = _as_vars([("w", ANGULAR), "x"])
    w_inv = MultiPoly.monomial(chart, (-1, 0), Q(1, 2))
    pi = PolyBivector(chart, {(0, 1): w_inv + MultiPoly.variable(chart, "x").scale(Q(0, 3))})
    for route in (pi.eval_matrix, functools.partial(evaluation_oracles.eval_matrix_per_entry, pi)):
        with pytest.raises(ZeroDivisionError):
            route([0, 1])
    w = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    assert pi.eval_matrix([w, Fraction(1, 3)]) == \
        evaluation_oracles.eval_matrix_per_entry(pi, [w, Fraction(1, 3)])
    assert pi.eval_matrix([w, 0])[0][1] == Q(1, 2) * w.conjugate()


def test_the_integer_evaluator_is_built_once_per_bivector(monkeypatch, sl2_lp):
    built = []
    _counting(monkeypatch, poisson, "_int_evaluator", built)
    pts = [[1, 2, 3], [Fraction(1, 2), 0, -1], [0, 0, 0]]
    first = [sl2_lp.eval_matrix(pt) for pt in pts]
    assert len(built) == 1
    # a bivector derived by arithmetic gets its own evaluator
    doubled = sl2_lp + sl2_lp
    assert [doubled.eval_matrix(pt) for pt in pts] == \
        [[[x + x for x in row] for row in m] for m in first]
    assert len(built) == 2
    assert [sl2_lp.eval_matrix(pt) for pt in pts] == first and len(built) == 2


def test_a_derived_bivector_evaluates_its_own_components(sl2_lp):
    """A bivector made by +, - or scale from one whose evaluator is built
    inherits none of it: each evaluates to the values of its own entries."""
    pts = [[1, 2, 3], [Fraction(1, 2), 0, -1]]
    sl2_lp.eval_matrix(pts[0])
    other = PolyBivector(sl2_lp.vars, {(0, 1): sl2_lp.component(1, 2)})
    for derived in (sl2_lp + other, -sl2_lp, sl2_lp.scale(3), sl2_lp - other):
        for pt in pts:
            assert derived.eval_matrix(pt) == \
                evaluation_oracles.eval_matrix_per_entry(derived, pt)


def test_jacobi_check_differentiates_each_component_once(monkeypatch):
    # a 6-variable quadratic bivector: both routes run, and no polynomial is
    # differentiated twice by the same variable
    rng = random.Random(17)
    x = generators(*(f"x{i + 1}" for i in range(6)))
    pi = PolyBivector(x[0].vars, {
        (i, j): sum((x[a] * x[b] * rng.choice([-3, -2, -1, 1, 2, 3])
                     for a, b in rng.sample(list(itertools.combinations_with_replacement(range(6), 2)), 2)),
                    MultiPoly.zero(x[0].vars))
        for i in range(6) for j in range(i + 1, 6)})
    derivatives, routes = [], []
    _counting(monkeypatch, MultiPoly, "_derivative", derivatives)
    _counting(monkeypatch, poisson, "jacobiator", routes)
    _counting(monkeypatch, poisson, "_frame_products", routes)
    rep = jacobi_check(pi)
    assert len(routes) == 2 and rep["routes_consistent"]
    keys = [(id(p), name) for p, name in derivatives]
    assert len(keys) == len(set(keys))
    # only the 15 stored components, each by at most the 6 variables
    assert len(keys) <= 15 * 6


def _jacobi_cases() -> list:
    """Seeded bivectors with both Jacobi verdicts: Lie-Poisson, log-canonical
    and random quadratic ones for n = 3..6, and Laurent ones in an angular
    variable."""
    from conftest import filiform4, random_constant_algebra, sl2_sl2

    rng = random.Random(61)
    cases = [lie_poisson(lie.sl2()), lie_poisson(filiform4()), lie_poisson(sl2_sl2())]
    for n in range(3, 7):
        x = generators(*(f"x{i + 1}" for i in range(n)))
        pairs = list(itertools.combinations(range(n), 2))
        cases.append(lie_poisson(random_constant_algebra(rng, n)))
        cases.append(PolyBivector(x[0].vars, {(i, j): x[i] * x[j] * rng.randint(-3, 3)
                                              for i, j in pairs}))
        cases.append(PolyBivector(x[0].vars, {
            (i, j): x[rng.randrange(n)] * x[rng.randrange(n)] * rng.choice([-2, -1, 1, 2])
            for i, j in pairs}))
    vs = _as_vars(["x", "y", ("th", ANGULAR)])
    x, _, w = (MultiPoly.variable(vs, v.name) for v in vs)
    w_inv = MultiPoly.monomial(vs, (0, 0, -1), Q(0, 2))
    cases.append(PolyBivector(vs, {(0, 1): w + w_inv}))              # d_x^d_y by a function of th
    cases.append(PolyBivector(vs, {(0, 1): w + w_inv, (1, 2): x * w}))
    return cases


def test_the_early_jacobi_verdict_is_the_schouten_square_verdict():
    verdicts = set()
    for pi in _jacobi_cases():
        rep = jacobi_check(pi)
        square_zero = schouten(pi, pi).is_zero()
        assert rep["routes_consistent"] and rep["passed"] == square_zero
        verdicts.add(square_zero)
    assert verdicts == {True, False}


def _frames_summed(monkeypatch, pi) -> tuple:
    """``jacobi_check(pi)`` and the number of Schouten frames it sums: its
    ``sum_of_products`` calls, with the cyclic route replaced by its value."""
    cyc = jacobiator(pi)
    calls = []
    inner = MultiPoly.sum_of_products
    with monkeypatch.context() as m:
        m.setattr(poisson, "jacobiator", lambda _: cyc)
        m.setattr(MultiPoly, "sum_of_products",
                  staticmethod(lambda chart, products: calls.append(chart) or inner(chart, products)))
        rep = jacobi_check(pi)
    return rep, len(calls)


def test_jacobi_check_sums_frames_up_to_the_first_nonzero_one(monkeypatch):
    seen = set()
    for pi in _jacobi_cases():
        rep, summed = _frames_summed(monkeypatch, pi)
        frames = list(poisson._frame_products(pi, pi).values())
        nonzero = [k for k, products in enumerate(frames)
                   if not MultiPoly.sum_of_products(pi.vars, products).is_zero()]
        assert rep["passed"] is not bool(nonzero)
        # a Poisson bivector sums every frame, any other up to its first nonzero one
        assert summed == (nonzero[0] + 1 if nonzero else len(frames))
        seen.add((rep["passed"], summed < len(frames)))
    assert seen == {(True, False), (False, True), (False, False)}


def test_jacobi_routes_disagree_when_one_route_is_wrong(monkeypatch):
    # negative controls: a cyclic route that reads zero, and a Schouten square
    # with no frame, on a non-Poisson bivector
    bad = [pi for pi in _jacobi_cases() if not jacobiator(pi).is_zero()][-1]
    with monkeypatch.context() as m:
        m.setattr(poisson, "jacobiator", lambda pi: PolyMultiVector(pi.vars, 3, {}))
        rep = jacobi_check(bad)
    assert rep["passed"] and rep["routes_consistent"] is False
    with monkeypatch.context() as m:
        m.setattr(poisson, "_frame_products", lambda A, B: {})
        rep = jacobi_check(bad)
    assert not rep["passed"] and rep["routes_consistent"] is False


def test_casimir(sl2_lp, plane):
    mu = [MultiPoly.variable(sl2_lp.vars, v.name) for v in sl2_lp.vars]
    K = mu[0] ** 2 - mu[1] ** 2 + mu[2] ** 2
    assert casimir_check(sl2_lp, MultiPoly.zero(sl2_lp.vars) + K)
    assert casimir_check(plane, MultiPoly.constant(("x", "y"), 3))
    x, _ = generators("x", "y")
    assert not casimir_check(plane, x)


def test_casimir_solver_oracle(sl2_lp):
    """Solve pi_sharp(df) = 0 over quadratics: the kernel is spanned by the
    expected signed quadratic."""
    from poissonkit import linalg
    from poissonkit.scalars import GaussianRational

    mu = [MultiPoly.variable(sl2_lp.vars, v.name) for v in sl2_lp.vars]
    basis = [mu[0] ** 2, mu[1] ** 2, mu[2] ** 2, mu[0] * mu[1], mu[0] * mu[2], mu[1] * mu[2]]
    fields = [hamiltonian_field(sl2_lp, b) for b in basis]
    # collect linear conditions: coefficients of every monomial of every component
    keys = set()
    for f in fields:
        for comp in f.comps.values():
            keys.update(comp.terms)
    rows = []
    for comp_idx in range(3):
        for key in sorted(keys):
            rows.append(
                [f.component(comp_idx).terms.get(key, GaussianRational(0)) for f in fields]
            )
    null = linalg.nullspace(rows)
    assert len(null) == 1
    v = null[0]
    scale = v[0]
    normalized = [x / scale for x in v]
    assert normalized == [Q(1), Q(-1), Q(1), Q(0), Q(0), Q(0)]


def test_flow_oscillator(plane):
    vs = ("x", "y")
    x, y = generators(*vs)
    f = (x * x + y * y).scale(Q("1/2"))
    traj = hamiltonian_flow(plane, f, [1.0, 0.0], 1e-3, 10000)
    assert traj.f_drift < 1e-9
    assert abs(traj.points[-1][0] - math.cos(10.0)) < 1e-6
    assert abs(traj.points[-1][1] - math.sin(10.0)) < 1e-6
    assert all(r == 2 for _, r in traj.ranks)


def test_flow_casimir_constant(sl2_lp):
    mu = [MultiPoly.variable(sl2_lp.vars, v.name) for v in sl2_lp.vars]
    K = MultiPoly.zero(sl2_lp.vars) + mu[0] ** 2 - mu[1] ** 2 + mu[2] ** 2
    # the flow of a casimir is stationary
    traj = hamiltonian_flow(sl2_lp, K, [1.0, 0.5, 0.25], 1e-2, 100)
    assert max(abs(a - b) for p in traj.points for a, b in zip(p, traj.points[0])) < 1e-14
    # a linear hamiltonian conserves the casimir
    traj2 = hamiltonian_flow(
        sl2_lp, MultiPoly.variable(sl2_lp.vars, "mu1"), [1.0, 0.01, -0.005], 1e-3, 10000,
        casimirs={"K": K},
    )
    assert traj2.casimir_drift["K"] < 1e-8


def test_flow_guards(plane):
    vs = ("x", "y")
    x, y = generators(*vs)
    with pytest.raises(ValueError):
        hamiltonian_flow(plane, x, [0.0, 0.0], 0.0, 10)
    # divergence truncation: exponential growth against a tiny bound
    grow = PolyBivector(vs, {(0, 1): MultiPoly.constant(vs, 1)})
    f = (x * y).scale(Q(1))
    traj = hamiltonian_flow(grow, f, [2.0, 2.0], 0.1, 500, divergence_bound=10.0)
    assert traj.truncated


@pytest.mark.parametrize("dt, bound", [
    (float("nan"), 1e9), (float("inf"), 1e9), (-1e-3, 1e9),
    (1e-3, float("nan")), (1e-3, float("inf")),
])
def test_flow_rejects_a_non_finite_step_or_bound(plane, dt, bound):
    x, _ = generators("x", "y")
    with pytest.raises(ValueError):
        hamiltonian_flow(plane, x, [1.0, 0.0], dt, 10, divergence_bound=bound)


@pytest.mark.parametrize("bound", [1e300, 1e9])
def test_flow_that_turns_nan_is_truncated(sl2_lp, bound):
    mu1, mu2, mu3 = generators(*(v.name for v in sl2_lp.vars))
    f = mu2 ** 3 + mu1 ** 2 * mu3
    traj = hamiltonian_flow(sl2_lp, f, [1.0, 0.5, -0.25], 0.5, 200, divergence_bound=bound)
    assert traj.truncated
    assert all(math.isfinite(v) and abs(v) <= bound for p in traj.points for v in p)


def test_rank_sample_where_the_float_matrix_overflows_is_exact():
    vs = ("x", "y")
    x, y = generators(*vs)
    zero = MultiPoly.zero(vs)
    # at (1e200, 1e200) x*y overflows to inf in a float product and x**2 in
    # complex **, but the exact rank at the float point is 2
    for entry in (x * y, x * x):
        pi = PolyBivector(vs, {(0, 1): entry})
        traj = hamiltonian_flow(pi, zero, [1e200, 1e200], 0.1, 10, divergence_bound=1e300)
        assert not traj.truncated and len(traj.points) == 11
        assert traj.ranks == [(i, 2) for i in range(11)]
        assert all(line.endswith(",2") for line in traj.to_csv().splitlines()[1:])


def test_the_golden_flow_ranks_are_the_numpy_svd_ranks():
    # numpy as an oracle: the SVD rank, with the tolerance the flow once used,
    # equals the exact rank at each of the sample bundle's 11 rank samples
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "bundles", "sample.json")
    bundle = load_bundle(path)
    flow = bundle.flow
    pi = bundle.bivectors[flow["bivector"]]
    traj = hamiltonian_flow(pi, flow["hamiltonian"], flow["x0"], flow["dt"], flow["steps"],
                            casimirs=flow["casimirs"])
    assert len(traj.ranks) == poisson.FLOW_RANK_SAMPLES
    for idx, rank in traj.ranks:
        m = np.array([[float(v.re) for v in row]
                      for row in pi.eval_matrix([Fraction(x) for x in traj.points[idx]])])
        assert np.linalg.matrix_rank(m, tol=1e-8 * (1.0 + np.abs(m).max())) == rank


def _random_integer_poly(rng, vs, max_deg=6, max_terms=4, coeffs=(-3, -2, -1, 1, 2, 3)):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_deg)
        exp = [0] * len(vs)
        for _ in range(deg):
            exp[rng.randrange(len(vs))] += 1
        terms[tuple(exp)] = rng.choice(coeffs)
    return MultiPoly(vs, terms)


def test_compiled_power_overflows_to_the_infinity_of_float64():
    vs = ("x", "y")
    x, y = generators(*vs)
    zero = MultiPoly.zero(vs)
    polys = [x ** e for e in range(1, 8)] + [(x ** 3 * y ** 2).scale(-3), x * x - y ** 5]
    values = [0.0, -0.0, 1e-300, -1e-300, -2.5, 1e200, -1e200, 1e300, -1e300]
    with np.errstate(all="ignore"):
        for p in polys:
            # a zero field: the generated run evaluates p before its loop and again after step 1
            run = poisson._flow_run([zero, zero], [p], vs, 1.0, math.inf)
            old = flow_oracle._compile_float(p, vs)
            for point in itertools.product(values, repeat=2):
                (c0, c1), (w,), _ = run(*point, 1)
                assert repr(w[0]) == repr(float(old(np.array(point))))
                assert repr(w[1]) == repr(float(old(np.array([c0[1], c1[1]]))))


def test_flow_is_bit_identical_to_the_numpy_oracle():
    """The float-list RK4 loop reproduces the NumPy float64 loop of
    ``flow_oracle`` bit for bit wherever that loop's trajectory stays finite."""
    rng = random.Random(1414)
    compared = truncated = power_overflows = 0
    for n in (2, 3, 4):
        vs = tuple(f"x{i}" for i in range(n))
        for dt in (1e-3, 1e-2, 0.3, 2.0):
            for bound in (10.0, 1e9):
                for _ in range(4):
                    pi = PolyBivector(vs, {(i, j): _random_integer_poly(rng, vs)
                                           for i in range(n) for j in range(i + 1, n)})
                    f = _random_integer_poly(rng, vs)
                    cas = {"c": _random_integer_poly(rng, vs)}
                    x0 = [rng.choice([Fraction(rng.randint(-8, 8), 4), rng.uniform(-2, 2)])
                          for _ in range(n)]
                    new = hamiltonian_flow(pi, f, x0, dt, 30, casimirs=cas, divergence_bound=bound)
                    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
                        warnings.simplefilter("always")
                        try:
                            old = flow_oracle.hamiltonian_flow(pi, f, x0, dt, 30, casimirs=cas,
                                                               divergence_bound=bound)
                        except (ValueError, OverflowError):   # a rank sample at a NaN state
                            old = None
                    if old is None or not all(map(math.isfinite, itertools.chain(*old.points))):
                        # the oracle went on through a NaN state, the fast path stops before it
                        assert new.truncated
                        continue
                    compared += 1
                    truncated += old.truncated
                    power_overflows += any("overflow encountered in scalar power" in str(w.message)
                                           for w in caught)
                    assert [[repr(v) for v in p] for p in new.points] == \
                        [[repr(float(v)) for v in p] for p in old.points]
                    assert [repr(v) for v in new.times] == [repr(float(v)) for v in old.times]
                    assert [repr(v) for v in new.f_values] == [repr(float(v)) for v in old.f_values]
                    assert [repr(v) for v in new.casimir_values["c"]] == \
                        [repr(float(v)) for v in old.casimir_values["c"]]
                    assert repr(new.f_drift) == repr(old.f_drift)
                    assert repr(new.casimir_drift["c"]) == repr(old.casimir_drift["c"])
                    assert new.ranks == old.ranks and new.truncated == old.truncated
    assert compared >= 60 and truncated >= 10 and power_overflows >= 1


def test_flow_without_identity_operations_is_bit_identical_to_the_numpy_oracle():
    """Fields with an exactly zero component, coefficients +-1 and +-1/3 and
    start points with signed zeros, through the code without identity
    operations, against the NumPy loop that keeps every one of them."""

    def floats(traj):
        return [[repr(float(v)) for v in col] for col in (
            *traj.coordinates, traj.times, traj.f_values, traj.casimir_values["c"],
            [traj.f_drift, traj.casimir_drift["c"]])]

    rng = random.Random(3303)
    coeffs = (-1, 1, -1, 1, Fraction(1, 3), Fraction(-1, 3), 2)
    compared = truncated = 0
    for n in (2, 3, 4):
        vs = tuple(f"x{i}" for i in range(n))
        for dt in (1e-2, 0.3, 2.0):
            for bound in (10.0, 1e9):
                for _ in range(5):
                    # no entry of pi in row z, so component z of X_f is the zero polynomial
                    z = rng.randrange(n)
                    pi = PolyBivector(vs, {(i, j): _random_integer_poly(rng, vs, 3, 3, coeffs)
                                           for i in range(n) for j in range(i + 1, n)
                                           if z not in (i, j)})
                    f = _random_integer_poly(rng, vs, 3, 4, coeffs)
                    cas = {"c": _random_integer_poly(rng, vs, 3, 4, coeffs)}
                    x0 = [rng.choice([0.0, -0.0, Fraction(rng.randint(-8, 8), 4),
                                      rng.uniform(-2, 2)]) for _ in range(n)]
                    assert hamiltonian_field(pi, f).component(z).is_zero()
                    new = hamiltonian_flow(pi, f, x0, dt, 30, casimirs=cas, divergence_bound=bound)
                    with np.errstate(all="ignore"):
                        try:
                            old = flow_oracle.hamiltonian_flow(pi, f, x0, dt, 30, casimirs=cas,
                                                               divergence_bound=bound)
                        except (ValueError, OverflowError):   # a rank sample at a NaN state
                            old = None
                    if old is None or not all(map(math.isfinite, itertools.chain(*old.points))):
                        assert new.truncated    # the oracle went on through a NaN state
                        continue
                    compared += 1
                    truncated += old.truncated
                    assert floats(new) == floats(old)
                    assert new.ranks == old.ranks and new.truncated == old.truncated
    assert compared >= 60 and truncated >= 5


def test_the_sample_flow_code_has_no_identity_operation(monkeypatch):
    # counts over the generated text and the formatted values, not timings
    sources, formatted = [], []
    exec_flow = poisson._exec_flow

    def recording(source, **env):
        sources.append(source)
        return exec_flow(source, **env)

    monkeypatch.setattr(poisson, "_exec_flow", recording)
    monkeypatch.setattr(poisson, "repr", lambda x: formatted.append(x) or repr(x), raising=False)
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "bundles", "sample.json")
    bundle = load_bundle(path)
    flow = bundle.flow
    traj = hamiltonian_flow(bundle.bivectors[flow["bivector"]], flow["hamiltonian"], flow["x0"],
                            flow["dt"], flow["steps"], casimirs=flow["casimirs"])
    (source,) = sources
    assert not re.search(r"(?<![\w.])1\.0 \*", source)    # no 1.0 * nor -1.0 *
    assert not re.search(r"(?<![\w.])2 \*", source)
    assert "0.0 - x2" in source and "sixth * (k0_0 + 2.0 * k1_0 + 2.0 * k2_0 + k3_0)" in source
    # the field (x3, 0, -x1) has no power: its stage block runs once, unguarded
    lines = source.splitlines()
    start = lines.index("    for _ in range(steps):") + 1
    stages = lines[start:next(i for i, ln in enumerate(lines) if ln.lstrip().startswith("if not"))]
    assert not any("try:" in ln or "_pow" in ln for ln in stages)
    # its zero component, index 1 (CSV column x2), has no k lines and moves by + 0.0;
    # no component reads x2, so it has no stage point
    assert not re.search(r"\bk\d_1\b", source)
    assert sum(re.fullmatch(r"\s*k\d_\d = .*", ln) is not None for ln in lines) == 8
    assert [ln.strip() for ln in stages if re.match(r"\s*[xy]1 =", ln)] == ["x1 = x1 + 0.0"]
    # f = x2 and the Casimir repeat themselves: each distinct value is formatted once
    columns = [traj.times, *traj.coordinates, traj.f_values, *traj.casimir_values.values()]
    distinct = [len(set(col)) for col in columns]
    assert distinct[0] == distinct[1] == distinct[3] == len(traj.times) == 10001
    assert distinct[2] == distinct[4] == 1 and distinct[5] < 200
    formatted.clear()
    blocks = list(traj.csv_blocks())
    assert len(formatted) == sum(distinct)
    assert blocks[0] == "step,t,x1,x2,x3,f,quadratic,rank\n"
    assert [b.count("\n") for b in blocks[1:]] == [1024] * 9 + [10001 - 9 * 1024]
    assert "".join(blocks) == traj.to_csv() == flow_oracle.rowwise_csv(traj)


def test_every_flow_column_is_a_packed_float64_array(sl2_lp):
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "bundles", "sample.json")
    bundle = load_bundle(path)
    flow = bundle.flow
    sample = hamiltonian_flow(bundle.bivectors[flow["bivector"]], flow["hamiltonian"], flow["x0"],
                              flow["dt"], flow["steps"], casimirs=flow["casimirs"])
    mu1, mu2, mu3 = generators(*(v.name for v in sl2_lp.vars))
    cut = hamiltonian_flow(sl2_lp, mu2 ** 3 + mu1 ** 2 * mu3, [1.0, 0.5, -0.25], 0.5, 200,
                           casimirs={"K": mu1 * mu1 - mu2 * mu2}, divergence_bound=1e9)
    assert not sample.truncated and len(sample.times) == flow["steps"] + 1
    assert cut.truncated and 1 < len(cut.times) < 201
    for traj in (sample, cut):
        # t, three coordinates, f and one Casimir
        columns = [traj.times, *traj.coordinates, traj.f_values, *traj.casimir_values.values()]
        assert len(columns) == 6
        assert all(type(col) is array and col.typecode == "d" for col in columns)
        assert {len(col) for col in columns} == {traj.summary()["steps"] + 1}
        assert all(type(p) is list for p in traj.points)


_POOL = [0.0, -0.0, math.nan, float("nan"), -math.nan, math.inf, -math.inf, 5e-324, 0.1 + 0.2,
         1.5, -2.25, 1e300]


def _fresh(x: float) -> float:
    """A new float object with the bits of ``x``."""
    return struct.unpack("<d", struct.pack("<d", x))[0]


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    # values of a small pool, each as the pool's object or as a fresh one with its bits
    st.lists(st.tuples(st.sampled_from(_POOL), st.booleans()), max_size=300).map(
        lambda vs: [_fresh(x) if copy else x for x, copy in vs]),
    # a few values repeated many times, shuffled, with or without a zero of each sign
    st.tuples(st.lists(st.sampled_from(_POOL), min_size=1, max_size=4),
              st.integers(64, 600), st.sampled_from([[], [0.0], [-0.0], [-0.0, 0.0]]),
              st.randoms()).map(
        lambda a: a[3].sample(a[0] * a[1] + a[2], len(a[0]) * a[1] + len(a[2]))),
    # long columns of distinct values, and a repeat only the full set finds
    st.tuples(st.integers(64, 3000), st.floats(-1e6, 1e6), st.booleans()).map(
        lambda a: [a[1] + 0.5 * i for i in range(a[0])] + [a[1]] * a[2]),
    # shorter than the probe stride
    st.lists(st.sampled_from(_POOL) | st.floats(), max_size=poisson.CSV_PROBE_STRIDE - 1),
))
def test_a_column_is_formatted_as_the_repr_of_each_value(col):
    assert list(poisson._column_text(col)) == list(map(repr, col))


def test_a_repeating_array_column_with_a_nan_is_formatted_as_its_repr():
    # a Casimir whose value overflows can read inf - inf; an array('d') gives a
    # fresh float on every read, so no table of its values can find a NaN
    col = array("d", [1.5, math.nan, -2.25, 1.5, math.inf - math.inf, 1.5] * 100)
    count = len(col)
    traj = poisson.Trajectory(
        times=array("d", [0.5 * s for s in range(count)]),
        coordinates=[array("d", [1.0] * count)], f_values=col,
        casimir_values={"c": array("d", [2.0, -math.nan, 2.0] * 200)},
        ranks=[(0, 0)], f_drift=0.0, casimir_drift={"c": 0.0}, truncated=False)
    assert traj.to_csv() == flow_oracle.rowwise_csv(traj)


def _on_chart(p: MultiPoly, names) -> MultiPoly:
    """``p`` with its variables renamed, position by position."""
    return MultiPoly(names, p.terms)


def test_variable_names_do_not_reach_the_generated_flow_code(monkeypatch):
    sources = []
    exec_flow = poisson._exec_flow

    def recording(source, **env):
        sources.append(source)
        return exec_flow(source, **env)

    monkeypatch.setattr(poisson, "_exec_flow", recording)
    rng = random.Random(15)
    base = ("x1", "x2", "x3", "x4")
    pi = PolyBivector(base, {(i, j): _random_integer_poly(rng, base, max_deg=2)
                             for i in range(4) for j in range(i + 1, 4)})
    f, c = _random_integer_poly(rng, base, max_deg=3), _random_integer_poly(rng, base, max_deg=3)
    x0 = [0.5, -0.25, 0.75, 1.0]
    runs = []
    for names in (base, ("_pow", "x0", "steps", "lambda"), ("abs", "bound", "c0", "run"),
                  base[::-1]):
        sources.clear()
        traj = hamiltonian_flow(
            PolyBivector(names, {k: _on_chart(p, names) for k, p in pi.comps.items()}),
            _on_chart(f, names), x0, 1e-2, 50, casimirs={"c": _on_chart(c, names)})
        assert not traj.truncated
        runs.append((traj.to_csv(), repr(traj.summary()), list(sources)))
    assert all(run == runs[0] for run in runs)
    (source,) = runs[0][2]
    words = {tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.NAME}
    # besides the generated locals x0.., y0.., k0_0.., v0.. and the columns c0.., w0..
    # with their appenders, only these names
    other = {w for w in words if not re.fullmatch(r"[xyv]\d+|k\d_\d+|[cw]\d+(_append)?", w)}
    assert other <= {"def", "run", "steps", "try", "except", "OverflowError", "_pow", "for",
                     "_", "in", "range", "if", "not", "and", "abs", "bound", "truncated", "True",
                     "False", "break", "half", "dt", "sixth", "return", "s", "len",
                     "append", "array"}, other


def test_package_calls_of_a_flow_do_not_grow_with_steps():
    # a call count, not a timing: the whole RK4 loop is one call of the
    # generated run function.  Each run loads the bundle afresh, outside the
    # profile, so it starts from polynomials with no memoized derivatives.
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "bundles", "sample.json")
    package = os.path.dirname(poissonkit.__file__)

    def calls(steps):
        bundle = load_bundle(path)
        flow = bundle.flow
        profile = cProfile.Profile()
        profile.enable()
        traj = hamiltonian_flow(bundle.bivectors[flow["bivector"]], flow["hamiltonian"],
                                flow["x0"], flow["dt"], steps, casimirs=flow["casimirs"])
        profile.disable()
        assert not traj.truncated and len(traj.points) == steps + 1
        return sum(stat[1] for func, stat in pstats.Stats(profile).stats.items()
                   if func[0].startswith(package) or func[0] == poisson.FLOW_SOURCE)

    assert calls(400) == calls(200)


def test_a_flow_holds_at_its_peak_little_more_than_it_returns():
    # the trajectory is packed float64 columns, and no list of one float per
    # step is alive while they fill: at 50,000 steps the columns hold 2.5 MB
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "bundles", "sample.json")
    bundle = load_bundle(path)
    flow = bundle.flow
    args = bundle.bivectors[flow["bivector"]], flow["hamiltonian"], flow["x0"], flow["dt"]
    # a short flow first, untraced, memoizes what every flow of the bundle reads
    hamiltonian_flow(*args, 10, casimirs=flow["casimirs"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = hamiltonian_flow(*args, 50_000, casimirs=flow["casimirs"])
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not traj.truncated
    assert peak - before <= 1.25 * (after - before), (peak - before, after - before)


def _recording_pow(monkeypatch):
    """Record every call of ``poisson._pow`` by a flow built after this call."""
    calls = []
    pow_ = poisson._pow

    def recording(x, e):
        calls.append((x, e))
        return pow_(x, e)

    monkeypatch.setattr(poisson, "_pow", recording)
    return calls


def _same_bits(new, old):
    for a, b in [(new.times, old.times), (new.f_values, old.f_values), *(
            (new.casimir_values[k], old.casimir_values[k]) for k in new.casimir_values)]:
        assert [repr(v) for v in a] == [repr(float(v)) for v in b]
    assert [[repr(v) for v in p] for p in new.points] == \
        [[repr(float(v)) for v in p] for p in old.points]
    assert new.ranks == old.ranks and new.truncated == old.truncated


def test_a_power_overflow_after_step_0_redoes_that_step_only(monkeypatch):
    # pi = x^2 d_x^d_y and f = y give x' = -x^2, y' = 0: x runs to -inf in finite
    # time, and the first x**2 that overflows is at a step after step 0
    vs = ("x", "y")
    x, y = generators(*vs)
    pi = PolyBivector(vs, {(0, 1): x * x})
    calls = _recording_pow(monkeypatch)
    traj = hamiltonian_flow(pi, y, [-1.5, 1.0], 0.01, 500, divergence_bound=1e300)
    kept = len(traj.times) - 1
    assert traj.truncated and kept > 1
    # one redo of the one step body, whose four stages hold one power each
    assert len(calls) == 4 and calls[0] == (traj.points[-1][0], 2)
    with np.errstate(all="ignore"):
        _same_bits(traj, flow_oracle.hamiltonian_flow(pi, y, [-1.5, 1.0], 0.01, 500,
                                                      divergence_bound=1e300))
    calls.clear()
    before = hamiltonian_flow(pi, y, [-1.5, 1.0], 0.01, kept, divergence_bound=1e300)
    assert not calls and not before.truncated
    assert [[repr(v) for v in p] for p in before.points] == \
        [[repr(v) for v in p] for p in traj.points]


def test_a_value_overflow_after_step_0_redoes_those_values_only(monkeypatch, plane):
    # on the oscillator from (0, 40), x**200 overflows while |x| > 34.7, from a
    # step after step 0 on, and the trajectory goes on through it
    vs = ("x", "y")
    x, y = generators(*vs)
    f = (x * x + y * y).scale(Q("1/2"))
    calls = _recording_pow(monkeypatch)
    traj = hamiltonian_flow(plane, f, [0.0, 40.0], 0.05, 200, casimirs={"c": x ** 200})
    c = traj.casimir_values["c"]
    overflowed = [s for s, v in enumerate(c) if v == math.inf]
    assert overflowed[0] > 0 and len(overflowed) < len(c) and not traj.truncated
    assert c[overflowed[-1] + 1] < math.inf
    # f and c hold three powers: one redo of the values body per overflowing point
    assert len(calls) == 3 * len(overflowed)
    with np.errstate(all="ignore"):
        _same_bits(traj, flow_oracle.hamiltonian_flow(plane, f, [0.0, 40.0], 0.05, 200,
                                                      casimirs={"c": x ** 200}))
    assert hamiltonian_flow(plane, f, [0.0, 40.0], 0.05, 200).points == traj.points


def test_the_column_csv_is_the_rowwise_csv_of_the_stepwise_route():
    rng = random.Random(2207)
    truncated = 0
    for n in (2, 3, 4):
        vs = tuple(f"x{i}" for i in range(n))
        for ncas in (0, 1, 2):
            for dt, bound in ((1e-2, 1e9), (0.3, 10.0), (2.0, 1e9)):
                pi = PolyBivector(vs, {(i, j): _random_integer_poly(rng, vs, max_deg=3)
                                       for i in range(n) for j in range(i + 1, n)})
                f = _random_integer_poly(rng, vs, max_deg=3)
                cas = {f"c{j}": _random_integer_poly(rng, vs, max_deg=3) for j in range(ncas)}
                x0 = [rng.uniform(-2, 2) for _ in range(n)]
                new = hamiltonian_flow(pi, f, x0, dt, 40, casimirs=cas, divergence_bound=bound)
                old = flow_oracle.stepwise_flow(pi, f, x0, dt, 40, casimirs=cas,
                                                divergence_bound=bound)
                truncated += new.truncated
                assert new.to_csv() == flow_oracle.rowwise_csv(old) == flow_oracle.rowwise_csv(new)
                assert repr(new.summary()) == repr(old.summary())
    assert truncated >= 3
    # exact rank samples where the float matrix is not finite
    vs = ("x", "y")
    x, y = generators(*vs)
    pi = PolyBivector(vs, {(0, 1): x * y})
    traj = hamiltonian_flow(pi, MultiPoly.zero(vs), [1e200, 1e200], 0.1, 10,
                            divergence_bound=1e300)
    assert traj.ranks == [(i, 2) for i in range(11)]
    assert traj.to_csv() == flow_oracle.rowwise_csv(traj)
    # values that no flow of the package makes, formatted alike
    traj = poisson.Trajectory(
        times=[0.0, 0.5, 1.0], coordinates=[[-0.0, 1e-320, -math.inf], [math.nan, 2.5, 0.0]],
        f_values=[-0.0, math.inf, -math.inf], casimir_values={"a": [math.nan, -0.0, 1e300]},
        ranks=[(0, 2), (2, 0)], f_drift=0.0, casimir_drift={"a": 0.0}, truncated=False)
    assert traj.to_csv() == flow_oracle.rowwise_csv(traj)
    assert [[repr(v) for v in p] for p in traj.points] == \
        [["-0.0", "nan"], ["1e-320", "2.5"], ["-inf", "0.0"]]


@pytest.mark.parametrize("pi_coeff, f_coeff, c_coeff", [
    (1, 10 ** 400, 1), (1, 1, 10 ** 400), (10 ** 200, 10 ** 200, 1),
], ids=["hamiltonian", "casimir", "field"])
def test_a_flow_coefficient_too_large_for_a_float_is_a_value_error(pi_coeff, f_coeff, c_coeff):
    vs = ("x", "y")
    x, y = generators(*vs)
    pi = PolyBivector(vs, {(0, 1): MultiPoly.constant(vs, pi_coeff)})
    with pytest.raises(ValueError, match="too large for a float"):
        hamiltonian_flow(pi, (x * y).scale(Q(f_coeff)), [1.0, 0.0], 1e-3, 10,
                         casimirs={"c": x.scale(Q(c_coeff))})


def test_bivector_json(sl2_lp):
    d = sl2_lp.to_json()
    back = PolyBivector.from_json(d)
    for i in range(3):
        for j in range(3):
            assert (back.component(i, j) - sl2_lp.component(i, j)).is_zero()
