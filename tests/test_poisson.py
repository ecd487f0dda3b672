import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import flow_oracle
from poissonkit import lie, poisson
from poissonkit.poisson import (
    PolyBivector,
    PolyOneForm,
    PolyVectorField,
    StratifyConfig,
    bracket_fn,
    casimir_check,
    compare_one_form_conventions,
    differential,
    hamiltonian_field,
    hamiltonian_flow,
    pairing_identity_check,
    jacobi_check,
    lie_derivative_bivector,
    lie_poisson,
    max_rank_from_minors,
    one_form_bracket,
    r_k,
    rank_at,
    stratify_sample,
)
from poissonkit.poly import MultiPoly, generators
from poissonkit.scalars import Q


def test_sharp_anchor(plane):
    vs = ("x", "y")
    x, y = generators(*vs)
    assert str(plane.sharp(differential(x, vs))) == "(1) d_y"
    assert plane.sharp(PolyOneForm(vs, (MultiPoly.zero(vs), MultiPoly.zero(vs)))).is_zero()
    pix = PolyBivector(vs, {(0, 1): x})
    s = pix.sharp(differential(y, vs))
    assert s.component(0) == -x and s.component(1).is_zero()


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
    assert jacobi_check(anything).ok  # no trivectors in two variables
    lp = lie_poisson(lie.sl2())
    assert jacobi_check(lp).ok
    vs3 = ("x1", "x2", "x3")
    x1, x2, x3 = generators(*vs3)
    bad = PolyBivector(vs3, {(0, 1): x3, (1, 2): x2})
    rep = jacobi_check(bad)
    assert not rep.ok and rep.routes_consistent
    assert rep.residual.component(0, 1, 2) == -(MultiPoly.zero(vs3) + x3)


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
        assert jacobi_check(lie_poisson(L)).ok == L.check_jacobi().ok


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
    assert rep.match_verbatim  # the two displays agree on exact forms
    pix = PolyBivector(vs, {(0, 1): x})
    alpha = PolyOneForm(vs, (y, MultiPoly.zero(vs)))
    beta = PolyOneForm(vs, (MultiPoly.zero(vs), x))
    rep2 = compare_one_form_conventions(pix, alpha, beta)
    assert not rep2.match_verbatim  # and differ on general one-forms


def test_degree_one_fields_print_and_check_their_length():
    # printed forms recorded while vector fields and one-forms had their own classes
    vs = ("x", "y")
    x, y = generators(*vs)
    zero = MultiPoly.zero(vs)
    pix = PolyBivector(vs, {(0, 1): x})
    rep = compare_one_form_conventions(pix, PolyOneForm(vs, (y, zero)), PolyOneForm(vs, (zero, x)))
    assert rep.to_json()["difference"] == "(-2*x*y) dx + (-2*x^2) dy"
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
    assert pairing_identity_check(plane, zero, alpha, alpha).corrected_holds
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
        corrected += rep.corrected_holds
        verbatim += rep.verbatim_holds
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
        assert rank_at(pi, p) == max_rank_from_minors(pi, p)


def test_stratify(sl2_lp):
    sym4 = PolyBivector.constant_symplectic(4)
    rep = stratify_sample(sym4, StratifyConfig(count=100, seed=1))
    assert rep.histogram == {4: 100}
    assert rep.minor_consistency and rep.max_rank_dominates

    rep2 = stratify_sample(sl2_lp, StratifyConfig(count=1000, seed=2))
    assert rep2.minor_consistency
    assert set(rep2.histogram) <= {0, 2}
    assert rep2.histogram.get(2, 0) >= 999  # rank drops only at the origin

    vs = ("x", "y")
    x, _ = generators(*vs)
    pix = PolyBivector(vs, {(0, 1): x})
    rep3 = stratify_sample(
        pix, StratifyConfig(count=50, seed=3, include_points=[[0, 1], [1, 1]])
    )
    assert 0 in rep3.histogram and 2 in rep3.histogram


def test_stratify_at_n_8():
    rep = stratify_sample(PolyBivector.constant_symplectic(8), StratifyConfig(count=10, seed=1))
    assert rep.histogram == {8: 10} and rep.minor_consistency

    # log-canonical x_i x_j q_ij d_i^d_j: Poisson for every constant q, of rank
    # 8 off the coordinate hyperplanes and lower on them
    x = generators(*(f"x{i+1}" for i in range(8)))
    pi = PolyBivector(x[0].vars, {(i, j): x[i] * x[j] * ((i + 2 * j) % 5 - 2)
                                  for i in range(8) for j in range(i + 1, 8)})
    cfg = StratifyConfig(count=30, seed=4, scale=2, denom_power=1)
    rep = stratify_sample(pi, cfg)
    assert rep.minor_consistency
    rng = random.Random(cfg.seed)
    points = [[Fraction(rng.randint(-cfg.scale, cfg.scale), 2 ** rng.randint(0, cfg.denom_power))
               for _ in range(8)] for _ in range(cfg.count)]
    expected: dict = {}
    for p in points:
        r = rank_at(pi, p)
        expected[r] = expected.get(r, 0) + 1
    assert rep.histogram == expected
    assert 8 in expected and len(expected) > 1


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


def test_rank_sample_with_a_non_finite_matrix_has_no_rank():
    vs = ("x", "y")
    x, y = generators(*vs)
    zero = MultiPoly.zero(vs)
    # x*y overflows to inf in a float product, x**2 raises OverflowError in complex **
    for entry in (x * y, x * x):
        pi = PolyBivector(vs, {(0, 1): entry})
        traj = hamiltonian_flow(pi, zero, [1e200, 1e200], 0.1, 10, divergence_bound=1e300)
        assert not traj.truncated and len(traj.points) == 11
        assert traj.ranks == []
        assert all(line.endswith(",") for line in traj.to_csv().splitlines()[1:])


def _random_integer_poly(rng, vs, max_deg=6, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_deg)
        exp = [0] * len(vs)
        for _ in range(deg):
            exp[rng.randrange(len(vs))] += 1
        terms[tuple(exp)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return MultiPoly(vs, terms)


def test_compiled_power_overflows_to_the_infinity_of_float64():
    vs = ("x", "y")
    x, y = generators(*vs)
    polys = [x ** e for e in range(1, 8)] + [(x ** 3 * y ** 2).scale(-3), x * x - y ** 5]
    values = [0.0, -0.0, 1e-300, -1e-300, -2.5, 1e200, -1e200, 1e300, -1e300]
    with np.errstate(all="ignore"):
        for p in polys:
            new, old = poisson._compile_float(p, vs), flow_oracle._compile_float(p, vs)
            for point in itertools.product(values, repeat=2):
                assert repr(new(list(point))) == repr(float(old(np.array(point))))


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
                        except np.linalg.LinAlgError:   # a rank sample at a NaN state
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


def test_bivector_json(sl2_lp):
    d = sl2_lp.to_json()
    back = PolyBivector.from_json(d)
    for i in range(3):
        for j in range(3):
            assert (back.component(i, j) - sl2_lp.component(i, j)).is_zero()
