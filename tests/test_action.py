import itertools
import json
import random
from fractions import Fraction

import pytest

from poissonkit import action as A
from poissonkit import lie, linalg
from poissonkit.bialgebra import RMatrix, dual_algebra_from_r
from poissonkit.poisson import PolyBivector, lie_poisson
from poissonkit.poly import MultiPoly, generators
from poissonkit.scalars import GaussianRational, I, Q, ZERO, ONE

import action_oracles
import evaluation_oracles
import composition_oracles
from conftest import book3, filiform4, gl2, rand_point, rand_poly, sl2_sl2


def plane_points(rng, count, scale=5):
    from conftest import rand_point

    return [rand_point(rng, 2, scale=scale) for _ in range(count)]


def test_printed_infinitesimal_fields():
    act = A.sl2_plane_action(0, 2, 0, 1)
    x1, x2 = generators("x1", "x2")
    half = Q("1/2")
    f1, f2, f3 = act.fields()
    assert f1.component(0) == x1.scale(half) and f1.component(1) == x2.scale(-half)
    assert f2.component(0) == x2.scale(half) and f2.component(1) == x1.scale(-half)
    assert f3.component(0) == x2.scale(half) and f3.component(1) == x1.scale(half)
    zero = A.linear_action_fields([linalg.zeros(2, 2)], ("x1", "x2"))[0]
    assert zero.is_zero()


def test_homomorphism_sign():
    act = A.sl2_plane_action(1, 2, 3, 0)
    assert act.homomorphism_sign() == -1
    bun = A.coadjoint_dressing_bundle(lie.sl2(), lie.sl2_defining_matrices())
    assert bun.homomorphism_sign() == 1
    rot = A.rotation_plane_action()
    assert rot.homomorphism_sign() == "abelian"


def test_check_poisson_action(rng):
    act = A.sl2_plane_action(0, 2, 0, 1)
    gs = A.sl2_rational_samples(100, seed=11)
    samples = list(zip(gs, plane_points(rng, 100)))
    assert A.check_poisson_action(act, samples)["passed"]
    # identity: both sides agree because the coboundary vanishes at e
    assert A.check_poisson_action(act, [([[1, 0], [0, 1]], [Fraction(2), Fraction(3)])])["passed"]
    # constant h with a nonzero r-matrix fails at generic samples
    vs = ("x1", "x2")
    bad = A.sl2_plane_action(0, 2, 0, 1)
    bad.bivector = PolyBivector(vs, {(0, 1): MultiPoly.constant(vs, 1)})
    g = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    rep = A.check_poisson_action(bad, [(g, [Fraction(1), Fraction(1)])])
    assert not rep["passed"]
    with pytest.raises(ValueError):
        A.check_poisson_action(act, [([[2, 0], [0, 2]], [Fraction(1), Fraction(0)])])


def test_h_certificates(rng):
    cert = A.solve_h_certificate(0, 0, 4, 1)
    assert cert["passed"] and cert["h"] == "x1^2 + x2^2 + 1"
    cert2 = A.solve_h_certificate(0, 2, 0, 0)
    assert cert2["passed"] and cert2["h"] == "-1*x1*x2"
    cert3 = A.solve_h_certificate(0, 0, 0, 9)
    assert cert3["passed"] and cert3["h"] == "9"
    for _ in range(5):
        lam = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        assert A.solve_h_certificate(*lam, c)["passed"]
    assert action_oracles.numeric_h_residual(0, 2, 0, 1, count=100, seed=1) < 1e-12


@pytest.mark.parametrize("lam, c", [
    ((0, 0, 4), 1), ((0, 2, 0), 0), ((1, 2, 5), 1), ((Fraction(-3, 2), Fraction(1, 3), 7), -2),
    ((0, 0, 0), 9), ((I, 1, Fraction(2, 5)), Fraction(-1, 4)),
])
def test_h_at_gx_matches_the_hand_expansion(lam, c):
    a1, a2, a3, a4, x1, x2 = generators("a1", "a2", "a3", "a4", "x1", "x2")
    gx = [a1 * x1 + a2 * x2, a3 * x1 + a4 * x2]
    assert A.quadratic_h(*lam, c).substitute(gx) == composition_oracles.h_at_gx(*lam, c)


# seeds on which an absolute 1e-12 bound failed: float terms reach about 1e5
@pytest.mark.parametrize("lam, seed", [
    ((1, 2, 5), 0), ((1, 2, 5), 2), ((1, 2, 5), 27), ((1, 2, 5), 124),
    ((0, 2, 0), 0), ((0, 2, 0), 64), ((0, 2, 0), 238),
])
def test_numeric_h_residual_is_relative(lam, seed):
    assert action_oracles.numeric_h_residual(*lam, 1, count=200, seed=seed) < 1e-12


def test_numeric_h_residual_rejects_a_wrong_h(monkeypatch):
    right = A.quadratic_h
    monkeypatch.setattr(A, "quadratic_h", lambda l1, l2, l3, c, **kw: right(l1 + 1, l2, l3, c, **kw))
    assert action_oracles.numeric_h_residual(1, 2, 5, 1, count=200, seed=0) > 1e-3


def test_structure_preserved():
    act = A.sl2_plane_action(0, 2, 0, 1)
    rep = A.check_structure_preserved(act)
    assert rep["per_generator"][0]["preserved"] and not rep["passed"]
    sub = A.diagonal_subgroup_action(1)
    assert A.check_structure_preserved(sub)["passed"]
    zero = A.LinearPoissonAction(
        lie.sl2(), lie.sl2_defining_matrices(), PolyBivector.zero(("x1", "x2"))
    )
    assert A.check_structure_preserved(zero)["passed"]


def test_action_matrices_must_match_the_target_dimension():
    plane = PolyBivector.zero(("x1", "x2"))
    padded = [[row + [ZERO] for row in m] + [[ZERO] * 3] for m in lie.sl2_defining_matrices()]
    with pytest.raises(ValueError, match="2x2"):
        A.LinearPoissonAction(lie.sl2(), padded, plane)
    ragged = lie.sl2_defining_matrices()
    ragged[1] = [ragged[1][0], ragged[1][1] + [ZERO]]
    with pytest.raises(ValueError, match="2x2"):
        A.LinearPoissonAction(lie.sl2(), ragged, plane)


def test_action_bracket_identity(rng):
    lam = (Fraction(1, 2), Fraction(-2, 3), Fraction(3))
    act = A.sl2_plane_action(*lam, Fraction(1))
    dual = dual_algebra_from_r(RMatrix.sl2_family(lie.sl2(), *lam))
    x1, x2 = generators("x1", "x2")
    for f, g in [(x1, x2), (x1, x1 * x2), (x2, x1 * x2)]:
        assert A.check_action_bracket_identity(act, dual, f, g)["passed"]
    # zero dual bracket degenerates to the derivation identity (trivial structure)
    act0 = A.sl2_plane_action(0, 0, 0, 1)
    assert A.check_action_bracket_identity(act0, lie.abelian(3), x1, x2)["passed"]
    # the dual bracket of another r-matrix leaves a residual
    wrong = dual_algebra_from_r(RMatrix.sl2_family(lie.sl2(), 1, 0, 0))
    assert not A.check_action_bracket_identity(act, wrong, x1, x2)["passed"]


def test_xi_f():
    act = A.sl2_plane_action(0, 2, 0, 1)
    x1, x2 = generators("x1", "x2")
    comps = A.xi_f(act, x1)
    half = Q("1/2")
    assert comps[0] == x1.scale(half)
    assert comps[1] == x2.scale(half)
    assert comps[2] == x2.scale(half)
    # a function with orbit-orthogonal differential at a point gives xi = 0 there
    vals = [c.eval({"x1": 0, "x2": 0}) for c in comps]
    assert all(Q(0) == v for v in vals)


def test_isotropy_and_annihilator():
    act = A.sl2_plane_action(0, 2, 0, 1)
    dual = dual_algebra_from_r(RMatrix.sl2_family(lie.sl2(), 0, 2, 0))
    rep = A.isotropy_and_annihilator(act, [1, 0], dual)
    iso = A.linear_isotropy(act.rep_mats, [1, 0])
    assert rep["isotropy"] == [[str(x) for x in v] for v in iso]
    assert len(iso) == 1
    v = iso[0]
    assert v[0].is_zero() and v[1] == v[2]
    assert len(rep["annihilator"]) == 2
    assert not rep["annihilator_abelian"]
    assert A.isotropy_and_annihilator(act, [1, 0], lie.abelian(3))["annihilator_abelian"]
    rep0 = A.isotropy_and_annihilator(act, [0, 0], dual)
    assert len(rep0["isotropy"]) == 3 and not rep0["annihilator"]
    assert rep0["annihilator_abelian"]


def test_tangential(rng):
    pred = A.tangential_coefficient_predicate
    assert pred(0, 0, 4, 1)
    assert not pred(0, 2, 0, 1)
    assert not pred(0, 0, 4, -1)
    act = A.sl2_plane_action(0, 0, 4, 1)
    assert A.tangential_check(act, plane_points(rng, 50))["passed"]
    act_neg = A.sl2_plane_action(0, 0, 4, -1)
    w = A.find_rank_drop_witness(0, 0, 4, -1)
    assert w is not None
    rep = A.tangential_check(act_neg, [w])
    assert not rep["passed"]
    assert A.tangential_check(act_neg, [[Fraction(0), Fraction(0)]])["passed"]


def test_momentum_check_symbolic():
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    m_id = A.identity_momentum_map(L, bun.bivector)
    assert A.momentum_check(bun, m_id)["passed"]
    shifted = A.identity_momentum_map(L, bun.bivector, shift=[Q(1), Q(-2), Q("1/3")])
    assert A.momentum_check(bun, shifted)["passed"]
    # rotation example
    rot = A.rotation_plane_action()
    x, y = generators("x", "y")
    m_rot = A.MomentumMap(rot.algebra, [(x * x + y * y).scale(Q("1/2"))])
    assert A.momentum_check(rot, m_rot)["passed"]
    # wrong sign fails
    m_bad = A.MomentumMap(rot.algebra, [(x * x + y * y).scale(Q("-1/2"))])
    assert not A.momentum_check(rot, m_bad)["passed"]


def test_momentum_normalization_families():
    sub = A.diagonal_subgroup_action(1)
    rep = A.solve_momentum_normalization(sub)
    # h = 1 - x1*x2 and lam = (x1/2, -x2/2): h*lam = s*X_h with s = 1/2 exactly
    assert rep["passed"] and rep["solved_constant"] == "1/2"
    assert rep["residual"] == ["0", "0"]
    # no a^2 solves 4*h^3*lam_k^2 = a^2*X_h,k^2: the one it reads off leaves a residual
    assert not rep["power_family_consistent"] and any(r != "0" for r in rep["power_family_residual"])


@pytest.mark.parametrize("l2, c, s", [(2, 1, "1/2"), (3, Fraction(1, 2), "1/3"), (-1, 0, "-1")])
def test_the_log_family_constant_is_one_over_l2(l2, c, s):
    act = A.sl2_plane_action(0, l2, 0, c)
    rep = A.solve_momentum_normalization(A.LinearPoissonAction(lie.abelian(1), [act.rep_mats[0]],
                                                               act.bivector))
    assert rep["passed"] and rep["solved_constant"] == s and not rep["power_family_consistent"]


def test_momentum_normalization_rejects_a_field_off_the_family():
    # lam = (x1, x2) is no multiple of X_h = (x1*h, -x2*h): neither family solves
    pi = A.diagonal_subgroup_action(1).bivector
    rep = A.solve_momentum_normalization(A.LinearPoissonAction(lie.abelian(1),
                                                               [linalg.identity(2)], pi))
    assert not rep["passed"] and not rep["power_family_consistent"]
    with pytest.raises(ValueError):
        A.solve_momentum_normalization(A.coadjoint_dressing_bundle(lie.sl2(),
                                                                   lie.sl2_defining_matrices()))


def test_gamma(rng):
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    m_id = A.identity_momentum_map(L, bun.bivector)
    G0 = A.gamma(bun, m_id)
    assert all(p.is_zero() for p in G0.values())
    mu0 = [Q(2), Q(-1), Q("1/2")]
    m_sh = A.identity_momentum_map(L, bun.bivector, shift=mu0)
    G1 = A.gamma(bun, m_sh)
    for (i, j), p in G1.items():
        expect = sum((L.structure_constant(i, j, k) * mu0[k] for k in range(3)), Q(0))
        assert p.as_constant() == expect
    # abelian algebra with commuting components: both terms vanish
    ab = lie.abelian(2)
    pi2 = PolyBivector.constant_symplectic(2, names=("x", "y"))
    x, y = generators("x", "y")
    bun2 = A.LinearPoissonAction(ab, [linalg.zeros(2, 2)] * 2, pi2)
    m2 = A.MomentumMap(ab, [MultiPoly.zero(pi2.vars) + x, MultiPoly.zero(pi2.vars) + x * x])
    G2 = A.gamma(bun2, m2)
    assert all(p.is_zero() for p in G2.values())


def test_gamma_checks(rng):
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    mu0 = [Q(2), Q(-1), Q("1/2")]
    m_sh = A.identity_momentum_map(L, bun.bivector, shift=mu0)
    G = A.gamma(bun, m_sh)
    rep = A.gamma_checks(bun, G, m_sh)
    assert rep["casimir_ok"] and rep["cocycle_ok"]
    assert rep["correction_solvable"] and rep["corrected_vanishes"]
    assert rep["correction"] == [str(-v) for v in mu0]

    H = lie.heisenberg3()
    bunH = A.coadjoint_dressing_bundle(H, [E12_3, E23_3, E13_3])
    vs = bunH.bivector.vars
    one = MultiPoly.constant(vs, 1)
    zero = MultiPoly.zero(vs)
    G_bad = {(0, 1): zero, (0, 2): one, (1, 2): zero}
    repH = A.gamma_checks(bunH, G_bad)
    assert repH["cocycle_ok"] and repH["correction_solvable"] is False
    m_h = A.identity_momentum_map(H, bunH.bivector, shift=[Q(0), Q(0), Q(5)])
    repH2 = A.gamma_checks(bunH, A.gamma(bunH, m_h), m_h)
    assert repH2["correction_solvable"]
    # a non-constant entry that is no Casimir: no correction is attempted
    mu1 = A.identity_momentum_map(L, bun.bivector).components[0]
    vs = bun.bivector.vars
    zero = MultiPoly.zero(vs)
    rep_nc = A.gamma_checks(bun, {(0, 1): mu1, (0, 2): zero, (1, 2): zero})
    assert rep_nc["casimir_failures"] == [[0, 1]] and not rep_nc["passed"]
    assert rep_nc["correction_solvable"] is None


def test_sigma_psi(rng):
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    m_id = A.identity_momentum_map(L, bun.bivector)
    gs = A.sl2_rational_samples(10, seed=3)
    pts = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in range(10)]
    for g, x in zip(gs, pts):
        assert all(t.is_zero() for t in A.sigma(bun, m_id, g, x))
    assert all(t.is_zero()
               for t in A.sigma(bun, m_id, [[1, 0], [0, 1]], [Fraction(1), Fraction(2), Fraction(0)]))
    m_sh = A.identity_momentum_map(L, bun.bivector, shift=[Q(3), Q(0), Q(-1)])
    triples = [(gs[i], gs[(i + 3) % 10], pts[i]) for i in range(10)]
    rep = A.psi_cocycle_check(bun, m_sh, triples)
    assert rep["passed"] and not rep["violations"] and rep["sigma_components_casimir"]
    with pytest.raises(ValueError):
        A.sigma(bun, m_id, [[2, 0], [0, 2]], pts[0])


def test_momentum_kernel_image(rng):
    rot = A.rotation_plane_action()
    x, y = generators("x", "y")
    m = A.MomentumMap(rot.algebra, [(x * x + y * y).scale(Q("1/2"))])
    rep = A.momentum_kernel_image(rot, m, [1, 0])
    assert rep["passed"]
    assert len(rep["kernel"]) == 1
    assert rep["kernel"][0][0] == "0"
    for _ in range(20):
        p = [Fraction(rng.randint(-5, 5), 2 ** rng.randint(0, 2)) for _ in range(2)]
        assert A.momentum_kernel_image(rot, m, p)["passed"]
    rep0 = A.momentum_kernel_image(rot, m, [0, 0])
    assert rep0["passed"] and len(rep0["kernel"]) == 2
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    with pytest.raises(ValueError):
        A.momentum_kernel_image(bun, A.identity_momentum_map(L, bun.bivector), [1, 0, 0])


def test_check_commutator_inclusion():
    rot = A.rotation_plane_action()
    x, y = generators("x", "y")
    m = A.MomentumMap(rot.algebra, [(x * x + y * y).scale(Q("1/2"))])
    assert A.check_commutator_inclusion(rot, m, [1, 0])["passed"]
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    m_id = A.identity_momentum_map(L, bun.bivector)
    rep = A.check_commutator_inclusion(bun, m_id, [1, 2, 3])
    assert rep["passed"]
    rep2 = A.check_commutator_inclusion(bun, m_id, [1, 0, 0])
    assert rep2["passed"] and rep2["dim_isotropy_at_value"] == 1
    # u = m(p) = 0: g_u is all of sl2, whose commutator is not in g_p
    m_zero = A.identity_momentum_map(L, bun.bivector, shift=[-1, -2, -3])
    rep3 = A.check_commutator_inclusion(bun, m_zero, [1, 2, 3])
    assert not rep3["passed"] and rep3["dim_isotropy_at_value"] == 3
    assert rep3["local_minimality_warning"]


def test_consistent_single_action_variant():
    """With the left-coadjoint lift generators as the infinitesimal action the
    momentum map is minus the identity; everything stays coherent."""
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    neg = A.LinearPoissonAction(
        L, bun.lift_generators, bun.bivector, defining_mats=bun.defining_mats, coadjoint=True,
    )
    m_id = A.identity_momentum_map(L, bun.bivector)
    m_neg = A.MomentumMap(L, [c.scale(Q(-1)) for c in m_id.components])
    assert A.momentum_check(neg, m_neg)["passed"]
    assert not A.momentum_check(neg, m_id)["passed"]


def test_coadjoint_lift_preserves_linear_bivector(rng):
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    gs = A.sl2_rational_samples(25, seed=6)
    pts = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in gs]
    assert A.check_poisson_action(bun, list(zip(gs, pts)))["passed"]


def _adjoint_matrix(defining_mats, g):
    """Ad_g = g . g^{-1} column by column: invert g, then solve the basis
    system once per conjugate (the route before the single elimination)."""
    g = linalg.mat(g)
    ginv = evaluation_oracles.inverse(g)
    d = len(g)
    rows = [[m[a][b] for m in defining_mats] for a in range(d) for b in range(d)]
    cols = []
    for D in defining_mats:
        M = linalg.mat_mul(linalg.mat_mul(g, D), ginv)
        sol = linalg.solve(rows, [M[a][b] for a in range(d) for b in range(d)])
        assert sol is not None
        cols.append(sol)
    n = len(defining_mats)
    return [[cols[j][k] for j in range(n)] for k in range(n)]


def _coadjoint_two_inversions(defining_mats, g):
    return linalg.transpose(_adjoint_matrix(defining_mats, evaluation_oracles.inverse(g)))


def _upper_triangular_samples(rng, count):
    out = []
    for _ in range(count):
        a, b, d = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        out.append([[a or Fraction(2), b], [Fraction(0), d or Fraction(-1)]])
    return out


def _unipotent3_samples(rng, count):
    out = []
    for _ in range(count):
        a, b, c = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        out.append([[1, a, c], [0, 1, b], [0, 0, 1]])
    return out


E12_3 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
E23_3 = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
E13_3 = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
HEIS_2X2 = [[[0, 1], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 0]]]


def _gaussian_sl2_samples(rng, count):
    """Determinant-one Gaussian matrices: diag(i, -i), then [[1, i t], [0, 1]]
    times real samples."""
    out = [[[I, ZERO], [ZERO, -I]]]
    for g in A.sl2_rational_samples(count - 1, seed=9):
        t = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        out.append(linalg.mat_mul([[ONE, I * t], [ZERO, ONE]], g))
    return out


@pytest.mark.parametrize("case", ["sl2", "heisenberg-with-zero", "unipotent-3x3", "sl2-gaussian"])
def test_coadjoint_matrix_matches_the_two_inversion_route(case):
    """The table route equals the elimination route it replaced and the
    two-inversion route before that, matrix for matrix."""
    rng = random.Random(17)
    if case == "sl2":
        mats, gs = lie.sl2_defining_matrices(), A.sl2_rational_samples(20, seed=5)
    elif case == "heisenberg-with-zero":
        mats, gs = HEIS_2X2, _upper_triangular_samples(rng, 20)
    elif case == "unipotent-3x3":
        mats, gs = [E12_3, E23_3, E13_3], _unipotent3_samples(rng, 20)
    else:
        mats, gs = lie.sl2_defining_matrices(), _gaussian_sl2_samples(rng, 20)
    mats = [linalg.mat(m) for m in mats]
    int_table = A.coadjoint_table(mats)
    table = lambda g: linalg._scalars(int_table(linalg._int_mat(g)))  # noqa: E731
    for g in gs:
        co = table(g)
        assert co == action_oracles.coadjoint_by_elimination(mats, g)
        assert evaluation_oracles.mat_eq(co, _coadjoint_two_inversions(mats, g))
    if case == "heisenberg-with-zero":
        # the zero defining matrix leaves its coordinate free: it stays 0
        assert all(row[2].is_zero() for row in table(gs[0]))
    if case == "sl2-gaussian":
        assert any(x.im for x in gs[0][0]) and any(x.im for row in table(gs[1]) for x in row)


def test_coadjoint_matrix_rejects_singular_and_out_of_span_matrices():
    h3 = A.coadjoint_dressing_bundle(lie.heisenberg3(), [E12_3, E23_3, E13_3])
    singular = [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    # a lower-triangular g moves e12 out of the upper-triangular span
    lower = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    cases = [(lie.sl2_defining_matrices(), [[1, 2], [2, 4]], "group matrix is singular"),
             (h3.defining_mats, singular, "group matrix is singular"),
             (HEIS_2X2, [[1, 0], [1, 1]], "matrix does not lie in the algebra span"),
             (h3.defining_mats, lower, "matrix does not lie in the algebra span")]
    table = lambda mats, g: A.coadjoint_table(mats)(linalg._int_mat(g))  # noqa: E731
    for mats, g, message in cases:
        for route in (table, action_oracles.coadjoint_by_elimination):
            with pytest.raises(ValueError) as err:
                route(mats, g)
            assert str(err.value) == message
    for g, message in ((singular, "group matrix is singular"),
                       (lower, "matrix does not lie in the algebra span")):
        with pytest.raises(ValueError) as err:
            h3._int_lift(linalg._int_mat(g))
        assert str(err.value) == message
    # the bilinear rows would silently truncate a matrix of another size
    with pytest.raises(ValueError, match="3x3"):
        table(h3.defining_mats, [[1, 0], [0, 1]])


def test_sl2_rational_samples_match_the_product_route():
    for seed in (0, 1, 5, 7, 11, 901):
        assert A.sl2_rational_samples(30, seed=seed) == action_oracles.sl2_samples_by_products(30, seed)


def _plane_points_with_zero_h(rng, lam, c, count):
    """Seeded plane points plus the origin and rational points on h = 0."""
    pts = plane_points(rng, count) + [[Fraction(0), Fraction(0)]]
    w = A.find_rank_drop_witness(*lam, c)
    return pts + ([w, [-x for x in w]] if w is not None else [])


@pytest.mark.parametrize("lam, c", [((0, 0, 4), 1), ((0, 0, 4), -1), ((0, 2, 0), 0),
                                    ((1, 2, 5), 1), ((Fraction(-3, 2), Fraction(1, 3), 7), -2)])
def test_tangential_matches_the_per_generator_solve_route(lam, c, rng):
    act = A.sl2_plane_action(*lam, c)
    pts = _plane_points_with_zero_h(rng, lam, c, 30)
    rep = A.tangential_check(act, pts)
    expect = action_oracles.tangential_failures_by_solve(act, pts)
    assert rep["failures"] == expect and rep["passed"] is (not expect)
    if A.find_rank_drop_witness(*lam, c) is not None:
        assert expect    # a point on h = 0 away from the origin fails


def test_tangential_matches_the_solve_route_on_the_dressing_action_and_gaussian_points(rng):
    from conftest import rand_point

    dressing = A.coadjoint_dressing_bundle(lie.sl2(), lie.sl2_defining_matrices())
    pts = [rand_point(rng, 3) for _ in range(20)] + [[0, 0, 0], [1, 0, 0], [0, 1, 1]]
    pts += [[I, 1, 0], [1, I, Q(2, 3)]]
    rep = A.tangential_check(dressing, pts)
    assert rep["failures"] == action_oracles.tangential_failures_by_solve(dressing, pts)
    plane = A.sl2_plane_action(0, 0, 4, -1)    # h = x1^2 + x2^2 - 1 vanishes at (i, sqrt 2)
    gpts = [[I, Q(2, 3)], [Q(1, 2), I], [I, I]] + _plane_points_with_zero_h(rng, (0, 0, 4), -1, 5)
    rep = A.tangential_check(plane, gpts)
    expect = action_oracles.tangential_failures_by_solve(plane, gpts)
    assert rep["failures"] == expect and expect


def test_check_poisson_action_rmatrix_term_matches_the_pairwise_products(rng):
    L = lie.sl2()
    plane = A.sl2_plane_action(0, 2, 0, 1)
    bad = A.LinearPoissonAction(L, lie.sl2_defining_matrices(), plane.bivector,
                                rmatrix=RMatrix(L, {(1, 2): 3}))
    gs = A.sl2_rational_samples(15, seed=21)
    for act in (bad, plane):
        samples = list(zip(gs, plane_points(rng, 15)))
        rep = A.check_poisson_action(act, samples)
        expect = action_oracles.poisson_action_residuals_pairwise(act, samples)
        assert [f["residual"] for f in rep["failures"]] == expect
        assert rep["passed"] is (not expect)
    assert not A.check_poisson_action(bad, samples)["passed"]


def _so3_on_r3() -> A.LinearPoissonAction:
    e = [[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
         [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
         [[0, -1, 0], [1, 0, 0], [0, 0, 0]]]
    return A.LinearPoissonAction(lie.so3(), e, PolyBivector.zero(("u", "v", "w")))


def _bundle_action(name, defining=None):
    """An action of the sample bundle; ``defining`` swaps in an h3 dressing."""
    from pathlib import Path
    from poissonkit.bundles import parse_bundle

    raw = json.loads((Path(__file__).resolve().parent.parent / "demos" / "bundles"
                      / "sample.json").read_text())
    if defining is not None:
        raw["algebras"]["h3"] = {"dim": 3, "brackets": [{"i": 0, "j": 1, "result": [0, 0, 1]}]}
        raw["bivectors"]["lp3"] = A.lie_poisson(lie.heisenberg3()).to_json()
        raw["actions"][name] = {"algebra": "h3", "bivector": "lp3",
                                "kind": "coadjoint-dressing", "defining": defining}
    return parse_bundle(raw).actions[name]


# (action, whether the group relation is det 1); the second column is where
# the explicit choice used to be det 1: the stock plane and sl2 dressing
# actions, bundle actions marked "det1", and every sl2 dressing bundle
GROUP_RELATIONS = [
    (lambda: A.sl2_plane_action(Fraction(1, 2), -2, 3, 1), True),
    (lambda: A.coadjoint_dressing_bundle(lie.sl2(), lie.sl2_defining_matrices()), True),
    (lambda: A.coadjoint_dressing_bundle(lie.heisenberg3(), [E12_3, E23_3, E13_3]), False),
    (A.rotation_plane_action, False),
    (lambda: A.diagonal_subgroup_action(1), False),
    (lambda: _so3_on_r3(), False),
    (lambda: _bundle_action("plane_action"), True),
    (lambda: _bundle_action("dressing"), True),
    (lambda: _bundle_action("h3", [E12_3, E23_3, E13_3]), False),
]


@pytest.mark.parametrize("make, det1", GROUP_RELATIONS, ids=[
    "plane", "sl2-dressing", "h3-dressing", "rotation", "diagonal", "so3-on-r3",
    "bundle-plane-det1", "bundle-dressing", "bundle-h3-3x3"])
def test_group_relation_follows_from_the_defining_matrices(make, det1):
    act = make()
    d = len(act.defining_mats[0])
    unit = linalg.identity(d)
    doubled = [[Q(2) if (i, j) == (0, 0) else t for j, t in enumerate(row)]
               for i, row in enumerate(unit)]
    assert act.sl2 is det1
    act._int_lift(linalg._int_mat(unit))
    x = [Fraction(1, 2)] * act.target_dim
    if det1:
        for check in (lambda: act._int_lift(linalg._int_mat(doubled)),
                      lambda: A.check_poisson_action(act, [(doubled, x)])):
            with pytest.raises(ValueError, match="group relation"):
                check()
    else:
        act._int_lift(linalg._int_mat(doubled))
        A.check_poisson_action(act, [(doubled, x)])


def test_coadjoint_action_rejects_dependent_defining_matrices():
    # e12, e22 and 0 are no basis: Coad_g would leave the third coordinate free
    # and lift the identity to a matrix that is not the identity
    from poissonkit.bundles import SchemaError

    with pytest.raises(ValueError, match="linearly independent"):
        A.coadjoint_dressing_bundle(lie.heisenberg3(), HEIS_2X2)
    with pytest.raises(SchemaError, match="linearly independent"):
        _bundle_action("h3", HEIS_2X2)
    # a natural action may still have dependent (here zero) generators
    A.LinearPoissonAction(lie.abelian(2), [linalg.zeros(2, 2)] * 2,
                          PolyBivector.constant_symplectic(2))


@pytest.mark.parametrize("make", [
    lambda: A.sl2_plane_action(Fraction(1, 2), -2, 3, 1),
    lambda: A.coadjoint_dressing_bundle(lie.sl2(), lie.sl2_defining_matrices()),
    A.rotation_plane_action,
    lambda: A.coadjoint_dressing_bundle(lie.heisenberg3(), [E12_3, E23_3, E13_3]),
    _so3_on_r3,
], ids=["plane", "dressing", "rotation", "heisenberg-3x3", "so3-on-r3"])
def test_field_values_match_polynomial_evaluation(make, rng):
    from conftest import rand_point

    act = make()
    pts = [rand_point(rng, act.target_dim) for _ in range(15)]
    pts += [[0] * act.target_dim, [1] + [0] * (act.target_dim - 1)]
    for p in pts:
        assign = {v.name: Q(x) for v, x in zip(act.bivector.vars, p)}
        by_poly = [[GaussianRational.coerce(f.component(k).eval(assign)) for k in range(f.n)]
                   for f in act.fields()]
        assert act.field_values(p) == by_poly


def test_dressing_action_from_fraction_entries(rng):
    L = lie.sl2()
    exact = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    plain = [[[x.re for x in row] for row in m] for m in lie.sl2_defining_matrices()]
    assert all(isinstance(x, Fraction) for m in plain for row in m for x in row)
    frac = A.coadjoint_dressing_bundle(L, plain)
    gs = A.sl2_rational_samples(8, seed=2)
    pts = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in gs]
    samples = list(zip(gs, pts))
    assert A.check_poisson_action(frac, samples) == A.check_poisson_action(exact, samples)
    m_sh = A.identity_momentum_map(L, exact.bivector, shift=[Q(1), Q(2), Q(0)])
    for g, x in samples:
        assert A.sigma(frac, m_sh, g, x) == A.sigma(exact, m_sh, g, x)
    triples = [(gs[i], gs[(i + 1) % 8], pts[i]) for i in range(8)]
    assert A.psi_cocycle_check(frac, m_sh, triples) == A.psi_cocycle_check(exact, m_sh, triples)


def test_psi_cocycle_reports_a_non_equivariant_momentum_map(rng):
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    mu1, mu2, mu3 = A.identity_momentum_map(L, bun.bivector).components
    m_bad = A.MomentumMap(L, [mu1 + mu2 * mu2, mu2, mu3])
    gs = A.sl2_rational_samples(10, seed=3)
    pts = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in gs]
    triples = [(gs[i], gs[(i + 3) % 10], pts[i]) for i in range(10)]
    rep = A.psi_cocycle_check(bun, m_bad, triples)
    assert rep["violations"] and not rep["sigma_components_casimir"]
    assert rep["passed"] is False


def test_psi_cocycle_places_momentum_components_by_name():
    """A component written on its own one-variable chart is the same function
    of the base point, so the report must not change."""
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    m_full = A.identity_momentum_map(L, bun.bivector)
    m_own = A.MomentumMap(L, [MultiPoly.variable([v], v.name) for v in bun.bivector.vars])
    gs = A.sl2_rational_samples(4, seed=4)
    triples = [(gs[i], gs[(i + 1) % 4], [1, 2, 3]) for i in range(4)]
    rep = A.psi_cocycle_check(bun, m_own, triples)
    assert rep["sigma_components_casimir"] and rep == A.psi_cocycle_check(bun, m_full, triples)


def _plane_with_quadratic_map():
    act = A.sl2_plane_action(Fraction(1, 2), -2, 3, 1)
    x1, x2 = generators("x1", "x2")
    return act, A.MomentumMap(act.algebra, [x1 * x2, x1 * x1, x2 * x2 + x1])


def _dressing_with_shifted_map():
    L = lie.sl2()
    act = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    mu1, mu2, mu3 = A.identity_momentum_map(L, act.bivector).components
    return act, A.MomentumMap(L, [mu1 + mu2 * mu2, mu2.scale(3), mu3])


@pytest.mark.parametrize("make", [_plane_with_quadratic_map, _dressing_with_shifted_map],
                         ids=["plane", "dressing"])
def test_psi_cocycle_computes_each_coadjoint_matrix_once(make, monkeypatch, rng):
    """Each distinct group element of a call gets its Coad once: at most 3
    for one triple (g, h and gh), and at most 80 for 40 cyclic triples
    (h_i = g_(i+1), so 40 products and 40 samples).  The one-triple report
    equals the residual Sigma(gh) - Sigma(g) - Coad_g Sigma(h) built from
    the public sigma."""
    act, m = make()
    g, h = A.sl2_rational_samples(2, seed=5)
    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(act.target_dim)]
    gh = linalg.mat_mul(linalg.mat(g), linalg.mat(h))
    co = action_oracles.coadjoint_by_elimination(act.defining_mats, g)
    ref = [u - v - w for u, v, w in zip(A.sigma(act, m, gh, x), A.sigma(act, m, g, x),
                                        linalg.mat_vec(co, A.sigma(act, m, h, x)))]
    calls = []
    orig = A.LinearPoissonAction._int_coad
    monkeypatch.setattr(A.LinearPoissonAction, "_int_coad",
                        lambda self, k: calls.append(1) or orig(self, k))
    rep = A.psi_cocycle_check(act, m, [(g, h, x)])
    assert 0 < len(calls) <= 3
    assert any(ref) and rep["violations"] == [
        {"residual": [str(t) for t in ref], "x": [str(t) for t in x]}]
    gs = A.sl2_rational_samples(40, seed=6)
    triples = [(gs[i], gs[(i + 1) % 40], x) for i in range(40)]
    calls.clear()
    A.psi_cocycle_check(act, m, triples)
    assert 40 < len(calls) <= 80


# -- the obstruction cochain against the routes before the CE differential ---------------


def _h5():
    """[e1, e2] = [e3, e4] = e5."""
    return lie.LieAlgebra(5, {(0, 1): [0, 0, 0, 0, 1], (2, 3): [0, 0, 0, 0, 1]})


ORACLE_ALGEBRAS = [lie.sl2, lie.so3, lie.heisenberg3, book3, gl2, filiform4, _h5, sl2_sl2]
ORACLE_IDS = ["sl2", "so3", "h3", "book3", "gl2", "filiform4", "h5", "sl2+sl2"]


def _dual_space_action(L):
    """The dressing generators on the Lie-Poisson dual as a natural action,
    which takes algebras of any dimension and needs no defining matrices."""
    return A.LinearPoissonAction(L, A.dressing_generator_matrices(L), lie_poisson(L))


def _cyclic_residuals(L, G):
    """d Gamma(e_i, e_j, e_k) = -sum over the cyclic orders (x, y, z) of
    Gamma([e_x, e_y], e_z), with Gamma(X, Y) expanded by bilinearity on the
    entries: the cyclic formula that the CE differential replaced."""
    vs = next(iter(G.values())).vars

    def of_vectors(X, Y):
        acc = MultiPoly.zero(vs)
        for (i, j), p in G.items():
            acc = acc + p.scale(X[i] * Y[j] - X[j] * Y[i])
        return acc

    e = linalg.identity(L.dim)
    out = []
    for i, j, k in itertools.combinations(range(L.dim), 3):
        acc = MultiPoly.zero(vs)
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            acc = acc - of_vectors(L.basis_bracket(x, y), e[z])
        out.append(((i, j, k), str(acc)))
    return out


def _structure_constant_solve(L, G):
    """(solvable, correction, corrected_vanishes) of a constant Gamma from the
    system sum_k C^k_ij phi_k = -Gamma_ij and its entry-by-entry re-check:
    the route that d_1 phi = Gamma replaced."""
    pairs = sorted(G)
    rows = [[L.structure_constant(i, j, k) for k in range(L.dim)] for i, j in pairs]
    consts = [G[ij].as_constant() for ij in pairs]
    sol = linalg.solve(rows, [-c for c in consts])
    if sol is None:
        return False, None, None
    vanishes = all((c + sum((r * s for r, s in zip(row, sol)), ZERO)).is_zero()
                   for row, c in zip(rows, consts))
    return True, [str(x) for x in sol], vanishes


def _random_poly(rng, vs):
    gens = [MultiPoly.variable(vs, v.name) for v in vs]
    p = rand_poly(rng, vs, gens, max_deg=3)
    return p.scale(I) + p if rng.random() < 0.3 else p


@pytest.mark.parametrize("algebra_fn", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_gamma_cocycle_residuals_match_the_cyclic_formula(algebra_fn):
    rng = random.Random(41)
    L = algebra_fn()
    act = _dual_space_action(L)
    vs = act.bivector.vars
    nonzero = 0
    for _ in range(3):
        G = {ij: _random_poly(rng, vs) for ij in itertools.combinations(range(L.dim), 2)}
        m = A.MomentumMap(L, [_random_poly(rng, vs) for _ in range(L.dim)])
        # with the momentum map supplied, the plane-bracket route must agree too
        for cochain, mm in ((G, None), (A.gamma(act, m), m)):
            got = [(t, str(r)) for t, r in A.gamma_cocycle_residuals(act, cochain, mm)]
            assert got == _cyclic_residuals(L, cochain)
            nonzero += sum(r != "0" for _, r in got)
    # on a 3-dimensional unimodular algebra (tr ad = 0) every 2-cochain is closed
    unimodular = all(sum((L.structure_constant(i, k, k) for k in range(L.dim)), ZERO).is_zero()
                     for i in range(L.dim))
    assert (nonzero > 0) is not (L.dim == 3 and unimodular)


def _random_constant_cochains(rng, L, vs, count):
    """Random constant cochains, and as many coboundaries
    Gamma_ij = -sum_k C^k_ij phi_k of random phi."""
    pairs = list(itertools.combinations(range(L.dim), 2))
    out = []
    for _ in range(count):
        vals = {ij: Q(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for ij in pairs}
        phi = [Q(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))
               for _ in range(L.dim)]
        exact = {(i, j): -sum((L.structure_constant(i, j, k) * phi[k] for k in range(L.dim)), ZERO)
                 for i, j in pairs}
        for consts in (vals, exact):
            out.append({ij: MultiPoly.constant(vs, c) for ij, c in consts.items()})
    return out


@pytest.mark.parametrize("algebra_fn", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_gamma_checks_solve_matches_the_structure_constant_system(algebra_fn):
    rng = random.Random(43)
    L = algebra_fn()
    act = _dual_space_action(L)
    solvable = []
    for G in _random_constant_cochains(rng, L, act.bivector.vars, 4):
        rep = A.gamma_checks(act, G)
        got = rep["correction_solvable"], rep["correction"], rep["corrected_vanishes"]
        assert got == _structure_constant_solve(L, G)
        solvable.append(got[0])
    # every coboundary is solvable; d_1 : C^1 -> C^2 is onto, so that every
    # cochain is, only when dim g = 3 and d_1 is injective, i.e. H^1(g) = 0
    assert all(solvable[1::2])
    onto = L.dim == 3 and lie.cohomology_dim(L, lie.representation(L, lie.TRIVIAL), 1) == 0
    assert all(solvable) is onto


@pytest.mark.parametrize("algebra_fn", [lie.sl2, lie.so3], ids=["sl2", "so3"])
def test_whitehead_every_constant_cochain_is_exact(algebra_fn):
    # H^2(g) = 0 for semisimple g, and on a 3-dimensional one every 2-cochain is closed
    rng = random.Random(47)
    L = algebra_fn()
    act = _dual_space_action(L)
    vs = act.bivector.vars
    pairs = list(itertools.combinations(range(L.dim), 2))
    units = [{ij: Q(int(ij == kl)) for ij in pairs} for kl in pairs]
    randoms = [{ij: Q(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-2, 2))
                for ij in pairs} for _ in range(10)]
    for consts in units + randoms:
        G = {ij: MultiPoly.constant(vs, c) for ij, c in consts.items()}
        rep = A.gamma_checks(act, G)
        assert rep["cocycle_ok"] and rep["correction_solvable"] and rep["corrected_vanishes"]


@pytest.mark.parametrize("algebra_fn", [lie.sl2, lie.so3, lie.heisenberg3],
                         ids=["sl2", "so3", "h3"])
def test_isotropy_on_the_dressing_generators_is_the_kernel_of_the_linear_bivector(algebra_fn, rng):
    L = algebra_fn()
    gens, lp = A.dressing_generator_matrices(L), lie_poisson(L)
    for u in [rand_point(rng, 3) for _ in range(10)] + [[0, 0, 0], [1, 0, 0], [0, 0, 1]]:
        assert linalg.subspace_equal(A.linear_isotropy(gens, u), linalg.nullspace(lp.eval_matrix(u)))


# -- the integer routes of the sampled group checks against their scalar bodies -----------


@pytest.fixture(scope="module")
def sample_bundle():
    from pathlib import Path
    from poissonkit.bundles import load_bundle

    return load_bundle(str(Path(__file__).resolve().parent.parent / "demos" / "bundles"
                           / "sample.json"))


def _cli_samples(act, count, seed, point_seed, scale=6):
    """Group samples and points drawn as the CLI draws them."""
    from poissonkit.cli import _sample_points

    gs = A.sl2_rational_samples(count, seed=seed)
    return gs, _sample_points(act.bivector.vars, count, point_seed, scale=scale)


def _cyclic_triples(gs, pts):
    return [(gs[i], gs[(i + 1) % len(gs)], pts[i]) for i in range(len(gs))]


@pytest.mark.parametrize("seed", range(901, 921))
def test_sampled_group_checks_match_their_scalar_bodies(sample_bundle, seed):
    """check-action's two sampled lines on both bundle actions and momentum's
    psi-cocycle line on shifted_identity, report for report."""
    for name in ("dressing", "plane_action"):
        act = sample_bundle.actions[name]
        gs, pts = _cli_samples(act, 20, seed, seed + 1)
        samples = list(zip(gs, pts))
        assert (A.check_poisson_action(act, samples)
                == action_oracles.poisson_action_report(act, samples))
        assert A.tangential_check(act, pts)["failures"] == \
            action_oracles.tangential_failures_by_solve(act, pts)
    aref, m = sample_bundle.momentum_maps["shifted_identity"]
    act = sample_bundle.actions[aref]
    triples = _cyclic_triples(*_cli_samples(act, 20, seed, seed + 2, scale=3))
    rep = A.psi_cocycle_check(act, m, triples)
    assert rep["passed"] and rep == action_oracles.psi_cocycle_report(act, m, triples)


@pytest.mark.parametrize("seed, failing", [(7, 34), (901, 37)])
def test_failing_poisson_action_samples_match_the_scalar_body(sample_bundle, seed, failing):
    # the r-matrix {(1, 2): 3} is no coboundary for h = 1 - x1 x2
    plane = sample_bundle.actions["plane_action"]
    bad = A.LinearPoissonAction(plane.algebra, plane.rep_mats, plane.bivector,
                                rmatrix=RMatrix(plane.algebra, {(1, 2): 3}))
    samples = list(zip(*_cli_samples(bad, 40, seed, seed + 1)))
    rep = A.check_poisson_action(bad, samples)
    assert len(rep["failures"]) == failing
    assert rep == action_oracles.poisson_action_report(bad, samples)


@pytest.mark.parametrize("seed, violating", [(7, 34), (901, 33)])
def test_psi_violations_match_the_scalar_body(sample_bundle, seed, violating):
    act = sample_bundle.actions["dressing"]
    mu1, mu2, mu3 = A.identity_momentum_map(act.algebra, act.bivector).components
    m_bad = A.MomentumMap(act.algebra, [mu1 + mu2 * mu2, mu2, mu3])
    triples = _cyclic_triples(*_cli_samples(act, 40, seed, seed + 2, scale=3))
    rep = A.psi_cocycle_check(act, m_bad, triples)
    assert len(rep["violations"]) == violating and not rep["sigma_components_casimir"]
    assert rep == action_oracles.psi_cocycle_report(act, m_bad, triples)


def test_degenerate_tangential_points_of_the_plane_action(sample_bundle):
    # h = 1 - x1 x2 vanishes on the hyperbola x1 x2 = 1, where the orbit moves
    act = sample_bundle.actions["plane_action"]
    on_h0 = [[Fraction(t), 1 / Fraction(t)] for t in (1, -1, 2, Fraction(-1, 3), Fraction(5, 2))]
    on_h0 += [[I, -I], [Q(1, 1), Q(1, -1) / 2]]     # and at Gaussian points
    pts = on_h0 + [[0, 0], [Fraction(1, 2), 1], [I, I], [Q(2, 1), Q(1, -1)]]
    rep = A.tangential_check(act, pts)
    assert rep["failures"] == action_oracles.tangential_failures_by_solve(act, pts)
    assert ({tuple(f["point"]) for f in rep["failures"]}
            == {tuple(str(t) for t in p) for p in on_h0})


def test_tangential_failures_where_rows_vanish_in_the_elimination(monkeypatch):
    # (mu1 - 1) times the Lie-Poisson bivector of sl2 vanishes on mu1 = 1: there
    # [P | F] is [0 | F] with F of rank 2, so one row vanishes and the rows
    # left below P's (no) pivots fail; at (2, 1, 1) a row vanishes and all pass
    dressing = A.coadjoint_dressing_bundle(lie.sl2(), lie.sl2_defining_matrices())
    lp = dressing.bivector
    h = generators(*lp.vars)[0] - 1
    act = A.LinearPoissonAction(dressing.algebra, dressing.rep_mats,
                                PolyBivector(lp.vars, {k: h * v for k, v in lp.comps.items()}),
                                defining_mats=dressing.defining_mats, coadjoint=True)
    rows = []
    eliminate = linalg._eliminate

    def counted(m, jordan):
        rows.append(len(m))
        pivots = eliminate(m, jordan)
        rows.append(len(m))
        return pivots

    monkeypatch.setattr(linalg, "_eliminate", counted)
    pts = [[1, 2, 3], [1, 0, 1], [2, 1, 1], [1, 0, 0], [1, I, 2]]
    rep = A.tangential_check(act, pts)
    # a row vanishes at each point but (1, 0, 0), where F has a zero row from the start
    assert rows == [3, 2, 3, 2, 3, 2, 3, 3, 6, 3]
    assert rep["failures"] == action_oracles.tangential_failures_by_solve(act, pts)
    assert rep["failures"] == [{"point": [str(t) for t in p], "generator": i}
                               for p, gens in zip(pts, [(0, 1, 2), (0, 1, 2), (), (1, 2), (0, 1, 2)])
                               for i in gens]


def test_gaussian_actions_points_and_group_elements_match_the_scalar_bodies(rng):
    """The Q parts of every integer route: Gaussian coefficients, r-matrix,
    points and group elements, on a natural and on a coadjoint action."""
    plane = A.sl2_plane_action(I, 1, Fraction(2, 5), Fraction(-1, 4))
    dressing = A.coadjoint_dressing_bundle(lie.sl2(), lie.sl2_defining_matrices(),
                                           rmatrix=RMatrix(lie.sl2(), {(0, 1): I}))
    gs = _gaussian_sl2_samples(rng, 8) + A.sl2_rational_samples(4, seed=3)
    for act, holds in ((plane, True), (dressing, False)):
        pts = [[Q(rng.randint(-3, 3), rng.randint(-2, 2)) / rng.randint(1, 3)
                for _ in range(act.target_dim)] for _ in gs]
        samples = list(zip(gs, pts))
        rep = A.check_poisson_action(act, samples)
        assert rep == action_oracles.poisson_action_report(act, samples)
        assert rep["passed"] is holds
        assert holds or any("i" in t for f in rep["failures"] for row in f["residual"] for t in row)
    mu1, mu2, mu3 = A.identity_momentum_map(lie.sl2(), dressing.bivector).components
    m = A.MomentumMap(lie.sl2(), [mu1 + mu2 * mu3.scale(I), mu2, mu3])
    triples = _cyclic_triples(gs, pts)
    rep = A.psi_cocycle_check(dressing, m, triples)
    assert rep["violations"] and rep == action_oracles.psi_cocycle_report(dressing, m, triples)


def test_the_integer_routes_raise_as_the_scalar_bodies_do():
    h3 = A.coadjoint_dressing_bundle(lie.heisenberg3(), [E12_3, E23_3, E13_3])
    m = A.identity_momentum_map(lie.heisenberg3(), h3.bivector)
    plane = A.sl2_plane_action(0, 2, 0, 1)
    x3, unit = [1, 2, 3], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cases = [(h3, [[1, 0, 0], [0, 0, 0], [0, 0, 1]], "group matrix is singular"),
             (h3, [[1, 0, 0], [1, 1, 0], [0, 0, 1]], "matrix does not lie in the algebra span"),
             (plane, [[2, 0], [0, 2]], "matrix fails the group relation"),
             (plane, [[Q(1, 1), 0], [0, 1]], "matrix fails the group relation")]    # det 1 + i
    for act, g, message in cases:
        x = x3 if act is h3 else [1, 2]
        for route in (A.check_poisson_action, action_oracles.poisson_action_report):
            with pytest.raises(ValueError, match=message):
                route(act, [(g, x)])
        if act is h3:
            for route in (A.psi_cocycle_check, action_oracles.psi_cocycle_report):
                with pytest.raises(ValueError, match=message):
                    route(act, m, [(unit, g, x)])
