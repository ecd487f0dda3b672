import math
import random
from fractions import Fraction

import pytest

from poissonkit import action as A
from poissonkit import lie, linalg
from poissonkit.bialgebra import RMatrix, dual_algebra_from_r
from poissonkit.poisson import PolyBivector
from poissonkit.poly import MultiPoly, NumericField, generators
from poissonkit.scalars import Q, ZERO, ONE


def plane_points(rng, count, scale=5):
    from conftest import rand_point

    return [rand_point(rng, 2, scale=scale) for _ in range(count)]


def test_printed_infinitesimal_fields():
    act = A.sl2_plane_action(0, 2, 0, 1)
    x1, x2 = generators("x1", "x2")
    half = Q("1/2")
    f1, f2, f3 = act.fields()
    assert f1.comps[0] == x1.scale(half) and f1.comps[1] == x2.scale(-half)
    assert f2.comps[0] == x2.scale(half) and f2.comps[1] == x1.scale(-half)
    assert f3.comps[0] == x2.scale(half) and f3.comps[1] == x1.scale(half)
    zero = A.linear_action_fields([linalg.zeros(2, 2)], ("x1", "x2"))[0]
    assert zero.is_zero()


def test_homomorphism_sign():
    act = A.sl2_plane_action(1, 2, 3, 0)
    assert act.infinitesimal().homomorphism_sign() == -1
    bun = A.coadjoint_dressing_bundle(lie.sl2(), lie.sl2_defining_matrices())
    assert bun.infinitesimal().homomorphism_sign() == 1
    rot = A.rotation_plane_action()
    assert rot.infinitesimal().homomorphism_sign() == "abelian"


def test_check_poisson_action(rng):
    act = A.sl2_plane_action(0, 2, 0, 1)
    gs = A.sl2_rational_samples(100, seed=11)
    samples = list(zip(gs, plane_points(rng, 100)))
    assert A.check_poisson_action(act, samples).passed
    # identity: both sides agree because the coboundary vanishes at e
    assert A.check_poisson_action(act, [([[1, 0], [0, 1]], [Fraction(2), Fraction(3)])]).passed
    # constant h with a nonzero r-matrix fails at generic samples
    vs = ("x1", "x2")
    bad = A.sl2_plane_action(0, 2, 0, 1)
    bad.bivector = PolyBivector(vs, {(0, 1): MultiPoly.constant(vs, 1)})
    g = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    rep = A.check_poisson_action(bad, [(g, [Fraction(1), Fraction(1)])])
    assert not rep.passed
    with pytest.raises(ValueError):
        A.check_poisson_action(act, [([[2, 0], [0, 2]], [Fraction(1), Fraction(0)])])


def test_h_certificates(rng):
    cert = A.solve_h_certificate(0, 0, 4, 1)
    assert cert.passed and str(cert.h) == "x1^2 + x2^2 + 1"
    cert2 = A.solve_h_certificate(0, 2, 0, 0)
    assert cert2.passed and str(cert2.h) == "-1*x1*x2"
    cert3 = A.solve_h_certificate(0, 0, 0, 9)
    assert cert3.passed and str(cert3.h) == "9"
    for _ in range(5):
        lam = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        assert A.solve_h_certificate(*lam, c).passed
    assert A.numeric_h_residual(0, 2, 0, 1, count=100, seed=1) < 1e-12


# seeds on which an absolute 1e-12 bound failed: float terms reach about 1e5
@pytest.mark.parametrize("lam, seed", [
    ((1, 2, 5), 0), ((1, 2, 5), 2), ((1, 2, 5), 27), ((1, 2, 5), 124),
    ((0, 2, 0), 0), ((0, 2, 0), 64), ((0, 2, 0), 238),
])
def test_numeric_h_residual_is_relative(lam, seed):
    assert A.numeric_h_residual(*lam, 1, count=200, seed=seed) < 1e-12


def test_numeric_h_residual_rejects_a_wrong_h(monkeypatch):
    right = A.quadratic_h
    monkeypatch.setattr(A, "quadratic_h", lambda l1, l2, l3, c, **kw: right(l1 + 1, l2, l3, c, **kw))
    assert A.numeric_h_residual(1, 2, 5, 1, count=200, seed=0) > 1e-3


def test_structure_preserved():
    act = A.sl2_plane_action(0, 2, 0, 1)
    rep = A.check_structure_preserved(act)
    assert rep.per_generator[0][1] and not rep.passed
    sub = A.diagonal_subgroup_action(1)
    assert A.check_structure_preserved(sub).passed
    zero = A.LinearPoissonAction(
        lie.sl2(), lie.sl2_defining_matrices(), PolyBivector.zero(("x1", "x2"))
    )
    assert A.check_structure_preserved(zero).passed


def test_action_matrices_must_match_the_target_dimension():
    plane = PolyBivector.zero(("x1", "x2"))
    padded = [[row + [ZERO] for row in m] + [[ZERO] * 3] for m in lie.sl2_defining_matrices()]
    with pytest.raises(ValueError, match="2x2"):
        A.LinearPoissonAction(lie.sl2(), padded, plane)
    with pytest.raises(ValueError, match="2x2"):
        A.LinearPoissonAction(lie.sl2(), lie.sl2_defining_matrices(), plane,
                              lift_generators=padded)
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
        assert A.check_action_bracket_identity(act, dual, f, g).passed
    # zero dual bracket degenerates to the derivation identity (trivial structure)
    act0 = A.sl2_plane_action(0, 0, 0, 1)
    assert A.check_action_bracket_identity(act0, lie.abelian(3), x1, x2).passed


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
    assert len(rep.isotropy_basis) == 1
    v = rep.isotropy_basis[0]
    assert v[0].is_zero() and v[1] == v[2]
    assert len(rep.annihilator_basis) == 2
    assert not rep.annihilator_abelian
    assert A.isotropy_and_annihilator(act, [1, 0], lie.abelian(3)).annihilator_abelian
    rep0 = A.isotropy_and_annihilator(act, [0, 0], dual)
    assert len(rep0.isotropy_basis) == 3 and not rep0.annihilator_basis
    assert rep0.annihilator_abelian


def test_tangential(rng):
    pred = A.tangential_coefficient_predicate
    assert pred(0, 0, 4, 1)
    assert not pred(0, 2, 0, 1)
    assert not pred(0, 0, 4, -1)
    act = A.sl2_plane_action(0, 0, 4, 1)
    assert A.tangential_check(act, plane_points(rng, 50)).passed
    act_neg = A.sl2_plane_action(0, 0, 4, -1)
    w = A.find_rank_drop_witness(0, 0, 4, -1)
    assert w is not None
    rep = A.tangential_check(act_neg, [w])
    assert not rep.passed
    assert A.tangential_check(act_neg, [[Fraction(0), Fraction(0)]]).passed


def test_momentum_check_symbolic():
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    m_id = A.identity_momentum_map(L, bun.bivector)
    assert A.momentum_check(bun, m_id).passed
    shifted = A.identity_momentum_map(L, bun.bivector, shift=[Q(1), Q(-2), Q("1/3")])
    assert A.momentum_check(bun, shifted).passed
    # rotation example
    rot = A.rotation_plane_action()
    x, y = generators("x", "y")
    m_rot = A.MomentumMap(rot.algebra, [(x * x + y * y).scale(Q("1/2"))])
    assert A.momentum_check(rot, m_rot).passed
    # wrong sign fails
    m_bad = A.MomentumMap(rot.algebra, [(x * x + y * y).scale(Q("-1/2"))])
    assert not A.momentum_check(rot, m_bad).passed


def test_momentum_normalization_families():
    sub = A.diagonal_subgroup_action(1)
    rng = random.Random(5)
    pts = []
    while len(pts) < 60:
        p = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        if abs(1 - p[0] * p[1]) > 0.1:
            pts.append(p)
    log_family = lambda s: NumericField(lambda q: s * math.log(abs(1 - q[0] * q[1])), 2)
    rep = A.solve_momentum_normalization(sub, log_family, pts)
    assert rep.consistent and abs(rep.solved_constant - 0.5) < 1e-6
    pow_family = lambda a: NumericField(lambda q: a * abs(1 - q[0] * q[1]) ** -0.5, 2)
    rep2 = A.solve_momentum_normalization(sub, pow_family, pts)
    assert not rep2.consistent
    m_log = A.MomentumMap(sub.algebra, [log_family(rep.solved_constant)])
    check = A.momentum_check(sub, m_log, points=pts)
    assert check.passed and check.max_residual < 1e-6


def test_gamma(rng):
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    m_id = A.identity_momentum_map(L, bun.bivector)
    G0 = A.gamma(bun, m_id)
    assert all(p.is_zero() for p in G0.entries.values())
    mu0 = [Q(2), Q(-1), Q("1/2")]
    m_sh = A.identity_momentum_map(L, bun.bivector, shift=mu0)
    G1 = A.gamma(bun, m_sh)
    for (i, j), p in G1.entries.items():
        expect = sum((L.structure_constant(i, j, k) * mu0[k] for k in range(3)), Q(0))
        assert p.as_constant() == expect
    # abelian algebra with commuting components: both terms vanish
    ab = lie.abelian(2)
    pi2 = PolyBivector.constant_symplectic(2, names=("x", "y"))
    x, y = generators("x", "y")
    bun2 = A.LinearPoissonAction(ab, [linalg.zeros(2, 2)] * 2, pi2)
    m2 = A.MomentumMap(ab, [MultiPoly.zero(pi2.vars) + x, MultiPoly.zero(pi2.vars) + x * x])
    G2 = A.gamma(bun2, m2)
    assert all(p.is_zero() for p in G2.entries.values())


def test_gamma_checks(rng):
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    mu0 = [Q(2), Q(-1), Q("1/2")]
    m_sh = A.identity_momentum_map(L, bun.bivector, shift=mu0)
    G = A.gamma(bun, m_sh)
    rep = A.gamma_checks(bun, G, m_sh)
    assert rep.casimir_ok and rep.cocycle_ok
    assert rep.correction_solvable and rep.corrected_vanishes
    assert rep.correction == [-v for v in mu0]

    H = lie.heisenberg3()
    e12 = [[ZERO, ONE], [ZERO, ZERO]]
    e13 = [[ZERO, ZERO], [ZERO, ONE]]
    zero2 = [[ZERO, ZERO], [ZERO, ZERO]]
    bunH = A.coadjoint_dressing_bundle(H, [e12, e13, zero2])
    vs = bunH.bivector.vars
    one = MultiPoly.constant(vs, 1)
    zero = MultiPoly.zero(vs)
    G_bad = A.GammaCochain(H, {(0, 1): zero, (0, 2): one, (1, 2): zero})
    repH = A.gamma_checks(bunH, G_bad)
    assert repH.cocycle_ok and repH.correction_solvable is False
    m_h = A.identity_momentum_map(H, bunH.bivector, shift=[Q(0), Q(0), Q(5)])
    repH2 = A.gamma_checks(bunH, A.gamma(bunH, m_h), m_h)
    assert repH2.correction_solvable


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
    assert rep.passed and rep.casimir_ok
    with pytest.raises(ValueError):
        A.sigma(bun, m_id, [[2, 0], [0, 2]], pts[0])


def test_momentum_kernel_image(rng):
    rot = A.rotation_plane_action()
    x, y = generators("x", "y")
    m = A.MomentumMap(rot.algebra, [(x * x + y * y).scale(Q("1/2"))])
    rep = A.momentum_kernel_image(rot, m, [1, 0])
    assert rep.ok
    assert len(rep.kernel_basis) == 1
    assert rep.kernel_basis[0][0].is_zero()
    for _ in range(20):
        p = [Fraction(rng.randint(-5, 5), 2 ** rng.randint(0, 2)) for _ in range(2)]
        assert A.momentum_kernel_image(rot, m, p).ok
    rep0 = A.momentum_kernel_image(rot, m, [0, 0])
    assert rep0.ok and len(rep0.kernel_basis) == 2
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    with pytest.raises(ValueError):
        A.momentum_kernel_image(bun, A.identity_momentum_map(L, bun.bivector), [1, 0, 0])


def test_check_commutator_inclusion():
    rot = A.rotation_plane_action()
    x, y = generators("x", "y")
    m = A.MomentumMap(rot.algebra, [(x * x + y * y).scale(Q("1/2"))])
    assert A.check_commutator_inclusion(rot, m, [1, 0]).inclusion_holds
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    m_id = A.identity_momentum_map(L, bun.bivector)
    rep = A.check_commutator_inclusion(bun, m_id, [1, 2, 3])
    assert rep.inclusion_holds
    rep2 = A.check_commutator_inclusion(bun, m_id, [1, 0, 0])
    assert rep2.inclusion_holds and rep2.isotropy_dual_dim == 1


def test_consistent_single_action_variant():
    """With the left-coadjoint lift generators as the infinitesimal action the
    momentum map is minus the identity; everything stays coherent."""
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    neg = A.LinearPoissonAction(
        L, bun.lift_generators, bun.bivector, defining_mats=bun.defining_mats,
        lift=bun.lift, membership=bun.membership,
    )
    m_id = A.identity_momentum_map(L, bun.bivector)
    m_neg = A.MomentumMap(L, [c.scale(Q(-1)) for c in m_id.components])
    assert A.momentum_check(neg, m_neg).passed
    assert not A.momentum_check(neg, m_id).passed


def test_coadjoint_lift_preserves_linear_bivector(rng):
    L = lie.sl2()
    bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())
    gs = A.sl2_rational_samples(25, seed=6)
    pts = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in gs]
    assert A.check_poisson_action(bun, list(zip(gs, pts))).passed
