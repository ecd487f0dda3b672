import itertools
from fractions import Fraction
from pathlib import Path

import pytest

import bracket_oracles
import composition_oracles
from bialgebra_oracles import multiplicative_log_bivector_jacobiator
from bracket_oracles import ad_multivector
from conftest import random_constant_algebra
from poissonkit import bialgebra, lie
from poissonkit.bialgebra import (
    AbelianPLStructure,
    AlgMultiVector,
    LieBialgebra,
    RMatrix,
    abelian_pl_check,
    check_log_coordinate_identity,
    delta_duality_residuals,
    delta_from_r,
    dual_algebra_from_r,
    dual_bracket_from_r,
    schouten_wedge_bracket,
    validate_bialgebra,
)
from poissonkit.bundles import load_bundle
from poissonkit.poisson import PolyBivector
from poissonkit.poly import MultiPoly, Var
from poissonkit.scalars import Q, ZERO, ONE


def basis(i, n=3):
    return [ONE if t == i else ZERO for t in range(n)]


def test_delta_from_r(sl2):
    zero_r = RMatrix.from_matrix(sl2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    for i in range(3):
        assert delta_from_r(zero_r, basis(i)).is_zero()
    ab = lie.abelian(3)
    any_r = RMatrix(ab, {(0, 1): 5, (1, 2): -2})
    for i in range(3):
        assert delta_from_r(any_r, basis(i)).is_zero()
    # ad_{e1}(2 e2^e3) = 2(e3^e3 + e2^e2) = 0
    r = RMatrix(sl2, {(1, 2): 2})
    assert delta_from_r(r, basis(0)).is_zero()


def test_schouten_wedge_bracket(sl2, rng):
    zero_r = RMatrix.from_matrix(sl2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    rep = schouten_wedge_bracket(zero_r)
    assert rep["schouten_square"] == "0" and rep["passed"]
    # every wedge on the three-dimensional simple algebras is invariant
    for _ in range(10):
        lam = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        rep = schouten_wedge_bracket(RMatrix.sl2_family(sl2, *lam))
        assert rep["passed"]
    ab = lie.abelian(3)
    rep2 = schouten_wedge_bracket(RMatrix(ab, {(0, 1): 3}))
    assert rep2["schouten_square"] == "0" and rep2["passed"]


def test_dual_brackets_worked_case(sl2):
    r = RMatrix.sl2_family(sl2, 0, 2, 0)
    assert dual_bracket_from_r(r, basis(0), basis(1)) == [Q(0), Q(-2), Q(0)]
    assert dual_bracket_from_r(r, basis(1), basis(2)) == [Q(0), Q(0), Q(0)]
    assert dual_bracket_from_r(r, basis(2), basis(0)) == [Q(0), Q(0), Q(2)]
    zero = RMatrix.sl2_family(sl2, 0, 0, 0)
    for i, j in itertools.combinations(range(3), 2):
        assert dual_bracket_from_r(zero, basis(i), basis(j)) == [ZERO] * 3


def test_dual_brackets_general_closed_form(sl2, rng):
    """Coefficient-by-coefficient match with the closed forms; note the
    [e2*, e3*] bracket carries +l3 e3* (the sign forced by the Jacobi
    identity and by duality against ad_X Lam)."""
    for _ in range(50):
        l1, l2, l3 = (Q(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(3))
        r = RMatrix.sl2_family(sl2, l1, l2, l3)
        assert dual_bracket_from_r(r, basis(0), basis(1)) == [-l3, -l2, Q(0)]
        assert dual_bracket_from_r(r, basis(1), basis(2)) == [Q(0), l1, l3]
        assert dual_bracket_from_r(r, basis(2), basis(0)) == [-l1, Q(0), l2]


def test_printed_variant_of_23_bracket_fails_jacobi(sl2):
    """The -l3 variant of [e2*, e3*] does not satisfy the Jacobi identity
    (so it cannot be the dual bracket of any r-matrix)."""
    l1, l2, l3 = Q(1), Q(1), Q(1)
    brackets = {
        (0, 1): [-l3, -l2, Q(0)],
        (1, 2): [Q(0), l1, -l3],   # sign-flipped third component
        (2, 0): [-l1, Q(0), l2],
    }
    wrong = lie.LieAlgebra(3, {(0, 1): brackets[(0, 1)], (1, 2): brackets[(1, 2)],
                               (0, 2): [-x for x in brackets[(2, 0)]]})
    assert not wrong.check_jacobi().ok
    # while the computed dual algebra does satisfy it
    assert dual_algebra_from_r(RMatrix.sl2_family(sl2, l1, l2, l3)).check_jacobi().ok


def test_duality_cross_check(sl2, rng):
    for L in (sl2, lie.so3(), lie.heisenberg3()):
        for _ in range(10):
            lam = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
            assert delta_duality_residuals(RMatrix.sl2_family(L, *lam)) == []


def test_duality_residuals_match_the_all_pairs_oracle(rng, monkeypatch):
    """One dual bracket per pair i < j gives the violations, in order and
    value, of the oracle that brackets every ordered pair; the identity holds
    for every r on every algebra, so violations come from a flipped sign
    convention for delta."""
    algebras = [lie.sl2(), lie.so3(), lie.heisenberg3(),
                random_constant_algebra(rng, 3), random_constant_algebra(rng, 4)]
    rs = [RMatrix(L, {key: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for key in itertools.combinations(range(L.dim), 2) if rng.random() < 0.8})
          for L in algebras for _ in range(6)]
    for r in rs:
        assert delta_duality_residuals(r) == bracket_oracles.delta_duality_residuals(r) == []
    for module in (bialgebra, bracket_oracles):
        monkeypatch.setattr(module, "delta_from_r", lambda r, X: -delta_from_r(r, X))
    with_violations = 0
    for r in rs:
        got = delta_duality_residuals(r)
        assert got == bracket_oracles.delta_duality_residuals(r)
        with_violations += bool(got)
    assert with_violations >= 20


def test_dual_jacobi_under_invariance(rng):
    for make in (lie.sl2, lie.so3):
        L = make()
        for _ in range(15):
            lam = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
            r = RMatrix.sl2_family(L, *lam)
            assert schouten_wedge_bracket(r)["passed"]
            assert dual_algebra_from_r(r).check_jacobi().ok


def test_validate_bialgebra(sl2, rng):
    for _ in range(10):
        lam = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        bi = LieBialgebra.from_r_matrix(RMatrix.sl2_family(sl2, *lam))
        rep = validate_bialgebra(bi)
        assert rep["passed"]
    triv = LieBialgebra(primal=lie.abelian(3), dual=lie.abelian(3))
    assert validate_bialgebra(triv)["passed"]


def test_validate_bialgebra_detects_corruption(sl2):
    bi = LieBialgebra.from_r_matrix(RMatrix.sl2_family(sl2, 1, 2, 3))
    brackets = {}
    for i in range(3):
        for j in range(i + 1, 3):
            brackets[(i, j)] = bi.dual.basis_bracket(i, j)
    vec = list(brackets[(0, 1)])
    vec[0] = vec[0] + Q(1)
    brackets[(0, 1)] = vec
    bad = LieBialgebra(primal=sl2, dual=lie.LieAlgebra(3, brackets, basis=bi.dual.basis))
    rep = validate_bialgebra(bad)
    assert not (rep["jacobi_dual"] and rep["cocycle"])


def test_coboundary_cocycle_always(sl2, rng):
    """delta(X) = ad_X Lam satisfies the cocycle identity for every skew Lam,
    r-matrix or not (it is a coboundary)."""
    for _ in range(10):
        coeffs = {
            (i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for (i, j) in ((0, 1), (1, 2), (0, 2))
        }
        r = RMatrix(sl2, coeffs)
        for i in range(3):
            for j in range(i + 1, 3):
                lhs = AlgMultiVector(sl2, 2, {})
                vec = sl2.basis_bracket(i, j)
                for k in range(3):
                    if not vec[k].is_zero():
                        lhs = lhs + delta_from_r(r, basis(k)).scale(vec[k])
                rhs = ad_multivector(sl2, basis(i), delta_from_r(r, basis(j))) - \
                    ad_multivector(sl2, basis(j), delta_from_r(r, basis(i)))
                assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("make", [
    lambda L: RMatrix(L, {(0, 5): 1}),
    lambda L: RMatrix(L, {(-1, 1): 1}),
    lambda L: AlgMultiVector(L, 1, {(3,): 2}),
    lambda L: AlgMultiVector(L, 3, {(0, 1, 3): 0}),
    lambda L: AbelianPLStructure.from_constants(-1, 2, {}),
    lambda L: AbelianPLStructure.from_constants(1, 1, {(0, 1, 2): Q(1)}),
    lambda L: AbelianPLStructure.from_constants(1, 1, {(-1, 1, 1): Q(1)}),
    lambda L: AbelianPLStructure.from_constants(1, 1, {(1, 1, 1): Q(1)}),
], ids=["rmatrix-key-past-dim", "rmatrix-negative-key", "vector-key-past-dim",
        "zero-component-key-past-dim", "negative-m", "constant-k-past-dim", "constant-negative-i",
        "nonzero-diagonal-constant"])
def test_index_keys_out_of_range_are_rejected(sl2, make):
    with pytest.raises(ValueError):
        make(sl2)


def test_abelian_structures():
    assert abelian_pl_check(AbelianPLStructure.from_constants(2, 1, {}))["passed"]
    lin = AbelianPLStructure.torus2_line_linear(Q(2), Q(-3), Q("1/2"))
    assert abelian_pl_check(lin)["passed"]
    bad = AbelianPLStructure.from_constants(2, 1, {(1, 2, 0): Q(1)})
    rep = abelian_pl_check(bad)
    assert not rep["zero_block"] and rep["zero_block_violations"]
    assert not rep["multiplicative"]


def test_pure_torus_admits_only_trivial():
    """With no vector factor every candidate coefficient violates the zero
    block, so the only multiplicative structure is zero."""
    trivial = AbelianPLStructure.from_constants(2, 0, {})
    assert abelian_pl_check(trivial)["passed"]
    nontrivial = AbelianPLStructure.from_constants(2, 0, {(0, 1, 0): Q(1)})
    rep = abelian_pl_check(nontrivial)
    assert not rep["zero_block"] and not rep["multiplicative"]


def test_torus_example_verdicts():
    """The mixed Laurent-coefficient structure is a genuine Poisson bivector
    (the Jacobi identity holds for every coefficient triple) but it is not
    additively multiplicative; the checker names the failing identities."""
    s = AbelianPLStructure.torus2_line_example(Q(2), Q(-3), Q("1/2"))
    rep = abelian_pl_check(s)
    assert rep["unit_vanishes"]
    assert rep["jacobi"]
    assert not rep["multiplicative"]
    assert not rep["passed"]
    fails = rep["failing_identities"]
    assert any("multiplicativity" in f for f in fails)
    assert rep["multiplicativity_violations"]
    # arbitrary coefficients: Jacobi still holds
    s2 = AbelianPLStructure.torus2_line_example(Q("7/5"), Q(1), Q(-4))
    assert abelian_pl_check(s2)["jacobi"]


def test_multiplicativity_residuals_match_the_group_translate_oracle():
    """On the sample bundle's abelian structures, also with Laurent terms of
    negative exponent added, the residual pi(u*v) - pi(u) - pi(v) is the one
    the old term-by-term group translation gives."""
    sample = Path(__file__).resolve().parent.parent / "demos" / "bundles" / "sample.json"
    for s in load_bundle(str(sample)).abelian_structures.values():
        pi = s.bivector
        primed = tuple(Var(v.name + "__b", v.kind) for v in pi.vars)
        laurent = MultiPoly.monomial(pi.vars, (-2, -1, 1), Q(3)) + MultiPoly.monomial(
            pi.vars, (0, -1, 0), Q("-1/2"))
        for comps in (pi.comps, {k: p + laurent * p for k, p in pi.comps.items()}):
            rep = abelian_pl_check(AbelianPLStructure(s.m, s.n, PolyBivector(pi.vars, comps)))
            expected = [(k, composition_oracles.group_translate(p) - p
                         - MultiPoly(primed, dict(p.terms))) for k, p in sorted(comps.items())]
            assert rep["multiplicativity_violations"] == \
                [{"component": list(k), "residual": str(r)} for k, r in expected if not r.is_zero()]
            assert rep["multiplicative"] == all(r.is_zero() for _, r in expected)


def test_log_coordinate_identity(sl2):
    for L in (sl2, lie.abelian(3)):
        rep = check_log_coordinate_identity(L)
        assert rep["passed"] and rep["residuals"] == []
        assert rep == {"passed": True, "mode": "symbolic", "residuals": []}
    bad = lie.LieAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [0, 1, 0]})
    repb = check_log_coordinate_identity(bad)
    assert not repb["passed"]
    assert [(tuple(v["triple"]), v["residual"]) for v in repb["residuals"]] == [
        ((0, 1, 2), "-1*l3"), ((0, 2, 1), "l3"), ((1, 0, 2), "l3"),
        ((1, 2, 0), "-1*l3"), ((2, 0, 1), "-1*l3"), ((2, 1, 0), "l3")]


def test_log_identity_matches_direct_jacobiator(sl2, rng):
    """The log-coordinate polynomial is zero exactly where the float
    Jacobiator of the multiplicative bivector stays below 1e-10 at every
    sample (independent oracle)."""
    bad = lie.LieAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [0, 1, 0]})
    algebras = [sl2, lie.so3(), lie.heisenberg3(), lie.abelian(3), bad]
    algebras += [random_constant_algebra(rng, n) for n in (3, 3, 4, 4)]
    verdicts = []
    for L in algebras:
        zs = [[Fraction(rng.randint(2, 20), rng.randint(1, 5)) for _ in range(L.dim)]
              for _ in range(15)]
        small = all(multiplicative_log_bivector_jacobiator(L, z) < 1e-10 for z in zs)
        assert check_log_coordinate_identity(L)["passed"] == small
        verdicts.append(small)
    assert True in verdicts and False in verdicts


def test_rmatrix_json(sl2):
    r = RMatrix.sl2_family(sl2, Fraction(1, 2), 2, -3)
    back = RMatrix.from_json(sl2, r.to_json())
    assert all(
        back.component(i, j) == r.component(i, j) for i in range(3) for j in range(3)
    )
    with pytest.raises(ValueError):
        RMatrix.from_matrix(sl2, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
