"""The one-form sign-convention study, formerly in ``poissonkit.poisson``.

``poisson.one_form_bracket`` is normalized by {df, dg} = d{f, g}.  A
displayed formula places the interior-product signs the other way; these
functions compare the two placements, for the bracket of one-forms and for
the pairing identity <V, {alpha, beta}> = (L_V pi)(alpha, beta) +/- interior
terms.  No check of the package cites that display, so they are test code;
they read the package through public names only.
"""

from poissonkit.poisson import (
    PolyBivector,
    PolyOneForm,
    PolyVectorField,
    differential,
    lie_derivative_bivector,
    one_form_bracket,
)
from poissonkit.poly import MultiPoly


def _interior_two_form(V: PolyVectorField, beta: PolyOneForm) -> PolyOneForm:
    """i_V d(beta) as a one-form: (i_V dbeta)_j = sum_i V^i (d_i beta_j - d_j beta_i)."""
    names = [v.name for v in V.vars]
    v = [V.component(i) for i in range(V.n)]
    b = [beta.component(i) for i in range(V.n)]
    out = []
    for j in range(len(names)):
        products = []
        for i in range(len(names)):
            products += [(1, (v[i], b[j].partial(names[i]))), (-1, (v[i], b[i].partial(names[j])))]
        out.append(MultiPoly.sum_of_products(V.vars, products))
    return PolyOneForm(V.vars, out)


def one_form_bracket_displayed(pi: PolyBivector, alpha: PolyOneForm, beta: PolyOneForm) -> PolyOneForm:
    """The variant d(pi(alpha,beta)) - i_{sharp(alpha)} dbeta + i_{sharp(beta)} dalpha.

    It agrees with ``one_form_bracket`` on exact forms but differs in
    general; :func:`compare_one_form_conventions` reports the relation.
    """
    sa = pi.sharp(alpha)
    sb = pi.sharp(beta)
    d0 = differential(pi.pair(alpha, beta), pi.vars)
    return d0 - _interior_two_form(sa, beta) + _interior_two_form(sb, alpha)


def compare_one_form_conventions(pi, alpha, beta) -> dict:
    k = one_form_bracket(pi, alpha, beta)
    d = one_form_bracket_displayed(pi, alpha, beta)
    diff = k - d
    return {"match_verbatim": diff.is_zero(),
            "match_up_to_sign": (k + d).is_zero() or diff.is_zero(), "difference": str(diff)}


def pairing_identity_check(pi: PolyBivector, V: PolyVectorField, alpha: PolyOneForm,
                           beta: PolyOneForm) -> dict:
    """Check <V, {alpha,beta}> against (L_V pi)(alpha,beta) -/+ interior terms.

    The displayed placement of the interior-product signs does not hold with
    the {df,dg}=d{f,g} normalization; the corrected placement (signs swapped)
    does, and both verdicts are reported, with the corrected residual.
    """
    lhs = V.pair(one_form_bracket(pi, alpha, beta))
    lv = lie_derivative_bivector(pi, V)
    products = []
    for (i, j), p in lv.comps.items():
        products += [(1, (p, alpha.component(i), beta.component(j))),
                     (-1, (p, alpha.component(j), beta.component(i)))]
    pair_lv = MultiPoly.sum_of_products(pi.vars, products)
    sa = pi.sharp(alpha)
    sb = pi.sharp(beta)
    ivb = V.pair(beta)
    iva = V.pair(alpha)
    term_a = sa.pair(differential(ivb, pi.vars))
    term_b = sb.pair(differential(iva, pi.vars))
    residual = lhs - (pair_lv + term_a - term_b)
    return {"passed": residual.is_zero(), "mode": "symbolic",
            "verbatim_holds": (lhs - (pair_lv - term_a + term_b)).is_zero(),
            "residual": str(residual)}
