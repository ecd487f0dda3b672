"""Test oracles: the polynomial compositions ``poissonkit`` spelled out by hand
before :meth:`poissonkit.poly.MultiPoly.substitute` became the one
composition of the package.

* ``group_translate``: p(u * v) for the product group T^m x R^n, as its own
  loop over terms; affine variables map to ``x + x'`` and angular units to
  ``w * w'``, on the doubled chart (variables, then primed copies ``__b``);
* ``h_at_gx``: h(g x) of the quadratic plane component h, expanded by hand
  from the coefficients of h, on the chart (a1, a2, a3, a4, x1, x2).

The bodies are unchanged apart from the primed suffix, written out here.
"""

from __future__ import annotations

from poissonkit.poly import ANGULAR, MultiPoly, Var, generators
from poissonkit.scalars import GaussianRational, Q


def group_translate(p: MultiPoly) -> MultiPoly:
    doubled = tuple(list(p.vars) + [Var(v.name + "__b", v.kind) for v in p.vars])
    n = len(p.vars)
    out = MultiPoly.zero(doubled)
    for exp, c in p.terms.items():
        term = MultiPoly.constant(doubled, c)
        for i, (e, v) in enumerate(zip(exp, p.vars)):
            if e == 0:
                continue
            if v.kind == ANGULAR:
                mono = [0] * (2 * n)
                mono[i] = e
                mono[n + i] = e
                term = term * MultiPoly.monomial(doubled, mono, 1)
            else:
                base = MultiPoly.variable(doubled, v.name) + MultiPoly.variable(
                    doubled, v.name + "__b"
                )
                term = term * base ** e
        out = out + term
    return out


def h_at_gx(l1, l2, l3, c) -> MultiPoly:
    l1, l2, l3, cc = (GaussianRational.coerce(v) for v in (l1, l2, l3, c))
    a1, a2, a3, a4, x1, x2 = generators("a1", "a2", "a3", "a4", "x1", "x2")
    gx1 = a1 * x1 + a2 * x2
    gx2 = a3 * x1 + a4 * x2
    quarter = Q("1/4")
    lp = l1 + l3
    lm = l1 - l3
    return (
        (gx1 * gx1).scale(quarter * lp)
        - (gx2 * gx2).scale(quarter * lm)
        - (gx1 * gx2).scale(Q("1/2") * l2)
        + MultiPoly.constant(a1.vars, cc)
    )
