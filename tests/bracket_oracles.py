"""Test oracles: bracket computations of ``poissonkit`` in the direct form
they had before :func:`poissonkit.multivector.schouten` became the one
Schouten-Nijenhuis bracket of the package, before the duality check used
skew-symmetry and before both Jacobi routes summed their products with
:meth:`poissonkit.poly.MultiPoly.sum_of_products`.

* ``lie_bracket_fields``: the coordinate formula of the Jacobi-Lie bracket
  of two polynomial vector fields;
* ``alg_schouten``: the Schouten bracket on Lambda g as its own loop over
  structure constants;
* ``ad_multivector``: the Leibniz extension of ad_X to Lambda^p g;
* ``delta_duality_residuals``: the duality cross-check with one dual
  bracket for every ordered pair (i, j), the diagonal included;
* ``ring_product``: the product of two polynomials as ``MultiPoly.__mul__``
  merged it before it called ``sum_of_products``;
* ``sum_product_then_add``: a sum of products, one ``ring_product`` per
  factor and one addition per product;
* ``jacobiator_product_then_add``: the cyclic Jacobiator with one
  polynomial product and one addition per term;
* ``schouten_multiplying``: the Schouten loop whose frame brackets multiply
  their coefficients and whose terms are added one at a time.

The bodies are unchanged; only the results of the first three are built with
``AlgMultiVector(L, ...)``, the container's constructor today, and
``sum_product_then_add`` takes ``(coefficient, factors)`` pairs.
"""

from __future__ import annotations

import itertools
from operator import add

from poissonkit import linalg
from poissonkit.bialgebra import AlgMultiVector, RMatrix, delta_from_r, dual_bracket_from_r
from poissonkit.lie import LieAlgebra
from poissonkit.multivector import PolyMultiVector
from poissonkit.poly import MultiPoly, Var
from poissonkit.scalars import GaussianRational, Q, ZERO


def lie_bracket_fields(variables, V, W) -> list:
    """Jacobi-Lie bracket of two polynomial vector fields, as components: the
    coordinate formula, an independent reference for :func:`schouten` in degree 1."""
    names = [v.name if isinstance(v, Var) else v for v in variables]
    n = len(names)
    out = []
    for i in range(n):
        acc = None
        for j in range(n):
            t1 = V[j] * W[i].partial(names[j])
            t2 = W[j] * V[i].partial(names[j])
            term = t1 - t2
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def ad_multivector(L: LieAlgebra, X, T: AlgMultiVector) -> AlgMultiVector:
    """Leibniz extension of ad_X to Lambda^p g."""
    Xc = [GaussianRational.coerce(x) for x in X]
    comps = {}
    for key, c in T.comps.items():
        for pos, idx in enumerate(key):
            # replace slot `pos` by [X, e_idx]
            br = [ZERO] * L.dim
            for a, xa in enumerate(Xc):
                if xa.is_zero():
                    continue
                row = L.basis_bracket(a, idx)
                br = [b + xa * r for b, r in zip(br, row)]
            for k in range(L.dim):
                if br[k].is_zero():
                    continue
                new_idx = key[:pos] + (k,) + key[pos + 1:]
                comps[new_idx] = comps.get(new_idx, ZERO) + c * br[k]
    return AlgMultiVector(L, T.degree, comps)


def alg_schouten(L: LieAlgebra, A: AlgMultiVector, B: AlgMultiVector) -> AlgMultiVector:
    """Algebraic Schouten bracket on Lambda g (constant coefficients)."""
    comps = {}
    for ka, ca in A.comps.items():
        for kb, cb in B.comps.items():
            for s, ia in enumerate(ka):
                for t, ib in enumerate(kb):
                    br = L.basis_bracket(ia, ib)
                    sign = (-1) ** ((s + 1) + (t + 1))
                    rest = tuple(ka[r] for r in range(len(ka)) if r != s) + tuple(
                        kb[r] for r in range(len(kb)) if r != t
                    )
                    for k in range(L.dim):
                        if br[k].is_zero():
                            continue
                        idx = (k,) + rest
                        comps[idx] = comps.get(idx, ZERO) + ca * cb * br[k] * Q(sign)
    return AlgMultiVector(L, A.degree + B.degree - 1, comps)


def delta_duality_residuals(r: RMatrix) -> list:
    """Cross-check <[e_i*, e_j*]_*, e_k> = (ad_{e_k} Lam)(e_i*, e_j*).

    Returns the list of (i, j, k, residual) violations (empty when the
    calibrated conventions are coherent).
    """
    L = r.algebra
    n = L.dim
    e = linalg.identity(n)
    deltas = [delta_from_r(r, X) for X in e]
    out = []
    for i in range(n):
        for j in range(n):
            br = dual_bracket_from_r(r, e[i], e[j])
            for k in range(n):
                rhs = deltas[k].component(i, j)
                if br[k] != rhs:
                    out.append((i, j, k, br[k] - rhs))
    return out


def ring_product(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """``p * q`` with one scalar product and one addition per pair of terms;
    a sum that reaches zero is removed and comes back at the end."""
    p, q = p.align(q)
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(map(add, e1, e2))
            s = terms.get(e, ZERO) + c1 * c2
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
    return MultiPoly._clean(p.vars, terms)


def sum_product_then_add(chart, products) -> MultiPoly:
    """``sum c * f1 * f2 * ...`` with one polynomial product per factor and
    one addition per product."""
    acc = MultiPoly.zero(chart)
    for c, factors in products:
        term = MultiPoly.constant(chart, c)
        for f in factors:
            term = ring_product(term, f)
        acc = acc + term
    return acc


def jacobiator_product_then_add(pi) -> PolyMultiVector:
    """Trivector of cyclic sums {{x_i,x_j},x_k} + c.p. over coordinate triples,
    one product and one addition per term."""
    names = [v.name for v in pi.vars]
    P = [[pi.component(a, b) for b in range(pi.n)] for a in range(pi.n)]
    comps = {}
    for i, j, k in itertools.combinations(range(pi.n), 3):
        acc = MultiPoly.zero(pi.vars)
        for a in range(pi.n):
            acc = acc + P[a][k] * P[i][j].partial(names[a])
            acc = acc + P[a][i] * P[j][k].partial(names[a])
            acc = acc - P[a][j] * P[i][k].partial(names[a])
        comps[(i, j, k)] = acc
    return PolyMultiVector(pi.vars, 3, comps)


def _frame_bracket_multiplying(A, f, i, g, j) -> list:
    """[f u_i, g u_j] as (coefficient, index) pairs with the coefficients
    multiplied out; a coefficient None stands for 1."""
    if isinstance(A, AlgMultiVector):
        c = g if f is None else f if g is None else f * g
        return [(ck if c is None else c * ck, k)
                for k, ck in enumerate(A.algebra.basis_bracket(i, j)) if not ck.is_zero()]
    out = []
    if g is not None:
        dg = g.partial(A.vars[i].name)
        if not dg.is_zero():
            out.append((dg if f is None else f * dg, j))
    if f is not None:
        df = f.partial(A.vars[j].name)
        if not df.is_zero():
            out.append((-df if g is None else -(g * df), i))
    return out


def schouten_multiplying(A, B):
    """Schouten-Nijenhuis bracket with every term multiplied out and added to
    its frame's coefficient at once."""
    acc = {}
    for ka, ca in A.comps.items():
        for kb, cb in B.comps.items():
            for s, ia in enumerate(ka):
                f, rest_f = (ca, None) if s == 0 else (None, ca)
                for t, ib in enumerate(kb):
                    g, rest_g = (cb, None) if t == 0 else (None, cb)
                    bracket_terms = _frame_bracket_multiplying(A, f, ia, g, ib)
                    if not bracket_terms:
                        continue
                    sign = (-1) ** (s + t)
                    rest_idx = ka[:s] + ka[s + 1:] + kb[:t] + kb[t + 1:]
                    coeff_rest = rest_g if rest_f is None else (
                        rest_f if rest_g is None else rest_f * rest_g)
                    for c, lead in bracket_terms:
                        res = linalg.sort_with_sign((lead, *rest_idx))
                        if res is None:
                            continue
                        key, perm_sign = res
                        total = c if coeff_rest is None else c * coeff_rest
                        if sign * perm_sign < 0:
                            total = -total
                        if key in acc:
                            total = acc[key] + total
                        acc[key] = total
                        if total.is_zero():
                            del acc[key]
    return A._tensor(A.degree + B.degree - 1, acc)
