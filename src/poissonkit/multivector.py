"""Alternating tensors on sorted index tuples, and the Schouten bracket of
polynomial multivector fields on affine space.

A degree-p tensor is stored sparsely as a map from strictly increasing
index tuples ``(i1 < ... < ip)`` to nonzero coefficients.  The
Schouten-Nijenhuis bracket is computed term by term from the classical
formula on decomposables,

    [u1^...^up, v1^...^vq] =
        sum_{s,t} (-1)^{s+t} [u_s, v_t] ^ u1^..^u_s^..^up ^ v1^..^v_t^..^vq,

with each monomial term factored as (coeff * d_{i1}) ^ d_{i2} ^ ... so only
vector-field brackets of the forms [f d_i, g d_j] are ever needed.
"""

from __future__ import annotations

import copy

from .linalg import sort_with_sign
from .poly import MultiPoly, Var, _as_vars
from .scalars import Q


class PolyMultiVector:
    """A homogeneous alternating tensor; here a polynomial multivector field.

    This class owns how every alternating tensor of the package is keyed,
    signed, summed and printed.  Subclasses change the coefficients through
    their constructor and the frame label through :meth:`_frame`.
    """

    def __init__(self, variables, degree: int, comps=None):
        self.vars = _as_vars(variables)
        self.n = len(self.vars)
        self.degree = int(degree)
        self.comps = self._collect(comps)

    def _collect(self, comps) -> dict:
        """``{index tuple: coefficient}`` on sorted keys: each coefficient
        takes the sign of its sorting permutation, keys that sort alike are
        summed, and repeated indices and zero sums are dropped."""
        clean = {}
        for idx, c in (comps or {}).items():
            res = sort_with_sign(tuple(idx))
            if res is None or c.is_zero():
                continue
            key, sign = res
            if len(key) != self.degree:
                raise ValueError("component index arity does not match degree")
            c = c if sign == 1 else -c
            if key in clean:
                c = clean[key] + c
                if c.is_zero():
                    del clean[key]
                    continue
            clean[key] = c
        return clean

    def _like(self, comps):
        """A tensor of this type, space and degree with components ``comps``."""
        out = copy.copy(self)
        out.comps = self._collect(comps)
        return out

    def _zero(self):
        return MultiPoly.zero(self.vars)

    def _frame(self, key) -> str:
        return "^".join(f"d_{self.vars[i].name}" for i in key)

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.comps

    def component(self, *idx):
        """The coefficient of the frame ``idx`` in any index order."""
        c = self.comps.get(idx)
        if c is not None:
            return c
        res = sort_with_sign(idx)
        c = None if res is None else self.comps.get(res[0])
        if c is None:
            return self._zero()
        return c if res[1] == 1 else -c

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add multivectors of different degree")
        comps = dict(self.comps)
        for k, c in other.comps.items():
            comps[k] = comps[k] + c if k in comps else c
        return self._like(comps)

    def __neg__(self):
        return self._like({k: -c for k, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return self._like({k: c * s for k, c in self.comps.items()})

    def __eq__(self, other):
        return (
            isinstance(other, PolyMultiVector)
            and self.degree == other.degree
            and (self - other).is_zero()
        )

    def __str__(self):
        if not self.comps:
            return "0"
        return " + ".join(f"({c}) {self._frame(k)}" for k, c in sorted(self.comps.items()))

    __repr__ = __str__


def schouten(A: PolyMultiVector, B: PolyMultiVector) -> PolyMultiVector:
    """Schouten-Nijenhuis bracket of polynomial multivectors (degrees >= 1)."""
    if A.degree < 1 or B.degree < 1:
        raise ValueError("schouten() expects multivectors of degree >= 1")
    if A.vars != B.vars:
        raise ValueError("multivectors must share a coordinate system")
    variables = A.vars
    names = [v.name for v in variables]
    out_deg = A.degree + B.degree - 1
    acc = {}  # sorted index tuple -> coefficient, zero sums dropped

    def factors(mv, key):
        """Vector-field factor list for one component: first factor carries
        the polynomial coefficient."""
        coeff = mv.comps[key]
        return [(coeff, key[0])] + [(None, i) for i in key[1:]]

    for ka in A.comps:
        fa = factors(A, ka)
        for kb in B.comps:
            fb = factors(B, kb)
            for s, (cf_a, ia) in enumerate(fa):
                for t, (cf_b, ib) in enumerate(fb):
                    # [u_s, v_t]: list of (poly, index)
                    bracket_terms = []
                    f = cf_a  # None means constant 1
                    g = cf_b
                    if f is not None and g is not None:
                        dg = g.partial(names[ia])
                        if not dg.is_zero():
                            bracket_terms.append((f * dg, ib))
                        df = f.partial(names[ib])
                        if not df.is_zero():
                            bracket_terms.append((-(g * df), ia))
                    elif f is not None:  # [f d_ia, d_ib] = -(d_ib f) d_ia
                        df = f.partial(names[ib])
                        if not df.is_zero():
                            bracket_terms.append((-df, ia))
                    elif g is not None:  # [d_ia, g d_ib] = (d_ia g) d_ib
                        dg = g.partial(names[ia])
                        if not dg.is_zero():
                            bracket_terms.append((dg, ib))
                    if not bracket_terms:
                        continue
                    sign = (-1) ** ((s + 1) + (t + 1))
                    rest_a = [fa[r] for r in range(len(fa)) if r != s]
                    rest_b = [fb[r] for r in range(len(fb)) if r != t]
                    # outstanding polynomial coefficients from unbracketed factors
                    coeff_rest = None
                    rest_idx = []
                    for cf, i in rest_a + rest_b:
                        rest_idx.append(i)
                        if cf is not None:
                            coeff_rest = cf if coeff_rest is None else coeff_rest * cf
                    for poly, lead in bracket_terms:
                        res = sort_with_sign((lead, *rest_idx))
                        if res is None:
                            continue
                        key, perm_sign = res
                        total = poly if coeff_rest is None else poly * coeff_rest
                        total = total.scale(Q(sign * perm_sign))
                        if key in acc:
                            total = acc[key] + total
                        acc[key] = total
                        if total.is_zero():
                            del acc[key]
    return PolyMultiVector(variables, out_deg, acc)


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
