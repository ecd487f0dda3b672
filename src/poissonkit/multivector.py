"""Alternating tensors on sorted index tuples, and the one
Schouten-Nijenhuis bracket of the package.

A degree-p tensor is stored sparsely as a map from strictly increasing
index tuples ``(i1 < ... < ip)`` to nonzero coefficients.  The
Schouten-Nijenhuis bracket is computed term by term from the classical
formula on decomposables,

    [u1^...^up, v1^...^vq] =
        sum_{s,t} (-1)^{s+t} [u_s, v_t] ^ u1^..^u_s^..^up ^ v1^..^v_t^..^vq,

with each monomial term factored as (coeff * d_{i1}) ^ d_{i2} ^ ... so only
brackets of two frame vectors that carry at most one coefficient each are
ever needed.  The container supplies that bracket: [f d_i, g d_j] for
polynomial fields here, f g [e_i, e_j] for Lambda g in
:mod:`poissonkit.bialgebra`.
"""

from __future__ import annotations

import copy

from .linalg import sort_with_sign
from .poly import MultiPoly, _as_vars


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

    # -- what schouten() needs of a container -------------------------------

    def _space(self):
        return self.vars

    def _tensor(self, degree: int, comps):
        """A tensor on this space, of the base type of the container."""
        return PolyMultiVector(self.vars, degree, comps)

    def _frame_bracket(self, f, i, g, j) -> list:
        """[f d_i, g d_j] = f (d_i g) d_j - g (d_j f) d_i as (coefficient,
        index) pairs; a coefficient None stands for 1."""
        out = []
        if g is not None:
            dg = g.partial(self.vars[i].name)
            if not dg.is_zero():
                out.append((dg if f is None else f * dg, j))
        if f is not None:
            df = f.partial(self.vars[j].name)
            if not df.is_zero():
                out.append((-df if g is None else -(g * df), i))
        return out

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
    """Schouten-Nijenhuis bracket of two multivectors (degrees >= 1) on one
    space: polynomial fields on one chart, or two elements of one Lambda g."""
    if A.degree < 1 or B.degree < 1:
        raise ValueError("schouten() expects multivectors of degree >= 1")
    if A._space() != B._space():
        raise ValueError("multivectors must live on one space")
    frame_bracket = A._frame_bracket
    acc = {}  # sorted index tuple -> coefficient, zero sums dropped
    # each component is factored as (coeff * u_1) ^ u_2 ^ ...; a coefficient
    # None stands for 1 and a factor's coefficient is either bracketed or rest
    for ka, ca in A.comps.items():
        for kb, cb in B.comps.items():
            for s, ia in enumerate(ka):
                f, rest_f = (ca, None) if s == 0 else (None, ca)
                for t, ib in enumerate(kb):
                    g, rest_g = (cb, None) if t == 0 else (None, cb)
                    bracket_terms = frame_bracket(f, ia, g, ib)  # [u_s, v_t]
                    if not bracket_terms:
                        continue
                    sign = (-1) ** (s + t)
                    rest_idx = ka[:s] + ka[s + 1:] + kb[:t] + kb[t + 1:]
                    coeff_rest = rest_g if rest_f is None else (
                        rest_f if rest_g is None else rest_f * rest_g)
                    for c, lead in bracket_terms:
                        res = sort_with_sign((lead, *rest_idx))
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
