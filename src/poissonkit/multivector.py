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
ever needed.  :func:`_frame_products` is the one enumeration of the formula:
it factors each component once, sorts each index tuple once, and collects,
for each output frame, the terms of that frame as signed products.
:func:`schouten` sums each frame once.  :func:`poissonkit.poisson.jacobi_check`
reads only whether [pi, pi] is zero, so it decides that frame by frame: it
sums the frames one at a time and stops at the first nonzero one.  The
bracket is graded symmetric, [A, B] = -(-1)^((p-1)(q-1)) [B, A], so the
square [A, A] of an even-degree tensor sums each unordered pair of its
components once, an off-diagonal pair with weight 2.  A container supplies
two things:

* ``_frame_bracket``: the bracket of two frame vectors as ``(sign, factors,
  index)`` triples, unmultiplied: ``[f d_i, g d_j] = f (d_i g) d_j - g (d_j f)
  d_i`` for polynomial fields here, ``f g [e_i, e_j]`` from the structure
  constants for Lambda g in :mod:`poissonkit.bialgebra`;
* ``_sum_products``: the coefficient ``sum c * f1 * f2 * ...`` of one frame
  from its ``(coefficient, factors)`` pairs,
  :meth:`~poissonkit.poly.MultiPoly.sum_of_products` for polynomial fields
  and a scalar sum for Lambda g.
"""

from __future__ import annotations

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
        summed, and repeated indices and zero sums are dropped.  An index
        outside ``0..n-1`` raises ``ValueError``, also with a zero coefficient."""
        clean = {}
        for idx, c in (comps or {}).items():
            res = sort_with_sign(tuple(idx))
            if res is None:
                continue
            key, sign = res
            if key and (key[0] < 0 or key[-1] >= self.n):
                raise ValueError(f"index {tuple(idx)} out of range for dimension {self.n}")
            if c.is_zero():
                continue
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
        """A tensor of this type, space and degree with components ``comps``,
        built from the public attributes of this one: nothing cached on it
        carries over."""
        out = object.__new__(type(self))
        for name in ("vars", "algebra", "n", "degree"):
            if hasattr(self, name):
                setattr(out, name, getattr(self, name))
        out.comps = self._collect(comps)
        return out

    def _zero(self):
        return MultiPoly.zero(self.vars)

    def _frame(self, key) -> str:
        return "^".join(f"d_{self.vars[i].name}" for i in key)

    # -- what schouten() needs of a container -------------------------------

    def _space(self):
        return self.vars

    def _on_space_of(self, other) -> bool:
        """Whether ``other`` lives on this tensor's space (identity first)."""
        a, b = self._space(), other._space()
        return a is b or a == b

    def _tensor(self, degree: int, comps):
        """A tensor on this space, of the base type of the container."""
        return PolyMultiVector(self.vars, degree, comps)

    def _frame_bracket(self, f, i, g, j) -> list:
        """[f d_i, g d_j] = f (d_i g) d_j - g (d_j f) d_i as (sign, factors,
        index) triples; a coefficient None stands for 1."""
        out = []
        if g is not None:
            dg = g.partial(self.vars[i].name)
            if not dg.is_zero():
                out.append((1, (dg,) if f is None else (f, dg), j))
        if f is not None:
            df = f.partial(self.vars[j].name)
            if not df.is_zero():
                out.append((-1, (df,) if g is None else (g, df), i))
        return out

    def _sum_products(self, products):
        """The coefficient ``sum c * f1 * f2 * ...`` of ``(c, factors)``."""
        return MultiPoly.sum_of_products(self.vars, products)

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
        if not self._on_space_of(other):
            raise ValueError("multivectors must live on one space")
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
            and self._on_space_of(other)
            and (self - other).is_zero()
        )

    def __str__(self):
        if not self.comps:
            return "0"
        return " + ".join(f"({c}) {self._frame(k)}" for k, c in sorted(self.comps.items()))

    __repr__ = __str__


def _factored(comps) -> list:
    """Each component ``u_1^...^u_p`` with coefficient c as its p factorings
    (c u_1) ^ u_2 ^ ... : ``(parity, index, coefficient, rest indices, rest
    coefficients)`` per vector u_s, ``parity`` (-1)^s and the coefficient c
    on u_s when s = 0 (bracketed) and None (standing for 1) otherwise."""
    return [[(-1 if s % 2 else 1, i, c if s == 0 else None,
              key[:s] + key[s + 1:], () if s == 0 else (c,))
             for s, i in enumerate(key)]
            for key, c in comps.items()]


def _frame_products(A: PolyMultiVector, B: PolyMultiVector) -> dict:
    """The Schouten-Nijenhuis bracket [A, B] unsummed: ``{sorted frame:
    [(sign, factors)]}``, the coefficient of each frame being the sum of
    its products.  Frames come in the order their first term is found, and
    each frame's products in the order the classical formula lists them."""
    if A.degree < 1 or B.degree < 1:
        raise ValueError("schouten() expects multivectors of degree >= 1")
    if not A._on_space_of(B):
        raise ValueError("multivectors must live on one space")
    frame_bracket = A._frame_bracket
    sums = {}      # sorted index tuple -> [(sign, factors)]
    frames = {}    # (lead, *rest) -> its sort_with_sign, sorted once per call
    a_comps = _factored(A.comps)
    # [a, b] = [b, a] for two components of one even-degree tensor, so its
    # square visits each unordered pair once and counts a pair a != b twice
    square = A is B and A.degree % 2 == 0
    b_comps = a_comps if A is B else _factored(B.comps)
    for m, a in enumerate(a_comps):
        for b in (a_comps[m:] if square else b_comps):
            weight = 2 if square and b is not a else 1
            for parity_s, ia, f, idx_f, rest_f in a:
                for parity_t, ib, g, idx_g, rest_g in b:
                    bracket_terms = frame_bracket(f, ia, g, ib)  # [u_s, v_t]
                    if not bracket_terms:
                        continue
                    sign = weight * parity_s * parity_t
                    rest_idx = idx_f + idx_g
                    rest = rest_f + rest_g
                    for bracket_sign, factors, lead in bracket_terms:
                        idx = (lead, *rest_idx)
                        res = frames.get(idx, False)
                        if res is False:
                            res = frames[idx] = sort_with_sign(idx)
                        if res is None:
                            continue
                        key, perm_sign = res
                        products = sums.get(key)
                        if products is None:
                            products = sums[key] = []
                        products.append((sign * perm_sign * bracket_sign, factors + rest))
    return sums


def schouten(A: PolyMultiVector, B: PolyMultiVector) -> PolyMultiVector:
    """Schouten-Nijenhuis bracket of two multivectors (degrees >= 1) on one
    space: polynomial fields on one chart, or two elements of one Lambda g.
    Each frame of :func:`_frame_products` is summed once."""
    sums = _frame_products(A, B)
    return A._tensor(A.degree + B.degree - 1,
                     {key: A._sum_products(products) for key, products in sums.items()})
