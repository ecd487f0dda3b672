"""Test oracle: the two-``Fraction`` Gaussian rational that ``poissonkit.scalars``
used before its integer kernel.

``GaussianRational`` below is that class, kept so the tests can compare
every operation of the fast class against an independent exact
implementation.  Only its hash changed: a real value hashes as the
``Fraction`` it equals, as Python asks of values that compare equal.
"""

from __future__ import annotations

from fractions import Fraction

from poissonkit.scalars import json_int


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class GaussianRational:
    """A complex number ``re + im*i`` with exact rational parts.

    Instances are immutable by convention and hashable, so they can key
    sparse term maps.  Division is exact (multiply by the conjugate).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- construction helpers -------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction, str)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        d = o.abs2()
        if not d:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact non-negative rational."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    # -- conversions -----------------------------------------------------

    def to_json(self) -> dict:
        out = {"num": str(self.re.numerator), "den": str(self.re.denominator)}
        if self.im:
            out["im_num"] = str(self.im.numerator)
            out["im_den"] = str(self.im.denominator)
        return out

    @staticmethod
    def from_json(d: dict) -> "GaussianRational":
        re = Fraction(json_int(d["num"]), json_int(d.get("den", 1)))
        im = Fraction(json_int(d.get("im_num", 0)), json_int(d.get("im_den", 1)))
        return GaussianRational(re, im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


ONE = GaussianRational(1)
