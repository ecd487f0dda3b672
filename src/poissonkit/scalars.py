"""Gaussian-rational scalars: exact arithmetic in Q(i).

Every algebraic quantity in this package (structure constants, r-matrix
entries, polynomial coefficients) is a :class:`GaussianRational`, three
Python integers ``(a + b*i) / d``.  Equality, zero tests and arithmetic are
exact integer operations, and so are reading a coefficient from JSON and
printing it.  ``fractions.Fraction`` serves only the parts ``re`` and ``im``
(and ``repr``, ``to_json`` and the hash of a non-integer value, which read
them), ``abs2``, and the constructor's ``Fraction`` and string inputs.
There is no floating point in the symbolic layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class GaussianRational:
    """A complex number ``(a + b*i) / d`` with integer ``a``, ``b``, ``d``.

    The triple is in lowest terms, ``gcd(a, b, d) == 1`` and ``d > 0``, so
    ``==`` compares triples; every result is built by :func:`_make`, which
    restores that form.  Immutable by convention and hashable."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        r, i = _frac(re), _frac(im)
        # both parts are in lowest terms, so over their lcm the triple is too
        d = lcm(r.denominator, i.denominator)
        self.a, self.b = r.numerator * (d // r.denominator), i.numerator * (d // i.denominator)
        self.d = d

    re = property(lambda self: Fraction(self.a, self.d), doc="The real part, a ``Fraction``.")
    im = property(lambda self: Fraction(self.b, self.d), doc="The imaginary part, a ``Fraction``.")

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
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, o):
        if type(o) is not GaussianRational:
            return _coerced(GaussianRational.__add__, self, o)
        return _make(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, o):
        if type(o) is not GaussianRational:
            return _coerced(GaussianRational.__sub__, self, o)
        return _make(self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d, self.d * o.d)

    def __rsub__(self, other):
        return _coerced(GaussianRational.__sub__, other, self)

    def __mul__(self, o):
        if type(o) is not GaussianRational:
            return _coerced(GaussianRational.__mul__, self, o)
        return _make(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not GaussianRational:
            return _coerced(GaussianRational.__truediv__, self, o)
        if o.is_zero():
            raise ZeroDivisionError("division by zero GaussianRational")
        # multiply by the conjugate: (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        return _make((self.a * o.a + self.b * o.b) * o.d, (self.b * o.a - self.a * o.b) * o.d,
                     self.d * (o.a * o.a + o.b * o.b))

    def __rtruediv__(self, other):
        return _coerced(GaussianRational.__truediv__, other, self)

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
        return _make(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact non-negative rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other):
        try:
            o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        except (TypeError, ValueError):  # not a number, or a string that is none
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        # a real value equals, so hashes as, its int or Fraction; any other
        # as hash((self.re, self.im)), where an integral Fraction hashes as its int
        if self.d == 1:
            return hash((self.a, self.b)) if self.b else hash(self.a)
        return hash((self.re, self.im)) if self.b else hash(self.re)

    # -- conversions -----------------------------------------------------

    def to_complex(self) -> complex:
        # int / int is correctly rounded, so this equals float(self.re), float(self.im)
        return complex(self.a / self.d, self.b / self.d)

    def to_json(self) -> dict:
        out = {"num": str(self.re.numerator), "den": str(self.re.denominator)}
        if self.im:
            out["im_num"] = str(self.im.numerator)
            out["im_den"] = str(self.im.denominator)
        return out

    @staticmethod
    def from_json(d: dict) -> "GaussianRational":
        """``num/den + (im_num/im_den)*i``; a zero denominator raises
        ``ZeroDivisionError``."""
        a, da = json_int(d["num"]), json_int(d.get("den", 1))
        b, db = json_int(d.get("im_num", 0)), json_int(d.get("im_den", 1))
        den = da * db
        if not den:
            raise ZeroDivisionError(f"zero denominator in {d!r}")
        return _make(a * db, b * da, den) if den > 0 else _make(-a * db, -b * da, -den)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        a, b, d = self.a, self.b, self.d
        if not b:  # then gcd(a, d) == 1
            return str(a) if d == 1 else f"{a}/{d}"
        im = _ratio(abs(b), d)
        if not a:
            return f"-{im}*i" if b < 0 else f"{im}*i"
        return f"({_ratio(a, d)}{'+' if b > 0 else '-'}{im}*i)"


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """Trusted constructor: ``(a + b*i) / d`` for integers with ``d > 0``,
    brought to lowest terms with one gcd and no ``Fraction``."""
    g = gcd(a, b, d)
    z = _new(GaussianRational)
    z.a, z.b, z.d = (a, b, d) if g == 1 else (a // g, b // g, d // g)
    return z


def _ratio(n: int, d: int) -> str:
    """``n/d`` in lowest terms as ``Fraction`` prints it, for ``d > 0``."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _coerced(op, x, y):
    """``op(x, y)`` on both operands coerced, or ``NotImplemented`` when one
    does not coerce, so that Python tries the other operand's reflected
    method (``I * p`` reaches ``MultiPoly.__rmul__``)."""
    try:
        x, y = GaussianRational.coerce(x), GaussianRational.coerce(y)
    except TypeError:
        return NotImplemented
    return op(x, y)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def Q(re, im=0) -> GaussianRational:
    """Shorthand constructor; accepts ints, strings like ``"2/3"``, Fractions."""
    return GaussianRational(re, im)


def coeff_from_json(x) -> GaussianRational:
    """A coefficient as JSON writes it: an integer, a rational string such as
    ``"2/3"`` or a ``{"num", "den", "im_num", "im_den"}`` object.  A float,
    any other non-exact value or a zero denominator raises ``ValueError``."""
    try:
        if isinstance(x, dict):
            return GaussianRational.from_json(x)
        return GaussianRational.coerce(x)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {x!r} has a zero denominator") from None
    except TypeError:
        raise ValueError(f"coefficient {x!r} is not an exact rational") from None


def json_int(x) -> int:
    """An integer as JSON writes it: a number without fraction or a decimal
    string.  A float or a boolean raises ``ValueError`` instead of being
    truncated."""
    if isinstance(x, (float, bool)):
        raise ValueError(f"{x!r} is not an exact integer")
    return int(x)
