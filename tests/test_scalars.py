import operator
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from fraction_gaussian import GaussianRational as Oracle
from poissonkit.scalars import GaussianRational, I, ONE, Q, ZERO

rationals = st.fractions(max_denominator=50)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    assert Q("1/2") + Q("1/3") == Q("5/6")
    assert Q(2) * Q("3/4") == Q("3/2")
    assert I * I == Q(-1)
    assert (Q(1, 2) / Q(3, -1)) * Q(3, -1) == Q(1, 2)
    assert Q(5).abs2() == Fraction(25)
    assert Q(3, 4).abs2() == Fraction(25)
    assert Q(0, 1).conjugate() == Q(0, -1)


def test_pow_and_zero_division():
    assert Q(2, 1) ** 0 == ONE
    assert Q(0, 1) ** 3 == Q(0, -1)
    try:
        ONE / ZERO
        assert False
    except ZeroDivisionError:
        pass


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians)
def test_inverse_roundtrip(a):
    if a:
        assert (ONE / a) * a == ONE
    assert a * a.conjugate() == GaussianRational(a.abs2())


@given(gaussians)
def test_json_roundtrip(a):
    assert GaussianRational.from_json(a.to_json()) == a


# -- the integer kernel against the two-Fraction oracle ----------------------

# zero, small and ~10^30-sized parts of either sign
parts = st.one_of(
    st.just(Fraction(0)),
    rationals,
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)),
)
# general, real and purely imaginary values
pairs = st.one_of(st.tuples(parts, parts), st.tuples(parts, st.just(Fraction(0))),
                  st.tuples(st.just(Fraction(0)), parts))
# an operand as callers pass it: a scalar, or an int, Fraction or rational string
operands = st.one_of(
    pairs.map(lambda p: ("gaussian", p)),
    st.integers(-10 ** 30, 10 ** 30).map(lambda n: ("int", n)),
    parts.map(lambda f: ("fraction", f)),
    parts.map(lambda f: ("string", str(f))),
)


def _pair(op):
    kind, value = op
    if kind == "gaussian":
        return GaussianRational(*value), Oracle(*value)
    return value, value


def _agrees(x, o):
    """``x`` is a well-formed triple and reads exactly as the oracle's ``o``."""
    assert type(x) is GaussianRational
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == (o.re, o.im)
    assert hash(x) == hash(o)
    assert str(x) == str(o) and repr(x) == repr(o)
    assert x.to_json() == o.to_json()
    assert GaussianRational.from_json(o.to_json()) == x
    assert x.is_zero() == (not o) and bool(x) == bool(o)


# JSON coefficient objects as a bundle may write them: small values (zero,
# unreduced or negative denominators) and ~10^30-sized ones, as numbers or
# decimal strings, with any of the four keys missing
_json_ints = st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30))
_json_ints = st.one_of(_json_ints, _json_ints.map(str))
coefficient_objects = st.fixed_dictionaries(
    {}, optional={key: _json_ints for key in ("num", "den", "im_num", "im_den")})


@given(coefficient_objects)
def test_from_json_and_str_agree_with_the_fraction_oracle(d):
    """``from_json`` builds the oracle's value as one lowest-terms triple, and
    ``str`` prints what the oracle's two ``Fraction`` parts print; a missing
    ``num`` or a zero denominator raises the oracle's error."""
    zero_den = any(int(d.get(key, 1)) == 0 for key in ("den", "im_den"))
    try:
        o = Oracle.from_json(d)
    except (KeyError, ZeroDivisionError) as e:
        assert type(e) is (KeyError if "num" not in d else ZeroDivisionError)
        with pytest.raises(type(e)):
            GaussianRational.from_json(d)
        return
    assert not zero_den
    x = GaussianRational.from_json(d)
    den = lcm(o.re.denominator, o.im.denominator)
    assert (x.a, x.b, x.d) == (o.re.numerator * (den // o.re.denominator),
                               o.im.numerator * (den // o.im.denominator), den)
    assert str(x) == str(o)


BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


@given(pairs, operands)
def test_every_operation_agrees_with_the_fraction_oracle(p, operand):
    x, o = GaussianRational(*p), Oracle(*p)
    _agrees(x, o)
    y, oy = _pair(operand)
    for fn in BINARY:
        for args, oargs in (((x, y), (o, oy)), ((y, x), (oy, o))):
            try:
                expected = fn(*oargs)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    fn(*args)
                continue
            _agrees(fn(*args), expected)
    _agrees(-x, -o)
    _agrees(x.conjugate(), o.conjugate())
    assert x.abs2() == o.abs2()
    for n in range(4):
        _agrees(x ** n, o ** n)
    ry = y if isinstance(y, GaussianRational) else GaussianRational.coerce(y)
    assert (x == y) == (o == oy) == (x == ry)
    assert x == GaussianRational(o.re, o.im) and x != x + 1


@given(pairs)
def test_division_by_zero_raises(p):
    x = GaussianRational(*p)
    for num, zero in [(x, ZERO), (x, 0), (x, Fraction(0)), (x, "0"), (1, ZERO), (x, x - x)]:
        with pytest.raises(ZeroDivisionError):
            num / zero


def test_constructor_inputs_and_lowest_terms():
    # int, Fraction, rational string and bool, as before; the triple in lowest terms
    for re, im, triple in [(3, 0, (3, 0, 1)), (Fraction(2, 4), "-1/6", (3, -1, 6)),
                           ("2/3", "4/3", (2, 4, 3)), (True, False, (1, 0, 1)),
                           (0, Fraction(-5, 10), (0, -1, 2)), ("6/8", 0, (3, 0, 4))]:
        x = GaussianRational(re, im)
        assert (x.a, x.b, x.d) == triple
        _agrees(x, Oracle(re, im))
    with pytest.raises(TypeError):
        GaussianRational(1.5)
    with pytest.raises(TypeError):
        GaussianRational.coerce(1.5)


def test_a_float_operand_raises_type_error_on_either_side():
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(Q(1), 1.5)
        with pytest.raises(TypeError):
            op(1.5, Q(1))


def test_equal_values_hash_alike_and_other_objects_compare_unequal():
    for x, v in ((Q(3), 3), (Q(-4), -4), (Q("1/2"), Fraction(1, 2)), (Q(0), 0)):
        assert x == v and hash(x) == hash(v) and len({x, v}) == 1
    assert Q(1) != "abc" and not Q(1) == "abc"
    assert Q(1) != None and not Q(1) == None  # noqa: E711
