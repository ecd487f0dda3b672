"""Sparse multivariate polynomials over Gaussian rationals.

Two kinds of variables are supported:

* ``affine`` variables are ordinary polynomial indeterminates (exponents >= 0);
* ``angular`` variables model a circle coordinate theta through the unit
  ``w = exp(i*theta)``.  Exponents may be negative (Laurent monomials), the
  derivative with respect to theta multiplies a term ``c*w^k`` by ``i*k``.

This is enough for linear-plus-periodic coefficient calculus on products of
tori and vector spaces; general symbolic transcendentals are out of scope.

:meth:`MultiPoly.substitute` is the one polynomial composition: it evaluates
a polynomial at polynomial images on one chart, for example at a group law
``x -> x + x'``, ``w -> w*w'`` or at a matrix acting on the coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .scalars import GaussianRational, Q, ZERO, ONE, coeff_from_json, json_int

AFFINE = "affine"
ANGULAR = "angular"


class Var:
    """A named variable with a kind flag (``affine`` or ``angular``)."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str = AFFINE):
        if kind not in (AFFINE, ANGULAR):
            raise ValueError(f"unknown variable kind {kind!r}")
        self.name = name
        self.kind = kind

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name and self.kind == other.kind

    def __hash__(self):
        return hash((self.name, self.kind))

    def __repr__(self):
        return f"Var({self.name!r}, {self.kind!r})"


def _as_vars(specs) -> tuple:
    out = []
    for s in specs:
        if isinstance(s, Var):
            out.append(s)
        elif isinstance(s, str):
            out.append(Var(s))
        else:
            name, kind = s
            out.append(Var(name, kind))
    names = [v.name for v in out]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    return tuple(out)


class MultiPoly:
    """A sparse polynomial: a term map ``exponent tuple -> GaussianRational``.

    Zero coefficients are never stored.  Instances are immutable by
    convention; all operations return fresh polynomials.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = _as_vars(variables)
        clean = {}
        for exp, coeff in (terms or {}).items():
            c = GaussianRational.coerce(coeff)
            if c.is_zero():
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(self.vars):
                raise ValueError("exponent tuple length does not match variables")
            for e, v in zip(exp, self.vars):
                if v.kind == AFFINE and e < 0:
                    raise ValueError(f"negative exponent on affine variable {v.name}")
            clean[exp] = clean.get(exp, ZERO) + c
            if clean[exp].is_zero():
                del clean[exp]
        self.terms = clean

    @staticmethod
    def _clean(variables: tuple, terms: dict) -> "MultiPoly":
        """Trusted constructor for terms already valid over ``variables`` (a
        tuple of ``Var``): exact-length exponents and no zero coefficient."""
        p = object.__new__(MultiPoly)
        p.vars, p.terms = variables, terms
        return p

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value) -> "MultiPoly":
        v = _as_vars(variables)
        return cls(v, {(0,) * len(v): GaussianRational.coerce(value)})

    @classmethod
    def variable(cls, variables, name: str) -> "MultiPoly":
        v = _as_vars(variables)
        idx = [w.name for w in v].index(name)
        exp = [0] * len(v)
        exp[idx] = 1
        return cls(v, {tuple(exp): ONE})

    @classmethod
    def monomial(cls, variables, exponents, coeff=1) -> "MultiPoly":
        return cls(variables, {tuple(exponents): GaussianRational.coerce(coeff)})

    # -- structural helpers ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def var_names(self):
        return tuple(v.name for v in self.vars)

    def _index(self, name: str) -> int:
        for i, v in enumerate(self.vars):
            if v.name == name:
                return i
        raise KeyError(f"unknown variable {name!r}")

    def align(self, other: "MultiPoly"):
        """Return (p, q) re-expressed over the merged variable list: this
        polynomial's variables followed by those only ``other`` uses."""
        if self.vars == other.vars:
            return self, other
        names = {v.name for v in self.vars}
        merged = self.vars + tuple(v for v in other.vars if v.name not in names)
        return self.over(merged), other.over(merged)

    def over(self, variables) -> "MultiPoly":
        """This polynomial on the chart ``variables``; ``ValueError`` when it
        uses a variable the chart lacks, or one of another kind."""
        if variables == self.vars:
            return self
        vs = _as_vars(variables)
        if not set(self.vars) <= set(vs):
            raise ValueError(f"polynomial variables {self.vars} are not all on the chart {vs} "
                             "(a name is missing or has another kind)")
        return self._reindex(vs)

    def _reindex(self, merged) -> "MultiPoly":
        if merged == self.vars:
            return self
        pos = {v.name: i for i, v in enumerate(merged)}
        n = len(merged)
        new_terms = {}
        for exp, c in self.terms.items():
            out = [0] * n
            for e, v in zip(exp, self.vars):
                out[pos[v.name]] = e
            new_terms[tuple(out)] = c
        return MultiPoly._clean(merged, new_terms)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other)
        p, q = self.align(other)
        terms = dict(p.terms)
        for exp, c in q.terms.items():
            s = terms.get(exp, ZERO) + c
            if s.is_zero():
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return MultiPoly._clean(p.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._clean(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.constant(self.vars, other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        p, q = self.align(other)
        terms = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, ZERO) + c1 * c2
                if s.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MultiPoly._clean(p.vars, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "MultiPoly":
        c = GaussianRational.coerce(scalar)
        if c.is_zero():
            return MultiPoly.zero(self.vars)
        # a nonzero scalar times a nonzero coefficient is nonzero in a field
        return MultiPoly._clean(self.vars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = MultiPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if self.terms and len(self.terms) > 1:
                return False
            return self == MultiPoly.constant(self.vars, other)
        p, q = self.align(other)
        return p.terms == q.terms

    def __hash__(self):
        # chart-independent, as __eq__ is: each term by its nonzero factors
        return hash(frozenset(
            (frozenset((v.name, v.kind, e) for v, e in zip(self.vars, exp) if e), c)
            for exp, c in self.terms.items()))

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "MultiPoly":
        """Exact partial derivative.

        For an angular variable theta the derivative of ``c*w^k`` with
        ``w = exp(i*theta)`` is ``i*k*c*w^k``.
        """
        i = self._index(name)
        kind = self.vars[i].kind
        terms = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k == 0:
                continue
            if kind == AFFINE:
                new = list(exp)
                new[i] = k - 1
                coeff = c * Q(k)
            else:
                new = list(exp)
                coeff = c * GaussianRational(0, k)
            key = tuple(new)
            s = terms.get(key, ZERO) + coeff
            if s.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = s
        return MultiPoly(self.vars, terms)

    def affine_degree(self) -> int:
        if not self.terms:
            return 0
        aff = [i for i, v in enumerate(self.vars) if v.kind == AFFINE]
        return max((sum(exp[i] for i in aff) for exp in self.terms), default=0)

    def depends_on_angular(self) -> bool:
        ang = [i for i, v in enumerate(self.vars) if v.kind == ANGULAR]
        return any(any(exp[i] for i in ang) for exp in self.terms)

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * len(self.vars), ZERO)

    def as_constant(self) -> GaussianRational:
        """The value of a constant polynomial; raises if non-constant."""
        nonconst = [e for e in self.terms if any(e)]
        if nonconst:
            raise ValueError(f"{self} is not constant")
        return self.constant_term()

    # -- evaluation ---------------------------------------------------------

    def eval(self, assignment: dict):
        """Evaluate at a point given as ``{name: value}``.

        Values may be GaussianRational/Fraction/int (exact) or float/complex.
        For angular variables the supplied value is the unit ``w = exp(i*theta)``
        itself (so an exact point on the unit circle stays exact).
        """
        exact = all(
            isinstance(v, (int, Fraction, GaussianRational)) for v in assignment.values()
        )
        vals = []
        for v in self.vars:
            if v.name not in assignment:
                raise KeyError(f"no value supplied for {v.name!r}")
            x = assignment[v.name]
            vals.append(GaussianRational.coerce(x) if exact else complex(x))
        acc = ZERO if exact else 0j
        for exp, c in self.terms.items():
            term = c if exact else c.to_complex()
            for e, x in zip(exp, vals):
                if e == 0:
                    continue
                if e > 0 or not exact:
                    term = term * x ** e
                else:
                    term = term / (x ** (-e))
            acc = acc + term
        return acc

    # -- composition -----------------------------------------------------------

    def substitute(self, images) -> "MultiPoly":
        """``p(images[0], ..., images[n-1])`` on the images' one chart.

        An image is a polynomial or a scalar (a constant on that chart).
        Each (variable, power) is computed once.  A negative exponent needs a
        one-term image, whose inverse is again a Laurent monomial.  A wrong
        image count, images on different charts, or a negative power of any
        other image raise ``ValueError``.
        """
        if len(images) != len(self.vars):
            raise ValueError(f"need {len(self.vars)} images for {self.var_names()}, "
                             f"got {len(images)}")
        charts = {g.vars for g in images if isinstance(g, MultiPoly)}
        if len(charts) > 1:
            raise ValueError("images lie on different charts")
        chart = charts.pop() if charts else ()
        images = [g if isinstance(g, MultiPoly) else MultiPoly.constant(chart, g) for g in images]
        powers = {}

        def power(i, e):
            if (i, e) not in powers:
                img = images[i]
                if e < 0:
                    if len(img.terms) != 1:
                        raise ValueError(f"negative power {e} of the image {img} of "
                                         f"{self.vars[i].name}, which is not one term")
                    (exp, c), = img.terms.items()
                    img = MultiPoly(chart, {tuple(-a for a in exp): ONE / c})
                powers[i, e] = img ** abs(e)
            return powers[i, e]

        out = MultiPoly.zero(chart)
        for exp, c in self.terms.items():
            term = MultiPoly.constant(chart, c)
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": [{"name": v.name, "kind": v.kind} for v in self.vars],
            "terms": [
                {"exp": list(exp), "coeff": c.to_json()}
                for exp, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(d: dict) -> "MultiPoly":
        variables = [(v["name"], v.get("kind", AFFINE)) for v in d["vars"]]
        terms = {tuple(json_int(e) for e in t["exp"]): coeff_from_json(t["coeff"])
                 for t in d["terms"]}
        return MultiPoly(variables, terms)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in sorted(self.terms.items(), reverse=True):
            factors = []
            for e, v in zip(exp, self.vars):
                if e == 0:
                    continue
                if v.kind == ANGULAR:
                    factors.append(f"exp({e}i*{v.name})" if e != 1 else f"exp(i*{v.name})")
                else:
                    factors.append(f"{v.name}^{e}" if e != 1 else v.name)
            mono = "*".join(factors)
            cs = str(c)
            if mono:
                parts.append(f"{cs}*{mono}" if cs not in ("1",) else mono)
            else:
                parts.append(cs)
        return " + ".join(parts)

    __repr__ = __str__


def generators(*specs) -> list:
    """Build the list of variable polynomials for a fresh ring.

    >>> x, y = generators("x", "y")
    >>> (x + y) * (x - y) == x*x - y*y
    True
    """
    variables = _as_vars(specs)
    return [MultiPoly.variable(variables, v.name) for v in variables]


# -- lex order and single-relation reduction ---------------------------------


def lex_leading(poly: MultiPoly):
    """Leading (exponent, coeff) in lexicographic order on the declared variables."""
    if poly.is_zero():
        raise ValueError("zero polynomial has no leading term")
    exp = max(poly.terms)
    return exp, poly.terms[exp]


class RelationIdeal:
    """A single-relation ideal with lex normal-form reduction.

    The generator's lex-largest monomial is the reduction head; the normal
    form of a polynomial contains no multiple of that monomial.  One relation
    with a fixed order always terminates, so no Groebner machinery is needed.
    """

    def __init__(self, generator: MultiPoly):
        if generator.is_zero():
            raise ValueError("relation generator must be nonzero")
        for v in generator.vars:
            if v.kind != AFFINE:
                raise ValueError("relation reduction supports affine variables only")
        self.generator = generator
        self.lead_exp, self.lead_coeff = lex_leading(generator)
        self.tail = MultiPoly(
            generator.vars,
            {e: c for e, c in generator.terms.items() if e != self.lead_exp},
        )

    def reduce(self, p: MultiPoly) -> MultiPoly:
        """Normal form of ``p`` modulo the generator."""
        gen, p = self.generator.align(p)
        ideal = RelationIdeal(gen) if gen.vars != self.generator.vars else self
        lead = ideal.lead_exp
        lc = ideal.lead_coeff
        tail = ideal.tail
        current = p
        while True:
            hit = None
            for exp in current.terms:
                if all(e >= l for e, l in zip(exp, lead)):
                    hit = exp
                    break
            if hit is None:
                return current
            c = current.terms[hit]
            shift = tuple(e - l for e, l in zip(hit, lead))
            factor = MultiPoly.monomial(current.vars, shift, c / lc)
            # p := p - factor * (lead + tail); the head term cancels exactly.
            current = current - factor * MultiPoly.monomial(current.vars, lead, lc) - factor * tail

def sl2_relation_ideal(names=("a1", "a2", "a3", "a4")) -> RelationIdeal:
    """The determinant-one relation a1*a4 - a2*a3 - 1 on 2x2 group entries."""
    a1, a2, a3, a4 = generators(*names)
    return RelationIdeal(a1 * a4 - a2 * a3 - 1)


# -- numeric fields and finite differences ------------------------------------


DEFAULT_FD_STEP = 1e-5


class NumericField:
    """A scalar field known only through an evaluation callback.

    Used for non-polynomial momentum maps; differentials come from central
    finite differences with a configurable step.
    """

    def __init__(self, fn: Callable[[Sequence[float]], float], dim: int,
                 step: float = DEFAULT_FD_STEP, name: str = "numeric"):
        self.fn = fn
        self.dim = dim
        self.step = float(step)
        self.name = name

    def __call__(self, point: Sequence[float]) -> float:
        return float(self.fn([float(x) for x in point]))

    def gradient(self, point: Sequence[float]) -> list:
        return fd_gradient(self, point)

    @staticmethod
    def from_poly(p: MultiPoly, step: float = DEFAULT_FD_STEP) -> "NumericField":
        names = p.var_names()

        def fn(pt):
            val = p.eval({n: x for n, x in zip(names, pt)})
            if isinstance(val, complex):
                if abs(val.imag) > 1e-12 * (1 + abs(val.real)):
                    raise ValueError("polynomial evaluates to a non-real value")
                return val.real
            return float(val)

        return NumericField(fn, len(names), step, name=str(p))


def fd_gradient(f: NumericField, point: Sequence[float]) -> list:
    """Central-difference gradient; O(h^2) error for smooth fields.

    Evaluation failures (for example at a singular locus) propagate to the
    caller instead of being masked.
    """
    p = [float(x) for x in point]
    h = f.step
    grad = []
    for i in range(len(p)):
        up = list(p)
        dn = list(p)
        up[i] += h
        dn[i] -= h
        grad.append((f(up) - f(dn)) / (2.0 * h))
    return grad
