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
:meth:`MultiPoly.sum_of_products` is the one sum of products: it accumulates
``sum c*f1*f2*...`` over one chart in integer triples, with no intermediate
polynomial, and every accumulation of the package goes through it, ``*``
included.  Its terms come in the order of the ring route, one product at a
time: a term whose sum reaches zero is removed and comes back at the end if
its exponent reappears.  The float flow compiles terms in that order.

Charts are shared: every chart is one tuple of :class:`Var`, so polynomials
on equal charts hold the same ``vars`` object and are matched by identity.
:meth:`MultiPoly.partial` is memoized on the polynomial it differentiates.
"""

from __future__ import annotations

from operator import add

from .scalars import GaussianRational, ZERO, ONE, _make, coeff_from_json, json_int

AFFINE = "affine"
ANGULAR = "angular"
MAX_JSON_DEGREE = 32    # the largest sum of |exponents| of a term read from JSON


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


# every chart built so far, keyed by the specs it was built from and by
# itself: equal charts are one tuple, so ``align`` and ``over`` match them by
# identity.  Only valid charts enter, and a chart never changes.  A chart is
# also kept under its ``id``, which no other object can take while the chart
# lives here, so a shared chart is recognized without hashing its variables.
_CHARTS: dict = {}
_SHARED: dict = {}


def _as_vars(specs) -> tuple:
    """The shared chart (a tuple of ``Var``) for ``specs``: ``Var`` objects,
    names of affine variables or ``(name, kind)`` pairs."""
    if _SHARED.get(id(specs)) is specs:
        return specs
    specs = tuple(specs)
    try:
        return _CHARTS[specs]
    except KeyError:
        key = specs
    except TypeError:  # an unhashable spec, such as a [name, kind] list
        key = None
    chart = _build_vars(specs)
    chart = _CHARTS.setdefault(chart, chart)
    _SHARED[id(chart)] = chart
    if key is not None:
        _CHARTS[key] = chart
    return chart


def _build_vars(specs) -> tuple:
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


def _merged_chart(first: tuple, second: tuple) -> tuple:
    """The shared chart of ``first``'s variables followed by those of
    ``second`` whose names ``first`` lacks."""
    if first is second:
        return first
    names = {v.name for v in first}
    return _as_vars(first + tuple(v for v in second if v.name not in names))


def _add_triple(terms: dict, e: tuple, a: int, b: int, d: int) -> None:
    """``terms[e] += (a + b*i) / d`` on integer triples, by the ring's rule:
    a sum that reaches zero is removed, so the exponent goes to the end of
    ``terms`` if it comes back; any other sum keeps its place."""
    old = terms.get(e)
    if old is not None:
        oa, ob, od = old
        if od == d:
            a, b = oa + a, ob + b
        else:
            a, b, d = oa * d + a * od, ob * d + b * od, od * d
        if not (a or b):
            del terms[e]
            return
    terms[e] = a, b, d


def _check_exponent(chart: tuple, exp: tuple) -> None:
    """Raise unless the integer tuple ``exp`` is an exponent over ``chart``:
    one entry per variable, none negative on an affine one."""
    if len(exp) != len(chart):
        raise ValueError("exponent tuple length does not match variables")
    for e, v in zip(exp, chart):
        if v.kind == AFFINE and e < 0:
            raise ValueError(f"negative exponent on affine variable {v.name}")


class MultiPoly:
    """A sparse polynomial: a term map ``exponent tuple -> GaussianRational``.

    Zero coefficients are never stored.  Instances are immutable by
    convention; all operations return fresh polynomials.  ``vars`` is the
    shared chart of :func:`_as_vars`, and ``_partials`` memoizes
    :meth:`partial` by variable name for as long as the polynomial lives.
    """

    __slots__ = ("vars", "terms", "_partials")

    def __init__(self, variables, terms=None):
        self.vars = _as_vars(variables)
        self._partials = None
        clean = {}
        for exp, coeff in (terms or {}).items():
            c = GaussianRational.coerce(coeff)
            exp = tuple(int(e) for e in exp)
            _check_exponent(self.vars, exp)
            if c.is_zero():
                continue
            if exp in clean:  # an exponent given twice, e.g. as 1 and "1"
                c = clean[exp] + c
                if c.is_zero():
                    del clean[exp]
                    continue
            clean[exp] = c
        self.terms = clean

    @staticmethod
    def _clean(variables: tuple, terms: dict) -> "MultiPoly":
        """Trusted constructor for terms already valid over ``variables`` (a
        shared chart): exact-length exponents and no zero coefficient."""
        p = object.__new__(MultiPoly)
        p.vars, p.terms, p._partials = variables, terms, None
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
        if self.vars is other.vars:
            return self, other
        merged = _merged_chart(self.vars, other.vars)
        return self.over(merged), other.over(merged)

    def over(self, variables) -> "MultiPoly":
        """This polynomial on the chart ``variables``; ``ValueError`` when it
        uses a variable the chart lacks, or one of another kind."""
        if variables is self.vars:
            return self
        vs = _as_vars(variables)
        if vs is self.vars:
            return self
        if not set(self.vars) <= set(vs):
            raise ValueError(f"polynomial variables {self.vars} are not all on the chart {vs} "
                             "(a name is missing or has another kind)")
        pos = {v.name: i for i, v in enumerate(vs)}
        n = len(vs)
        new_terms = {}
        for exp, c in self.terms.items():
            out = [0] * n
            for e, v in zip(exp, self.vars):
                out[pos[v.name]] = e
            new_terms[tuple(out)] = c
        return MultiPoly._clean(vs, new_terms)

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
        return MultiPoly.sum_of_products(p.vars, ((1, (p, q)),))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "MultiPoly":
        c = GaussianRational.coerce(scalar)
        if c.is_zero():
            return MultiPoly.zero(self.vars)
        # a nonzero scalar times a nonzero coefficient is nonzero in a field
        return MultiPoly._clean(self.vars, {e: c * v for e, v in self.terms.items()})

    @staticmethod
    def sum_of_products(chart, products) -> "MultiPoly":
        """``sum c * f1 * f2 * ...`` over ``products``, pairs ``(c, factors)``
        with ``c`` an int, a :class:`GaussianRational` or another exact scalar
        that it coerces (a zero ``c`` adds nothing) and ``factors`` a tuple of
        polynomials on ``chart`` (an empty tuple stands for the constant
        ``c``); a factor on any other chart raises ``ValueError``.

        Terms come out in the order of the ring route ``acc = acc + c*f1*...*fk``,
        one product at a time: a product is merged factor by factor as ``*``
        merges two polynomials, and added to the sum as ``+`` adds.  Both follow
        one rule: a term whose sum reaches zero is removed, and comes back at
        the end if its exponent reappears.  The work is done in integer
        triples ``(a, b, d)``, one ``(a + b*i) / d`` per exponent, not in
        lowest terms; only a term that survives becomes a
        :class:`GaussianRational`."""
        chart = _as_vars(chart)
        acc = {}
        for c, factors in products:
            if type(c) is int:
                ca, cb, cd = c, 0, 1
            else:
                c = GaussianRational.coerce(c)
                ca, cb, cd = c.a, c.b, c.d
            if not (ca or cb):
                continue
            for f in factors:
                if f.vars is not chart:
                    raise ValueError(f"factor {f} is not on the chart {chart}")
            if not factors:
                terms = [((0,) * len(chart), ca, cb, cd)]
            elif cb or cd != 1:
                terms = [(e, ca * x.a - cb * x.b, ca * x.b + cb * x.a, cd * x.d)
                         for e, x in factors[0].terms.items()]
            else:
                terms = [(e, ca * x.a, ca * x.b, x.d) for e, x in factors[0].terms.items()]
            for f in factors[1:]:
                # a side with one term cannot give one exponent twice
                merge = len(terms) > 1 and len(f.terms) > 1
                terms = [(tuple(map(add, e, fe)), a * x.a - b * x.b, a * x.b + b * x.a, d * x.d)
                         for e, a, b, d in terms for fe, x in f.terms.items()]
                if merge and len({t[0] for t in terms}) < len(terms):
                    # exponents collide: merge them in this order, as * does
                    merged = {}
                    for e, a, b, d in terms:
                        _add_triple(merged, e, a, b, d)
                    terms = [(e, a, b, d) for e, (a, b, d) in merged.items()]
            # _add_triple inlined: a call per term costs the Jacobi routes a few percent
            for e, a, b, d in terms:
                old = acc.get(e)
                if old is not None:
                    oa, ob, od = old
                    if od == d:
                        a, b = oa + a, ob + b
                    else:
                        a, b, d = oa * d + a * od, ob * d + b * od, od * d
                    if not (a or b):
                        del acc[e]
                        continue
                acc[e] = a, b, d
        return MultiPoly._clean(chart, {e: _make(a, b, d) for e, (a, b, d) in acc.items()})

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
            try:
                c = GaussianRational.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
            return self.terms == ({(0,) * len(self.vars): c} if c else {})
        try:
            p, q = self.align(other)
        except ValueError:  # a shared name has another kind on each side
            return self._factored() == other._factored()
        return p.terms == q.terms

    def __hash__(self):
        # chart-independent, as __eq__ is; a constant equals, so hashes as, its scalar
        if not any(map(any, self.terms)):
            return hash(self.constant_term())
        return hash(self._factored())

    def _factored(self) -> frozenset:
        """Each term keyed by its nonzero factors ``(name, kind, exponent)``:
        equal for two polynomials exactly when they are ``==``, on any charts."""
        return frozenset(
            (frozenset((v.name, v.kind, e) for v, e in zip(self.vars, exp) if e), c)
            for exp, c in self.terms.items())

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "MultiPoly":
        """Exact partial derivative, computed once per variable and kept on
        this polynomial.

        For an angular variable theta the derivative of ``c*w^k`` with
        ``w = exp(i*theta)`` is ``i*k*c*w^k``.
        """
        memo = self._partials
        if memo is None:
            memo = self._partials = {}
        d = memo.get(name)
        if d is None:
            d = memo[name] = self._derivative(name)
        return d

    def _derivative(self, name: str) -> "MultiPoly":
        # an affine derivative maps distinct exponents to distinct exponents,
        # an angular one keeps them, and every c*k or c*i*k is nonzero
        i = self._index(name)
        if self.vars[i].kind == AFFINE:  # c*k
            terms = {exp[:i] + (k - 1,) + exp[i + 1:]: _make(c.a * k, c.b * k, c.d)
                     for exp, c in self.terms.items() if (k := exp[i])}
        else:  # c*ik = (-b*k + a*k*i) / d
            terms = {exp: _make(-c.b * k, c.a * k, c.d)
                     for exp, c in self.terms.items() if (k := exp[i])}
        return MultiPoly._clean(self.vars, terms)

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

    def eval(self, assignment: dict) -> GaussianRational:
        """The exact value at a point given as ``{name: value}``, each value a
        GaussianRational, Fraction or int; a float raises ``TypeError``.

        For angular variables the supplied value is the unit ``w = exp(i*theta)``
        itself (so an exact point on the unit circle stays exact).
        """
        vals = []
        for v in self.vars:
            if v.name not in assignment:
                raise KeyError(f"no value supplied for {v.name!r}")
            vals.append(GaussianRational.coerce(assignment[v.name]))
        return self.eval_at(vals)

    def eval_at(self, values) -> GaussianRational:
        """The exact value at ``values``, one :class:`GaussianRational` per
        variable in chart order (the unit ``w`` for an angular variable)."""
        acc = ZERO
        for exp, c in self.terms.items():
            for x, e in zip(values, exp):
                if e:
                    c = c * (x if e == 1 else x ** e if e > 0 else ONE / x ** -e)
            acc = acc + c
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

        return MultiPoly.sum_of_products(chart, [
            (c, tuple(power(i, e) for i, e in enumerate(exp) if e))
            for exp, c in self.terms.items()])

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
        """The polynomial :meth:`to_json` writes.  Each term is read and
        checked once: first its exponents, degree bound, repetition and
        coefficient, over all terms in order; then the chart; then each
        term, a zero one included, by :func:`_check_exponent`, as the
        constructor checks it, and a zero term is dropped after that check."""
        variables = [(v["name"], v.get("kind", AFFINE)) for v in d["vars"]]
        terms = {}
        for t in d["terms"]:
            exp = t["exp"]
            exp = (tuple(exp) if all(type(e) is int for e in exp)
                   else tuple(json_int(e) for e in exp))
            if sum(map(abs, exp)) > MAX_JSON_DEGREE:
                raise ValueError(f"exponent {list(exp)} exceeds the total degree bound "
                                 f"{MAX_JSON_DEGREE}")
            if exp in terms:
                raise ValueError(f"exponent {list(exp)} is listed twice")
            terms[exp] = coeff_from_json(t["coeff"])
        chart = _as_vars(variables)
        clean = {}
        for exp, c in terms.items():
            _check_exponent(chart, exp)
            if c:
                clean[exp] = c
        return MultiPoly._clean(chart, clean)

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
        head = MultiPoly.monomial(p.vars, lead, lc)
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
            # p := p - factor * (head + tail); the head term cancels exactly.
            current = MultiPoly.sum_of_products(
                current.vars, [(1, (current,)), (-1, (factor, head)), (-1, (factor, tail))])

def sl2_relation_ideal(names=("a1", "a2", "a3", "a4")) -> RelationIdeal:
    """The determinant-one relation a1*a4 - a2*a3 - 1 on 2x2 group entries."""
    a1, a2, a3, a4 = generators(*names)
    return RelationIdeal(a1 * a4 - a2 * a3 - 1)

