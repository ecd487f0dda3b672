"""Polynomial-coefficient Poisson bivectors on affine space.

Sign conventions (calibrated once, asserted by the test suite):

* a bivector is stored through its components ``pi^{ij}`` with
  ``pi = sum_{i<j} pi^{ij} d_i ^ d_j``;
* ``{f, g} = sum_{ij} pi^{ij} (d_i f)(d_j g)``, so ``pi = d_x ^ d_y`` gives
  ``{x, y} = +1``;
* ``sharp(alpha)^i = sum_j alpha_j pi^{ji}`` and ``X_f = sharp(df)``, hence
  ``X_f = {f, .}`` and ``[X_f, X_g] = X_{{f,g}}``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

from . import linalg
from .multivector import PolyMultiVector, _frame_products, schouten
from .poly import AFFINE, ANGULAR, MultiPoly, _as_vars
from .scalars import json_int

FLOW_RANK_SAMPLES = 11      # trajectory points at which hamiltonian_flow reports the rank
FLOW_SOURCE = "<poissonkit flow>"   # the file name of the generated flow code in tracebacks
CSV_BLOCK_ROWS = 1024       # trajectory lines per piece of Trajectory.csv_blocks
CSV_PROBE_STRIDE = 64       # _column_text looks for repeats among every 64th value
# stratify_sample cross-checks each rank by principal Pfaffians up to this n and
# by minor sums above it: the Pfaffian plan has 2^(n-1) entries, and on dense
# integer skew matrices the table is the faster route through n = 10, about
# even at n = 11 and the slower one from n = 12 on
PFAFFIAN_MAX_N = 10


class PolyVectorField(PolyMultiVector):
    """A vector field with polynomial components: a degree-1
    :class:`PolyMultiVector` built from its list of n components."""

    def __init__(self, variables, comps):
        vs = _as_vars(variables)
        if len(comps) != len(vs):
            raise ValueError("component count must equal the dimension")
        PolyMultiVector.__init__(self, vs, 1, {(i,): c if c.is_zero() else c.over(vs)
                                               for i, c in enumerate(comps)})

    def apply(self, f: MultiPoly) -> MultiPoly:
        """Directional derivative V(f)."""
        f = f.over(self.vars)
        return MultiPoly.sum_of_products(self.vars, [
            (1, (c, f.partial(self.vars[i].name))) for (i,), c in sorted(self.comps.items())])

    def pair(self, alpha: "PolyOneForm") -> MultiPoly:
        return MultiPoly.sum_of_products(self.vars, [
            (1, (c, alpha.comps[k])) for k, c in sorted(self.comps.items()) if k in alpha.comps])


class PolyOneForm(PolyMultiVector):
    """A one-form with polynomial components, printed on frames ``dx``."""

    __init__ = PolyVectorField.__init__  # one component per coordinate

    def _frame(self, key) -> str:
        return f"d{self.vars[key[0]].name}"


def differential(f: MultiPoly, variables=None) -> PolyOneForm:
    """The exact one-form df."""
    vs = _as_vars(variables if variables is not None else f.vars)
    aligned = f.over(vs)
    return PolyOneForm(vs, [aligned.partial(v.name) for v in vs])


def lie_derivative_one_form(V: PolyVectorField, alpha: PolyOneForm) -> PolyOneForm:
    """(L_V alpha)_j = V^i d_i alpha_j + alpha_i d_j V^i."""
    names = [v.name for v in V.vars]
    v = [V.component(i) for i in range(V.n)]
    a = [alpha.component(i) for i in range(V.n)]
    out = []
    for j in range(len(names)):
        products = []
        for i in range(len(names)):
            products += [(1, (v[i], a[j].partial(names[i]))), (1, (a[i], v[i].partial(names[j])))]
        out.append(MultiPoly.sum_of_products(V.vars, products))
    return PolyOneForm(V.vars, out)


def _int_evaluator(chart, polys):
    """The map from a point ``x = (u + iv)/q`` on ``chart``, as the integers
    ``(u, v, q)`` of :func:`linalg._int_row`, to the values of ``polys`` there.

    Here, once: every term's coefficient is put over ``L``, the lcm of all
    coefficient denominators.  A positive power is ``x_k^e = (u_k + iv_k)^e /
    q^e`` and a negative one, on an angular variable, is the conjugate power
    over the squared modulus, ``q^e (u_k - iv_k)^e / N_k^e`` with
    ``N_k = u_k^2 + v_k^2``; a zero value there raises ``ZeroDivisionError``,
    as :meth:`MultiPoly.eval_at` does.  A term whose positive powers sum to
    ``pos`` and negative ones to ``neg`` (``neg_k`` on variable ``k``) is
    scaled by ``q^(D - pos + neg)`` and by ``N_k^(E_k - neg_k)``, where ``D``
    and ``E_k`` are the largest such exponents, so every value is over
    ``d = L q^D prod N_k^E_k`` with no gcd per term.  Each (variable, power)
    and each scale is computed once per point and shared by all terms.
    """
    n = len(chart)
    raw = []          # (value index, coefficient, exponents, pos - neg)
    neg_max = {}      # k -> E_k
    for i, poly in enumerate(polys):
        for exp, c in poly.over(chart).terms.items():
            raw.append((i, c, exp, sum(exp)))
            if min(exp) < 0:
                for k, e in enumerate(exp):
                    if e < -neg_max.get(k, 0):
                        neg_max[k] = -e
    L = math.lcm(*(c.d for _, c, _, _ in raw))
    D = max([0] + [s for *_, s in raw])
    slots = {}        # factor -> slot: ("x", k, e) a power, ("q", 0, s) or ("N", k, s) a scale
    entries = [[] for _ in polys]     # per value: [(re, im, slots)]
    for i, c, exp, s in raw:
        factors = [("x", k, e) for k, e in enumerate(exp) if e]
        if D - s:
            factors.append(("q", 0, D - s))
        factors += [("N", k, t + min(exp[k], 0)) for k, t in neg_max.items() if t + min(exp[k], 0)]
        idx = [slots.setdefault(f, len(slots)) for f in factors]
        entries[i].append((c.a * (L // c.d), c.b * (L // c.d), idx))
    keys = list(slots)
    real_coefficients = not any(im for terms in entries for _, im, _ in terms)

    def values(point) -> tuple:
        u, v, q = point
        if len(u) != n:
            raise ValueError("point has wrong dimension")
        norms = {k: u[k] * u[k] + (v[k] * v[k] if v else 0) for k in neg_max}
        if not all(norms.values()):
            raise ZeroDivisionError("negative power of a zero value")
        d = L * q ** D
        for k, t in neg_max.items():
            d *= norms[k] ** t
        if v is None and real_coefficients:
            f = [u[k] ** abs(e) if kind == "x" else q ** e if kind == "q" else norms[k] ** e
                 for kind, k, e in keys]
            out = []
            for terms in entries:
                acc = 0
                for a, _, idx in terms:
                    for t in idx:
                        a *= f[t]
                    acc += a
                out.append(acc)
            return out, None, d
        v = v or [0] * n
        f = [_gaussian_power(u[k], v[k] if e > 0 else -v[k], abs(e)) if kind == "x"
             else (q ** e if kind == "q" else norms[k] ** e, 0) for kind, k, e in keys]
        out, out_im = [], []
        for terms in entries:
            re = im = 0
            for a, b, idx in terms:
                for t in idx:
                    x, y = f[t]
                    a, b = a * x - b * y, a * y + b * x
                re += a
                im += b
            out.append(re)
            out_im.append(im)
        return out, (out_im if any(out_im) else None), d

    return values


def _skew(n: int, keys, values) -> list:
    """The n x n skew matrix with ``values`` at ``keys`` (pairs ``i < j``)."""
    m = [[0] * n for _ in range(n)]
    for (i, j), t in zip(keys, values):
        m[i][j], m[j][i] = t, -t
    return m


def _gaussian_power(a: int, b: int, e: int) -> tuple:
    """``(a + bi)^e`` as an integer pair, for ``e >= 1``."""
    x, y = a, b
    for _ in range(e - 1):
        x, y = x * a - y * b, x * b + y * a
    return x, y


@functools.cache
def _pfaffian_plan(n: int) -> list:
    """The principal Pfaffians of an n x n skew matrix m as one expansion per
    even subset S of {0, ..., n-1}, independent of the ring of m.

    Subset 0 is the empty set (Pf = 1); the others follow in one list per
    size 2, 4, ..., each in the order of ``itertools.combinations``, and are
    numbered in that order.  S with first index i is the entry
    ``(i, plus, minus)``: along row i, Pf(S) = sum_t (-1)^t m[i][s_t]
    Pf(S - {i, s_t}), s_t the t-th index of S after i, and ``plus`` (t even)
    and ``minus`` (t odd) list each ``(s_t, number of S - {i, s_t})``.
    There are 2^(n-1) subsets, so the plan is built once per n."""
    number = {(): 0}
    plan = []
    for size in range(2, n + 1, 2):
        level = []
        for s in itertools.combinations(range(n), size):
            rest = s[1:]
            terms = [(j, number[rest[:t] + rest[t + 1:]]) for t, j in enumerate(rest)]
            level.append((s[0], terms[::2], terms[1::2]))
            number[s] = len(number)
        plan.append(level)
    return plan


def _pfaffians(p, q=None):
    """The principal Pfaffians of the skew integer matrix ``p + i*q`` (``q``
    None when it is real) by :func:`_pfaffian_plan`, yielded size by size as
    ``(re, im)``: the real and imaginary parts of that size's Pfaffians, in
    plan order, ``im`` None when ``q`` is.  Zero entries and zero
    sub-Pfaffians are skipped."""
    plan = _pfaffian_plan(len(p))
    if q is None:
        pf = [1]
        for level in plan:
            start = len(pf)
            for i, plus, minus in level:
                row = p[i]
                acc = 0
                for j, k in plus:
                    if row[j] and pf[k]:
                        acc += row[j] * pf[k]
                for j, k in minus:
                    if row[j] and pf[k]:
                        acc -= row[j] * pf[k]
                pf.append(acc)
            yield pf[start:], None
        return
    re, im = [1], [0]
    for level in plan:
        start = len(re)
        for i, plus, minus in level:
            a_row, b_row = p[i], q[i]
            x = y = 0
            for terms, s in ((plus, 1), (minus, -1)):
                for j, k in terms:
                    a, b, c, d = a_row[j], b_row[j], re[k], im[k]
                    if (a or b) and (c or d):
                        x += s * (a * c - b * d)
                        y += s * (a * d + b * c)
            re.append(x)
            im.append(y)
        yield re[start:], im[start:]


def _pfaffian_order(p, q=None) -> int:
    """The largest |S| with Pf(S) != 0 among the principal Pfaffians of the
    skew integer matrix ``p + i*q`` (:func:`_pfaffians`); it uses no
    elimination.

    Pf(S)^2 is the principal minor det M_S, and a skew matrix has rank 2m
    exactly when some principal minor of order 2m is nonzero and every
    larger one vanishes, so this is the rank.  The expansion stops at the
    first size whose Pfaffians all vanish: each larger one is a sum of
    multiples of them."""
    order = 0
    for re, im in _pfaffians(p, q):
        if not (any(re) or im and any(im)):
            break
        order += 2
    return order


class PolyBivector(PolyMultiVector):
    """A polynomial bivector field on affine space: a degree-2
    :class:`PolyMultiVector` whose components come from outside input."""

    def __init__(self, variables, entries: dict):
        """``entries`` maps ``(i, j)`` to the component polynomial ``pi^{ij}``;
        a key ``(j, i)`` stands for ``-pi^{ij}`` and keys that sort alike add up."""
        vs = _as_vars(variables)
        comps = {}
        for (i, j), p in entries.items():
            if not (0 <= i < len(vs) and 0 <= j < len(vs)):
                raise ValueError(f"entry ({i}, {j}) out of range for dimension {len(vs)}")
            if i == j and not p.is_zero():
                raise ValueError("diagonal bivector components must vanish")
            comps[(i, j)] = p if p.is_zero() else p.over(vs)
        super().__init__(vs, 2, comps)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "PolyBivector":
        return cls(variables, {})

    @classmethod
    def constant_symplectic(cls, n: int, names=None) -> "PolyBivector":
        """d_1^d_2 + d_3^d_4 + ... on R^n (n even)."""
        if n % 2:
            raise ValueError("symplectic dimension must be even")
        vs = tuple(names) if names else tuple(f"x{i+1}" for i in range(n))
        entries = {}
        for k in range(n // 2):
            entries[(2 * k, 2 * k + 1)] = MultiPoly.constant(vs, 1)
        return cls(vs, entries)

    # -- access --------------------------------------------------------------

    def eval_matrix(self, point) -> list:
        """Exact skew matrix of values at a point: :meth:`_int_matrix`, then
        one scalar per nonzero entry."""
        return linalg._scalars(self._int_matrix(point))

    def _int_matrix(self, point) -> tuple:
        """The skew matrix of values at ``point`` as an integer matrix."""
        return self._int_matrix_at(linalg._int_row(point))

    def _int_matrix_at(self, x) -> tuple:
        """:meth:`_int_matrix` at an integer point, by :attr:`_evaluator`."""
        keys, values = self._evaluator
        a, b, d = values(x)
        return _skew(self.n, keys, a), b and _skew(self.n, keys, b), d

    @functools.cached_property
    def _evaluator(self) -> tuple:
        """The sorted component keys and :func:`_int_evaluator` of their
        components."""
        keys = sorted(self.comps)
        return keys, _int_evaluator(self.vars, [self.comps[k] for k in keys])

    # -- core maps -------------------------------------------------------------

    def sharp(self, alpha: PolyOneForm) -> PolyVectorField:
        """sharp(alpha)^i = sum_j alpha_j pi^{ji}."""
        if alpha.n != self.n:
            raise ValueError("one-form dimension mismatch")
        comps = []
        for i in range(self.n):
            products = []
            for j in range(self.n):
                pij = self.component(j, i)
                if not pij.is_zero():
                    products.append((1, (alpha.component(j), pij)))
            comps.append(MultiPoly.sum_of_products(self.vars, products))
        return PolyVectorField(self.vars, comps)

    def pair(self, alpha: PolyOneForm, beta: PolyOneForm) -> MultiPoly:
        """pi(alpha, beta) = <sharp(alpha), beta>."""
        return self.sharp(alpha).pair(beta)

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.n,
            "vars": [{"name": v.name, "kind": v.kind} for v in self.vars],
            "entries": [
                {"i": i, "j": j, "poly": p.to_json()}
                for (i, j), p in sorted(self.comps.items())
            ],
        }

    @staticmethod
    def from_json(d: dict) -> "PolyBivector":
        n = json_int(d["dim"])
        if "vars" in d:
            vs = tuple((v["name"], v.get("kind", AFFINE)) for v in d["vars"])
            if len(vs) != n:
                raise ValueError(f"dim {n} does not match the {len(vs)} variables")
        else:
            vs = tuple(f"x{i+1}" for i in range(n))
        entries = {}
        for e in d.get("entries", []):
            i, j = json_int(e["i"]), json_int(e["j"])
            if (i, j) in entries or (j, i) in entries:
                raise ValueError(f"entry ({i}, {j}) is listed twice")
            entries[(i, j)] = MultiPoly.from_json(e["poly"])
        return PolyBivector(vs, entries)


# -- brackets and fields -------------------------------------------------------------


def bracket_fn(pi: PolyBivector, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """{f, g} = sum_{i<j} pi^{ij} (d_i f d_j g - d_j f d_i g)."""
    f = f.over(pi.vars)
    g = g.over(pi.vars)
    names = [v.name for v in pi.vars]
    df = [f.partial(n) for n in names]
    dg = [g.partial(n) for n in names]
    products = []
    for (i, j), p in pi.comps.items():
        products += [(1, (p, df[i], dg[j])), (-1, (p, df[j], dg[i]))]
    return MultiPoly.sum_of_products(pi.vars, products)


def hamiltonian_field(pi: PolyBivector, f: MultiPoly) -> PolyVectorField:
    """X_f = sharp(df) = {f, .}."""
    return pi.sharp(differential(f, pi.vars))


def casimir_check(pi: PolyBivector, f: MultiPoly) -> bool:
    """True iff the Hamiltonian field of f vanishes identically."""
    return hamiltonian_field(pi, f).is_zero()


def lie_poisson(L: LieAlgebra, names=None) -> PolyBivector:
    """Linear bivector on the dual space: pi^{ij}(mu) = sum_k C^k_{ij} mu_k."""
    n = L.dim
    vs = tuple(names) if names else tuple(f"mu{i+1}" for i in range(n))
    variables = _as_vars(vs)
    entries = {}
    mus = [MultiPoly.variable(variables, v.name) for v in variables]
    for i in range(n):
        for j in range(i + 1, n):
            entries[(i, j)] = MultiPoly.sum_of_products(
                variables, [(L.structure_constant(i, j, k), (mus[k],)) for k in range(n)])
    return PolyBivector(variables, entries)


# -- Jacobi -----------------------------------------------------------------------


def jacobiator(pi: PolyBivector) -> PolyMultiVector:
    """Trivector of cyclic sums {{x_i,x_j},x_k} + c.p. over coordinate triples.

    Each component is one :meth:`MultiPoly.sum_of_products` of the products
    ``P[a][k] * d_a P[i][j]``.  Only the stored components (i < j) are read:
    ``P[b][a] = -P[a][b]`` enters as the stored one with the product's sign
    negated, and its derivatives are the memoized ones of the stored one."""
    names = [v.name for v in pi.vars]
    n = pi.n
    column = [{} for _ in range(n)]      # k -> {a: (sign, P[a][k] as stored)}
    for (a, b), p in pi.comps.items():
        column[b][a] = (1, p)
        column[a][b] = (-1, p)
    # (i, j) -> [(a, d_a P[i][j])] with the derivative nonzero
    partials = {key: [(a, d) for a, d in enumerate(p.partial(x) for x in names) if d.terms]
                for key, p in pi.comps.items()}
    comps = {}
    for i, j, k in itertools.combinations(range(n), 3):
        products = []
        for key, c, sign in (((i, j), k, 1), ((j, k), i, 1), ((i, k), j, -1)):
            col = column[c]
            for a, d in partials.get(key, ()):
                entry = col.get(a)
                if entry is not None:
                    products.append((sign * entry[0], (entry[1], d)))
        comps[(i, j, k)] = MultiPoly.sum_of_products(pi.vars, products)
    return PolyMultiVector(pi.vars, 3, comps)


def jacobi_check(pi: PolyBivector) -> dict:
    """Passed iff [pi, pi] = 0, with the cyclic coordinate route
    :func:`jacobiator` as the residual; that route is cross-checked against
    the Schouten square computed independently.

    The cross-check reads only whether the square is zero, and decides it
    frame by frame: the frames of the square's one enumeration
    (:func:`~poissonkit.multivector._frame_products`) are summed one at a
    time, and the first nonzero one proves [pi, pi] != 0 without summing the
    rest; [pi, pi] = 0 when every frame sums to zero."""
    cyc = jacobiator(pi)
    square_vanishes = all(MultiPoly.sum_of_products(pi.vars, products).is_zero()
                          for products in _frame_products(pi, pi).values())
    return {"passed": cyc.is_zero(), "mode": "symbolic", "residual": str(cyc),
            "routes_consistent": cyc.is_zero() == square_vanishes}


# -- one-form calculus ---------------------------------------------------------------


def one_form_bracket(pi: PolyBivector, alpha: PolyOneForm, beta: PolyOneForm) -> PolyOneForm:
    """Lie algebroid bracket of one-forms, normalized by {df, dg} = d{f, g}:

        {alpha, beta} = L_{sharp(alpha)} beta - L_{sharp(beta)} alpha - d(pi(alpha, beta)).
    """
    sa = pi.sharp(alpha)
    sb = pi.sharp(beta)
    t1 = lie_derivative_one_form(sa, beta)
    t2 = lie_derivative_one_form(sb, alpha)
    t3 = differential(pi.pair(alpha, beta), pi.vars)
    return t1 - t2 - t3


def lie_derivative_bivector(pi: PolyBivector, V: PolyVectorField) -> PolyMultiVector:
    """L_V pi, the degree-2 Schouten bracket [V, pi]."""
    return schouten(V, pi)


# -- rank stratification ---------------------------------------------------------------


def rank_at(pi: PolyBivector, point) -> int:
    """Exact rank of the evaluated skew matrix at a rational point: the
    integer rows of :meth:`PolyBivector._int_matrix`, eliminated by
    :func:`linalg.rank`."""
    p, q, _ = pi._int_matrix(point)
    return linalg.rank(p, q)


def r_k(pi: PolyBivector, point, k: int) -> Fraction:
    """Sum of squared moduli of all k x k minors of pi(point), exactly."""
    if not 1 <= k <= pi.n:
        raise ValueError(f"minor order {k} out of range 1..{pi.n}")
    return linalg.minor_sums(pi.eval_matrix(point))[k]


def _largest_even_nonzero(sums) -> int:
    """The largest even k with ``sums[k] != 0``, for ``sums`` from
    :func:`linalg.minor_sums` or :func:`linalg._elementary_sums`
    (``sums[0]`` is 1)."""
    return max(k for k in range(0, len(sums), 2) if sums[k])


def sample_points(variables, count: int, seed: int, scale: int, denom_power: int) -> list:
    """``count`` seeded points on the chart ``variables``, each as the
    integer row ``(u, v, q)`` of :func:`linalg._int_row`.

    Each coordinate draws t = a / b, a in [-scale, scale] and b = 2^j with j
    in [0, denom_power], in this order; an affine coordinate is t, and an
    angular one, a unit w = e^{i theta}, is the point ((1 - t^2) + 2it) /
    (1 + t^2) of the unit circle.  The row's q is the lcm of the
    denominators b and b^2 + a^2 as drawn, not reduced, and ``v`` is None
    when the chart has no angular variable."""
    angular = [v.kind == ANGULAR for v in _as_vars(variables)]
    gaussian = any(angular)
    randint = random.Random(seed).randint
    rows = []
    for _ in range(count):
        parts = []
        for ang in angular:
            a, b = randint(-scale, scale), 2 ** randint(0, denom_power)
            parts.append((b * b - a * a, 2 * a * b, b * b + a * a) if ang else (a, 0, b))
        q = math.lcm(*(d for *_, d in parts))
        rows.append(([x * (q // d) for x, _, d in parts],
                     [y * (q // d) for _, y, d in parts] if gaussian else None, q))
    return rows


class StratifyConfig:
    def __init__(self, count: int = 100, seed: int = 0, scale: int = 8, denom_power: int = 3,
                 include_points: list | None = None):
        self.count = count
        self.seed = seed
        self.scale = scale                  # lattice numerators drawn from [-scale, scale]
        self.denom_power = denom_power      # denominators are 2^j, j in [0, denom_power]
        self.include_points = [] if include_points is None else include_points


def stratify_sample(pi: PolyBivector, config: StratifyConfig) -> dict:
    """Rank histogram over the included points and a seeded lattice sample
    (:func:`sample_points`).

    Every sample additionally cross-checks the rank by a route with no
    elimination; the check passes when all agree.  Up to
    ``PFAFFIAN_MAX_N`` that route is the largest order of a nonzero
    principal Pfaffian (:func:`_pfaffian_order`), whose square is a
    principal minor; above it, where the Pfaffian plan's 2^(n-1) entries
    cost more than the minor sums, it is the largest non-vanishing even
    minor sum (:func:`linalg._elementary_sums`, by Cauchy-Binet).  Each
    point is evaluated once, to integer rows over one denominator
    (:meth:`PolyBivector._int_matrix_at`), and the elimination
    :func:`linalg.rank` and the cross-check both read those rows, with
    no scalar built in between.  A drawn point is not reduced, and a denominator that
    is not the least one scales every entry by one constant, which changes
    neither the rank nor which minors vanish.  Only a witness is printed.
    """
    if config.count < 1:
        raise ValueError("sample count must be >= 1")
    histogram: dict = {}
    witnesses: dict = {}
    consistent = True
    points = [linalg._int_row(p) for p in config.include_points]
    points += sample_points(pi.vars, config.count, config.seed, config.scale, config.denom_power)
    if pi.n <= PFAFFIAN_MAX_N:
        cross_check = _pfaffian_order
    else:
        def cross_check(p, q):
            return _largest_even_nonzero(linalg._elementary_sums(p, q))
    for pt in points:
        p, q, _ = pi._int_matrix_at(pt)
        r = linalg.rank(p, q)
        if r % 2:
            raise AssertionError("skew matrix produced an odd rank")
        if cross_check(p, q) != r:
            consistent = False
        histogram[r] = histogram.get(r, 0) + 1
        if r not in witnesses:
            u, v, d = pt    # a real point is printed through Fraction, building no scalar
            witnesses[r] = ([str(Fraction(a, d)) for a in u] if v is None
                            else [str(x) for x in linalg._scalars(pt)])
    total = sum(histogram.values())
    max_rank = max(histogram)
    frac = histogram[max_rank] / total
    return {
        "passed": consistent,
        "mode": "symbolic",
        "sample_count": total,
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
        "witnesses": {str(k): w for k, w in sorted(witnesses.items())},
        "max_rank": max_rank,
        "minor_consistency": consistent,
        "max_rank_fraction": frac,
        "max_rank_dominates": frac > 0.5,
    }


# -- flows -------------------------------------------------------------------------------


def _pow(x: float, e: int) -> float:
    """``x ** e``, with the float64 result where Python's ``**`` raises."""
    try:
        return x ** e
    except OverflowError:   # C pow, so float64 **, gives the signed infinity
        return math.copysign(math.inf, x) if e % 2 else math.inf


def _compile_float(poly: MultiPoly, names, args, power: str) -> str:
    """``poly`` as the text of a float expression in the local variables ``args``.

    Each term is ``c * x_i**e_i * x_j**e_j`` over its nonzero exponents and
    the sum is ``0.0 + t1 + t2 + ...`` in the order of ``poly.terms``; both
    associate to the left, so these are the float64 operations, in their
    order, that fix the trajectories of :func:`hamiltonian_flow`.  Two
    rewrites drop an operation and are exact in IEEE 754: a term with ``c``
    exactly ``1.0`` is written without it, since 1.0*a is a for every a,
    signed zeros, infinities and NaN included; one with ``c`` exactly
    ``-1.0`` is subtracted, ``acc - x_i * x_j``, since (-a)*b is -(a*b)
    under round-to-nearest, which is symmetric, and acc - y is defined as
    acc + (-y).  The leading ``0.0 +`` stays, because it maps -0.0 to +0.0,
    and a constant term keeps its coefficient.  A power ``e >= 2`` is
    ``power.format(x_i, e)``.  The text holds ``args``, integers, ``repr`` of
    finite floats and ``power``, and no name of ``names``.
    """
    text = "0.0"
    for exp, c in poly.over(names).terms.items():
        if c.im:
            raise ValueError("flow integration requires real coefficients")
        try:
            coeff = float(c.re)
        except OverflowError:
            raise ValueError(f"flow coefficient {c} is too large for a float") from None
        factors = [args[i] if e == 1 else power.format(args[i], e) for i, e in enumerate(exp) if e]
        if factors and abs(coeff) == 1.0:
            text += (" + " if coeff > 0 else " - ") + " * ".join(factors)
        else:
            text += " + " + " * ".join([repr(coeff), *factors])
    return text


def _guarded(body, indent: str) -> list:
    """The lines ``body(power)`` run with ``x**e`` for every power and, where
    that raises ``OverflowError``, again with ``_pow``.  A body with no power
    is emitted once, with no ``try``: float ``+``, ``-`` and ``*`` round an
    overflow to an infinity and never raise."""
    fast, slow = body("{}**{}"), body("_pow({}, {})")
    if fast == slow:
        return [indent + ln for ln in fast]
    inner = indent + "    "
    return ([indent + "try:"] + [inner + ln for ln in fast]
            + [indent + "except OverflowError:"] + [inner + ln for ln in slow])


def _exec_flow(source: str, **env):
    """The function ``run`` that ``source`` defines, compiled; it reads no
    global but ``_pow``, ``env`` and builtins."""
    namespace = {"_pow": _pow, **env}
    exec(compile(source, FLOW_SOURCE, "exec"), namespace)
    return namespace["run"]


def _flow_run(components, polys, names, dt: float, bound):
    """``run(x0, ..., x{n-1}, steps)``: the whole RK4 loop of the field with
    float ``components``, generated and compiled once per flow.

    It returns ``(coordinates, values, truncated)``: one packed float64
    column, an ``array('d')``, per coordinate and one per polynomial of
    ``polys``, a point and its values appended after each step whose
    every coordinate passes ``bound >= abs(x)`` (a NaN fails it, and the
    loop stops, ``truncated``).  A stored double has the bits of the float
    it came from.
    Per coordinate a step is the float64 operations, in their order, of the
    array expressions x + (0.5*dt)*k, x + dt*k and
    x + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4), so a trajectory is bit for bit
    that of the NumPy loop in tests/flow_oracle.py.  The factor 2 is
    written ``2.0``, the float that an int operand is converted to anyway.
    A component that is the zero polynomial has no ``k`` lines, and each of
    its updates is ``x + 0.0``: its every k is +0.0, and for finite positive
    dt so are half*0.0, dt*0.0 and sixth*(0.0 + 2.0*0.0 + 2.0*0.0 + 0.0).
    A stage point ``y`` is stored only for a variable that some component
    reads.
    """
    from array import array

    n = len(names)
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    ks = [[f"k{s}_{i}" for i in range(n)] for s in range(4)]
    vs = [f"v{j}" for j in range(len(polys))]
    cols = [f"c{i}" for i in range(n)] + [f"w{j}" for j in range(len(polys))]
    moving = [not c.is_zero() for c in components]
    read = [any(exp[i] for c in components for exp in c.over(names).terms) for i in range(n)]

    def stages(power):
        lines, point = [], xs
        for s, k in enumerate(ks):
            lines += [f"{k[i]} = {_compile_float(c, names, point, power)}"
                      for i, c in enumerate(components) if moving[i]]
            if s < 3:
                step = "dt" if s == 2 else "half"
                lines += [f"{ys[i]} = {xs[i]} + " + (f"{step} * {k[i]}" if moving[i] else "0.0")
                          for i in range(n) if read[i]]
                point = ys
        return lines

    def values(power):
        return [f"{v} = {_compile_float(p, names, xs, power)}" for v, p in zip(vs, polys)]

    source = [f"def run({', '.join(xs)}, steps):", *_guarded(values, "    ")]
    source += [f"    {c} = array('d', ({v},))" for c, v in zip(cols, xs + vs)]
    source += [f"    {c}_append = {c}.append" for c in cols]
    source += ["    truncated = False", "    for _ in range(steps):", *_guarded(stages, "        ")]
    source += [f"        {x} = {x} + " + (f"sixth * ({a} + 2.0 * {b} + 2.0 * {c} + {d})" if m
                                          else "0.0")
               for x, m, a, b, c, d in zip(xs, moving, *ks)]
    source += ["        if not (" + " and ".join(f"bound >= abs({x})" for x in xs) + "):",
               "            truncated = True",
               "            break",
               *_guarded(values, "        ")]
    source += [f"        {c}_append({v})" for c, v in zip(cols, xs + vs)]
    source += [f"    return [{', '.join(cols[:n])}], [{', '.join(cols[n:])}], truncated"]
    return _exec_flow("\n".join(source) + "\n", array=array, half=0.5 * dt, dt=dt, sixth=dt / 6.0,
                      bound=bound)


def _column_text(col):
    """``map(repr, col)`` for a column of floats, with each distinct value
    formatted once where the column repeats itself.

    Every ``CSV_PROBE_STRIDE``-th value is probed; with no repeat among them
    the column is mapped through ``repr``.  Otherwise, when at most half of
    the column's values are distinct and none is a zero or a NaN, each
    distinct value is formatted once and the column is mapped through that
    table.  Equal nonzero floats are bitwise equal, so their ``repr`` is the
    same; 0.0 and -0.0 are equal with different ``repr``, and a NaN equals
    nothing, not even the fresh float with its bits that an ``array('d')``
    returns on every read, so a column holding either keeps ``repr``.
    """
    probe = col[::CSV_PROBE_STRIDE]
    if len(set(probe)) < len(probe):
        distinct = set(col)
        if (2 * len(distinct) <= len(col) and 0.0 not in distinct
                and all(x == x for x in distinct)):
            return map({x: repr(x) for x in distinct}.__getitem__, col)
    return map(repr, col)


class Trajectory:
    def __init__(self, times: list, coordinates: list, f_values: list, casimir_values: dict,
                 ranks: list, f_drift: float, casimir_drift: dict, truncated: bool):
        self.times = times
        # one column of floats per coordinate (from hamiltonian_flow, a packed
        # float64 array), one entry per time
        self.coordinates = coordinates
        self.f_values = f_values
        self.casimir_values = casimir_values
        self.ranks = ranks
        self.f_drift = f_drift
        self.casimir_drift = casimir_drift
        self.truncated = truncated

    @functools.cached_property
    def points(self) -> list:
        """The trajectory as one list of coordinates per time."""
        return list(map(list, zip(*self.coordinates)))

    def to_csv(self) -> str:
        """The trajectory as CSV text: the blocks of :meth:`csv_blocks`, joined."""
        return "".join(self.csv_blocks())

    def csv_blocks(self):
        """The CSV text of the trajectory in pieces: a header line, then blocks
        of up to ``CSV_BLOCK_ROWS`` lines, one per point with step, t, the
        coordinates, f, each Casimir and the rank where sampled.  Each float
        column is formatted on its own, as the ``repr`` of each value; where
        a column repeats itself, as the conserved f and Casimirs do, each
        distinct value is formatted once (:func:`_column_text`)."""
        count = len(self.times)
        ranks = ["\n"] * count      # the last cell of a row carries its line break
        for idx, rank in self.ranks:
            ranks[idx] = f"{rank}\n"
        yield ",".join(["step", "t", *(f"x{i+1}" for i in range(len(self.coordinates))),
                        "f", *self.casimir_values, "rank\n"])
        floats = [self.times, *self.coordinates, self.f_values, *self.casimir_values.values()]
        rows = map(",".join, zip(map(str, range(count)), *map(_column_text, floats), ranks))
        while block := "".join(itertools.islice(rows, CSV_BLOCK_ROWS)):
            yield block

    def summary(self) -> dict:
        return {
            "steps": len(self.times) - 1,
            "f_drift": self.f_drift,
            "casimir_drift": self.casimir_drift,
            "ranks_seen": sorted({r for _, r in self.ranks}),
            "truncated": self.truncated,
        }


def hamiltonian_flow(pi: PolyBivector, f: MultiPoly, x0, dt: float, steps: int,
                     casimirs=None, divergence_bound: float = 1e9) -> Trajectory:
    """Fixed-step RK4 integration of X_f with conservation reporting.

    Exactness is never claimed for flows: the trajectory is float64 and the
    report carries the observed drift of f and of each registered Casimir.
    Each rank sample is the exact rank of pi (:func:`rank_at`) at the float
    point the integrator reached, read as the rational it is, so it needs no
    tolerance.  The integration stops (``truncated``) at the first state with
    an entry that is not finite or exceeds ``divergence_bound`` in absolute
    value; that state is not kept.
    """
    from array import array

    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not math.isfinite(divergence_bound):
        raise ValueError("divergence_bound must be finite")
    if steps < 1:
        raise ValueError("need at least one step")
    dt = float(dt)
    names = [v.name for v in pi.vars]
    field_exact = hamiltonian_field(pi, f)
    casimirs = casimirs or {}
    run = _flow_run([field_exact.component(i) for i in range(pi.n)], [f, *casimirs.values()],
                    names, dt, divergence_bound)
    coordinates, (fvals, *cas_columns), truncated = run(*map(float, x0), steps)
    # float(s) * dt, the product that s * dt takes, with no list of the times
    times = array('d', map(dt.__mul__, range(len(fvals))))
    cvals = dict(zip(casimirs, cas_columns))

    nsteps = len(times)
    sample_idx = sorted({round(i * (nsteps - 1) / (FLOW_RANK_SAMPLES - 1))
                         for i in range(FLOW_RANK_SAMPLES)})
    ranks = [(idx, rank_at(pi, [Fraction(col[idx]) for col in coordinates]))
             for idx in sample_idx]

    return Trajectory(
        times=times,
        coordinates=coordinates,
        f_values=fvals,
        casimir_values=cvals,
        ranks=ranks,
        f_drift=_drift(fvals),
        casimir_drift={k: _drift(vals) for k, vals in cvals.items()},
        truncated=truncated,
    )


def _drift(vals) -> float:
    """max |v - vals[0]| over ``vals``, over max(1, |vals[0]|)."""
    v0 = vals[0]
    return max(map(abs, map(operator.sub, vals, itertools.repeat(v0)))) / max(1.0, abs(v0))

