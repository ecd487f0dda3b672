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

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .lie import LieAlgebra
from .multivector import PolyMultiVector, schouten
from .poly import AFFINE, MultiPoly, NumericField, _as_vars
from .scalars import GaussianRational, json_int

FLOW_RANK_SAMPLES = 11      # trajectory points at which hamiltonian_flow reports the rank


class PolyVectorField(PolyMultiVector):
    """A vector field with polynomial components: a degree-1
    :class:`PolyMultiVector` built from its list of n components."""

    def __init__(self, variables, comps):
        vs = _as_vars(variables)
        if len(comps) != len(vs):
            raise ValueError("component count must equal the dimension")
        PolyMultiVector.__init__(self, vs, 1, {(i,): c for i, c in enumerate(comps)})

    def apply(self, f: MultiPoly) -> MultiPoly:
        """Directional derivative V(f)."""
        acc = MultiPoly.zero(self.vars)
        for (i,), c in sorted(self.comps.items()):
            acc = acc + c * f.partial(self.vars[i].name)
        return acc

    def pair(self, alpha: "PolyOneForm") -> MultiPoly:
        acc = MultiPoly.zero(self.vars)
        for k, c in sorted(self.comps.items()):
            if k in alpha.comps:
                acc = acc + c * alpha.comps[k]
        return acc


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


def _assign(variables, point) -> dict:
    if len(point) != len(variables):
        raise ValueError("point has wrong dimension")
    return {v.name: GaussianRational.coerce(x) for v, x in zip(variables, point)}


def lie_derivative_one_form(V: PolyVectorField, alpha: PolyOneForm) -> PolyOneForm:
    """(L_V alpha)_j = V^i d_i alpha_j + alpha_i d_j V^i."""
    names = [v.name for v in V.vars]
    v = [V.component(i) for i in range(V.n)]
    a = [alpha.component(i) for i in range(V.n)]
    out = []
    for j in range(len(names)):
        acc = MultiPoly.zero(V.vars)
        for i in range(len(names)):
            acc = acc + v[i] * a[j].partial(names[i])
            acc = acc + a[i] * v[i].partial(names[j])
        out.append(acc)
    return PolyOneForm(V.vars, out)


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
        """Exact skew matrix of values at a rational point."""
        assign = _assign(self.vars, point)
        m = linalg.zeros(self.n, self.n)
        for (i, j), p in self.comps.items():
            val = GaussianRational.coerce(p.eval(assign))
            m[i][j] = val
            m[j][i] = -val
        return m

    def eval_matrix_float(self, point):
        import numpy as np

        m = np.zeros((self.n, self.n))
        for (i, j), p in self.comps.items():
            val = p.eval({v.name: float(x) for v, x in zip(self.vars, point)})
            val = val.real if isinstance(val, complex) else float(val)
            m[i, j] = val
            m[j, i] = -val
        return m

    # -- core maps -------------------------------------------------------------

    def sharp(self, alpha: PolyOneForm) -> PolyVectorField:
        """sharp(alpha)^i = sum_j alpha_j pi^{ji}."""
        if alpha.n != self.n:
            raise ValueError("one-form dimension mismatch")
        comps = []
        for i in range(self.n):
            acc = MultiPoly.zero(self.vars)
            for j in range(self.n):
                pij = self.component(j, i)
                if not pij.is_zero():
                    acc = acc + alpha.component(j) * pij
            comps.append(acc)
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
            entries[(json_int(e["i"]), json_int(e["j"]))] = MultiPoly.from_json(e["poly"])
        return PolyBivector(vs, entries)


# -- brackets and fields -------------------------------------------------------------


def bracket_fn(pi: PolyBivector, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """{f, g} = sum_{i<j} pi^{ij} (d_i f d_j g - d_j f d_i g)."""
    if isinstance(f, NumericField) or isinstance(g, NumericField):
        raise TypeError("numeric-only fields have no symbolic bracket")
    f = f.over(pi.vars)
    g = g.over(pi.vars)
    acc = MultiPoly.zero(pi.vars)
    names = [v.name for v in pi.vars]
    df = [f.partial(n) for n in names]
    dg = [g.partial(n) for n in names]
    for (i, j), p in pi.comps.items():
        acc = acc + p * (df[i] * dg[j] - df[j] * dg[i])
    return acc


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
    for i in range(n):
        for j in range(i + 1, n):
            acc = MultiPoly.zero(variables)
            for k in range(n):
                c = L.structure_constant(i, j, k)
                if not c.is_zero():
                    acc = acc + MultiPoly.variable(variables, variables[k].name).scale(c)
            entries[(i, j)] = acc
    return PolyBivector(variables, entries)


# -- Jacobi -----------------------------------------------------------------------


@dataclass
class JacobiBivectorReport:
    ok: bool
    residual: PolyMultiVector          # cyclic coordinate-bracket trivector
    schouten_square: PolyMultiVector   # [pi, pi] computed independently
    routes_consistent: bool

    def to_json(self) -> dict:
        return {
            "passed": self.ok,
            "mode": "symbolic",
            "residual": str(self.residual),
            "routes_consistent": self.routes_consistent,
        }


def jacobiator(pi: PolyBivector) -> PolyMultiVector:
    """Trivector of cyclic sums {{x_i,x_j},x_k} + c.p. over coordinate triples."""
    names = [v.name for v in pi.vars]
    P = [[pi.component(a, b) for b in range(pi.n)] for a in range(pi.n)]
    comps = {}
    for i, j, k in itertools.combinations(range(pi.n), 3):
        acc = MultiPoly.zero(pi.vars)
        for a in range(pi.n):
            acc = acc + P[a][k] * P[i][j].partial(names[a])
            acc = acc + P[a][i] * P[j][k].partial(names[a])
            acc = acc + P[a][j] * P[k][i].partial(names[a])
        comps[(i, j, k)] = acc
    return PolyMultiVector(pi.vars, 3, comps)


def jacobi_check(pi: PolyBivector) -> JacobiBivectorReport:
    """True iff [pi, pi] = 0; the cyclic coordinate route is cross-checked
    against the Schouten square computed independently."""
    cyc = jacobiator(pi)
    sq = schouten(pi, pi)
    return JacobiBivectorReport(
        ok=cyc.is_zero(),
        residual=cyc,
        schouten_square=sq,
        routes_consistent=(cyc.is_zero() == sq.is_zero()),
    )


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


def _interior_two_form(V: PolyVectorField, beta: PolyOneForm) -> PolyOneForm:
    """i_V d(beta) as a one-form: (i_V dbeta)_j = sum_i V^i (d_i beta_j - d_j beta_i)."""
    names = [v.name for v in V.vars]
    v = [V.component(i) for i in range(V.n)]
    b = [beta.component(i) for i in range(V.n)]
    out = []
    for j in range(len(names)):
        acc = MultiPoly.zero(V.vars)
        for i in range(len(names)):
            acc = acc + v[i] * (b[j].partial(names[i]) - b[i].partial(names[j]))
        out.append(acc)
    return PolyOneForm(V.vars, out)


def one_form_bracket_displayed(pi: PolyBivector, alpha: PolyOneForm, beta: PolyOneForm) -> PolyOneForm:
    """The variant d(pi(alpha,beta)) - i_{sharp(alpha)} dbeta + i_{sharp(beta)} dalpha.

    It agrees with :func:`one_form_bracket` on exact forms but differs in
    general; :func:`compare_one_form_conventions` reports the relation.
    """
    sa = pi.sharp(alpha)
    sb = pi.sharp(beta)
    d0 = differential(pi.pair(alpha, beta), pi.vars)
    return d0 - _interior_two_form(sa, beta) + _interior_two_form(sb, alpha)


@dataclass
class OneFormConventionReport:
    match_verbatim: bool
    match_up_to_sign: bool
    difference: PolyOneForm

    def to_json(self):
        return {
            "match_verbatim": self.match_verbatim,
            "match_up_to_sign": self.match_up_to_sign,
            "difference": str(self.difference),
        }


def compare_one_form_conventions(pi, alpha, beta) -> OneFormConventionReport:
    k = one_form_bracket(pi, alpha, beta)
    d = one_form_bracket_displayed(pi, alpha, beta)
    diff = k - d
    return OneFormConventionReport(
        match_verbatim=diff.is_zero(),
        match_up_to_sign=(k + d).is_zero() or diff.is_zero(),
        difference=diff,
    )


def lie_derivative_bivector(pi: PolyBivector, V: PolyVectorField) -> PolyMultiVector:
    """L_V pi, the degree-2 Schouten bracket [V, pi]."""
    return schouten(V, pi)


@dataclass
class PairingIdentityReport:
    """Pairing of a vector field against the one-form bracket versus the
    bivector-derivative expansion, in both displayed and sign-corrected form."""

    corrected_holds: bool
    verbatim_holds: bool
    residual_corrected: MultiPoly
    residual_verbatim: MultiPoly

    def to_json(self):
        return {
            "passed": self.corrected_holds,
            "mode": "symbolic",
            "verbatim_holds": self.verbatim_holds,
            "residual": str(self.residual_corrected),
        }


def pairing_identity_check(pi: PolyBivector, V: PolyVectorField, alpha: PolyOneForm,
                      beta: PolyOneForm) -> PairingIdentityReport:
    """Check <V, {alpha,beta}> against (L_V pi)(alpha,beta) -/+ interior terms.

    The displayed placement of the interior-product signs does not hold with
    the {df,dg}=d{f,g} normalization; the corrected placement (signs swapped)
    does, and both verdicts are reported.
    """
    lhs = V.pair(one_form_bracket(pi, alpha, beta))
    lv = lie_derivative_bivector(pi, V)
    pair_lv = MultiPoly.zero(pi.vars)
    for (i, j), p in lv.comps.items():
        pair_lv = pair_lv + p * (alpha.component(i) * beta.component(j)
                                   - alpha.component(j) * beta.component(i))
    sa = pi.sharp(alpha)
    sb = pi.sharp(beta)
    ivb = V.pair(beta)
    iva = V.pair(alpha)
    term_a = sa.pair(differential(ivb, pi.vars))
    term_b = sb.pair(differential(iva, pi.vars))
    rhs_verbatim = pair_lv - term_a + term_b
    rhs_corrected = pair_lv + term_a - term_b
    return PairingIdentityReport(
        corrected_holds=(lhs - rhs_corrected).is_zero(),
        verbatim_holds=(lhs - rhs_verbatim).is_zero(),
        residual_corrected=lhs - rhs_corrected,
        residual_verbatim=lhs - rhs_verbatim,
    )


# -- rank stratification ---------------------------------------------------------------


def rank_at(pi: PolyBivector, point) -> int:
    """Exact rank of the evaluated skew matrix at a rational point."""
    return linalg.rank(pi.eval_matrix(point))


def r_k(pi: PolyBivector, point, k: int) -> Fraction:
    """Sum of squared moduli of all k x k minors of pi(point), exactly."""
    if not 1 <= k <= pi.n:
        raise ValueError(f"minor order {k} out of range 1..{pi.n}")
    return linalg.minor_sums(pi.eval_matrix(point))[k]


def max_rank_from_minors(pi: PolyBivector, point) -> int:
    """max{2k : r_{2k}(point) != 0}, an independent route to the rank."""
    sums = linalg.minor_sums(pi.eval_matrix(point))
    return max(k for k in range(0, pi.n + 1, 2) if sums[k])


@dataclass
class StratifyConfig:
    count: int = 100
    seed: int = 0
    scale: int = 8           # lattice numerators drawn from [-scale, scale]
    denom_power: int = 3     # denominators are 2^j, j in [0, denom_power]
    include_points: list = field(default_factory=list)


@dataclass
class StratificationReport:
    sample_count: int
    histogram: dict
    witnesses: dict
    max_rank: int
    minor_consistency: bool
    max_rank_fraction: float
    max_rank_dominates: bool

    def to_json(self):
        return {
            "sample_count": self.sample_count,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "witnesses": {
                str(k): [str(x) for x in w] for k, w in sorted(self.witnesses.items())
            },
            "max_rank": self.max_rank,
            "minor_consistency": self.minor_consistency,
            "max_rank_fraction": self.max_rank_fraction,
            "max_rank_dominates": self.max_rank_dominates,
        }


def stratify_sample(pi: PolyBivector, config: StratifyConfig) -> StratificationReport:
    """Rank histogram over a seeded rational lattice sample.

    Every sample additionally cross-checks the rank against the largest
    non-vanishing even minor sum.
    """
    if config.count < 1:
        raise ValueError("sample count must be >= 1")
    rng = random.Random(config.seed)
    histogram: dict = {}
    witnesses: dict = {}
    consistent = True
    points = [
        [Fraction(x) for x in p] for p in config.include_points
    ]
    while len(points) < config.count + len(config.include_points):
        pt = [
            Fraction(rng.randint(-config.scale, config.scale), 2 ** rng.randint(0, config.denom_power))
            for _ in range(pi.n)
        ]
        points.append(pt)
    for pt in points:
        r = rank_at(pi, pt)
        if r % 2:
            raise AssertionError("skew matrix produced an odd rank")
        if max_rank_from_minors(pi, pt) != r:
            consistent = False
        histogram[r] = histogram.get(r, 0) + 1
        if r not in witnesses:
            witnesses[r] = pt
    total = sum(histogram.values())
    max_rank = max(histogram) if histogram else 0
    frac = histogram.get(max_rank, 0) / total if total else 0.0
    return StratificationReport(
        sample_count=total,
        histogram=histogram,
        witnesses=witnesses,
        max_rank=max_rank,
        minor_consistency=consistent,
        max_rank_fraction=frac,
        max_rank_dominates=frac > 0.5,
    )


# -- flows -------------------------------------------------------------------------------


def _compile_float(poly: MultiPoly, names):
    """``poly`` as a function of a list of floats.

    Each term is ``t = coeff; t *= x_i ** e`` over its nonzero exponents,
    added to an accumulator that starts at 0.0, in the order of
    ``poly.terms``: the float64 operations, in their order, that fix the
    trajectories of :func:`hamiltonian_flow`.
    """
    aligned = poly.over(names)
    terms = []
    for exp, c in aligned.terms.items():
        if c.im:
            raise ValueError("flow integration requires real coefficients")
        terms.append((float(c.re), tuple((i, e) for i, e in enumerate(exp) if e)))

    def fn(x):
        acc = 0.0
        for coeff, factors in terms:
            t = coeff
            for i, e in factors:
                try:
                    t *= x[i] ** e
                except OverflowError:   # C pow, so float64 **, gives the signed infinity
                    t *= math.copysign(math.inf, x[i]) if e % 2 else math.inf
            acc += t
        return acc

    return fn


@dataclass
class Trajectory:
    times: list
    points: list
    f_values: list
    casimir_values: dict
    ranks: list
    f_drift: float
    casimir_drift: dict
    truncated: bool

    def to_csv(self) -> str:
        """The trajectory as CSV text: a header, then one line per point with
        step, t, the coordinates, f, each Casimir and the rank where sampled."""
        names = list(self.casimir_values)
        coords = [f"x{i+1}" for i in range(len(self.points[0]))]
        lines = [",".join(["step", "t", *coords, "f", *names, "rank"])]
        cas = [self.casimir_values[nm] for nm in names]
        rank_map = dict(self.ranks)
        for s, (t, p, fv) in enumerate(zip(self.times, self.points, self.f_values)):
            cells = ",".join(map(repr, [t, *p, fv, *(c[s] for c in cas)]))
            lines.append(f"{s},{cells},{rank_map.get(s, '')}")
        lines.append("")
        return "\n".join(lines)

    def summary(self) -> dict:
        return {
            "steps": len(self.points) - 1,
            "f_drift": self.f_drift,
            "casimir_drift": self.casimir_drift,
            "ranks_seen": sorted({r for _, r in self.ranks}),
            "truncated": self.truncated,
        }


def hamiltonian_flow(pi: PolyBivector, f: MultiPoly, x0, dt: float, steps: int,
                     casimirs=None, divergence_bound: float = 1e9) -> Trajectory:
    """Fixed-step RK4 integration of X_f with conservation reporting.

    Exactness is never claimed for flows: the trajectory is float64 and the
    report carries the observed drift of f and of each registered Casimir,
    plus the rank of pi at sampled trajectory points.  The integration stops
    (``truncated``) at the first state with an entry that is not finite or
    exceeds ``divergence_bound`` in absolute value; that state is not kept.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not math.isfinite(divergence_bound):
        raise ValueError("divergence_bound must be finite")
    if steps < 1:
        raise ValueError("need at least one step")
    dt = float(dt)
    names = [v.name for v in pi.vars]
    field_exact = hamiltonian_field(pi, f)
    comp_fns = [_compile_float(field_exact.component(i), names) for i in range(pi.n)]
    f_fn = _compile_float(f, names)
    casimirs = casimirs or {}
    cas_fns = {k: _compile_float(v, names) for k, v in casimirs.items()}

    def rhs(x):
        return [fn(x) for fn in comp_fns]

    # per coordinate, the float64 operations and their order of the array
    # expressions x + (0.5*dt)*k, x + dt*k and x + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4),
    # so a trajectory is bit for bit that of the NumPy loop in tests/flow_oracle.py
    half = 0.5 * dt
    sixth = dt / 6.0
    x = [float(v) for v in x0]
    times = [0.0]
    pts = [x]
    fvals = [f_fn(x)]
    cvals = {k: [fn(x)] for k, fn in cas_fns.items()}
    truncated = False
    for s in range(steps):
        k1 = rhs(x)
        k2 = rhs([a + half * b for a, b in zip(x, k1)])
        k3 = rhs([a + half * b for a, b in zip(x, k2)])
        k4 = rhs([a + dt * b for a, b in zip(x, k3)])
        x = [a + sixth * (((b1 + 2 * b2) + 2 * b3) + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        # a NaN entry fails every comparison, so it cannot pass as within the bound
        if not all(abs(v) <= divergence_bound for v in x):
            truncated = True
            break
        times.append((s + 1) * dt)
        pts.append(x)
        fvals.append(f_fn(x))
        for k, fn in cas_fns.items():
            cvals[k].append(fn(x))

    nsteps = len(pts)
    sample_idx = sorted({round(i * (nsteps - 1) / (FLOW_RANK_SAMPLES - 1))
                         for i in range(FLOW_RANK_SAMPLES)})
    ranks = []
    for idx in sample_idx:
        rank = _float_rank(pi, pts[idx])
        if rank is not None:
            ranks.append((idx, rank))

    scale0 = max(1.0, abs(fvals[0]))
    f_drift = max(abs(v - fvals[0]) for v in fvals) / scale0
    cas_drift = {
        k: max(abs(v - vals[0]) for v in vals) / max(1.0, abs(vals[0]))
        for k, vals in cvals.items()
    }
    return Trajectory(
        times=times,
        points=pts,
        f_values=fvals,
        casimir_values=cvals,
        ranks=ranks,
        f_drift=f_drift,
        casimir_drift=cas_drift,
        truncated=truncated,
    )


def _float_rank(pi: PolyBivector, point):
    """The numerical rank of pi at a float point, or None when an entry of
    its float matrix is not finite (SVD has no answer there)."""
    import numpy as np

    try:
        m = pi.eval_matrix_float(point)
    except OverflowError:           # complex ** int raises where float64 gives inf
        return None
    if not np.isfinite(m).all():
        return None
    return int(np.linalg.matrix_rank(m, tol=1e-8 * (1.0 + np.abs(m).max())))
