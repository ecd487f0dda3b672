"""Test oracles for :func:`poissonkit.poisson.hamiltonian_flow` and
:meth:`poissonkit.poisson.Trajectory.to_csv`.

The NumPy float64 RK4 flow that ``hamiltonian_flow`` computed before it ran
on Python floats: ``_compile_float`` and ``hamiltonian_flow`` are kept with
their bodies unchanged but for building the ``Trajectory`` from columns.
Every term is evaluated on ``np.float64`` scalars and every RK4 stage is a
small ``ndarray`` expression, so this module fixes the float64 operations,
and their order, that the fast path must reproduce bit for bit.
Both take their rank samples by ``exact_rank``, the rule of the fast path
on an independent route.  Two behaviours are kept as they were and are not
the contract of the fast path: a state that turns NaN is not truncated, and
a rank sample at a non-finite point raises ``ValueError`` (NaN) or
``OverflowError`` (an infinity), as ``Fraction`` does.

The Python-float route before the whole loop was one generated function:
``stepwise_flow`` calls a generated ``step`` and a generated ``values``
function once per step from a Python loop and keeps one list per point.
``rowwise_csv`` is ``Trajectory.to_csv`` as it formatted one row at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from poissonkit import linalg
from poissonkit.poisson import (FLOW_RANK_SAMPLES, FLOW_SOURCE, PolyBivector, Trajectory,
                                _compile_float as _compile_float_text, _drift, _pow,
                                hamiltonian_field)
from poissonkit.poly import MultiPoly


def exact_rank(pi: PolyBivector, point) -> int:
    """The rank of pi at a float point, read as the rational it is, by the
    scalar route: one exact matrix, then ``linalg.rank``."""
    return linalg.rank(pi.eval_matrix([Fraction(x) for x in point]))


def _compile_float(poly: MultiPoly, names):
    aligned = poly.over(names)
    terms = []
    for exp, c in aligned.terms.items():
        if c.im:
            raise ValueError("flow integration requires real coefficients")
        terms.append((tuple(exp), float(c.re)))

    def fn(x):
        acc = 0.0
        for exp, coeff in terms:
            t = coeff
            for e, xi in zip(exp, x):
                if e:
                    t *= xi ** e
            acc += t
        return acc

    return fn


def hamiltonian_flow(pi: PolyBivector, f: MultiPoly, x0, dt: float, steps: int,
                     casimirs=None, divergence_bound: float = 1e9) -> Trajectory:
    """Fixed-step RK4 integration of X_f with conservation reporting.

    Exactness is never claimed for flows: the trajectory is float64 and the
    report carries the observed drift of f and of each registered Casimir,
    plus the rank of pi at sampled trajectory points.
    """
    import numpy as np

    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    names = [v.name for v in pi.vars]
    field_exact = hamiltonian_field(pi, f)
    comp_fns = [_compile_float(field_exact.component(i), names) for i in range(pi.n)]
    f_fn = _compile_float(f, names)
    casimirs = casimirs or {}
    cas_fns = {k: _compile_float(v, names) for k, v in casimirs.items()}

    def rhs(x):
        return np.array([fn(x) for fn in comp_fns])

    x = np.array([float(v) for v in x0], dtype=float)
    times = [0.0]
    pts = [list(x)]
    fvals = [f_fn(x)]
    cvals = {k: [fn(x)] for k, fn in cas_fns.items()}
    truncated = False
    for s in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.max(np.abs(x)) > divergence_bound:
            truncated = True
            break
        times.append((s + 1) * dt)
        pts.append(list(x))
        fvals.append(f_fn(x))
        for k, fn in cas_fns.items():
            cvals[k].append(fn(x))

    nsteps = len(pts)
    sample_idx = sorted({round(i * (nsteps - 1) / (FLOW_RANK_SAMPLES - 1))
                         for i in range(FLOW_RANK_SAMPLES)})
    ranks = [(idx, exact_rank(pi, pts[idx])) for idx in sample_idx]

    scale0 = max(1.0, abs(fvals[0]))
    f_drift = float(max(abs(v - fvals[0]) for v in fvals) / scale0)
    cas_drift = {
        k: float(max(abs(v - vals[0]) for v in vals) / max(1.0, abs(vals[0])))
        for k, vals in cvals.items()
    }
    return Trajectory(
        times=times,
        coordinates=[list(col) for col in zip(*pts)],
        f_values=fvals,
        casimir_values=cvals,
        ranks=ranks,
        f_drift=f_drift,
        casimir_drift=cas_drift,
        truncated=truncated,
    )


def rowwise_csv(traj: Trajectory) -> str:
    """The CSV text of ``traj``, one ``%``-formatted row per point."""
    names = list(traj.casimir_values)
    n = len(traj.points[0])
    lines = [",".join(["step", "t", *(f"x{i+1}" for i in range(n)), "f", *names, "rank"])]
    row = "%d," + "%r," * (n + 2 + len(names)) + "%s"
    rank_map = dict(traj.ranks)
    for s, t, p, *vals in zip(itertools.count(), traj.times, traj.points, traj.f_values,
                              *traj.casimir_values.values()):
        lines.append(row % (s, t, *p, *vals, rank_map.get(s, "")))
    lines.append("")
    return "\n".join(lines)


def _exec_flow(name: str, n: int, body, **env):
    lines = [f"def {name}({', '.join(f'x{i}' for i in range(n))}):", "    try:"]
    lines += ["        " + ln for ln in body("{}**{}")]
    lines += ["    except OverflowError:"]
    lines += ["        " + ln for ln in body("_pow({}, {})")]
    namespace = {"_pow": _pow, **env}
    exec(compile("\n".join(lines) + "\n", FLOW_SOURCE, "exec"), namespace)
    return namespace[name]


def float_values(polys, names):
    """``values(x0, ..., x{n-1})``: the tuple of the floats of ``polys`` at a point."""
    xs = [f"x{i}" for i in range(len(names))]
    return _exec_flow("values", len(names), lambda power: [
        "return (" + "".join(_compile_float_text(p, names, xs, power) + ", " for p in polys) + ")"])


def rk4_step(components, names, dt: float):
    """``step(x0, ..., x{n-1})``: the point after one RK4 step, as a list."""
    n = len(names)
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    ks = [[f"k{s}_{i}" for i in range(n)] for s in range(4)]

    def body(power):
        lines, point = [], xs
        for s, k in enumerate(ks):
            lines += [f"{k[i]} = {_compile_float_text(c, names, point, power)}"
                      for i, c in enumerate(components)]
            if s < 3:
                lines += [f"{ys[i]} = {xs[i]} + {'dt' if s == 2 else 'half'} * {k[i]}"
                          for i in range(n)]
                point = ys
        k1, k2, k3, k4 = ks
        return lines + ["return [" + ", ".join(
            f"{xs[i]} + sixth * ({k1[i]} + 2 * {k2[i]} + 2 * {k3[i]} + {k4[i]})"
            for i in range(n)) + "]"]

    return _exec_flow("step", n, body, half=0.5 * dt, dt=dt, sixth=dt / 6.0)


def stepwise_flow(pi: PolyBivector, f, x0, dt: float, steps: int, casimirs=None,
                  divergence_bound: float = 1e9) -> Trajectory:
    """``hamiltonian_flow`` as two generated calls per step from a Python loop."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not math.isfinite(divergence_bound):
        raise ValueError("divergence_bound must be finite")
    if steps < 1:
        raise ValueError("need at least one step")
    dt = float(dt)
    names = [v.name for v in pi.vars]
    field_exact = hamiltonian_field(pi, f)
    step = rk4_step([field_exact.component(i) for i in range(pi.n)], names, dt)
    casimirs = casimirs or {}
    values = float_values([f, *casimirs.values()], names)
    within = functools.partial(operator.ge, divergence_bound)

    x = [float(v) for v in x0]
    times = [0.0]
    pts = [x]
    fvals = []
    cvals = {k: [] for k in casimirs}
    columns = [fvals, *cvals.values()]
    for col, v in zip(columns, values(*x)):
        col.append(v)
    truncated = False
    for s in range(steps):
        x = step(*x)
        if not all(map(within, map(abs, x))):
            truncated = True
            break
        times.append((s + 1) * dt)
        pts.append(x)
        for col, v in zip(columns, values(*x)):
            col.append(v)

    nsteps = len(pts)
    sample_idx = sorted({round(i * (nsteps - 1) / (FLOW_RANK_SAMPLES - 1))
                         for i in range(FLOW_RANK_SAMPLES)})
    ranks = [(idx, exact_rank(pi, pts[idx])) for idx in sample_idx]
    return Trajectory(
        times=times,
        coordinates=[list(col) for col in zip(*pts)],
        f_values=fvals,
        casimir_values=cvals,
        ranks=ranks,
        f_drift=_drift(fvals),
        casimir_drift={k: _drift(vals) for k, vals in cvals.items()},
        truncated=truncated,
    )
