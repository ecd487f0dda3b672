"""Test oracle: the NumPy float64 RK4 flow that :func:`poissonkit.poisson.hamiltonian_flow`
computed before it ran on Python floats.

``_compile_float`` and ``hamiltonian_flow`` are kept with their bodies
unchanged.  Every term is evaluated on ``np.float64`` scalars and every RK4
stage is a small ``ndarray`` expression, so this module fixes the float64
operations, and their order, that the fast path must reproduce bit for bit.
Two behaviours are kept as they were and are not the contract of the fast
path: a state that turns NaN is not truncated, and a rank sample at a
non-finite point raises ``numpy.linalg.LinAlgError``.
"""

from __future__ import annotations

from poissonkit.poisson import FLOW_RANK_SAMPLES, PolyBivector, Trajectory, hamiltonian_field
from poissonkit.poly import MultiPoly


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
    ranks = []
    for idx in sample_idx:
        m = pi.eval_matrix_float(pts[idx])
        ranks.append((idx, int(np.linalg.matrix_rank(m, tol=1e-8 * (1.0 + np.abs(m).max())))))

    scale0 = max(1.0, abs(fvals[0]))
    f_drift = float(max(abs(v - fvals[0]) for v in fvals) / scale0)
    cas_drift = {
        k: float(max(abs(v - vals[0]) for v in vals) / max(1.0, abs(vals[0])))
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
