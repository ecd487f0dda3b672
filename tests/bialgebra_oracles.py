"""Test oracle: the float Jacobiator of the multiplicative log bivector,
computed from its closed-form derivatives, which
:func:`poissonkit.bialgebra.check_log_coordinate_identity` is checked against.
It lived in ``poissonkit.bialgebra`` until only the tests called it."""

from __future__ import annotations

import itertools
import math

from poissonkit.lie import LieAlgebra


def multiplicative_log_bivector_jacobiator(L: LieAlgebra, z) -> float:
    """Max |Jacobiator| component of the bivector pi^{ij}(z) = sum_k C^k_{ij}
    z_i z_j ln z_k at a positive point, via the closed-form derivatives.
    The independent sampling oracle for
    :func:`poissonkit.bialgebra.check_log_coordinate_identity`."""
    n = L.dim
    zf = [float(x) for x in z]
    if any(v <= 0 for v in zf):
        raise ValueError("coordinates must be positive")
    ln = [math.log(v) for v in zf]

    def C(i, j, k):
        return float(L.structure_constant(i, j, k).re)

    def pi(i, j):
        return sum(C(i, j, k) * zf[i] * zf[j] * ln[k] for k in range(n))

    def dpi(a, i, j):
        # d/dz_a of pi^{ij}
        out = 0.0
        for k in range(n):
            c = C(i, j, k)
            if not c:
                continue
            if a == i:
                out += c * zf[j] * ln[k]
            if a == j:
                out += c * zf[i] * ln[k]
            if a == k:
                out += c * zf[i] * zf[j] / zf[a]
        return out

    worst = 0.0
    for i, j, k in itertools.combinations(range(n), 3):
        acc = 0.0
        for a in range(n):
            acc += pi(a, k) * dpi(a, i, j) + pi(a, i) * dpi(a, j, k) + pi(a, j) * dpi(a, k, i)
        worst = max(worst, abs(acc))
    return worst
