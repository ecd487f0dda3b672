"""Test oracles: bracket computations of ``poissonkit`` in the direct form
they had before :func:`poissonkit.multivector.schouten` became the one
Schouten-Nijenhuis bracket of the package and before the duality check
used skew-symmetry.

* ``lie_bracket_fields``: the coordinate formula of the Jacobi-Lie bracket
  of two polynomial vector fields;
* ``alg_schouten``: the Schouten bracket on Lambda g as its own loop over
  structure constants;
* ``ad_multivector``: the Leibniz extension of ad_X to Lambda^p g;
* ``delta_duality_residuals``: the duality cross-check with one dual
  bracket for every ordered pair (i, j), the diagonal included.

The bodies are unchanged; only the results of the first three are built with
``AlgMultiVector(L, ...)``, the container's constructor today.
"""

from __future__ import annotations

from poissonkit import linalg
from poissonkit.bialgebra import AlgMultiVector, RMatrix, delta_from_r, dual_bracket_from_r
from poissonkit.lie import LieAlgebra
from poissonkit.poly import Var
from poissonkit.scalars import GaussianRational, Q, ZERO


def lie_bracket_fields(variables, V, W) -> list:
    """Jacobi-Lie bracket of two polynomial vector fields, as components: the
    coordinate formula, an independent reference for :func:`schouten` in degree 1."""
    names = [v.name if isinstance(v, Var) else v for v in variables]
    n = len(names)
    out = []
    for i in range(n):
        acc = None
        for j in range(n):
            t1 = V[j] * W[i].partial(names[j])
            t2 = W[j] * V[i].partial(names[j])
            term = t1 - t2
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def ad_multivector(L: LieAlgebra, X, T: AlgMultiVector) -> AlgMultiVector:
    """Leibniz extension of ad_X to Lambda^p g."""
    Xc = [GaussianRational.coerce(x) for x in X]
    comps = {}
    for key, c in T.comps.items():
        for pos, idx in enumerate(key):
            # replace slot `pos` by [X, e_idx]
            br = [ZERO] * L.dim
            for a, xa in enumerate(Xc):
                if xa.is_zero():
                    continue
                row = L.basis_bracket(a, idx)
                br = [b + xa * r for b, r in zip(br, row)]
            for k in range(L.dim):
                if br[k].is_zero():
                    continue
                new_idx = key[:pos] + (k,) + key[pos + 1:]
                comps[new_idx] = comps.get(new_idx, ZERO) + c * br[k]
    return AlgMultiVector(L, T.degree, comps)


def alg_schouten(L: LieAlgebra, A: AlgMultiVector, B: AlgMultiVector) -> AlgMultiVector:
    """Algebraic Schouten bracket on Lambda g (constant coefficients)."""
    comps = {}
    for ka, ca in A.comps.items():
        for kb, cb in B.comps.items():
            for s, ia in enumerate(ka):
                for t, ib in enumerate(kb):
                    br = L.basis_bracket(ia, ib)
                    sign = (-1) ** ((s + 1) + (t + 1))
                    rest = tuple(ka[r] for r in range(len(ka)) if r != s) + tuple(
                        kb[r] for r in range(len(kb)) if r != t
                    )
                    for k in range(L.dim):
                        if br[k].is_zero():
                            continue
                        idx = (k,) + rest
                        comps[idx] = comps.get(idx, ZERO) + ca * cb * br[k] * Q(sign)
    return AlgMultiVector(L, A.degree + B.degree - 1, comps)


def delta_duality_residuals(r: RMatrix) -> list:
    """Cross-check <[e_i*, e_j*]_*, e_k> = (ad_{e_k} Lam)(e_i*, e_j*).

    Returns the list of (i, j, k, residual) violations (empty when the
    calibrated conventions are coherent).
    """
    L = r.algebra
    n = L.dim
    e = linalg.identity(n)
    deltas = [delta_from_r(r, X) for X in e]
    out = []
    for i in range(n):
        for j in range(n):
            br = dual_bracket_from_r(r, e[i], e[j])
            for k in range(n):
                rhs = deltas[k].component(i, j)
                if br[k] != rhs:
                    out.append((i, j, k, br[k] - rhs))
    return out
