"""Per-layer metrics for the traced run, recorded from outside the package.

``Tracer`` replaces chosen public functions of poissonkit with wrappers that
record a span (name, parent, start, end) per call and a few work counts, and
puts the originals back when it exits.  The scalar and polynomial layers make
millions of short calls, so their counts and self times come from a separate
pass under ``cProfile`` (see ``profile_metrics``) instead of one span per call.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import json
import pstats
import sys
import time
from collections import Counter

# span name -> the public callables it wraps, as (module, attribute path)
SPANS = {
    "linalg.rank": [("poissonkit.linalg", "rank")],
    "linalg.det": [("poissonkit.linalg", "det")],
    "linalg.rref": [("poissonkit.linalg", "rref")],
    "multivector.schouten": [("poissonkit.multivector", "schouten")],
    "lie.ce_differential": [("poissonkit.lie", "ce_differential")],
    "lie.cohomology": [("poissonkit.lie", "cohomology_dim")],
    "lie.jacobi": [("poissonkit.lie", "LieAlgebra.check_jacobi")],
    "poisson.r_k": [("poissonkit.poisson", "r_k")],
    "poisson.rank_at": [("poissonkit.poisson", "rank_at")],
    "poisson.stratify": [("poissonkit.poisson", "stratify_sample")],
    "poisson.jacobi_check": [("poissonkit.poisson", "jacobi_check")],
    "poisson.flow": [("poissonkit.poisson", "hamiltonian_flow")],
    "action.poisson_action": [("poissonkit.action", "check_poisson_action")],
    "action.tangential": [("poissonkit.action", "tangential_check")],
    "action.momentum": [("poissonkit.action", "momentum_check"),
                        ("poissonkit.action", "solve_momentum_normalization")],
    "action.gamma": [("poissonkit.action", "gamma"), ("poissonkit.action", "gamma_checks")],
    "action.psi_cocycle": [("poissonkit.action", "psi_cocycle_check")],
    "action.h_certificate": [("poissonkit.action", "solve_h_certificate")],
    "bialgebra.validate": [("poissonkit.bialgebra", "validate_bialgebra")],
    "bialgebra.abelian_pl": [("poissonkit.bialgebra", "abelian_pl_check")],
    "bundles.load": [("poissonkit.bundles", "load_bundle")],
    "cli.main": [("poissonkit.cli", "main")],
}
# spans whose call count is reported as <name>_calls
COUNTED = ("linalg.rank", "linalg.det", "linalg.rref", "multivector.schouten",
           "lie.ce_differential", "poisson.r_k", "poisson.rank_at")
# GaussianRational methods counted as scalar operations
SCALAR_OPS = {"__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
              "__rtruediv__", "__neg__", "__pow__"}


def _resolve(modname: str, path: str):
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Context manager that wraps the SPANS callables while it is active."""

    def __init__(self):
        self.spans = []          # [id, parent id, name, start, end, outermost of its name]
        self.counts = Counter()
        self._stack = []
        self._active = Counter()
        self._undo = []

    def _wrap(self, name: str, fn, before=None):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            rec = [len(spans), stack[-1] if stack else None, name, clock(), None, not active[name]]
            spans.append(rec)
            stack.append(rec[0])
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                rec[4] = clock()

        return wrapper

    def _count_cells(self, matrix, *_):
        if matrix and matrix[0]:
            self.counts["linalg.rank_cells"] += len(matrix) * len(matrix[0])

    def _wrap_mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def mul(a, b):
            out = fn(a, b)
            counts["poly.mul_calls"] += 1
            counts["poly.mul_terms"] += len(out.terms)
            return out

        return mul

    def _replace(self, owner, attr, orig, new):
        """Point every reference to ``orig`` in the package (and ``owner``) at ``new``."""
        targets = [owner] if isinstance(owner, type) else [
            m for k, m in sys.modules.items() if k.split(".")[0] == "poissonkit"
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is orig:
                    setattr(target, key, new)
                    self._undo.append((target, key, orig))

    def __enter__(self):
        for name, targets in SPANS.items():
            for modname, path in targets:
                owner, attr, orig = _resolve(modname, path)
                before = self._count_cells if name == "linalg.rank" else None
                self._replace(owner, attr, orig, self._wrap(name, orig, before))
        owner, attr, orig = _resolve("poissonkit.poly", "MultiPoly.__mul__")
        self._replace(owner, attr, orig, self._wrap_mul(orig))
        return self

    def __exit__(self, *exc):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()
        return False

    def metrics(self) -> dict:
        out = {f"{name}_s": 0.0 for name in SPANS if name != "cli.main"}
        out.update({f"{name}_calls": 0 for name in COUNTED})
        out.update({"linalg.rank_cells": 0, "poly.mul_calls": 0, "poly.mul_terms": 0})
        out["cli.self_s"] = 0.0
        child_time = Counter()
        for sid, parent, name, start, end, outermost in self.spans:
            if parent is not None:
                child_time[parent] += end - start
            if name in COUNTED:
                out[f"{name}_calls"] += 1
            if outermost and name != "cli.main":
                out[f"{name}_s"] += end - start
        for sid, parent, name, start, end, _ in self.spans:
            if name == "cli.main":
                out["cli.self_s"] += (end - start) - child_time[sid]
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, name, start, end, _ in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": round(start - t0, 9), "end": round(end - t0, 9)}) + "\n")


def profile_metrics(profile) -> dict:
    """Scalar-operation count and self times of scalars, poly and fractions
    from a ``cProfile.Profile`` that ran one pass."""
    files = {
        "scalars": sys.modules["poissonkit.scalars"].__file__,
        "poly": sys.modules["poissonkit.poly"].__file__,
        "fraction": fractions.__file__,
    }
    self_s = Counter()
    ops = 0
    for (filename, _, func), (_, calls, tottime, _, _) in pstats.Stats(profile).stats.items():
        for layer, path in files.items():
            if filename == path:
                self_s[layer] += tottime
        if filename == files["scalars"] and func in SCALAR_OPS:
            ops += calls
    return {
        "scalars.ops": ops,
        "scalars.self_s": self_s["scalars"],
        "scalars.fraction_self_s": self_s["fraction"],
        "poly.self_s": self_s["poly"],
    }
