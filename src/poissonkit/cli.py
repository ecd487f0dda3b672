"""Batch driver: loads JSON problem bundles, runs named check suites, and
emits machine-readable JSON-lines reports.

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 usage or schema error.  A check that raises a ``ValueError``,
``ArithmeticError`` or ``AssertionError`` is a failed check, reported with
the message as ``"error"``.  Reports are canonically ordered (sorted by check
name) and contain no timestamps unless ``--timings`` is given, so identical
bundle + seed produce byte-identical output.  The report goes to stdout, or
to ``--out PATH`` (for ``flow``, ``--out`` takes the CSV trajectory instead).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import sys
import time
from fractions import Fraction

from . import linalg
from .bundles import ProblemBundle, SchemaError, bounded, load_bundle


def _emit(checks, stream, suite: str | None = None, timings: bool = False) -> int:
    """Run a suite's checks, print them sorted by check name plus a trailing
    summary, and return the exit code implied by pass/fail states.

    ``checks`` yields ``(name, compute)`` pairs.  A check whose name does not
    contain ``suite`` is dropped before it is computed.  ``compute()`` returns
    the check's payload (``{"skipped": True, "reason": ...}`` for a skipped
    check), reported as ``{"check": name, **payload}``; a ``ValueError``,
    ``ArithmeticError`` or ``AssertionError`` it raises is reported as
    ``{"check": name, "passed": False, "error": message}``.  Each ``compute``
    runs before the next pair is asked for, so it may read the runner's loop
    variables.  With ``timings`` each report is stamped with the wall time
    since the previous report (the first since the runner started).
    """
    reports = []
    last = time.perf_counter()
    for name, compute in checks:
        if suite and suite not in name:
            continue
        try:
            payload = compute()
        except (ValueError, ArithmeticError, AssertionError) as e:
            payload = {"passed": False, "error": str(e)}
        r = {"check": name, **payload}
        if timings:
            now = time.perf_counter()
            r["wall_ms"] = round((now - last) * 1000, 3)
            last = now
        reports.append(r)
    reports = sorted(reports, key=lambda r: r["check"])
    failed = [r["check"] for r in reports if not r.get("skipped") and not r.get("passed")]
    skipped = [r["check"] for r in reports if r.get("skipped")]
    for r in reports:
        stream.write(json.dumps(r, sort_keys=True) + "\n")
    summary = {
        "summary": {
            "checks": len(reports),
            "failed": failed,
            "skipped": skipped,
            "passed": len(reports) - len(failed) - len(skipped),
        }
    }
    stream.write(json.dumps(summary, sort_keys=True) + "\n")
    return 1 if failed else 0


def _sample_count(args, default: int) -> int:
    """``--samples``, or ``default`` when it is not given; at least 1 and at
    most its bound in :data:`bundles.SIZE_BOUNDS`."""
    count = default if args.samples is None else args.samples
    if count < 1:
        raise SchemaError(f"sample count must be >= 1, got {count}")
    return bounded("count", count, "sample count")


def _fraction(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{option}: {text!r} is not an exact rational") from None


def _open_out(path: str):
    try:
        return open(path, "w")
    except OSError as e:
        raise SchemaError(f"cannot write --out {path}: {e.strerror}") from None


def _sample_points(variables, count: int, seed: int, scale: int = 6, denom_power: int = 2):
    """The seeded points of :func:`poisson.sample_points` as lists of scalars."""
    from .poisson import sample_points

    return [linalg._scalars(row) for row in sample_points(variables, count, seed, scale, denom_power)]


# -- suites -------------------------------------------------------------------------
# Each runner is a generator of (check name, compute) pairs in the order it computes
# them; ``_emit`` selects, runs and reports them.  A ``SchemaError`` raised in a
# runner's body, outside a compute, exits 2.

# the group-sampled checks on a group whose defining matrices do not span sl(2)
_NO_SL2 = {"skipped": True,
           "reason": "defining matrices do not span sl(2); group sampling undefined"}


def run_check_lie(bundle: ProblemBundle, args):
    for name, L in sorted(bundle.algebras.items()):
        yield f"check-lie:{name}", lambda: L.check_jacobi().to_json()


def run_check_bialgebra(bundle: ProblemBundle, args):
    from . import bialgebra as B

    for name, (_, r) in sorted(bundle.rmatrices.items()):
        def delta_duality():
            dres = B.delta_duality_residuals(r)
            return {"passed": not dres, "mode": "symbolic",
                    "violations": [[i, j, k, str(t)] for i, j, k, t in dres]}

        yield f"check-bialgebra:{name}:r-matrix-invariance", lambda: B.schouten_wedge_bracket(r)
        yield (f"check-bialgebra:{name}:bialgebra",
               lambda: B.validate_bialgebra(B.LieBialgebra.from_r_matrix(r)))
        yield f"check-bialgebra:{name}:delta-duality", delta_duality
    for name, s in sorted(bundle.abelian_structures.items()):
        yield f"check-bialgebra:{name}:abelian-multiplicative", lambda: B.abelian_pl_check(s)


def run_check_poisson(bundle: ProblemBundle, args):
    from . import poisson as P

    for name, pi in sorted(bundle.bivectors.items()):
        yield f"check-poisson:{name}:jacobi", lambda: P.jacobi_check(pi)
        for cname, f in sorted(bundle.casimirs.get(name, {}).items()):
            yield (f"check-poisson:{name}:casimir:{cname}",
                   lambda: {"passed": P.casimir_check(pi, f), "mode": "symbolic"})


def run_stratify(bundle: ProblemBundle, args):
    from . import poisson as P

    seed = bundle.require_seed(args.seed)
    count = _sample_count(args, bundle.sampler.get("count", 100))
    cfg = P.StratifyConfig(
        count=count,
        seed=seed,
        scale=bundle.sampler.get("scale", 8),
        denom_power=bundle.sampler.get("denom_power", 3),
    )
    for name, pi in sorted(bundle.bivectors.items()):
        yield f"stratify:{name}", lambda: P.stratify_sample(pi, cfg)


def run_flow(bundle: ProblemBundle, args):
    from . import poisson as P

    if bundle.flow is None:
        raise SchemaError("bundle has no flow section")
    flow = bundle.flow
    dt = flow["dt"] if args.dt is None else args.dt
    steps = flow["steps"] if args.steps is None else args.steps
    if not 0 < dt < math.inf:
        raise SchemaError(f"dt must be positive and finite, got {dt}")
    if steps < 1:
        raise SchemaError(f"steps must be >= 1, got {steps}")
    bounded("steps", steps, "steps")
    try:
        traj = P.hamiltonian_flow(bundle.bivectors[flow["bivector"]], flow["hamiltonian"],
                                  flow["x0"], dt, steps, casimirs=flow["casimirs"],
                                  divergence_bound=flow["divergence_bound"])
    except ValueError as e:     # a coefficient of the flow too large for a float
        raise SchemaError(f"flow: {e}") from e
    # --out is opened only now, so a rejected run leaves an existing file as it was
    with _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out_stream:
        out_stream.writelines(traj.csv_blocks())
        out_stream.write("# " + json.dumps(traj.summary(), sort_keys=True,
                                           default=str) + "\n")
    tol = flow["drift_tolerance"]
    drifts = [traj.f_drift] + list(traj.casimir_drift.values())
    yield "flow:conservation", lambda: {
        "passed": (max(drifts) < tol) and not traj.truncated,
        "mode": "numeric",
        "f_drift": traj.f_drift,
        "casimir_drift": traj.casimir_drift,
        "truncated": traj.truncated,
        "tolerance": tol,
    }


def run_check_action(bundle: ProblemBundle, args):
    from . import action as A

    seed = bundle.require_seed(args.seed)
    count = _sample_count(args, bundle.sampler.get("count", 50))
    for name, act in sorted(bundle.actions.items()):
        pts = _sample_points(act.bivector.vars, count, seed + 1)

        def poisson_action():
            if not act.sl2:
                return _NO_SL2
            samples = list(zip(A.sl2_rational_samples(count, seed=seed), pts))
            return A.check_poisson_action(act, samples)

        yield f"check-action:{name}:poisson-action", poisson_action
        yield f"check-action:{name}:structure-preserved", lambda: A.check_structure_preserved(act)
        yield f"check-action:{name}:tangential", lambda: A.tangential_check(act, pts)


def run_momentum(bundle: ProblemBundle, args):
    from . import action as A

    seed = bundle.require_seed(args.seed)
    count = _sample_count(args, bundle.sampler.get("count", 20))
    for name, (aref, m) in sorted(bundle.momentum_maps.items()):
        act = bundle.actions[aref]

        def psi_cocycle():
            if not act.sl2:
                return _NO_SL2
            gs = A.sl2_rational_samples(count, seed=seed)
            pts = _sample_points(act.bivector.vars, count, seed + 2, scale=3)
            return A.psi_cocycle_check(act, m, list(zip(gs, gs[1:] + gs[:1], pts)))

        yield f"momentum:{name}:hamiltonian-condition", lambda: A.momentum_check(act, m)
        yield f"momentum:{name}:obstruction", lambda: A.gamma_checks(act, A.gamma(act, m), m)
        yield f"momentum:{name}:psi-cocycle", psi_cocycle


def run_plane_pipeline(bundle: None, args):
    """The example-5.1 pipeline on the plane; it reads no bundle (``bundle``
    is None)."""
    from . import action as A
    from . import bialgebra as B
    from . import lie as lie_mod

    lam = args.lam
    if lam is None:
        raise SchemaError("example51 requires --lambda l1,l2,l3")
    parts = lam.split(",")
    if len(parts) != 3:
        raise SchemaError(f"--lambda needs three values l1,l2,l3, got {lam!r}")
    l1, l2, l3 = (_fraction(s, "--lambda") for s in parts)
    c = _fraction(args.c if args.c is not None else "1", "--c")
    seed = args.seed if args.seed is not None else 0
    count = _sample_count(args, 100)

    def dual_brackets():
        r = B.RMatrix.sl2_family(lie_mod.sl2(), l1, l2, l3)
        e = linalg.identity(3)
        brackets = {
            "[e1*,e2*]*": [str(t) for t in B.dual_bracket_from_r(r, e[0], e[1])],
            "[e2*,e3*]*": [str(t) for t in B.dual_bracket_from_r(r, e[1], e[2])],
            "[e3*,e1*]*": [str(t) for t in B.dual_bracket_from_r(r, e[2], e[0])],
        }
        dres = B.delta_duality_residuals(r)
        dual_jacobi = B.dual_algebra_from_r(r).check_jacobi().ok
        return {
            "passed": dual_jacobi and not dres,
            "mode": "symbolic",
            "brackets": brackets,
            "dual_jacobi": dual_jacobi,
        }

    yield "example51:dual-brackets", dual_brackets
    yield "example51:h-certificate", lambda: A.solve_h_certificate(l1, l2, l3, c)

    act = A.sl2_plane_action(l1, l2, l3, c)
    pts = _sample_points(act.bivector.vars, count, seed + 1)
    yield "example51:poisson-action", lambda: A.check_poisson_action(
        act, list(zip(A.sl2_rational_samples(count, seed=seed), pts)))

    def tangential_consistency():
        predicate = A.tangential_coefficient_predicate(l1, l2, l3, c)
        tangential = A.tangential_check(act, pts)["passed"]
        witness = None if predicate else A.find_rank_drop_witness(l1, l2, l3, c)
        witness_fails = False
        if witness is not None:
            witness_fails = not A.tangential_check(act, [witness])["passed"]
        if predicate:
            consistent = tangential
        else:
            # the predicate rules the action out; consistency means either a
            # sampled failure or an exhibited rank-drop witness with a moving orbit
            consistent = (not tangential) or witness_fails or witness is None
        return {
            "passed": consistent,
            "mode": "symbolic",
            "coefficient_predicate": predicate,
            "sampled_all_tangential": tangential,
            "witness": [str(t) for t in witness] if witness else None,
            "witness_non_tangential": witness_fails,
        }

    yield "example51:tangential-consistency", tangential_consistency

    # the diagonal one-parameter subgroup, generated by e1
    sub = A.LinearPoissonAction(
        lie_mod.abelian(1),
        [act.rep_mats[0]],
        act.bivector,
    )
    analytic = (l1 == 0 and l3 == 0)

    def h_subgroup_preserved():
        preserved = A.check_structure_preserved(sub)["passed"]
        return {
            "passed": preserved == analytic,
            "mode": "symbolic",
            "preserved": preserved,
            "expected_from_coefficients": analytic,
        }

    def h_subgroup_momentum():
        if not (analytic and l2 != 0):
            return {"skipped": True, "reason": "no momentum map family for these coefficients"}
        payload = A.solve_momentum_normalization(sub)
        payload["note"] = (
            "additive momentum map is s*log|h|, s solved from h*lambda = s*X_h; the "
            "inverse-square-root family a*|h|^(-1/2) admits no constant: no a^2 solves "
            "4*h^3*lambda_k^2 = a^2*X_h,k^2"
        )
        payload["passed"] = payload["passed"] and not payload["power_family_consistent"]
        return payload

    yield "example51:h-subgroup-preserved", h_subgroup_preserved
    yield "example51:h-subgroup-momentum", h_subgroup_momentum


# subcommand -> runner(bundle, args); every runner but example51's reads --bundle
RUNNERS = {
    "check-lie": run_check_lie,
    "check-bialgebra": run_check_bialgebra,
    "check-poisson": run_check_poisson,
    "stratify": run_stratify,
    "flow": run_flow,
    "check-action": run_check_action,
    "momentum": run_momentum,
    "example51": run_plane_pipeline,
}


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="poissonkit",
        description="Exact checks for Poisson bivectors, Lie bialgebras and Poisson actions.",
    )
    p.add_argument("subcommand", choices=list(RUNNERS))
    p.add_argument("--bundle", help="path to a JSON problem bundle")
    p.add_argument("--suite", help="only run checks whose name contains this string")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--lambda", dest="lam", help="r-matrix coefficients l1,l2,l3")
    p.add_argument("--c", help="constant term of the quadratic component")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", help="write the report (for flow: the CSV trajectory) to this path")
    p.add_argument("--timings", action="store_true", help="attach per-check wall-clock times")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing reads it
    and leaves it unchanged, also when it exits on a usage error."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        bundle = None
        if args.subcommand != "example51":
            if not args.bundle:
                raise SchemaError(f"{args.subcommand} requires --bundle PATH")
            bundle = load_bundle(args.bundle)
        report = io.StringIO()
        code = _emit(RUNNERS[args.subcommand](bundle, args), report, args.suite, args.timings)
        if args.out and args.subcommand != "flow":
            with _open_out(args.out) as fh:
                fh.write(report.getvalue())
        else:
            sys.stdout.write(report.getvalue())
        return code
    except SchemaError as e:
        sys.stderr.write(f"schema error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
