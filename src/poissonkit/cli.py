"""Batch driver: loads JSON problem bundles, runs named check suites, and
emits machine-readable JSON-lines reports.

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 usage or schema error.  Reports are canonically ordered (sorted by check
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
import random
import sys
import time
from fractions import Fraction

from . import linalg
from .bundles import ProblemBundle, SchemaError, load_bundle


def _check(name: str, payload: dict, skipped: bool = False) -> dict:
    out = {"check": name}
    if skipped:
        out["skipped"] = True
    out.update(payload)
    return out


def _wanted(args, name: str) -> bool:
    """Whether ``--suite`` selects the check ``name``; runners ask before
    computing the check, so a filtered-out check costs nothing."""
    return not args.suite or args.suite in name


def _emit(checks, stream, timings: bool = False) -> int:
    """Run a suite's checks, print them sorted by check name plus a trailing
    summary, and return the exit code implied by pass/fail states.

    ``checks`` yields each report as soon as it is computed; with ``timings``
    each one is stamped with the wall time since the previous one (the first
    since the suite started).
    """
    reports = []
    last = time.perf_counter()
    for r in checks:
        if timings:
            now = time.perf_counter()
            r["wall_ms"] = round((now - last) * 1000, 3)
            last = now
        reports.append(r)
    reports = sorted(reports, key=lambda r: r["check"])
    failed = [r["check"] for r in reports if not r.get("skipped") and not r.get("passed")]
    skipped = [r["check"] for r in reports if r.get("skipped")]
    for r in reports:
        stream.write(json.dumps(r, sort_keys=True, default=str) + "\n")
    summary = {
        "summary": {
            "checks": len(reports),
            "failed": failed,
            "skipped": skipped,
            "passed": len(reports) - len(failed) - len(skipped),
        }
    }
    stream.write(json.dumps(summary, sort_keys=True, default=str) + "\n")
    return 1 if failed else 0


def _sample_count(args, default: int) -> int:
    """``--samples``, or ``default`` when it is not given; at least 1."""
    count = default if args.samples is None else args.samples
    if count < 1:
        raise SchemaError(f"sample count must be >= 1, got {count}")
    return count


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


def _sample_points(dim: int, count: int, seed: int, scale: int = 6, denom_power: int = 2):
    rng = random.Random(seed)
    return [
        [Fraction(rng.randint(-scale, scale), 2 ** rng.randint(0, denom_power)) for _ in range(dim)]
        for _ in range(count)
    ]


# -- suites -------------------------------------------------------------------------
# Each runner is a generator that yields its checks in the order it computes them,
# and computes only the checks that ``_wanted`` selects.


def run_check_lie(bundle: ProblemBundle, args):
    for name, L in sorted(bundle.algebras.items()):
        if _wanted(args, f"check-lie:{name}"):
            yield _check(f"check-lie:{name}", L.check_jacobi().to_json())


def run_check_bialgebra(bundle: ProblemBundle, args):
    from . import bialgebra as B

    for name, (_, r) in sorted(bundle.rmatrices.items()):
        if _wanted(args, f"check-bialgebra:{name}:r-matrix-invariance"):
            inv = B.schouten_wedge_bracket(r)
            yield _check(f"check-bialgebra:{name}:r-matrix-invariance", inv.to_json())
        if _wanted(args, f"check-bialgebra:{name}:bialgebra"):
            rep = B.validate_bialgebra(B.LieBialgebra.from_r_matrix(r))
            yield _check(f"check-bialgebra:{name}:bialgebra", rep.to_json())
        if _wanted(args, f"check-bialgebra:{name}:delta-duality"):
            dres = B.delta_duality_residuals(r)
            yield (
                _check(
                    f"check-bialgebra:{name}:delta-duality",
                    {"passed": not dres, "mode": "symbolic",
                     "violations": [[i, j, k, str(t)] for i, j, k, t in dres]},
                )
            )
    for name, s in sorted(bundle.abelian_structures.items()):
        if _wanted(args, f"check-bialgebra:{name}:abelian-multiplicative"):
            rep = B.abelian_pl_check(s)
            yield _check(f"check-bialgebra:{name}:abelian-multiplicative", rep.to_json())


def run_check_poisson(bundle: ProblemBundle, args):
    from . import poisson as P

    for name, pi in sorted(bundle.bivectors.items()):
        if _wanted(args, f"check-poisson:{name}:jacobi"):
            yield _check(f"check-poisson:{name}:jacobi", P.jacobi_check(pi).to_json())
        for cname, f in sorted(bundle.casimirs.get(name, {}).items()):
            if _wanted(args, f"check-poisson:{name}:casimir:{cname}"):
                ok = P.casimir_check(pi, f)
                yield (
                    _check(
                        f"check-poisson:{name}:casimir:{cname}",
                        {"passed": ok, "mode": "symbolic"},
                    )
                )


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
        if not _wanted(args, f"stratify:{name}"):
            continue
        rep = P.stratify_sample(pi, cfg)
        payload = rep.to_json()
        payload["passed"] = rep.minor_consistency
        payload["mode"] = "symbolic"
        yield _check(f"stratify:{name}", payload)


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
    try:
        traj = P.hamiltonian_flow(bundle.bivectors[flow["bivector"]], flow["hamiltonian"],
                                  flow["x0"], dt, steps, casimirs=flow["casimirs"],
                                  divergence_bound=flow["divergence_bound"])
    except ValueError as e:     # a coefficient of the flow too large for a float
        raise SchemaError(f"flow: {e}") from e
    # --out is opened only now, so a rejected run leaves an existing file as it was
    with _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out_stream:
        out_stream.write(traj.to_csv())
        out_stream.write("# " + json.dumps(traj.summary(), sort_keys=True,
                                           default=str) + "\n")
    if not _wanted(args, "flow:conservation"):
        return
    tol = flow["drift_tolerance"]
    drifts = [traj.f_drift] + list(traj.casimir_drift.values())
    yield _check(
        "flow:conservation",
        {
            "passed": (max(drifts) < tol) and not traj.truncated,
            "mode": "numeric",
            "f_drift": traj.f_drift,
            "casimir_drift": traj.casimir_drift,
            "truncated": traj.truncated,
            "tolerance": tol,
        },
    )


def run_check_action(bundle: ProblemBundle, args):
    from . import action as A

    seed = bundle.require_seed(args.seed)
    count = _sample_count(args, bundle.sampler.get("count", 50))
    for name, act in sorted(bundle.actions.items()):
        pts = _sample_points(act.target_dim, count, seed + 1)
        if _wanted(args, f"check-action:{name}:poisson-action"):
            gs = A.exact_group_samples(act, count, seed=seed)
            degraded = {}
            if gs is None:
                # no exact sampler for this group: check at the unit only
                gs = [linalg.identity(len(act.defining_mats[0]))]
                degraded = {"mode": "degraded",
                            "reason": "defining matrices do not span sl(2); checked at the identity only"}
            samples = list(zip(gs, pts[: len(gs)]))
            try:
                payload = A.check_poisson_action(act, samples).to_json()
            except ValueError as e:
                payload = {"passed": False, "error": str(e)}
            yield _check(f"check-action:{name}:poisson-action", {**payload, **degraded})
        if _wanted(args, f"check-action:{name}:structure-preserved"):
            pres = A.check_structure_preserved(act)
            yield _check(f"check-action:{name}:structure-preserved", pres.to_json())
        if _wanted(args, f"check-action:{name}:tangential"):
            tang = A.tangential_check(act, pts)
            yield _check(f"check-action:{name}:tangential", tang.to_json())


def run_momentum(bundle: ProblemBundle, args):
    from . import action as A

    seed = bundle.require_seed(args.seed)
    count = _sample_count(args, bundle.sampler.get("count", 20))
    for name, (aref, m) in sorted(bundle.momentum_maps.items()):
        act = bundle.actions[aref]
        if _wanted(args, f"momentum:{name}:hamiltonian-condition"):
            rep = A.momentum_check(act, m)
            yield _check(f"momentum:{name}:hamiltonian-condition", rep.to_json())
        if _wanted(args, f"momentum:{name}:obstruction"):
            try:
                G = A.gamma(act, m)
                chk = A.gamma_checks(act, G, m)
                yield _check(f"momentum:{name}:obstruction", chk.to_json())
            except (ValueError, AssertionError) as e:
                yield _check(f"momentum:{name}:obstruction", {"passed": False, "error": str(e)})
        if not _wanted(args, f"momentum:{name}:psi-cocycle"):
            continue
        gs = A.exact_group_samples(act, count, seed=seed)
        if gs is not None:
            pts = _sample_points(act.target_dim, count, seed + 2, scale=3)
            triples = [(gs[i], gs[(i + 1) % len(gs)], pts[i]) for i in range(min(len(gs), len(pts)))]
            prep = A.psi_cocycle_check(act, m, triples)
            yield _check(f"momentum:{name}:psi-cocycle", prep.to_json())
        else:
            yield (
                _check(
                    f"momentum:{name}:psi-cocycle",
                    {"reason": "defining matrices do not span sl(2); group sampling undefined"},
                    skipped=True,
                )
            )


def run_plane_pipeline(args):
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

    if _wanted(args, "example51:dual-brackets"):
        r = B.RMatrix.sl2_family(lie_mod.sl2(), l1, l2, l3)
        e = linalg.identity(3)
        brackets = {
            "[e1*,e2*]*": [str(t) for t in B.dual_bracket_from_r(r, e[0], e[1])],
            "[e2*,e3*]*": [str(t) for t in B.dual_bracket_from_r(r, e[1], e[2])],
            "[e3*,e1*]*": [str(t) for t in B.dual_bracket_from_r(r, e[2], e[0])],
        }
        dres = B.delta_duality_residuals(r)
        dual_jacobi = B.dual_algebra_from_r(r).check_jacobi().ok
        yield (
            _check(
                "example51:dual-brackets",
                {
                    "passed": dual_jacobi and not dres,
                    "mode": "symbolic",
                    "brackets": brackets,
                    "dual_jacobi": dual_jacobi,
                },
            )
        )

    if _wanted(args, "example51:h-certificate"):
        cert = A.solve_h_certificate(l1, l2, l3, c)
        yield _check("example51:h-certificate", cert.to_json())

    act = A.sl2_plane_action(l1, l2, l3, c)
    pts = _sample_points(2, count, seed + 1)
    if _wanted(args, "example51:poisson-action"):
        gs = A.sl2_rational_samples(count, seed=seed)
        rep = A.check_poisson_action(act, list(zip(gs, pts)))
        yield _check("example51:poisson-action", rep.to_json())

    if _wanted(args, "example51:tangential-consistency"):
        predicate = A.tangential_coefficient_predicate(l1, l2, l3, c)
        tang = A.tangential_check(act, pts)
        witness = None if predicate else A.find_rank_drop_witness(l1, l2, l3, c)
        witness_fails = False
        if witness is not None:
            witness_fails = not A.tangential_check(act, [witness]).passed
        if predicate:
            consistent = tang.passed
        else:
            # the predicate rules the action out; consistency means either a
            # sampled failure or an exhibited rank-drop witness with a moving orbit
            consistent = (not tang.passed) or witness_fails or witness is None
        yield (
            _check(
                "example51:tangential-consistency",
                {
                    "passed": consistent,
                    "mode": "symbolic",
                    "coefficient_predicate": predicate,
                    "sampled_all_tangential": tang.passed,
                    "witness": [str(t) for t in witness] if witness else None,
                    "witness_non_tangential": witness_fails,
                },
            )
        )

    # the diagonal one-parameter subgroup, generated by e1
    sub = A.LinearPoissonAction(
        lie_mod.abelian(1),
        [act.rep_mats[0]],
        act.bivector,
    )
    analytic = (l1 == 0 and l3 == 0)
    if _wanted(args, "example51:h-subgroup-preserved"):
        preserved = A.check_structure_preserved(sub)
        yield (
            _check(
                "example51:h-subgroup-preserved",
                {
                    "passed": preserved.passed == analytic,
                    "mode": "symbolic",
                    "preserved": preserved.passed,
                    "expected_from_coefficients": analytic,
                },
            )
        )

    if not _wanted(args, "example51:h-subgroup-momentum"):
        return
    if analytic and l2 != 0:
        norm = A.solve_momentum_normalization(sub)
        payload = norm.to_json()
        payload["note"] = (
            "additive momentum map is s*log|h|, s solved from h*lambda = s*X_h; the "
            "inverse-square-root family a*|h|^(-1/2) admits no constant: no a^2 solves "
            "4*h^3*lambda_k^2 = a^2*X_h,k^2"
        )
        payload["passed"] = norm.consistent and not norm.power_consistent
        yield _check("example51:h-subgroup-momentum", payload)
    else:
        yield (
            _check(
                "example51:h-subgroup-momentum",
                {"reason": "no momentum map family for these coefficients"},
                skipped=True,
            )
        )


BUNDLE_RUNNERS = {
    "check-lie": run_check_lie,
    "check-bialgebra": run_check_bialgebra,
    "check-poisson": run_check_poisson,
    "stratify": run_stratify,
    "check-action": run_check_action,
    "momentum": run_momentum,
}


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="poissonkit",
        description="Exact checks for Poisson bivectors, Lie bialgebras and Poisson actions.",
    )
    p.add_argument("subcommand", choices=[
        "check-lie", "check-bialgebra", "check-poisson", "stratify", "flow",
        "check-action", "momentum", "example51",
    ])
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
        if args.subcommand == "example51":
            checks = run_plane_pipeline(args)
        elif not args.bundle:
            raise SchemaError(f"{args.subcommand} requires --bundle PATH")
        elif args.subcommand == "flow":
            checks = run_flow(load_bundle(args.bundle), args)
        else:
            checks = BUNDLE_RUNNERS[args.subcommand](load_bundle(args.bundle), args)
        report = io.StringIO()
        code = _emit(checks, report, timings=args.timings)
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
