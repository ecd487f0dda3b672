"""The benchmark's workloads: seeded inputs, the operations that run on them,
and the independent answer each operation's output must match.

``build(name, seed, workdir)`` generates and loads a workload's inputs and
returns its operations.  An operation is one call whose output is checked:
``run()`` calls poissonkit's public API and returns the output, and
``check(output)`` returns a list of errors (empty when the output agrees with
the answer in ``oracles``).  The checks run after timing, never inside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_BUNDLE = ROOT / "demos" / "bundles" / "sample.json"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def build(name: str, seed: int, workdir: Path) -> list:
    return WORKLOADS[name](seed, workdir)


def _cli_op(name: str, argv: list, check) -> Op:
    from poissonkit import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()

    return Op(name, run, lambda output: check(*output))


# -- sample-cli: the README traffic on the sample bundle -------------------------------

BY_DESIGN = {
    "check-bialgebra": {"check-bialgebra:torus_literal:abelian-multiplicative"},
    "check-action": {"check-action:plane_action:structure-preserved"},
}


def build_sample_cli(seed: int, workdir: Path) -> list:
    from poissonkit import bundles

    if not SAMPLE_BUNDLE.is_file():
        raise FileNotFoundError(f"sample bundle missing: {SAMPLE_BUNDLE}")
    path = str(SAMPLE_BUNDLE)
    bundles.load_bundle(path)
    # each sampled call gets its own CLI seed, drawn from the benchmark seed
    rng = random.Random(seed)
    cli_seed = {name: rng.randrange(10**6) for name in ("stratify", "check-action", "momentum")}
    raw = json.loads(SAMPLE_BUNDLE.read_text())
    sampler = raw["sampler"]
    count = int(sampler["count"])
    bivectors = {}
    for bname, entry in raw["bivectors"].items():
        names, entries = oracles.bivector_from_json(entry)
        bivectors[bname] = (len(names), entries)

    def verdicts(sub):
        return lambda rc, out: oracles.check_verdicts(out, rc, sorted(BY_DESIGN.get(sub, ())))

    def stratify(rc, out):
        points = {
            n: oracles.stratify_points(
                n, count, cli_seed["stratify"], int(sampler["scale"]), int(sampler["denom_power"])
            )
            for n, _ in bivectors.values()
        }
        return oracles.check_verdicts(out, rc) + oracles.check_stratify(out, bivectors, points)

    tol = float(raw["flow"].get("drift_tolerance", 1e-8))

    def flow(rc, out):
        errors = oracles.check_verdicts(out, rc)
        rep = oracles.parse_reports(out)[0].get("flow:conservation", {})
        drifts = [rep.get("f_drift", float("inf"))] + list(rep.get("casimir_drift", {}).values())
        if not max(drifts) < tol or rep.get("truncated") is not False:
            errors.append(f"flow drift {drifts} not under tolerance {tol}")
        return errors

    # The plane bivector degenerates where its entry h vanishes; there the
    # orbit directions (nonzero off the origin) leave the image of the anchor.
    n_plane, plane = bivectors["plane"]
    degenerate = {
        tuple(str(x) for x in p)
        for p in oracles.action_points(n_plane, count, cli_seed["check-action"] + 1)
        if oracles.eval_poly(plane[(0, 1)], p) == 0
    }

    def check_action(rc, out):
        name = "check-action:plane_action:tangential"
        fail = set(BY_DESIGN["check-action"]) | ({name} if degenerate else set())
        errors = oracles.check_verdicts(out, rc, sorted(fail))
        rep = oracles.parse_reports(out)[0].get(name, {})
        got = {tuple(f["point"]) for f in rep.get("failures", [])}
        if got != degenerate:
            errors.append(f"{name}: failing points {sorted(got)}, degenerate points {sorted(degenerate)}")
        return errors

    checks = {"stratify": stratify, "flow": flow, "check-action": check_action}
    ops = []
    for sub in ("check-lie", "check-bialgebra", "check-poisson", "stratify", "flow",
                "check-action", "momentum"):
        argv = [sub, "--bundle", path]
        if sub in cli_seed:
            argv += ["--seed", str(cli_seed[sub])]
        ops.append(_cli_op(sub, argv, checks.get(sub, verdicts(sub))))
    return ops


# -- lie-cohomology: exact rank of Chevalley-Eilenberg matrices -------------------------


def _basis(n, k):
    return [1 if t == k else 0 for t in range(n)]


SL2 = {(0, 1): _basis(3, 2), (1, 2): _basis(3, 0), (0, 2): _basis(3, 1)}
SO3 = {(0, 1): _basis(3, 2), (1, 2): _basis(3, 0), (0, 2): [0, -1, 0]}


def direct_sum(*parts):
    """Structure constants of a direct sum of (dim, brackets) pairs."""
    total = sum(d for d, _ in parts)
    out, off = {}, 0
    for d, br in parts:
        for (i, j), vec in br.items():
            out[(off + i, off + j)] = [0] * off + list(vec) + [0] * (total - off - d)
        off += d
    return total, out


ALGEBRAS = {
    "sl2": (3, SL2),
    "so3": (3, SO3),
    "gl2": direct_sum((3, SL2), (1, {})),
    "h3": (3, {(0, 1): _basis(3, 2)}),
    "h5": (5, {(0, 1): _basis(5, 4), (2, 3): _basis(5, 4)}),
    "abelian4": (4, {}),
    "sl2+sl2": direct_sum((3, SL2), (3, SL2)),
}
# sl2+sl2 with adjoint or coadjoint coefficients takes tens of seconds per
# degree above 1, and h5 has no textbook table beyond trivial coefficients.
MODULES = {"h5": ("trivial",)}
MAX_DEGREE = {("sl2+sl2", "adjoint"): 1, ("sl2+sl2", "coadjoint"): 1}


def signed_basis(dim: int, brackets: dict, signs: list) -> dict:
    """Structure constants in the basis f_i = s_i e_i (an isomorphic algebra
    whose Chevalley-Eilenberg matrices differ only in entry signs)."""
    return {
        (i, j): [signs[i] * signs[j] * signs[k] * c for k, c in enumerate(vec)]
        for (i, j), vec in brackets.items()
    }


def build_lie_cohomology(seed: int, workdir: Path) -> list:
    from poissonkit import lie

    rng = random.Random(seed)
    ops = []
    for name, (dim, brackets) in ALGEBRAS.items():
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        A = lie.LieAlgebra(dim, signed_basis(dim, brackets, signs))
        ops.append(Op(
            f"jacobi {name}",
            lambda A=A: A.check_jacobi().ok,
            lambda ok, name=name: [] if ok is True else [f"check_jacobi({name}) = {ok!r}"],
        ))
        for kind in MODULES.get(name, ("trivial", "adjoint", "coadjoint")):
            M = lie.representation(A, kind)
            for p in range(MAX_DEGREE.get((name, kind), dim) + 1):
                ops.append(Op(
                    f"H^{p}({name}, {kind})",
                    lambda A=A, M=M, p=p: lie.cohomology_dim(A, M, p),
                    lambda got, name=name, kind=kind, p=p: oracles.check_cohomology(name, kind, p, got),
                ))
    return ops


# -- bivector-rank: Jacobi and rank stratification of seeded bivectors -----------------

# Integer lattice points and integer coefficients keep the entries integral,
# so the cost of a point depends little on the seed (rational points made the
# pass time vary by half between seeds).
STRATIFY_SAMPLES = 8
SAMPLER_SCALE = 5
SAMPLER_DENOM_POWER = 0

# Known quadratic Casimirs of the Lie-Poisson structures, as {index: coefficient}
# of a diagonal quadratic form (sign changes of the basis leave them invariant).
LIE_POISSON = {
    "gl2": (direct_sum((3, SL2), (1, {})), [{0: 1, 1: -1, 2: 1}, {3: 1}]),
    "so3+R": (direct_sum((3, SO3), (1, {})), [{0: 1, 1: 1, 2: 1}, {3: 1}]),
    "sl2+sl2": (direct_sum((3, SL2), (3, SL2)), [{0: 1, 1: -1, 2: 1}, {3: 1, 4: -1, 5: 1}]),
}


def _monomial(n, *idx):
    exp = [0] * n
    for i in idx:
        exp[i] += 1
    return tuple(exp)


def lie_poisson_entries(dim, brackets):
    """pi^{ij}(mu) = sum_k C^k_ij mu_k."""
    return {
        (i, j): {_monomial(dim, k): Fraction(c) for k, c in enumerate(vec) if c}
        for (i, j), vec in brackets.items()
    }


def log_canonical_entries(n, rng):
    """{x_i, x_j} = c_ij x_i x_j with seeded skew c (c_ij for i < j)."""
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            out[(i, j)] = {_monomial(n, i, j): c}
    return out


def random_quadratic_entries(n, rng, terms=2):
    """Every component a sum of ``terms`` seeded quadratic monomials."""
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            p = {}
            while len(p) < terms:
                p[_monomial(n, *sorted(rng.sample(range(n), 2)))] = Fraction(
                    rng.choice([-3, -2, -1, 1, 2, 3])
                )
            out[(i, j)] = p
    return out


def _bundle(n, entries, seed, casimirs=None):
    names = [f"x{i + 1}" for i in range(n)]
    raw = {
        "sampler": {"seed": seed, "count": STRATIFY_SAMPLES, "scale": SAMPLER_SCALE,
                    "denom_power": SAMPLER_DENOM_POWER},
        "bivectors": {"pi": {
            "dim": n,
            "vars": [{"name": v, "kind": "affine"} for v in names],
            "entries": [{"i": i, "j": j, "poly": oracles.poly_to_json(p, names)}
                        for (i, j), p in sorted(entries.items())],
        }},
    }
    if casimirs:
        raw["casimirs"] = {"pi": {
            f"C{t + 1}": oracles.poly_to_json(
                {_monomial(n, k, k): Fraction(c) for k, c in form.items()}, names)
            for t, form in enumerate(casimirs)
        }}
    return raw


def generate_bivectors(seed: int) -> dict:
    """name -> (n, entries, casimir forms, Poisson by construction or None)."""
    rng = random.Random(seed)
    out = {}
    for name, ((dim, brackets), casimirs) in LIE_POISSON.items():
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        out[name] = (dim, lie_poisson_entries(dim, signed_basis(dim, brackets, signs)), casimirs, True)
    for n in (4, 5, 6):
        out[f"logcan{n}"] = (n, log_canonical_entries(n, rng), None, True)
    for n in (4, 5, 6):
        out[f"quad{n}"] = (n, random_quadratic_entries(n, rng), None, None)
    return out


def build_bivector_rank(seed: int, workdir: Path) -> list:
    from poissonkit import bundles

    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, (n, entries, casimirs, poisson) in generate_bivectors(seed).items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(_bundle(n, entries, seed, casimirs), sort_keys=True))
        bundles.load_bundle(str(path))

        def check_poisson(rc, out, n=n, entries=entries, poisson=poisson, casimirs=casimirs):
            if poisson is None:
                poisson = oracles.jacobiator_is_zero(n, entries)
            fail = [] if poisson else ["check-poisson:pi:jacobi"]
            errors = oracles.check_verdicts(out, rc, fail)
            checks = oracles.parse_reports(out)[0]
            if checks.get("check-poisson:pi:jacobi", {}).get("routes_consistent") is not True:
                errors.append("jacobi routes disagree")
            want = {f"check-poisson:pi:casimir:C{t + 1}" for t in range(len(casimirs or []))}
            got = {k for k in checks if ":casimir:" in k}
            if got != want:
                errors.append(f"casimir checks {sorted(got)}, expected {sorted(want)}")
            return errors

        def check_stratify(rc, out, n=n, entries=entries, name=name):
            points = {n: oracles.stratify_points(n, STRATIFY_SAMPLES, seed, SAMPLER_SCALE,
                                                 SAMPLER_DENOM_POWER)}
            errors = oracles.check_verdicts(out, rc)
            errors += oracles.check_stratify(out, {"pi": (n, entries)}, points)
            rep = oracles.parse_reports(out)[0].get("stratify:pi", {})
            if name == "sl2+sl2" and rep.get("max_rank") != 4:
                errors.append(f"sl2+sl2 generic rank {rep.get('max_rank')}, expected 4")
            return errors

        ops.append(_cli_op(f"check-poisson {name}", ["check-poisson", "--bundle", str(path)],
                           check_poisson))
        ops.append(_cli_op(f"stratify {name}", ["stratify", "--bundle", str(path), "--seed", str(seed)],
                           check_stratify))
    return ops


WORKLOADS = {
    "sample-cli": build_sample_cli,
    "lie-cohomology": build_lie_cohomology,
    "bivector-rank": build_bivector_rank,
}
