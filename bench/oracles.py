"""Independent answers for the benchmark's checks.

Nothing here imports poissonkit.  Polynomials are plain dicts
``{exponent tuple: Fraction}``, bivectors are dicts ``{(i, j): polynomial}``
with ``i < j``, and exact rank and the Jacobiator are computed with sympy.
Every ``check_*`` function returns a list of error strings: empty means the
output agrees with the independent answer.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb


# -- polynomials and bivectors as plain data ---------------------------------------


def poly_from_json(d: dict, names: list) -> dict:
    """Read a poissonkit polynomial JSON object over the variables ``names``."""
    pos = [names.index(v["name"]) for v in d["vars"]]
    out = {}
    for t in d["terms"]:
        exp = [0] * len(names)
        for k, e in zip(pos, t["exp"]):
            exp[k] = int(e)
        c = t["coeff"]
        if int(c.get("im_num", 0)):
            raise ValueError("the oracles handle real coefficients only")
        key = tuple(exp)
        out[key] = out.get(key, Fraction(0)) + Fraction(int(c["num"]), int(c.get("den", 1)))
    return {e: c for e, c in out.items() if c}


def poly_to_json(poly: dict, names: list) -> dict:
    return {
        "vars": [{"name": v, "kind": "affine"} for v in names],
        "terms": [
            {"exp": list(e), "coeff": {"num": str(c.numerator), "den": str(c.denominator)}}
            for e, c in sorted(poly.items())
        ],
    }


def bivector_from_json(d: dict):
    """(variable names, {(i, j): poly}) from a bundle bivector entry."""
    names = [v["name"] for v in d["vars"]]
    entries = {}
    for e in d["entries"]:
        i, j = int(e["i"]), int(e["j"])
        p = poly_from_json(e["poly"], names)
        if i > j:
            i, j, p = j, i, {k: -c for k, c in p.items()}
        entries[(i, j)] = p
    return names, entries


def eval_poly(poly: dict, point) -> Fraction:
    total = Fraction(0)
    for exp, c in poly.items():
        term = c
        for x, e in zip(point, exp):
            if e:
                term *= x ** e
        total += term
    return total


def eval_bivector(n: int, entries: dict, point) -> list:
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), p in entries.items():
        v = eval_poly(p, point)
        m[i][j] = v
        m[j][i] = -v
    return m


# -- exact rank and Jacobiator (sympy) ------------------------------------------------


def exact_rank(rows) -> int:
    """Rank of a rational matrix, computed by sympy."""
    import sympy

    if not rows or not rows[0]:
        return 0
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    ).rank()


def jacobiator_is_zero(n: int, entries: dict) -> bool:
    """Whether {{x_i,x_j},x_k} + cyclic vanishes for every triple, in sympy."""
    import sympy

    xs = sympy.symbols(f"x1:{n + 1}")

    def expr(p):
        return sympy.Add(*[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[x ** e for x, e in zip(xs, exp)])
            for exp, c in p.items()
        ])

    pi = [[sympy.Integer(0)] * n for _ in range(n)]
    for (i, j), p in entries.items():
        pi[i][j] = expr(p)
        pi[j][i] = -pi[i][j]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac = sum(
                    pi[a][k] * sympy.diff(pi[i][j], xs[a])
                    + pi[a][i] * sympy.diff(pi[j][k], xs[a])
                    + pi[a][j] * sympy.diff(pi[k][i], xs[a])
                    for a in range(n)
                )
                if sympy.expand(jac) != 0:
                    return False
    return True


# -- seeded sample points, drawn the way the CLI draws them ----------------------------


def stratify_points(n: int, count: int, seed: int, scale: int, denom_power: int) -> list:
    """The lattice points ``stratify`` samples for a bundle sampler and seed."""
    rng = random.Random(seed)
    return [
        [Fraction(rng.randint(-scale, scale), 2 ** rng.randint(0, denom_power)) for _ in range(n)]
        for _ in range(count)
    ]


def action_points(n: int, count: int, seed: int) -> list:
    """The exact points ``check-action`` samples (scale 6, denominators 1, 2, 4)."""
    return stratify_points(n, count, seed, 6, 2)


# -- report parsing ---------------------------------------------------------------------


def parse_reports(stdout: str):
    """(checks by name, summary) from a CLI JSON-lines report."""
    checks, summary = {}, None
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "summary" in obj:
            summary = obj["summary"]
        else:
            checks[obj["check"]] = obj
    return checks, summary


def check_verdicts(stdout: str, rc: int, expected_fail=()) -> list:
    """Every check passes except those in ``expected_fail``, which fail; the
    exit code is 1 exactly when a check fails."""
    checks, summary = parse_reports(stdout)
    errors = []
    if summary is None:
        return ["no summary line"]
    if not checks:
        errors.append("no checks reported")
    for name, rep in checks.items():
        if rep.get("skipped"):
            errors.append(f"{name}: unexpectedly skipped")
            continue
        want = name not in expected_fail
        if rep.get("passed") is not want:
            errors.append(f"{name}: passed={rep.get('passed')!r}, expected {want}")
    for name in expected_fail:
        if name not in checks:
            errors.append(f"{name}: missing from the report")
    want_rc = 1 if expected_fail else 0
    if rc != want_rc:
        errors.append(f"exit code {rc}, expected {want_rc}")
    if sorted(summary.get("failed", [])) != sorted(expected_fail):
        errors.append(f"summary failed={summary.get('failed')!r}")
    return errors


def check_stratify(stdout: str, bivectors: dict, points: list) -> list:
    """Histograms, witnesses and maximal rank equal the sympy rank at the same points.

    ``bivectors`` maps a bivector name to ``(n, entries)``.
    """
    checks, _ = parse_reports(stdout)
    errors = []
    for name, (n, entries) in bivectors.items():
        rep = checks.get(f"stratify:{name}")
        if rep is None:
            errors.append(f"stratify:{name}: missing")
            continue
        hist, wit = {}, {}
        for pt in points[n]:
            r = exact_rank(eval_bivector(n, entries, pt))
            hist[r] = hist.get(r, 0) + 1
            wit.setdefault(r, [str(x) for x in pt])
        got_hist = {int(k): v for k, v in rep["histogram"].items()}
        got_wit = {int(k): v for k, v in rep["witnesses"].items()}
        if got_hist != hist:
            errors.append(f"stratify:{name}: histogram {got_hist}, oracle {hist}")
        if got_wit != wit:
            errors.append(f"stratify:{name}: witnesses {got_wit}, oracle {wit}")
        if rep["max_rank"] != max(hist):
            errors.append(f"stratify:{name}: max_rank {rep['max_rank']}, oracle {max(hist)}")
        if rep["minor_consistency"] is not True or rep["passed"] is not True:
            errors.append(f"stratify:{name}: minor_consistency does not hold")
    return errors


# -- Lie algebra cohomology: textbook dimensions ---------------------------------------


def kunneth(a, b) -> tuple:
    """Betti numbers of a direct sum: the product of Poincare polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def abelian_dims(n: int, module_dim: int = 1) -> tuple:
    """Every module of an abelian algebra used here is trivial: dim V * C(n, p)."""
    return tuple(module_dim * comb(n, p) for p in range(n + 1))


_SIMPLE3 = (1, 0, 0, 1)       # sl2, so3 with trivial coefficients (Whitehead)
_ZERO3 = (0, 0, 0, 0)         # Whitehead: a nontrivial irreducible module kills every degree

# dim H^p(g, V) for p = 0..dim g.  gl2 = sl2 + R: the adjoint and coadjoint
# modules split as (sl2 module, R trivial) + (trivial, R), and Kunneth leaves
# only H(sl2, trivial) x H(R, trivial).  For h3 the adjoint values are the
# centre (1), outer derivations (6 - 2 = 4), H^3 = coinvariants of the dual
# (2, Poincare duality for a unimodular algebra) and H^2 from the Euler
# characteristic; the coadjoint values are their Poincare duals.
COHOMOLOGY = {
    ("sl2", "trivial"): _SIMPLE3,
    ("sl2", "adjoint"): _ZERO3,
    ("sl2", "coadjoint"): _ZERO3,
    ("so3", "trivial"): _SIMPLE3,
    ("so3", "adjoint"): _ZERO3,
    ("so3", "coadjoint"): _ZERO3,
    ("gl2", "trivial"): kunneth(_SIMPLE3, (1, 1)),
    ("gl2", "adjoint"): kunneth(_SIMPLE3, (1, 1)),
    ("gl2", "coadjoint"): kunneth(_SIMPLE3, (1, 1)),
    ("h3", "trivial"): (1, 2, 2, 1),
    ("h3", "adjoint"): (1, 4, 5, 2),
    ("h3", "coadjoint"): (2, 5, 4, 1),
    ("h5", "trivial"): (1, 4, 5, 5, 4, 1),
    ("abelian4", "trivial"): abelian_dims(4),
    ("abelian4", "adjoint"): abelian_dims(4, 4),
    ("abelian4", "coadjoint"): abelian_dims(4, 4),
    ("sl2+sl2", "trivial"): kunneth(_SIMPLE3, _SIMPLE3),
    ("sl2+sl2", "adjoint"): (0,) * 7,
    ("sl2+sl2", "coadjoint"): (0,) * 7,
}


def check_cohomology(algebra: str, module: str, p: int, got) -> list:
    want = COHOMOLOGY[(algebra, module)][p]
    if got != want:
        return [f"H^{p}({algebra}, {module}) = {got!r}, textbook value {want}"]
    return []
