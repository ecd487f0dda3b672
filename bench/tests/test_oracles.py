"""Tests for the benchmark's independent answers: each oracle accepts the
right answer and rejects a wrong one.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402
import workloads  # noqa: E402

F = Fraction


def report(*checks, failed=()):
    lines = [json.dumps(c) for c in checks]
    lines.append(json.dumps({"summary": {"checks": len(checks), "failed": list(failed),
                                         "passed": len(checks) - len(failed), "skipped": []}}))
    return "\n".join(lines) + "\n"


# -- exact rank ----------------------------------------------------------------------


def test_exact_rank_known_matrices():
    assert oracles.exact_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert oracles.exact_rank([[F(0)] * 3] * 3) == 0
    # a skew matrix built from two proportional rows has rank 2
    skew = [[F(0), F(1, 2), F(1)], [F(-1, 2), F(0), F(3)], [F(-1), F(-3), F(0)]]
    assert oracles.exact_rank(skew) == 2


def test_stratify_check_rejects_a_wrong_histogram():
    entries = {(0, 1): {(1, 1): F(1)}}          # {x1, x2} = x1 x2
    points = {2: [[F(0), F(1)], [F(1), F(1)], [F(2), F(-1)]]}
    right = {"check": "stratify:pi", "histogram": {"0": 1, "2": 2}, "max_rank": 2,
             "witnesses": {"0": ["0", "1"], "2": ["1", "1"]}, "minor_consistency": True,
             "passed": True}
    assert oracles.check_stratify(report(right), {"pi": (2, entries)}, points) == []
    for key, wrong in [("histogram", {"2": 3}), ("max_rank", 0),
                       ("witnesses", {"0": ["0", "1"], "2": ["2", "-1"]}),
                       ("minor_consistency", False)]:
        bad = dict(right, **{key: wrong})
        assert oracles.check_stratify(report(bad), {"pi": (2, entries)}, points), key


# -- Jacobiator ------------------------------------------------------------------------


def test_jacobiator_accepts_poisson_and_rejects_non_poisson():
    # {x1,x2} = x3, {x2,x3} = x1, {x1,x3} = x2: Lie-Poisson of sl2
    sl2 = {(0, 1): {(0, 0, 1): F(1)}, (1, 2): {(1, 0, 0): F(1)}, (0, 2): {(0, 1, 0): F(1)}}
    assert oracles.jacobiator_is_zero(3, sl2)
    # pi <-> v = (x2, 0, x1) with v . curl v = -x1 != 0
    bad = {(0, 1): {(1, 0, 0): F(1)}, (1, 2): {(0, 1, 0): F(1)}}
    assert not oracles.jacobiator_is_zero(3, bad)


def test_generated_bivectors_match_their_construction():
    for name, (n, entries, casimirs, poisson) in workloads.generate_bivectors(5).items():
        if poisson:
            assert oracles.jacobiator_is_zero(n, entries), name
        for form in casimirs or []:
            assert casimir_bracket_vanishes(n, entries, form), name
    n, lp, _, _ = workloads.generate_bivectors(5)["sl2+sl2"]
    assert oracles.exact_rank(oracles.eval_bivector(n, lp, [F(1)] * n)) == 4
    assert workloads.generate_bivectors(5) == workloads.generate_bivectors(5)


def casimir_bracket_vanishes(n, entries, form):
    """{C, x_j} = sum_i dC/dx_i pi^{ij} for C = sum_k a_k x_k^2, in exact rationals."""
    import sympy

    xs = sympy.symbols(f"x1:{n + 1}")
    pi = [[0] * n for _ in range(n)]
    for (i, j), p in entries.items():
        e = sum(sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[x ** k for x, k in zip(xs, exp)]) for exp, c in p.items())
        pi[i][j], pi[j][i] = e, -e
    C = sum(sympy.Rational(a) * xs[k] ** 2 for k, a in form.items())
    return all(sympy.expand(sum(sympy.diff(C, xs[i]) * pi[i][j] for i in range(n))) == 0
               for j in range(n))


def test_check_verdicts_rejects_a_wrong_jacobi_verdict():
    out = report({"check": "check-poisson:pi:jacobi", "passed": True})
    assert oracles.check_verdicts(out, 0) == []
    assert oracles.check_verdicts(out, 0, ["check-poisson:pi:jacobi"])
    assert oracles.check_verdicts(out, 1)                  # exit code contradicts the verdicts


# -- known-answer tables -------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(oracles.COHOMOLOGY))
def test_cohomology_table_has_zero_euler_characteristic(key):
    dims = oracles.COHOMOLOGY[key]
    assert len(dims) == workloads.ALGEBRAS[key[0]][0] + 1
    assert sum((-1) ** p * h for p, h in enumerate(dims)) == 0


@pytest.mark.parametrize("key", sorted(oracles.COHOMOLOGY))
def test_cohomology_table_obeys_poincare_duality(key):
    # every algebra here is unimodular: H^p(V) = H^(n-p)(V*)
    algebra, module = key
    dual = {"trivial": "trivial", "adjoint": "coadjoint", "coadjoint": "adjoint"}[module]
    if (algebra, dual) in oracles.COHOMOLOGY:
        assert oracles.COHOMOLOGY[key] == oracles.COHOMOLOGY[(algebra, dual)][::-1]


def test_cohomology_table_textbook_values():
    table = oracles.COHOMOLOGY
    for simple in ("sl2", "so3", "sl2+sl2"):
        assert table[(simple, "trivial")][1:3] == (0, 0)           # Whitehead
        assert not any(table[(simple, "adjoint")])
    assert table[("sl2+sl2", "trivial")] == (1, 0, 0, 2, 0, 0, 1)  # Kunneth
    assert table[("abelian4", "trivial")] == (1, 4, 6, 4, 1)
    assert table[("h3", "trivial")] == (1, 2, 2, 1)
    assert table[("h5", "trivial")] == (1, 4, 5, 5, 4, 1)
    assert table[("gl2", "trivial")] == (1, 1, 0, 1, 1)


def test_check_cohomology_rejects_a_wrong_dimension():
    assert oracles.check_cohomology("sl2+sl2", "trivial", 3, 2) == []
    assert oracles.check_cohomology("sl2+sl2", "trivial", 3, 1)
    assert oracles.check_cohomology("sl2", "adjoint", 1, 1)


# -- the traced run ------------------------------------------------------------------------


def test_tracer_reports_the_declared_layer_metrics_and_restores_the_package():
    import cProfile

    root = Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(root / "src"))
    from poissonkit import lie, linalg

    import tracing

    original = linalg.rank
    profile = cProfile.Profile()
    with tracing.Tracer() as tracer:
        profile.enable()
        dims = [lie.cohomology_dim(lie.sl2(), lie.representation(lie.sl2(), "adjoint"), p)
                for p in range(4)]
        profile.disable()
    assert dims == [0, 0, 0, 0]
    assert linalg.rank is original and lie.linalg.rank is original
    metrics = tracer.metrics()
    metrics.update(tracing.profile_metrics(profile))
    metrics["trace.overhead_s"] = 0.0
    assert metrics["lie.ce_differential_calls"] == 6      # each differential built twice
    assert metrics["linalg.rank_calls"] == 6
    assert metrics["linalg.rank_cells"] == 2 * (9 * 3 + 9 * 9 + 3 * 9)
    assert metrics["scalars.ops"] > 0 and metrics["lie.cohomology_s"] > 0
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
