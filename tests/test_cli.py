import contextlib
import copy
import functools
import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from poissonkit.bundles import SIZE_BOUNDS, SchemaError, parse_bundle
from poissonkit import cli


SL2_JSON = {
    "dim": 3,
    "basis": ["e1", "e2", "e3"],
    "brackets": [
        {"i": 0, "j": 1, "result": [0, 0, 1]},
        {"i": 1, "j": 2, "result": [1, 0, 0]},
        {"i": 0, "j": 2, "result": [0, 1, 0]},
    ],
}

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "demos" / "bundles" / "sample.json"
GOLDEN = ROOT / "tests" / "golden"

PLANE_VARS = [{"name": "x1", "kind": "affine"}, {"name": "x2", "kind": "affine"}]


def h_bivector_json(c=1):
    return {
        "dim": 2,
        "vars": PLANE_VARS,
        "entries": [
            {
                "i": 0,
                "j": 1,
                "poly": {
                    "vars": PLANE_VARS,
                    "terms": [
                        {"exp": [0, 0], "coeff": {"num": str(c), "den": "1"}},
                        {"exp": [1, 1], "coeff": {"num": "-1", "den": "1"}},
                    ],
                },
            }
        ],
    }


def base_bundle():
    return {
        "sampler": {"seed": 5, "count": 25},
        "algebras": {"sl2": SL2_JSON},
        "bivectors": {"plane": h_bivector_json()},
    }


def run_cli(args, bundle=None, tmp_path=None):
    argv = list(args)
    if bundle is not None:
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        argv += ["--bundle", str(path)]
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_check_lie_pass_and_fail(tmp_path):
    code, out = run_cli(["check-lie"], base_bundle(), tmp_path)
    assert code == 0
    bad = base_bundle()
    bad["algebras"]["corrupt"] = {
        "dim": 3,
        "brackets": [{"i": 0, "j": 1, "result": [0, 0, 1]},
                      {"i": 1, "j": 2, "result": [0, 1, 0]}],
    }
    code, out = run_cli(["check-lie"], bad, tmp_path)
    assert code == 1
    lines = [json.loads(l) for l in out.strip().splitlines()]
    found = [l for l in lines if l.get("check") == "check-lie:corrupt"]
    assert found and found[0]["violations"][0]["indices"] == [0, 1, 2]


def test_check_poisson_zero_bivector(tmp_path):
    b = base_bundle()
    b["bivectors"]["null"] = {"dim": 2, "vars": PLANE_VARS, "entries": []}
    code, out = run_cli(["check-poisson"], b, tmp_path)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert any(l.get("check") == "check-poisson:null:jacobi" and l["passed"] for l in lines)


def test_exit_code_2_on_schema_errors(tmp_path):
    code, _ = run_cli(["check-lie", "--bundle", str(tmp_path / "missing.json")])
    assert code == 2
    bad = {"rmatrices": {"r": {"algebra": "nope", "lambda": [[0]]}}}
    code, _ = run_cli(["check-bialgebra"], bad, tmp_path)
    assert code == 2
    # sampled check without a seed anywhere
    b = base_bundle()
    del b["sampler"]
    code, _ = run_cli(["stratify"], b, tmp_path)
    assert code == 2


def test_determinism(tmp_path):
    b = base_bundle()
    code1, out1 = run_cli(["stratify", "--samples", "30"], b, tmp_path)
    code2, out2 = run_cli(["stratify", "--samples", "30"], b, tmp_path)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3 = run_cli(["example51", "--lambda", "0,2,0", "--c", "1", "--samples", "15"])
    code4, out4 = run_cli(["example51", "--lambda", "0,2,0", "--c", "1", "--samples", "15"])
    assert out3 == out4


def test_example51_pipeline():
    code, out = run_cli(["example51", "--lambda", "0,2,0", "--c", "1", "--samples", "20"])
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    checks = {l["check"]: l for l in lines if "check" in l}
    assert checks["example51:dual-brackets"]["passed"]
    assert checks["example51:dual-brackets"]["brackets"]["[e1*,e2*]*"] == ["0", "-2", "0"]
    assert checks["example51:h-certificate"]["certificate"] == "0"
    assert checks["example51:poisson-action"]["passed"]
    assert checks["example51:tangential-consistency"]["passed"]
    assert checks["example51:h-subgroup-momentum"]["passed"]
    assert not checks["example51:h-subgroup-momentum"]["power_family_consistent"]
    # a tangential case: predicate true and sampling confirms
    code2, out2 = run_cli(["example51", "--lambda", "0,0,4", "--c", "1", "--samples", "15"])
    assert code2 == 0
    lines2 = [json.loads(l) for l in out2.strip().splitlines()]
    tc = [l for l in lines2 if l.get("check") == "example51:tangential-consistency"][0]
    assert tc["coefficient_predicate"] and tc["sampled_all_tangential"]
    # the skipped entry is labeled skipped, never passed
    sk = [l for l in lines2 if l.get("check") == "example51:h-subgroup-momentum"][0]
    assert sk.get("skipped") is True and "passed" not in sk


def test_example51_requires_lambda():
    code, _ = run_cli(["example51"])
    assert code == 2


def test_flow_export(tmp_path):
    b = base_bundle()
    b["bivectors"]["osc"] = {
        "dim": 2,
        "vars": [{"name": "x", "kind": "affine"}, {"name": "y", "kind": "affine"}],
        "entries": [{"i": 0, "j": 1, "poly": {
            "vars": [{"name": "x", "kind": "affine"}, {"name": "y", "kind": "affine"}],
            "terms": [{"exp": [0, 0], "coeff": {"num": "1", "den": "1"}}]}}],
    }
    b["flow"] = {
        "bivector": "osc",
        "hamiltonian": {
            "vars": [{"name": "x", "kind": "affine"}, {"name": "y", "kind": "affine"}],
            "terms": [{"exp": [2, 0], "coeff": {"num": "1", "den": "2"}},
                       {"exp": [0, 2], "coeff": {"num": "1", "den": "2"}}],
        },
        "x0": ["1", "0"],
        "dt": 0.001,
        "steps": 2000,
    }
    out_path = tmp_path / "traj.csv"
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(b))
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(["flow", "--bundle", str(path), "--out", str(out_path)])
    finally:
        sys.stdout = old
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("step,t,x1,x2,f")
    assert lines[-1].startswith("# ")
    summary = json.loads(lines[-1][2:])
    assert summary["f_drift"] < 1e-9 and not summary["truncated"]
    # dt = 0 rejected with exit 2
    b2 = dict(b)
    b2["flow"] = dict(b["flow"], dt=0.0)
    path.write_text(json.dumps(b2))
    out = io.StringIO()
    sys.stdout = out
    try:
        code2 = cli.main(["flow", "--bundle", str(path)])
    finally:
        sys.stdout = old
    assert code2 == 2


@pytest.mark.parametrize("bad", [["--steps", "0"], ["--dt", "0"], ["--dt=-0.5"]])
def test_a_rejected_flow_leaves_an_existing_out_file_unchanged(bad, tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    out_path.write_bytes(b"an earlier trajectory\n")
    code = cli.main(["flow", "--bundle", str(SAMPLE), "--out", str(out_path)] + bad)
    assert code == 2 and "schema error" in capsys.readouterr().err
    assert out_path.read_bytes() == b"an earlier trajectory\n"
    code = cli.main(["flow", "--bundle", str(SAMPLE), "--out", str(out_path), "--steps", "3"])
    csv = out_path.read_text().splitlines()
    assert code == 0 and csv[0].startswith("step,t,") and len(csv) == 1 + 4 + 1
    report = capsys.readouterr().out
    assert '"check": "flow:conservation"' in report and "step," not in report


@pytest.mark.parametrize("name", ["q,uad\nratic", "quad,ratic", 'quad"ratic', "quad\rratic",
                                  "quadratic\n"])
def test_a_casimir_name_that_would_break_the_csv_is_a_schema_error(name, tmp_path, capsys):
    raw = json.loads(SAMPLE.read_text())
    raw["flow"]["casimirs"] = {name: raw["flow"]["casimirs"]["quadratic"]}
    out_path = tmp_path / "traj.csv"
    out_path.write_bytes(b"an earlier trajectory\n")
    code, out = run_cli(["flow", "--out", str(out_path), "--steps", "3"], raw, tmp_path)
    err = capsys.readouterr().err
    assert code == 2 and out == "" and "schema error" in err and f"casimir {name!r}" in err
    assert out_path.read_bytes() == b"an earlier trajectory\n"
    # a name with other punctuation and spaces heads its column as it is
    raw["flow"]["casimirs"] = {"q uad;ratic's": raw["flow"]["casimirs"][name]}
    code, _ = run_cli(["flow", "--out", str(out_path), "--steps", "3"], raw, tmp_path)
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "step,t,x1,x2,x3,f,q uad;ratic's,rank"


@pytest.mark.parametrize("bound", [1e300, 1e9])
def test_a_flow_that_turns_nan_is_truncated_and_exits_1(bound, tmp_path, capsys):
    raw = json.loads(SAMPLE.read_text())
    mu = raw["flow"]["hamiltonian"]["vars"]
    one = {"num": "1", "den": "1"}
    raw["flow"].update(dt=0.5, steps=200, divergence_bound=bound, hamiltonian={
        "vars": mu, "terms": [{"exp": [0, 3, 0], "coeff": one}, {"exp": [2, 0, 1], "coeff": one}]})
    code, out = run_cli(["flow"], raw, tmp_path)
    lines = out.splitlines()
    summary = json.loads(next(l for l in lines if l.startswith("# "))[2:])
    check = json.loads(next(l for l in lines if '"check": "flow:conservation"' in l))
    assert code == 1 and summary["truncated"] and check["truncated"] and not check["passed"]
    assert summary["steps"] < 200 and capsys.readouterr().err == ""


def test_action_and_momentum_suites(tmp_path):
    half = {"num": "1", "den": "2"}
    mhalf = {"num": "-1", "den": "2"}
    b = base_bundle()
    b["rmatrices"] = {"family": {"algebra": "sl2", "lambda": [
        [0, 0, 0], [0, 0, 2], [0, -2, 0]]}}
    b["actions"] = {
        "plane": {
            "algebra": "sl2",
            "bivector": "plane",
            "rmatrix": "family",
            "membership": "det1",
            "representation": [
                [[half, 0], [0, mhalf]],
                [[0, half], [mhalf, 0]],
                [[0, half], [half, 0]],
            ],
        },
        "dual": {
            "algebra": "sl2",
            "bivector": "lp",
            "kind": "coadjoint-dressing",
            "defining": [
                [[half, 0], [0, mhalf]],
                [[0, half], [mhalf, 0]],
                [[0, half], [half, 0]],
            ],
        },
    }
    mu_vars = [{"name": "mu1", "kind": "affine"}, {"name": "mu2", "kind": "affine"},
               {"name": "mu3", "kind": "affine"}]
    mu = lambda k, shift: {
        "vars": mu_vars,
        "terms": [{"exp": [1 if t == k else 0 for t in range(3)], "coeff": {"num": "1", "den": "1"}},
                   {"exp": [0, 0, 0], "coeff": {"num": str(shift), "den": "1"}}],
    }
    b["bivectors"]["lp"] = {
        "dim": 3,
        "vars": mu_vars,
        "entries": [
            {"i": 0, "j": 1, "poly": {"vars": mu_vars, "terms": [{"exp": [0, 0, 1], "coeff": {"num": "1", "den": "1"}}]}},
            {"i": 1, "j": 2, "poly": {"vars": mu_vars, "terms": [{"exp": [1, 0, 0], "coeff": {"num": "1", "den": "1"}}]}},
            {"i": 0, "j": 2, "poly": {"vars": mu_vars, "terms": [{"exp": [0, 1, 0], "coeff": {"num": "1", "den": "1"}}]}},
        ],
    }
    b["momentum_maps"] = {
        "shifted": {"action": "dual", "components": [mu(0, 2), mu(1, -1), mu(2, 0)]}
    }
    code, out = run_cli(["check-action"], b, tmp_path)
    lines = [json.loads(l) for l in out.strip().splitlines()]
    checks = {l["check"]: l for l in lines if "check" in l}
    assert checks["check-action:plane:poisson-action"]["passed"]
    assert checks["check-action:dual:poisson-action"]["passed"]
    assert not checks["check-action:plane:structure-preserved"]["passed"]
    assert code == 1  # the non-preserving generator is reported honestly

    code2, out2 = run_cli(["momentum"], b, tmp_path)
    assert code2 == 0
    lines2 = [json.loads(l) for l in out2.strip().splitlines()]
    checks2 = {l["check"]: l for l in lines2 if "check" in l}
    assert checks2["momentum:shifted:hamiltonian-condition"]["passed"]
    assert checks2["momentum:shifted:obstruction"]["passed"]
    assert checks2["momentum:shifted:psi-cocycle"]["passed"]


def test_parse_bundle_validation():
    with pytest.raises(SchemaError):
        parse_bundle({"momentum_maps": {"m": {"action": "a", "components": []}}})
    with pytest.raises(SchemaError):
        parse_bundle({"actions": {"a": {"algebra": "missing", "bivector": "b"}}})


def test_console_script_entrypoint():
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-m", "poissonkit.cli", "example51", "--lambda", "0,2,0",
         "--c", "1", "--samples", "10"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1].startswith('{"summary"')


def _assert_schema_error(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error: ")
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("argv", [
    ["check-action", "--samples", "-3"],
    ["momentum", "--samples", "-3"],
    ["check-action", "--samples", "0"],
    ["stratify", "--samples", "-3"],
    ["flow", "--steps", "0"],
    ["flow", "--dt", "nan"],
    ["flow", "--dt", "inf"],
    ["example51", "--lambda", "1,2"],
    ["example51", "--lambda", "0,2,0", "--c", "abc"],
])
def test_invalid_arguments_exit_2(argv, capsys):
    if argv[0] != "example51":
        argv = argv + ["--bundle", str(SAMPLE)]
    _assert_schema_error(argv, capsys)


# each size is rejected before any work: no test here allocates or runs a flow
@pytest.mark.parametrize("section, key", [
    ("flow", "steps"), ("sampler", "count"), ("sampler", "scale"), ("sampler", "denom_power"),
])
def test_a_bundle_size_past_its_bound_is_a_schema_error(section, key, tmp_path, capsys):
    raw = json.loads(SAMPLE.read_text())
    raw[section][key] = SIZE_BOUNDS[key] + 1
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(raw))
    err = _assert_schema_error(["check-lie", "--bundle", str(path)], capsys)
    assert f"{section} {key} must be <= {SIZE_BOUNDS[key]}, got {SIZE_BOUNDS[key] + 1}" in err
    raw[section][key] = SIZE_BOUNDS[key]
    bundle = parse_bundle(raw)
    assert (bundle.flow if section == "flow" else bundle.sampler)[key] == SIZE_BOUNDS[key]


@pytest.mark.parametrize("argv, key", [
    (["flow", "--steps"], "steps"),
    (["stratify", "--samples"], "count"),
    (["check-action", "--samples"], "count"),
    (["momentum", "--samples"], "count"),
    (["example51", "--lambda", "0,2,0", "--samples"], "count"),
])
def test_an_option_past_its_size_bound_is_a_schema_error(argv, key, capsys):
    argv = argv + [str(SIZE_BOUNDS[key] + 1)]
    if argv[0] != "example51":
        argv += ["--bundle", str(SAMPLE)]
    err = _assert_schema_error(argv, capsys)
    assert f"must be <= {SIZE_BOUNDS[key]}, got {SIZE_BOUNDS[key] + 1}" in err


def _float_rmatrix_entry(raw):
    raw["rmatrices"]["hyperbola"]["lambda"][1][2] = 1.5


def _unknown_variable_kind(raw):
    raw["momentum_maps"]["shifted_identity"]["components"][0]["vars"][0]["kind"] = "weird"


def _bracket_index_past_dim(raw):
    raw["algebras"]["sl2"]["brackets"][0]["j"] = 3


def _bivector_index_past_dim(raw):
    raw["bivectors"]["plane"]["entries"][0]["j"] = 4


def _top_level_list(raw):
    return [1, 2]


def _algebra_entry_list(raw):
    raw["algebras"]["sl2"] = [3]


def _action_matrices_padded_to_3x3(raw):
    raw["actions"]["plane_action"]["representation"] = [
        [row + [0] for row in m] + [[0, 0, 0]]
        for m in raw["actions"]["plane_action"]["representation"]
    ]


def _natural_action_with_2x2_defining_on_3_dims(raw):
    # sl2 acting on its 3-dim dual space by ad matrices, with the 2x2
    # defining matrices and no lift: the group matrix cannot act on R^3
    raw["actions"]["plane_action"] = {
        "algebra": "sl2", "bivector": "dual_space",
        "representation": [[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                           [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                           [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]],
        "defining": raw["actions"]["dressing"]["defining"],
    }


def _foreign_variable(poly):
    poly["vars"].append({"name": "z", "kind": "affine"})
    for t in poly["terms"]:
        t["exp"].append(0)
    poly["terms"].append({"exp": [0] * (len(poly["vars"]) - 1) + [1], "coeff": 1})


def _momentum_component_on_a_foreign_variable(raw):
    _foreign_variable(raw["momentum_maps"]["shifted_identity"]["components"][0])


def _flow_hamiltonian_on_a_foreign_variable(raw):
    _foreign_variable(raw["flow"]["hamiltonian"])


def _float_flow_coefficient(raw):
    raw["flow"]["hamiltonian"]["terms"][0]["coeff"] = 1.5


def _flow_without_hamiltonian(raw):
    del raw["flow"]["hamiltonian"]


def _short_x0(raw):
    raw["flow"]["x0"] = ["1", "1/2"]


def _non_rational_x0(raw):
    raw["flow"]["x0"] = "a"


def _non_integer_seed(raw):
    raw["sampler"]["seed"] = "a"


def _float_for_a_list(raw):
    raw["algebras"]["sl2"]["brackets"] = 1.5


def _float_basis_name(raw):
    raw["algebras"]["sl2"]["basis"][0] = 1.5


def _dressing_on_the_plane_bivector(raw):
    raw["actions"]["dressing"]["bivector"] = "plane"


def _two_defining_matrices(raw):
    raw["actions"]["dressing"]["defining"].pop()


def _four_defining_matrices(raw):
    raw["actions"]["dressing"]["defining"].append([[1, 0], [0, -1]])


def _defining_matrix_missing_a_row(raw):
    raw["actions"]["dressing"]["defining"][1].pop()


def _fractional_flow_steps(raw):
    raw["flow"]["steps"] = 2.5


def _fractional_sample_count(raw):
    raw["sampler"]["count"] = 2.5


def _fractional_seed(raw):
    raw["sampler"]["seed"] = 3.7


def _fractional_bracket_index(raw):
    raw["algebras"]["sl2"]["brackets"][0]["i"] = 0.5


def _fractional_bivector_entry_index(raw):
    raw["bivectors"]["plane"]["entries"][0]["i"] = 0.5


def _fractional_flow_exponent(raw):
    raw["flow"]["hamiltonian"]["terms"][0]["exp"] = [0, 1.5, 0]


def _momentum_term_past_the_degree_bound(raw):
    # mu1^17 * mu2^16: the exact psi-cocycle arithmetic grows steeply with the degree
    raw["momentum_maps"]["shifted_identity"]["components"][0]["terms"][0]["exp"] = [17, 16, 0]


def _bivector_dim_unlike_its_vars(raw):
    raw["bivectors"]["plane"]["dim"] = 5


COMPLEX_ONE = {"num": "1", "den": "1", "im_num": "1", "im_den": "1"}


def _complex_flow_hamiltonian(raw):
    raw["flow"]["hamiltonian"]["terms"][0]["coeff"] = COMPLEX_ONE


def _complex_flow_casimir(raw):
    raw["flow"]["casimirs"]["quadratic"]["terms"][0]["coeff"] = COMPLEX_ONE


def _complex_flow_bivector(raw):
    # a second bivector, so the dressing action keeps its Lie-Poisson one
    raw["bivectors"]["complex"] = copy.deepcopy(raw["bivectors"]["dual_space"])
    raw["bivectors"]["complex"]["entries"][0]["poly"]["terms"][0]["coeff"] = COMPLEX_ONE
    raw["flow"]["bivector"] = "complex"


def _nan_flow_dt(raw):
    raw["flow"]["dt"] = float("nan")


HUGE = 10 ** 400   # an exact integer too large for a float


def _huge_x0_coordinate(raw):
    raw["flow"]["x0"][0] = HUGE


def _huge_flow_dt(raw):
    raw["flow"]["dt"] = HUGE


def _huge_divergence_bound(raw):
    raw["flow"]["divergence_bound"] = HUGE


def _huge_flow_hamiltonian_coefficient(raw):
    raw["flow"]["hamiltonian"]["terms"][0]["coeff"] = HUGE


def _huge_flow_casimir_coefficient(raw):
    raw["flow"]["casimirs"]["quadratic"]["terms"][0]["coeff"] = HUGE


def _flow_on_an_angular_chart(raw):
    theta = [{"name": "t1", "kind": "angular"}, {"name": "t2", "kind": "angular"}]
    one = {"vars": theta, "terms": [{"exp": [0, 0], "coeff": 1}]}
    raw["bivectors"]["torus"] = {"dim": 2, "vars": theta,
                                 "entries": [{"i": 0, "j": 1, "poly": one}]}
    raw["flow"] = {"bivector": "torus", "x0": [0, 0],
                   "hamiltonian": {"vars": theta, "terms": [{"exp": [1, 0], "coeff": 1}]}}


def _rmatrix_on_another_algebra(raw):
    raw["algebras"]["abelian4"] = {"dim": 4, "brackets": []}
    raw["rmatrices"]["abelian4"] = {"algebra": "abelian4", "lambda": [
        [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]}
    raw["actions"]["plane_action"]["rmatrix"] = "abelian4"


def _add_abelian_constants(raw, m, n, *constants):
    raw["abelian_structures"]["by_constants"] = {
        "m": m, "n": n, "constants": [dict(zip("ijkc", c)) for c in constants]}


def _torus_index_constant_beside_k_past_dim(raw):
    _add_abelian_constants(raw, 1, 1, (0, 1, 0, 1), (0, 1, 5, 1))


def _negative_constant_index(raw):
    _add_abelian_constants(raw, 1, 1, (-1, 1, 1, 1))


def _constant_index_past_dim(raw):
    _add_abelian_constants(raw, 1, 1, (0, 7, 1, 1))


def _negative_torus_count(raw):
    _add_abelian_constants(raw, -1, 1)


def _nonzero_constant_on_a_diagonal_pair(raw):
    _add_abelian_constants(raw, 1, 1, (1, 1, 1, 2))


@pytest.mark.parametrize("subcommand, edit", [
    ("check-bialgebra", _float_rmatrix_entry),
    ("momentum", _unknown_variable_kind),
    ("check-lie", _bracket_index_past_dim),
    ("check-poisson", _bivector_index_past_dim),
    ("stratify", _bivector_index_past_dim),
    ("check-lie", _top_level_list),
    ("check-lie", _algebra_entry_list),
    ("check-action", _action_matrices_padded_to_3x3),
    ("check-action", _natural_action_with_2x2_defining_on_3_dims),
    ("momentum", _momentum_component_on_a_foreign_variable),
    ("flow", _flow_hamiltonian_on_a_foreign_variable),
    ("flow", _float_flow_coefficient),
    ("flow", _flow_without_hamiltonian),
    ("flow", _short_x0),
    ("flow", _non_rational_x0),
    ("stratify", _non_integer_seed),
    ("check-lie", _float_for_a_list),
    ("check-bialgebra", _float_basis_name),
    ("momentum", _dressing_on_the_plane_bivector),
    ("check-action", _two_defining_matrices),
    ("momentum", _two_defining_matrices),
    ("check-action", _four_defining_matrices),
    ("momentum", _four_defining_matrices),
    ("check-action", _defining_matrix_missing_a_row),
    ("flow", _fractional_flow_steps),
    ("stratify", _fractional_sample_count),
    ("stratify", _fractional_seed),
    ("check-lie", _fractional_bracket_index),
    ("check-poisson", _fractional_bivector_entry_index),
    ("flow", _fractional_flow_exponent),
    ("momentum", _momentum_term_past_the_degree_bound),
    ("check-poisson", _bivector_dim_unlike_its_vars),
    ("flow", _complex_flow_hamiltonian),
    ("flow", _complex_flow_casimir),
    ("flow", _complex_flow_bivector),
    ("flow", _flow_on_an_angular_chart),
    ("flow", _nan_flow_dt),
    ("flow", _huge_x0_coordinate),
    ("flow", _huge_flow_dt),
    ("flow", _huge_divergence_bound),
    ("flow", _huge_flow_hamiltonian_coefficient),
    ("flow", _huge_flow_casimir_coefficient),
    ("check-bialgebra", _torus_index_constant_beside_k_past_dim),
    ("check-bialgebra", _negative_constant_index),
    ("check-bialgebra", _constant_index_past_dim),
    ("check-bialgebra", _negative_torus_count),
    ("check-bialgebra", _nonzero_constant_on_a_diagonal_pair),
    ("check-action", _rmatrix_on_another_algebra),
])
def test_bundle_schema_errors_exit_2(subcommand, edit, tmp_path, capsys):
    raw = json.loads(SAMPLE.read_text())
    edited = edit(raw)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(raw if edited is None else edited))
    _assert_schema_error([subcommand, "--bundle", str(path)], capsys)


def _term_exponent_listed_twice(raw):
    # the plane entry holds 1 - x1*x2; a second x1*x2 term would be dropped or kept
    raw["bivectors"]["plane"]["entries"][0]["poly"]["terms"].append(
        {"exp": [1, 1], "coeff": {"num": "5", "den": "1"}})


def _bivector_pair_listed_twice(raw):
    entry = copy.deepcopy(raw["bivectors"]["plane"]["entries"][0])
    raw["bivectors"]["plane"]["entries"].append({**entry, "i": 1, "j": 0})


def _bracket_listed_twice(raw):
    # [e1, e2] = e3 again as [e2, e1] = -e3 would override it, or its negation
    raw["algebras"]["sl2"]["brackets"].append({"i": 1, "j": 0, "result": [0, 0, -1]})


def _bracket_repeated(raw):
    raw["algebras"]["sl2"]["brackets"].append({"i": 0, "j": 1, "result": [0, 0, 2]})


# the whole bundle is parsed up front, so check-poisson reads the algebras too
@pytest.mark.parametrize("edit, message", [
    (_term_exponent_listed_twice, "exponent [1, 1] is listed twice"),
    (_bivector_pair_listed_twice, "entry (1, 0) is listed twice"),
    (_bracket_listed_twice, "bracket (1, 0) is listed twice"),
    (_bracket_repeated, "bracket (0, 1) is listed twice"),
])
def test_an_entry_listed_twice_is_a_schema_error(edit, message, tmp_path, capsys):
    raw = json.loads(SAMPLE.read_text())
    edit(raw)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(raw))
    assert message in _assert_schema_error(["check-poisson", "--bundle", str(path)], capsys)


_PLANE_COEFF = ("bivectors", "plane", "entries", 0, "poly", "terms", 1, "coeff")


@pytest.mark.parametrize("subcommand, keys, zero", [
    ("check-poisson", _PLANE_COEFF, "1/0"),
    ("check-poisson", _PLANE_COEFF, {"num": "1", "den": "0"}),
    ("check-poisson", _PLANE_COEFF, {"num": "1", "den": "1", "im_num": "2", "im_den": "0"}),
    ("check-bialgebra", ("rmatrices", "hyperbola", "lambda", 1, 2), {"num": "2", "den": "0"}),
])
def test_a_zero_denominator_is_a_schema_error(subcommand, keys, zero, tmp_path, capsys):
    raw = json.loads(SAMPLE.read_text())
    functools.reduce(lambda node, key: node[key], keys[:-1], raw)[keys[-1]] = zero
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(raw))
    err = _assert_schema_error([subcommand, "--bundle", str(path)], capsys)
    assert f"coefficient {zero!r} has a zero denominator" in err


# the subcommand that reads each section of the sample bundle
SECTION_READERS = {
    "sampler": "stratify", "algebras": "check-lie", "rmatrices": "check-bialgebra",
    "bivectors": "check-poisson", "abelian_structures": "check-bialgebra",
    "actions": "check-action", "momentum_maps": "momentum", "casimirs": "check-poisson",
    "flow": "flow",
}


def _key_paths(node, prefix=(), depth=4):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        if len(prefix) + 1 < depth:
            yield from _key_paths(child, prefix + (key,), depth)


def _mutations(raw):
    """Every edit of the contract test: for each key path of depth <= 4,
    delete it, set it to 1.5 or to "a", and drop the last element of a list."""
    for path in _key_paths(raw):
        edits = [("delete", None), ("float", 1.5), ("string", "a")]
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent[path[-1]], list) and parent[path[-1]]:
            edits.append(("drop-last", None))
        for kind, value in edits:
            edited = copy.deepcopy(raw)
            node = edited
            for key in path[:-1]:
                node = node[key]
            if kind == "delete":
                del node[path[-1]]
            elif kind == "drop-last":
                node[path[-1]].pop()
            else:
                node[path[-1]] = value
            yield path, kind, edited


def test_every_edit_of_the_sample_bundle_keeps_the_exit_code_contract(tmp_path):
    # and 1.5 in place of a JSON integer is a schema error, never truncated
    raw = json.loads(SAMPLE.read_text())
    path = tmp_path / "bundle.json"
    raised, truncated, runs, int_edits = [], [], 0, 0
    for keys, kind, edited in _mutations(raw):
        path.write_text(json.dumps(edited))
        argv = [SECTION_READERS[keys[0]], "--bundle", str(path), "--samples", "2", "--steps", "3"]
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except Exception as e:
            raised.append((keys, kind, repr(e)))
            continue
        assert code in (0, 1, 2), (keys, kind, code)
        runs += 1
        value = functools.reduce(lambda node, key: node[key], keys, raw)
        if kind == "float" and type(value) is int:
            int_edits += 1
            if code != 2:
                truncated.append((keys, code))
    # NaN (which Python's json reads) in a float setting of the flow is a schema error
    nan_codes = {}
    for key in ("dt", "divergence_bound", "drift_tolerance"):
        edited = copy.deepcopy(raw)
        edited["flow"][key] = float("nan")
        path.write_text(json.dumps(edited))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            nan_codes[key] = cli.main(["flow", "--bundle", str(path), "--steps", "3"])
    assert not raised, raised[:5]
    assert not truncated, truncated
    assert set(nan_codes.values()) == {2}, nan_codes
    assert runs > 300 and int_edits >= 12


SAMPLE_RAW = json.loads(SAMPLE.read_text())
SAMPLE_PATHS = list(_key_paths(SAMPLE_RAW, depth=float("inf")))
LEAVES = [p for p in SAMPLE_PATHS
          if not isinstance(functools.reduce(lambda node, key: node[key], p, SAMPLE_RAW), (dict, list))]
KEYS = [p for p in SAMPLE_PATHS if isinstance(p[-1], str)]
# small ints, so that no count, step number or exponent makes a long run
REPLACEMENTS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([10 ** 30, -10 ** 30, 2 ** 63]),
    st.floats(-1e3, 1e3) | st.sampled_from([1e-300, 1e300]),
    st.sampled_from(["", "a", "1/0", "1/2", "-3", "x1", "det1"]),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=3),
    st.sampled_from([{}, {"num": "1", "den": "0"}, {"a": 1}]),
)
EDITS = (st.tuples(st.just("replace"), st.sampled_from(LEAVES), REPLACEMENTS)
         | st.tuples(st.just("delete"), st.sampled_from(KEYS), st.none()))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(EDITS)
def test_a_generated_edit_of_the_sample_bundle_keeps_the_exit_code_contract(tmp_path, edit):
    kind, keys, value = edit
    edited = copy.deepcopy(SAMPLE_RAW)
    parent = functools.reduce(lambda node, key: node[key], keys[:-1], edited)
    if kind == "delete":
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(edited))
    argv = [SECTION_READERS[keys[0]], "--bundle", str(path)]
    if argv[0] == "flow":       # the trajectory to a file, so stdout is the JSON lines
        argv += ["--out", str(tmp_path / "trajectory.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    for line in out.getvalue().splitlines():
        json.loads(line)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["example51", "--lambda", "0,2,0", "--c", "1", "--seed", "0"],
    ["flow", "--bundle", str(SAMPLE)],
], ids=["example51", "flow"])
def test_stdout_is_the_same_bytes_under_two_hash_seeds(argv):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    outs = [subprocess.run([sys.executable, "-m", "poissonkit.cli", *argv], capture_output=True,
                           env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED=seed),
                           timeout=120).stdout
            for seed in ("0", "12345")]
    assert outs[0] and outs[0] == outs[1]


NO_SL2 = {"skipped": True,
          "reason": "defining matrices do not span sl(2); group sampling undefined"}


def test_check_action_on_a_3x3_group_skips_poisson_action(tmp_path):
    # no exact sampler for 3x3 groups, and a check at the identity alone
    # cannot fail: the Poisson-action check is skipped (the coadjoint lift at
    # the unit is tested in tests/test_action.py)
    mu = [{"name": f"mu{i}", "kind": "affine"} for i in (1, 2, 3)]
    mu3 = {"vars": mu, "terms": [{"exp": [0, 0, 1], "coeff": {"num": "1", "den": "1"}}]}
    b = {
        "sampler": {"seed": 1, "count": 3},
        "algebras": {"h3": {"dim": 3, "brackets": [{"i": 0, "j": 1, "result": [0, 0, 1]}]}},
        "bivectors": {"lp": {"dim": 3, "vars": mu, "entries": [{"i": 0, "j": 1, "poly": mu3}]}},
        "actions": {"dress": {
            "algebra": "h3", "bivector": "lp", "kind": "coadjoint-dressing",
            "defining": [[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                         [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                         [[0, 0, 1], [0, 0, 0], [0, 0, 0]]],
        }},
    }
    code, out = run_cli(["check-action"], b, tmp_path)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    checks = {l["check"]: l for l in lines if "check" in l}
    assert checks["check-action:dress:poisson-action"] == \
        {"check": "check-action:dress:poisson-action", **NO_SL2}
    assert lines[-1]["summary"]["skipped"] == ["check-action:dress:poisson-action"]


def _dressing_bundle(brackets, defining):
    """One coadjoint-dressing action on the Lie-Poisson dual of the algebra
    with brackets ``[e_i, e_j] = e_k`` for each ``(i, j, k)``, and the
    identity momentum map."""
    n = len(defining)
    mu = [{"name": f"mu{i}", "kind": "affine"} for i in range(1, n + 1)]
    lin = [{"vars": mu, "terms": [{"exp": [int(k == i) for k in range(n)],
                                   "coeff": {"num": "1", "den": "1"}}]} for i in range(n)]
    return {
        "sampler": {"seed": 1, "count": 4},
        "algebras": {"g": {"dim": n, "brackets": [
            {"i": i, "j": j, "result": [int(r == k) for r in range(n)]} for i, j, k in brackets]}},
        "bivectors": {"lp": {"dim": n, "vars": mu, "entries": [
            {"i": i, "j": j, "poly": lin[k]} for i, j, k in brackets]}},
        "actions": {"dress": {"algebra": "g", "bivector": "lp", "kind": "coadjoint-dressing",
                              "defining": defining}},
        "momentum_maps": {"id": {"action": "dress", "components": lin}},
    }


def test_h3_dressing_with_2x2_defining_matrices_is_a_schema_error(tmp_path, capsys):
    # e12, e22 and 0 are not linearly independent, so Coad_g has no
    # coordinates in their basis: the loader rejects the action
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(_dressing_bundle(
        [(0, 1, 2)], [[[0, 1], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 0]]])))
    for sub in ("check-action", "momentum"):
        _assert_schema_error([sub, "--bundle", str(path)], capsys)


def test_aff1_dressing_with_2x2_defining_matrices_is_not_sampled_as_sl2(tmp_path):
    # e11 and e12 span aff(1), [e1, e2] = e2, inside the 2x2 matrices but do
    # not span sl(2): no determinant-one sampling, so poisson-action and
    # psi-cocycle are skipped with one record
    b = _dressing_bundle([(0, 1, 1)], [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    code, out = run_cli(["check-action"], b, tmp_path)
    checks = {l["check"]: l for l in map(json.loads, out.strip().splitlines()) if "check" in l}
    assert code == 0
    assert checks["check-action:dress:poisson-action"] == \
        {"check": "check-action:dress:poisson-action", **NO_SL2}
    code, out = run_cli(["momentum"], b, tmp_path)
    checks = {l["check"]: l for l in map(json.loads, out.strip().splitlines()) if "check" in l}
    assert code == 0
    assert checks["momentum:id:psi-cocycle"] == {"check": "momentum:id:psi-cocycle", **NO_SL2}
    # a two-dimensional algebra has no triples for the cocycle check
    obstruction = checks["momentum:id:obstruction"]
    assert obstruction["passed"] and obstruction["cocycle_residuals"] == []


# -- a check that raises is a failed record -------------------------------------------

A1 = {"dim": 1, "brackets": []}
LAURENT_VARS = [{"name": "th", "kind": "angular"}, {"name": "x"}]
# th^-1 * x d_th^d_x: th^-1 is defined on the unit circle, where the sampler draws w
LAURENT = {"dim": 2, "vars": LAURENT_VARS, "entries": [{"i": 0, "j": 1, "poly": {
    "vars": LAURENT_VARS, "terms": [{"exp": [-1, 1], "coeff": 1}]}}]}


def _records(out):
    return {l["check"]: l for l in map(json.loads, out.strip().splitlines()) if "check" in l}


def test_a_laurent_bivector_passes_stratify_and_tangential_at_every_seed(tmp_path, capsys):
    # rank 2 off the line x = 0 and rank 0 on it; the orbit direction x d_x
    # vanishes there too, so every sampled point is tangential
    b = {"sampler": {"seed": 1}, "algebras": {"a1": A1}, "bivectors": {"lau": LAURENT},
         "actions": {"act": {"algebra": "a1", "bivector": "lau",
                             "representation": [[[0, 0], [0, 1]]]}}}
    for seed in range(51):
        code, out = run_cli(["stratify", "--seed", str(seed)], b, tmp_path)
        rec = _records(out)["stratify:lau"]
        assert code == 0 and rec["passed"] and set(rec["histogram"]) <= {"0", "2"}, seed
        assert "2" in rec["histogram"] and rec["sample_count"] == 100
        code, out = run_cli(["check-action", "--seed", str(seed)], b, tmp_path)
        checks = _records(out)
        assert code == 0 and checks["check-action:act:tangential"] == \
            {"check": "check-action:act:tangential", "passed": True, "mode": "symbolic",
             "points": 50, "failures": []}, seed
        assert checks["check-action:act:poisson-action"] == \
            {"check": "check-action:act:poisson-action", **NO_SL2}
        assert checks["check-action:act:structure-preserved"]["passed"] is True
    assert capsys.readouterr().err == ""


def test_a_group_without_sl2_skips_the_check_that_cannot_fail(tmp_path):
    # rotations do not preserve x1 d1^d2; at g = 1 alone the Poisson-action
    # residual F(x) - F(x) vanishes for every action, so it is not reported
    # as a pass
    vars_ = [{"name": "x1"}, {"name": "x2"}]
    b = {"sampler": {"seed": 1, "count": 5}, "algebras": {"a1": A1},
         "bivectors": {"tilt": {"dim": 2, "vars": vars_, "entries": [{"i": 0, "j": 1, "poly": {
             "vars": vars_, "terms": [{"exp": [1, 0], "coeff": 1}]}}]}},
         "actions": {"rot": {"algebra": "a1", "bivector": "tilt",
                             "representation": [[[0, -1], [1, 0]]]}}}
    code, out = run_cli(["check-action"], b, tmp_path)
    checks = _records(out)
    assert code == 1
    assert checks["check-action:rot:poisson-action"] == \
        {"check": "check-action:rot:poisson-action", **NO_SL2}
    preserved = checks["check-action:rot:structure-preserved"]
    assert not preserved["passed"]
    assert preserved["per_generator"][0]["residual"] == "(-1*x2) d_x1^d_x2"
    assert json.loads(out.strip().splitlines()[-1])["summary"] == {
        "checks": 3, "failed": ["check-action:rot:structure-preserved"], "passed": 1,
        "skipped": ["check-action:rot:poisson-action"]}


def _raise_once(monkeypatch, owner, attr, exc):
    """Make ``owner.attr`` raise ``exc`` on its first call and run as before
    on every later one."""
    orig = functools.reduce(getattr, attr.split("."), owner)
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise exc
        return orig(*args, **kwargs)

    *path, name = attr.split(".")
    monkeypatch.setattr(functools.reduce(getattr, path, owner), name, patched)


def _golden_with_error(golden, check, message):
    """The golden report of ``golden`` with the record of ``check`` replaced by
    a failed one carrying ``message``, and the summary to match."""
    reports = [json.loads(l) for l in (GOLDEN / f"{golden}.stdout").read_text().splitlines()]
    reports = [{"check": check, "passed": False, "error": message} if r.get("check") == check
               else r for r in reports[:-1]]
    failed = [r["check"] for r in reports if not r.get("skipped") and not r.get("passed")]
    skipped = [r["check"] for r in reports if r.get("skipped")]
    summary = {"summary": {"checks": len(reports), "failed": failed, "skipped": skipped,
                           "passed": len(reports) - len(failed) - len(skipped)}}
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports + [summary])


@pytest.mark.parametrize("golden, module, attr, exc, check", [
    ("check-lie", "lie", "LieAlgebra.check_jacobi", ValueError("v"), "check-lie:sl2"),
    ("check-bialgebra", "bialgebra", "validate_bialgebra", ValueError("v"),
     "check-bialgebra:hyperbola:bialgebra"),
    ("check-poisson", "poisson", "casimir_check", ValueError("v"),
     "check-poisson:dual_space:casimir:quadratic"),
    ("check-poisson", "poisson", "jacobi_check", ZeroDivisionError("z"),
     "check-poisson:dual_space:jacobi"),
    ("stratify", "poisson", "stratify_sample", ValueError("v"), "stratify:dual_space"),
    ("check-action", "action", "tangential_check", ValueError("v"),
     "check-action:dressing:tangential"),
    ("momentum", "action", "gamma", ValueError("v"), "momentum:shifted_identity:obstruction"),
    ("momentum", "action", "psi_cocycle_check", AssertionError("a"),
     "momentum:shifted_identity:psi-cocycle"),
    ("example51-0,2,0", "action", "solve_h_certificate", ValueError("v"),
     "example51:h-certificate"),
])
def test_a_check_that_raises_is_a_failed_record(golden, module, attr, exc, check,
                                                 monkeypatch, capsys):
    _raise_once(monkeypatch, importlib.import_module(f"poissonkit.{module}"), attr, exc)
    if golden.startswith("example51"):
        argv = ["example51", "--lambda", "0,2,0", "--c", "1", "--seed", "0"]
    else:
        argv = [golden, "--bundle", str(SAMPLE)]
    code, out = run_cli(argv)
    assert code == 1
    assert out == _golden_with_error(golden, check, str(exc))
    assert capsys.readouterr().err == ""


def test_suite_computes_no_filtered_out_check(monkeypatch):
    from poissonkit import action

    calls = []
    monkeypatch.setattr(action, "check_poisson_action", lambda *args: calls.append(args))
    code, out = run_cli(["check-action", "--bundle", str(SAMPLE), "--suite", "tangential"])
    assert code == 0 and calls == [] and len(_records(out)) == 2


@pytest.mark.parametrize("argv", [
    ["check-bialgebra", "--bundle", str(SAMPLE)],
    ["example51", "--lambda", "0,2,0", "--c", "1", "--samples", "15"],
    ["flow", "--bundle", str(SAMPLE), "--steps", "200"],
    ["check-action", "--bundle", str(SAMPLE), "--samples", "5"],
    ["momentum", "--bundle", str(SAMPLE), "--samples", "5"],
])
def test_timings_are_per_check(argv, tmp_path):
    if argv[0] == "flow":
        argv = argv + ["--out", str(tmp_path / "traj.csv")]
    start = time.perf_counter()
    code, out = run_cli(argv + ["--timings"])
    total_ms = (time.perf_counter() - start) * 1000
    assert code in (0, 1)    # the sample bundle fails one bialgebra check by design
    checks = [l for l in map(json.loads, out.strip().splitlines()) if "check" in l]
    assert checks and all("wall_ms" in l for l in checks)
    assert sum(l["wall_ms"] for l in checks) <= total_ms


def test_the_parser_is_built_once_and_parses_like_a_fresh_one(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    sample = ["--bundle", str(SAMPLE)]
    argvs = [["check-lie", *sample], ["stratify", *sample, "--seed", "3"],
             ["check-lie", *sample, "--suite", "so3"], ["stratify", *sample, "--samples", "7"],
             ["check-poisson", *sample]]
    # interleaved calls with different argv, each argv twice
    once = [run_cli(argv) for argv in argvs + argvs[::-1]]
    assert len(built) == 1
    assert once[:len(argvs)] == once[len(argvs):][::-1]
    monkeypatch.setattr(cli, "_parser", build)
    assert [run_cli(argv) for argv in argvs] == once[:len(argvs)]
    monkeypatch.undo()
    # a usage error still exits 2, and the parser still works after it
    for bad in (["no-such-subcommand"], ["stratify", "--seed", "three"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        assert "usage: poissonkit" in capsys.readouterr().err
        assert run_cli(argvs[1]) == once[1]
