import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from poissonkit.bundles import SchemaError, parse_bundle
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

SAMPLE = Path(__file__).resolve().parent.parent / "demos" / "bundles" / "sample.json"

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
    proc = subprocess.run(
        [sys.executable, "-m", "poissonkit.cli", "example51", "--lambda", "0,2,0",
         "--c", "1", "--samples", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1].startswith('{"summary"')


def _assert_schema_error(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check-action", "--samples", "-3"],
    ["momentum", "--samples", "-3"],
    ["check-action", "--samples", "0"],
    ["stratify", "--samples", "-3"],
    ["flow", "--steps", "0"],
    ["example51", "--lambda", "1,2"],
    ["example51", "--lambda", "0,2,0", "--c", "abc"],
])
def test_invalid_arguments_exit_2(argv, capsys):
    if argv[0] != "example51":
        argv = argv + ["--bundle", str(SAMPLE)]
    _assert_schema_error(argv, capsys)


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


@pytest.mark.parametrize("subcommand, edit", [
    ("check-bialgebra", _float_rmatrix_entry),
    ("momentum", _unknown_variable_kind),
    ("check-lie", _bracket_index_past_dim),
    ("check-poisson", _bivector_index_past_dim),
    ("stratify", _bivector_index_past_dim),
    ("check-lie", _top_level_list),
    ("check-lie", _algebra_entry_list),
    ("check-action", _action_matrices_padded_to_3x3),
])
def test_bundle_schema_errors_exit_2(subcommand, edit, tmp_path, capsys):
    raw = json.loads(SAMPLE.read_text())
    edited = edit(raw)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(raw if edited is None else edited))
    _assert_schema_error([subcommand, "--bundle", str(path)], capsys)


def test_check_action_on_a_3x3_group_checks_the_unit(tmp_path):
    # no exact sampler for 3x3 groups: the Poisson-action check runs at the
    # identity matrix only, which must reach the coadjoint lift as exact scalars
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
    checks = {l["check"]: l for l in map(json.loads, out.strip().splitlines()) if "check" in l}
    unit = checks["check-action:dress:poisson-action"]
    assert unit["samples"] == 1
    assert unit["mode"] == "degraded" and "identity" in unit["reason"]


@pytest.mark.parametrize("argv", [
    ["check-bialgebra", "--bundle", str(SAMPLE)],
    ["example51", "--lambda", "0,2,0", "--c", "1", "--samples", "15"],
    ["flow", "--bundle", str(SAMPLE), "--steps", "200"],
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
