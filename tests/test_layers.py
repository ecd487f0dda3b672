"""The package's import graph: each process loads only the layers it calls.

``import poissonkit`` loads no layer; a public name or layer of the package
is imported on first use.  No module imports a layer above it at module
level, so this stays true as the code grows; a function may import upward.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poissonkit
from poissonkit import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "poissonkit"
SAMPLE = ROOT / "demos" / "bundles" / "sample.json"

# the stack, scalars -> poly / linalg -> lie / multivector -> poisson -> bialgebra
# -> action -> bundles -> cli, as the layers each module builds on directly;
# poisson does not build on lie, bundles imports poly, poisson, lie, bialgebra
# and action and cli poisson, lie, bialgebra and action only inside the
# functions that use them
BUILDS_ON = {
    "scalars": (),
    "poly": ("scalars",),
    "linalg": ("scalars",),
    "lie": ("linalg",),
    "multivector": ("linalg", "poly"),
    "poisson": ("multivector",),
    "bialgebra": ("lie", "poisson"),
    "action": ("bialgebra",),
    "bundles": ("poisson",),
    "cli": ("bundles",),
}


def below(name: str) -> set:
    """Every layer under ``name``: what it may import at module level."""
    out = set()
    for lower in BUILDS_ON[name]:
        out |= {lower} | below(lower)
    return out


# the package's public names, by the layer that defines them
EXPORTS = {
    "scalars": ["GaussianRational", "Q"],
    "poly": ["AFFINE", "ANGULAR", "MultiPoly", "RelationIdeal", "Var", "generators",
             "sl2_relation_ideal"],
    "linalg": [],
    "lie": ["CochainComplexSlice", "LieAlgebra", "LieModule", "abelian", "ce_differential",
            "cohomology_dim", "heisenberg3", "representation", "sl2", "sl2_defining_matrices",
            "so3"],
    "multivector": ["PolyMultiVector", "schouten"],
    "poisson": ["PolyBivector", "PolyOneForm", "PolyVectorField", "StratifyConfig",
                "bracket_fn", "casimir_check", "differential", "hamiltonian_field",
                "hamiltonian_flow", "jacobi_check", "lie_derivative_bivector", "lie_poisson",
                "one_form_bracket", "r_k", "rank_at", "stratify_sample"],
    "bialgebra": ["AbelianPLStructure", "LieBialgebra", "RMatrix", "abelian_pl_check",
                  "check_log_coordinate_identity", "delta_from_r", "dual_algebra_from_r",
                  "dual_bracket_from_r", "schouten_wedge_bracket", "validate_bialgebra"],
    "action": ["GammaCochain", "LinearPoissonAction", "MomentumMap",
               "check_action_bracket_identity", "check_commutator_inclusion",
               "check_poisson_action", "check_structure_preserved", "gamma", "gamma_checks",
               "identity_momentum_map", "isotropy_and_annihilator", "momentum_check",
               "momentum_kernel_image", "psi_cocycle_check", "sigma", "solve_h_certificate",
               "tangential_check", "tangential_coefficient_predicate", "xi_f"],
}
ALL = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])

# prints the package's submodules that the code before it loaded
LOADED = ("import json, sys; print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules "
          "if m.startswith('poissonkit.'))))")


def loaded_after(code: str) -> list:
    """The ``poissonkit`` submodules a fresh interpreter has loaded after ``code``."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{LOADED}"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def bivector_bundle() -> dict:
    """The sample bundle's bivectors, sampler and flow, with no other section."""
    raw = json.loads(SAMPLE.read_text())
    flow = dict(raw["flow"], steps=20)
    return {"sampler": raw["sampler"], "bivectors": raw["bivectors"], "flow": flow}


# -- what a process loads ----------------------------------------------------------


def test_import_poissonkit_loads_no_layer():
    assert loaded_after("import poissonkit") == []


@pytest.mark.parametrize("code", [
    "import poissonkit.lie",
    "import poissonkit; poissonkit.LieAlgebra",
    "from poissonkit import lie",
])
def test_the_lie_layer_loads_only_the_layers_below_it(code):
    assert loaded_after(code) == ["lie", "linalg", "scalars"]


@pytest.mark.parametrize("subcommand", ["check-poisson", "stratify", "flow"])
def test_a_bivector_only_bundle_loads_no_lie_bialgebra_or_action_layer(subcommand, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bivector_bundle()))
    code = (f"import contextlib, io; from poissonkit import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main([{subcommand!r}, '--bundle', {str(path)!r}]) == 0")
    loaded = loaded_after(code)
    assert "poisson" in loaded
    assert not {"action", "bialgebra", "lie"} & set(loaded)


def test_check_lie_on_algebras_alone_loads_no_poly_or_poisson_layer(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"algebras": json.loads(SAMPLE.read_text())["algebras"]}))
    code = (f"import contextlib, io; from poissonkit import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['check-lie', '--bundle', {str(path)!r}]) == 0")
    assert loaded_after(code) == ["bundles", "cli", "lie", "linalg", "scalars"]


# -- the public names --------------------------------------------------------------


def test_all_is_the_pinned_list_of_75_names():
    assert len(ALL) == 75
    assert poissonkit.__all__ == ALL
    assert set(ALL) <= set(dir(poissonkit))


def test_each_public_name_is_the_object_of_its_layer():
    for layer, names in EXPORTS.items():
        module = importlib.import_module(f"poissonkit.{layer}")
        assert getattr(poissonkit, layer) is module
        for name in names:
            assert getattr(poissonkit, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from poissonkit import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == ALL


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        poissonkit.no_such_name
    assert not hasattr(poissonkit, "jacobiator")


# -- deferred imports keep every schema check --------------------------------------


@pytest.mark.parametrize("action, message", [
    ({"algebra": "sl2", "bivector": "plane", "representation": [[["one"]]]},
     "action 'broken': "),
    ({"algebra": "sl2", "bivector": "plane"},
     "action 'broken': natural actions need representation matrices"),
    ({"algebra": "nope", "bivector": "plane", "representation": []},
     "action 'broken' references unknown algebra 'nope'"),
    (7, "actions entry 'broken' must be a JSON object"),
], ids=["malformed", "incomplete", "unknown-algebra", "not-an-object"])
@pytest.mark.parametrize("subcommand", ["check-poisson", "stratify", "flow"])
def test_a_bad_action_still_exits_2_where_no_action_is_run(subcommand, action, message,
                                                           tmp_path, capsys):
    raw = bivector_bundle()
    raw["algebras"] = {"sl2": json.loads(SAMPLE.read_text())["algebras"]["sl2"]}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(raw))
    assert cli.main([subcommand, "--bundle", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    raw["actions"] = {"broken": action}
    path.write_text(json.dumps(raw))
    assert cli.main([subcommand, "--bundle", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"schema error: {message}")


# -- the layering lint -------------------------------------------------------------


def module_level_imports(source: str) -> set:
    """The package modules that ``source`` imports outside any function."""
    out = set()
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "poissonkit":
                    continue
                module = module.partition(".")[2]
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("poissonkit."))
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == {*BUILDS_ON, "__init__"}


def test_no_module_imports_a_layer_above_it_at_module_level():
    assert module_level_imports((PACKAGE / "__init__.py").read_text()) == set()
    upward = {}
    for name in BUILDS_ON:
        bad = module_level_imports((PACKAGE / f"{name}.py").read_text()) - below(name)
        if bad:
            upward[name] = sorted(bad)
    assert upward == {}


def test_the_lint_sees_module_level_imports_only():
    source = (
        "from . import linalg\n"
        "from .lie import LieAlgebra\n"
        "import poissonkit.poly\n"
        "from poissonkit.multivector import schouten\n"
        "import json\n"
        "if True:\n"
        "    from .scalars import Q\n"
        "class C:\n"
        "    from . import bialgebra\n"
        "def f():\n"
        "    from . import action\n"
    )
    assert module_level_imports(source) == {"linalg", "lie", "poly", "multivector",
                                             "scalars", "bialgebra"}


# -- the scalar matrix helpers are test and demo surface ----------------------------

# public in ``linalg`` for the test oracles and the demos; the package itself
# multiplies, adds, compares and inverts on integer matrices
SCALAR_MATRIX_HELPERS = {"mat_add", "mat_sub", "mat_eq", "mat_mul", "is_zero_mat", "inverse"}


def called_names(source: str) -> set:
    """The names that ``source`` calls, as ``f(...)`` or ``x.f(...)``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            out.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return out


def test_no_module_calls_a_scalar_matrix_helper():
    calls = {p.stem: sorted(called_names(p.read_text()) & SCALAR_MATRIX_HELPERS)
             for p in PACKAGE.glob("*.py")}
    assert {name: found for name, found in calls.items() if found} == {}


def test_the_helper_lint_sees_calls_only():
    source = (
        "from .linalg import inverse\n"
        "x = linalg.mat_mul(a, b)\n"
        "y = inverse(m)\n"
        "f = linalg.mat_eq\n"
        "def mat_add(a, b):\n"
        "    return g()(a)\n"
    )
    assert called_names(source) & SCALAR_MATRIX_HELPERS == {"mat_mul", "inverse"}
