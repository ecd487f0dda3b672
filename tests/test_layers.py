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
    "action": ["LinearPoissonAction", "MomentumMap", "check_action_bracket_identity",
               "check_commutator_inclusion", "check_poisson_action", "check_structure_preserved",
               "gamma", "gamma_checks", "identity_momentum_map", "isotropy_and_annihilator",
               "momentum_check", "momentum_kernel_image", "psi_cocycle_check", "sigma",
               "solve_h_certificate", "tangential_check", "tangential_coefficient_predicate",
               "xi_f"],
}
ALL = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])

# prints the package's submodules that the code before it loaded
LOADED = ("import json, sys; print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules "
          "if m.startswith('poissonkit.'))))")


def in_fresh_interpreter(code: str):
    """The JSON value of the last line that ``code`` prints in a fresh interpreter."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> list:
    """The ``poissonkit`` submodules a fresh interpreter has loaded after ``code``."""
    return in_fresh_interpreter(f"{code}\n{LOADED}")


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


def test_no_layer_and_no_check_loads_dataclasses_or_inspect():
    # pytest imports inspect itself, so only a fresh interpreter can tell
    code = (f"import contextlib, io, json, sys\n"
            f"import {', '.join(f'poissonkit.{name}' for name in BUILDS_ON)}\n"
            f"from poissonkit import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['check-action', '--bundle', {str(SAMPLE)!r}])\n"
            f"print(json.dumps([code, sorted({{'dataclasses', 'inspect'}} & set(sys.modules))]))")
    assert in_fresh_interpreter(code) == [1, []]     # check-action's golden exit code


# -- the public names --------------------------------------------------------------


def test_all_is_the_pinned_list_of_74_names():
    assert len(ALL) == 74
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


def imported_modules(source: str) -> set:
    """The top-level names of every module that ``source`` imports, anywhere."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_dataclasses():
    found = {p.stem for p in PACKAGE.glob("*.py") if "dataclasses" in imported_modules(p.read_text())}
    assert found == set()


def test_the_dataclasses_lint_sees_every_import():
    source = (
        "from . import dataclasses\n"
        "import json, dataclasses as dc\n"
        "def f():\n"
        "    from dataclasses import dataclass\n"
        "    import inspect.x\n"
    )
    assert imported_modules(source) == {"json", "dataclasses", "inspect"}


# -- state built once per object is a cached_property --------------------------------


def hand_rolled_caches(source: str) -> list:
    """The lines of ``source`` that compare a private ``self._x`` with None or
    read ``self.__dict__``: the marks of a cache kept by hand."""
    def is_self(node):
        return isinstance(node, ast.Name) and node.id == "self"

    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(x, ast.Constant) and x.value is None for x in operands)
                    and any(isinstance(x, ast.Attribute) and is_self(x.value)
                            and x.attr.startswith("_") for x in operands)):
                out.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__" and is_self(node.value):
            out.append(node.lineno)
    return sorted(out)


def test_no_module_keeps_a_cache_by_hand():
    found = {p.stem: hand_rolled_caches(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_cache_lint_sees_private_none_tests_and_dict_reads():
    source = (
        "def f(self, other):\n"
        "    if self._x is None:\n"
        "        pass\n"
        "    if None is not self._y:\n"
        "        pass\n"
        "    built = self.__dict__.get('_z')\n"
        "    return (self.x is None, other._x is None, self._x == 0, other.__dict__,\n"
        "            self._w == None)\n"
    )
    assert hand_rolled_caches(source) == [2, 4, 6, 8]


# -- the scalar matrix helpers are test and demo surface ----------------------------

# public in ``linalg`` for the test oracles and the demos; the package itself
# multiplies and compares on integer matrices
SCALAR_MATRIX_HELPERS = {"mat_mul", "is_zero_mat"}


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
        "from .linalg import is_zero_mat\n"
        "x = linalg.mat_mul(a, b)\n"
        "f = linalg.is_zero_mat\n"
        "def is_zero_mat(a):\n"
        "    return g()(a)\n"
    )
    assert called_names(source) & SCALAR_MATRIX_HELPERS == {"mat_mul"}
    assert called_names("y = is_zero_mat(m)\n") & SCALAR_MATRIX_HELPERS == {"is_zero_mat"}


# -- every public name of the package is reached -----------------------------------

DEMOS = ROOT / "demos"
# public module-level names that stay although no other module or demo names
# them and the package does not export them: (module, name) -> why
REACH_ALLOWLIST = {}


def unreached_names(modules: dict, others: dict, exported=()) -> set:
    """``(module, name)`` for each public module-level function or class of
    ``modules`` (module -> source) that no other top-level statement of
    ``modules`` or of ``others`` (file -> source) names, as a ``Name``, an
    ``Attribute`` or an import alias, and that is not in ``exported``."""
    defined, named = {}, []
    for module, source in {**modules, **others}.items():
        for i, node in enumerate(ast.parse(source).body):
            if (module in modules and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[(module, node.name)] = (module, i)
            names = {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                     else n.name.rpartition(".")[2]
                     for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            named.append(((module, i), names))
    return {key for key, at in defined.items() if key not in exported
            and not any(key[1] in names for where, names in named if where != at)}


def test_every_public_name_is_named_elsewhere_exported_or_allowed():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    demos = {p.name: p.read_text() for p in DEMOS.glob("*.py")}
    exported = {(module, name) for module, names in poissonkit._EXPORTS.items()
                for name in names}
    assert unreached_names(modules, demos, exported) == set(REACH_ALLOWLIST)


def test_the_reach_lint_sees_names_attributes_and_aliases_elsewhere():
    modules = {
        "a": ("def by_name(): pass\n"
              "def by_attribute(): pass\n"
              "def imported(): pass\n"
              "def exported(): pass\n"
              "def _private(): pass\n"
              "def recursive():\n"
              "    return recursive()\n"
              "class AClass:\n"
              "    def method(self): pass\n"
              "def in_a_docstring(): pass\n"
              "def in_a_demo(): pass\n"
              "alias = by_name\n"),
        "b": ("from .a import imported\n"
              "def f(m):\n"
              "    'in_a_docstring'\n"
              "    return m.by_attribute, AClass.method\n"),
    }
    demo = {"demo.py": "from poissonkit.a import in_a_demo\n"}
    assert unreached_names(modules, demo, {("a", "exported")}) == {
        ("a", "recursive"), ("a", "in_a_docstring"), ("b", "f")}


# -- a check returns the JSON payload it reports ------------------------------------

# the one report class left in the package: the benchmark reads check_jacobi().ok
KEPT_REPORTS = {("lie", "JacobiReport")}


def report_classes(source: str) -> set:
    """The classes that ``source`` defines whose name ends in ``Report``."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name.endswith("Report")}


def to_json_receivers(source: str) -> list:
    """For each call ``x.to_json()`` in ``source``, the name that ``x`` calls
    when ``x`` is a call ``f(...)`` or ``y.f(...)``, else None."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "to_json"):
            x = node.func.value
            f = x.func if isinstance(x, ast.Call) else None
            out.append(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return out


def test_no_report_class_but_jacobi_report():
    found = {(p.stem, name) for p in PACKAGE.glob("*.py") for name in report_classes(p.read_text())}
    assert found == KEPT_REPORTS


def test_the_cli_serializes_no_check_result_but_check_jacobi():
    assert set(to_json_receivers((PACKAGE / "cli.py").read_text())) == {"check_jacobi"}


def test_the_report_lints_see_classes_and_to_json_calls():
    source = (
        "class AReport:\n"
        "    class InnerReport: pass\n"
        "class Reporter: pass\n"
        "def f():\n"
        "    class LocalReport: pass\n"
        "    return L.check_jacobi().to_json(), jacobi_check(pi).to_json(), rep.to_json()\n"
    )
    assert report_classes(source) == {"AReport", "InnerReport", "LocalReport"}
    assert set(to_json_receivers(source)) == {"check_jacobi", "jacobi_check", None}
