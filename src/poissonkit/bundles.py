"""Problem-bundle loading for the batch driver.

A bundle is a single JSON document naming algebras, r-matrices, bivectors,
actions and momentum maps, plus sampler configuration.  All cross-references
must resolve; sampled checks require an explicit seed (here or on the command
line).  Schema problems raise :class:`SchemaError`, which the driver maps to
exit code 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import action as action_mod
from .bialgebra import AbelianPLStructure, RMatrix
from .lie import LieAlgebra
from .poisson import PolyBivector
from .poly import MultiPoly
from .scalars import coeff_from_json


class SchemaError(Exception):
    pass


@dataclass
class ProblemBundle:
    algebras: dict = field(default_factory=dict)
    rmatrices: dict = field(default_factory=dict)       # name -> (algebra_name, RMatrix)
    bivectors: dict = field(default_factory=dict)
    abelian_structures: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)
    momentum_maps: dict = field(default_factory=dict)   # name -> (action_name, MomentumMap)
    casimirs: dict = field(default_factory=dict)        # bivector name -> {name: poly}
    sampler: dict = field(default_factory=dict)
    flow: dict | None = None

    def require_seed(self, override=None) -> int:
        if override is not None:
            return int(override)
        if "seed" in self.sampler:
            return int(self.sampler["seed"])
        raise SchemaError("sampled checks require a seed (bundle sampler.seed or --seed)")


def load_bundle(path: str) -> ProblemBundle:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read bundle: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"bundle is not valid JSON: {e}") from e
    return parse_bundle(raw)


def _object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise SchemaError(f"{what} must be a JSON object")
    return x


def _entries(raw: dict, section: str):
    """The (name, entry) pairs of one bundle section; every entry an object."""
    items = _object(raw.get(section, {}), section).items()
    for name, entry in items:
        _object(entry, f"{section} entry {name!r}")
    return items


def parse_bundle(raw: dict) -> ProblemBundle:
    _object(raw, "bundle")
    b = ProblemBundle()
    b.sampler = dict(_object(raw.get("sampler", {}), "sampler"))
    for name, entry in _entries(raw, "algebras"):
        try:
            b.algebras[name] = LieAlgebra.from_json(entry)
        except (KeyError, ValueError) as e:
            raise SchemaError(f"algebra {name!r}: {e}") from e

    for name, entry in _entries(raw, "rmatrices"):
        ref = entry.get("algebra")
        if ref not in b.algebras:
            raise SchemaError(f"r-matrix {name!r} references unknown algebra {ref!r}")
        try:
            b.rmatrices[name] = (ref, RMatrix.from_json(b.algebras[ref], entry))
        except (KeyError, ValueError) as e:
            raise SchemaError(f"r-matrix {name!r}: {e}") from e

    for name, entry in _entries(raw, "bivectors"):
        try:
            b.bivectors[name] = PolyBivector.from_json(entry)
        except (KeyError, ValueError) as e:
            raise SchemaError(f"bivector {name!r}: {e}") from e

    for name, entry in _entries(raw, "abelian_structures"):
        try:
            b.abelian_structures[name] = _parse_abelian(entry)
        except (KeyError, ValueError) as e:
            raise SchemaError(f"abelian structure {name!r}: {e}") from e

    for name, entry in _entries(raw, "actions"):
        try:
            b.actions[name] = _parse_action(b, name, entry)
        except (KeyError, ValueError) as e:
            raise SchemaError(f"action {name!r}: {e}") from e

    for name, entry in _entries(raw, "momentum_maps"):
        ref = entry.get("action")
        if ref not in b.actions:
            raise SchemaError(f"momentum map {name!r} references unknown action {ref!r}")
        act = b.actions[ref]
        try:
            comps = [MultiPoly.from_json(cj).over(act.bivector.vars)
                     for cj in entry.get("components", [])]
        except (KeyError, ValueError) as e:
            raise SchemaError(f"momentum map {name!r}: {e}") from e
        if len(comps) != act.algebra.dim:
            raise SchemaError(
                f"momentum map {name!r}: need {act.algebra.dim} components"
            )
        b.momentum_maps[name] = (ref, action_mod.MomentumMap(act.algebra, comps))

    for bname, entries in _entries(raw, "casimirs"):
        if bname not in b.bivectors:
            raise SchemaError(f"casimirs reference unknown bivector {bname!r}")
        piv = b.bivectors[bname]
        try:
            b.casimirs[bname] = {
                k: MultiPoly.from_json(v).over(piv.vars) for k, v in entries.items()
            }
        except (KeyError, ValueError) as e:
            raise SchemaError(f"casimirs of {bname!r}: {e}") from e

    if "flow" in raw:
        entry = _object(raw["flow"], "flow")
        ref = entry.get("bivector")
        if ref not in b.bivectors:
            raise SchemaError(f"flow references unknown bivector {ref!r}")
        b.flow = dict(entry)
    return b


def _parse_abelian(entry: dict) -> AbelianPLStructure:
    if "example" in entry:
        kind = entry["example"]
        coeffs = [coeff_from_json(x) for x in entry.get("coefficients", [1, 1, 1])]
        if kind == "torus2_line":
            return AbelianPLStructure.torus2_line_example(*coeffs)
        if kind == "torus2_line_linear":
            return AbelianPLStructure.torus2_line_linear(*coeffs)
        raise SchemaError(f"unknown abelian example {kind!r}")
    m = int(entry["m"])
    n = int(entry["n"])
    constants = {}
    for entry in entry.get("constants", []):
        constants[(int(entry["i"]), int(entry["j"]), int(entry["k"]))] = coeff_from_json(
            entry["c"]
        )
    return AbelianPLStructure.from_constants(m, n, constants)


def _parse_action(b: ProblemBundle, name: str, entry: dict):
    ref = entry.get("algebra")
    if ref not in b.algebras:
        raise SchemaError(f"action {name!r} references unknown algebra {ref!r}")
    L = b.algebras[ref]
    bref = entry.get("bivector")
    if bref not in b.bivectors:
        raise SchemaError(f"action {name!r} references unknown bivector {bref!r}")
    pi = b.bivectors[bref]
    kind = entry.get("kind", "natural")
    membership = action_mod.sl2_membership if entry.get("membership") == "det1" else None
    rmat = None
    if "rmatrix" in entry:
        rref = entry["rmatrix"]
        if rref not in b.rmatrices:
            raise SchemaError(f"action {name!r} references unknown r-matrix {rref!r}")
        rmat = b.rmatrices[rref][1]
    if kind == "coadjoint-dressing":
        if "defining" not in entry:
            raise SchemaError(f"action {name!r}: coadjoint-dressing needs defining matrices")
        defining = [[[coeff_from_json(x) for x in row] for row in m] for m in entry["defining"]]
        act = action_mod.coadjoint_dressing_bundle(L, defining)
        act.rmatrix = rmat
        return act
    if "representation" not in entry:
        raise SchemaError(f"action {name!r}: natural actions need representation matrices")
    rep = [[[coeff_from_json(x) for x in row] for row in m] for m in entry["representation"]]
    if len(rep) != L.dim:
        raise SchemaError(f"action {name!r}: need one matrix per basis element")
    defining = rep
    if "defining" in entry:
        defining = [[[coeff_from_json(x) for x in row] for row in m] for m in entry["defining"]]
    return action_mod.LinearPoissonAction(
        algebra=L,
        rep_mats=rep,
        bivector=pi,
        rmatrix=rmat,
        defining_mats=defining,
        membership=membership,
    )
