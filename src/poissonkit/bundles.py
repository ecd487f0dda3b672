"""Problem-bundle loading for the batch driver.

A bundle is a single JSON document naming algebras, r-matrices, bivectors,
actions and momentum maps, plus sampler configuration.  All cross-references
must resolve; sampled checks require an explicit seed (here or on the command
line).  Schema problems raise :class:`SchemaError`, which the driver maps to
exit code 2.
"""

from __future__ import annotations

import json
import math

from .scalars import coeff_from_json, json_int


class SchemaError(Exception):
    pass


# the largest size a bundle or a CLI option may ask for, each well above every
# golden, demo and benchmark input (sample counts 8-100, 10^4 flow steps); an
# input past one is a schema error, where running it would exhaust memory or
# time.  At the bounds the sample bundle's flow takes about 4 s and 100 MB,
# and each of its sampled suites under 2 s, on a 2-core virtual machine.
SIZE_BOUNDS = {"steps": 10 ** 6, "count": 10 ** 4, "scale": 10 ** 6, "denom_power": 64}


def bounded(key: str, value: int, what: str) -> int:
    """``value``, or a :class:`SchemaError` naming the bound of ``key`` that
    it exceeds; ``what`` names the value in the message."""
    if value > SIZE_BOUNDS[key]:
        raise SchemaError(f"{what} must be <= {SIZE_BOUNDS[key]}, got {value}")
    return value


# what a malformed entry raises while it is parsed: a missing key, a bad value,
# a value of the wrong JSON type, a list of the wrong length or a number too
# large for a float
_MALFORMED = (KeyError, ValueError, TypeError, IndexError, OverflowError)


class ProblemBundle:
    def __init__(self, algebras: dict | None = None, rmatrices: dict | None = None,
                 bivectors: dict | None = None, abelian_structures: dict | None = None,
                 actions: dict | None = None, momentum_maps: dict | None = None,
                 casimirs: dict | None = None, sampler: dict | None = None,
                 flow: dict | None = None):
        self.algebras = {} if algebras is None else algebras
        self.rmatrices = {} if rmatrices is None else rmatrices  # name -> (algebra_name, RMatrix)
        self.bivectors = {} if bivectors is None else bivectors
        self.abelian_structures = {} if abelian_structures is None else abelian_structures
        self.actions = {} if actions is None else actions
        # name -> (action_name, MomentumMap)
        self.momentum_maps = {} if momentum_maps is None else momentum_maps
        self.casimirs = {} if casimirs is None else casimirs  # bivector name -> {name: poly}
        self.sampler = {} if sampler is None else sampler  # seed, count, scale, denom_power -> int
        self.flow = flow  # parsed values, keyed as in JSON

    def require_seed(self, override=None) -> int:
        if override is not None:
            return int(override)
        if "seed" in self.sampler:
            return self.sampler["seed"]
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


def _ref(table: dict, ref, who: str, kind: str):
    """The entry ``ref`` of an earlier section, which ``who`` references."""
    if ref not in table:
        raise SchemaError(f"{who} references unknown {kind} {ref!r}")
    return table[ref]


def _section(raw: dict, section: str, what: str, parse) -> dict:
    """``{name: parse(name, entry)}`` over one bundle section; every entry an
    object, and a malformed entry a :class:`SchemaError` naming it."""
    out = {}
    for name, entry in _object(raw.get(section, {}), section).items():
        try:
            out[name] = parse(name, _object(entry, f"{section} entry {name!r}"))
        except _MALFORMED as e:
            raise SchemaError(f"{what} {name!r}: {e}") from e
    return out


def parse_bundle(raw: dict) -> ProblemBundle:
    _object(raw, "bundle")
    b = ProblemBundle()
    sampler = _object(raw.get("sampler", {}), "sampler")
    try:
        b.sampler = {k: json_int(sampler[k]) for k in ("seed", "count", "scale", "denom_power")
                     if k in sampler}
    except _MALFORMED as e:
        raise SchemaError(f"sampler: {e}") from e
    if any(b.sampler.get(k, 0) < 0 for k in ("scale", "denom_power")):
        raise SchemaError("sampler: scale and denom_power must be >= 0")
    for k in ("count", "scale", "denom_power"):
        if k in b.sampler:
            bounded(k, b.sampler[k], f"sampler {k}")

    # every layer above the scalars is imported by the first entry that needs
    # it, so a bundle without such sections loads none of them
    def algebra(_, entry):
        from .lie import LieAlgebra

        return LieAlgebra.from_json(entry)

    b.algebras = _section(raw, "algebras", "algebra", algebra)

    def rmatrix(name, entry):
        from .bialgebra import RMatrix

        L = _ref(b.algebras, entry.get("algebra"), f"r-matrix {name!r}", "algebra")
        return entry["algebra"], RMatrix.from_json(L, entry)

    b.rmatrices = _section(raw, "rmatrices", "r-matrix", rmatrix)

    def bivector(_, entry):
        from .poisson import PolyBivector

        return PolyBivector.from_json(entry)

    b.bivectors = _section(raw, "bivectors", "bivector", bivector)
    b.abelian_structures = _section(raw, "abelian_structures", "abelian structure",
                                    lambda _, e: _parse_abelian(e))
    b.actions = _section(raw, "actions", "action", lambda n, e: _parse_action(b, n, e))

    def momentum_map(name, entry):
        from .action import MomentumMap
        from .poly import MultiPoly

        act = _ref(b.actions, entry.get("action"), f"momentum map {name!r}", "action")
        comps = [MultiPoly.from_json(cj).over(act.bivector.vars)
                 for cj in entry.get("components", [])]
        if len(comps) != act.algebra.dim:
            raise SchemaError(f"momentum map {name!r}: need {act.algebra.dim} components")
        return entry["action"], MomentumMap(act.algebra, comps)

    b.momentum_maps = _section(raw, "momentum_maps", "momentum map", momentum_map)

    def casimirs(bname, entries):
        from .poly import MultiPoly

        vs = _ref(b.bivectors, bname, "casimirs", "bivector").vars
        return {k: MultiPoly.from_json(v).over(vs) for k, v in entries.items()}

    b.casimirs = _section(raw, "casimirs", "casimirs of", casimirs)
    if "flow" in raw:
        try:
            b.flow = _parse_flow(b, _object(raw["flow"], "flow"))
        except _MALFORMED as e:
            raise SchemaError(f"flow: {e}") from e
    return b


def _parse_flow(b: ProblemBundle, entry: dict) -> dict:
    """The Hamiltonian and Casimirs on the bivector's chart, the start point
    ``x0`` as exact rationals of the chart's length (converted to floats) and
    the integrator settings.  Each Casimir's name heads a column of the
    flow's CSV, written unquoted."""
    from .poly import AFFINE, MultiPoly

    pi = _ref(b.bivectors, entry.get("bivector"), "flow", "bivector")
    vs = pi.vars
    if any(v.kind != AFFINE for v in vs):
        raise ValueError("flow integration needs a bivector on affine variables")
    x0 = [coeff_from_json(v) for v in entry["x0"]]
    if len(x0) != len(vs) or any(c.im for c in x0):
        raise ValueError(f"x0 must be {len(vs)} real coordinates")
    h = MultiPoly.from_json(entry["hamiltonian"]).over(vs)
    casimirs = {k: MultiPoly.from_json(v).over(vs)
                for k, v in _object(entry.get("casimirs", {}), "flow casimirs").items()}
    for k in casimirs:
        if any(ch in k for ch in ',"\r\n'):
            raise ValueError(f"casimir {k!r} names a CSV column, so it cannot hold a comma, "
                             "a double quote or a line break")
    if any(c.im for p in (h, *casimirs.values(), *pi.comps.values()) for c in p.terms.values()):
        raise ValueError("flow integration needs real coefficients")
    return {
        "bivector": entry["bivector"],
        "hamiltonian": h,
        "casimirs": casimirs,
        "x0": [float(c.re) for c in x0],
        "dt": _finite(entry, "dt", 1e-3),
        "steps": bounded("steps", json_int(entry.get("steps", 1000)), "flow steps"),
        "divergence_bound": _finite(entry, "divergence_bound", 1e9),
        "drift_tolerance": _finite(entry, "drift_tolerance", 1e-8),
    }


def _finite(entry: dict, key: str, default: float) -> float:
    """A float setting; NaN and infinity (which Python's ``json`` reads) raise
    ``ValueError``, and a number too large for a float ``OverflowError``."""
    x = float(entry.get(key, default))
    if not math.isfinite(x):
        raise ValueError(f"{key} must be a finite number, got {x}")
    return x


def _parse_abelian(entry: dict):
    from .bialgebra import AbelianPLStructure

    if "example" in entry:
        kind = entry["example"]
        coeffs = [coeff_from_json(x) for x in entry.get("coefficients", [1, 1, 1])]
        if kind == "torus2_line":
            return AbelianPLStructure.torus2_line_example(*coeffs)
        if kind == "torus2_line_linear":
            return AbelianPLStructure.torus2_line_linear(*coeffs)
        raise SchemaError(f"unknown abelian example {kind!r}")
    constants = {tuple(json_int(c[key]) for key in "ijk"): coeff_from_json(c["c"])
                 for c in entry.get("constants", [])}
    return AbelianPLStructure.from_constants(json_int(entry["m"]), json_int(entry["n"]), constants)


def _matrices(raw) -> list:
    return [[[coeff_from_json(x) for x in row] for row in m] for m in raw]


def _parse_action(b: ProblemBundle, name: str, entry: dict):
    from . import action as action_mod

    who = f"action {name!r}"
    L = _ref(b.algebras, entry.get("algebra"), who, "algebra")
    pi = _ref(b.bivectors, entry.get("bivector"), who, "bivector")
    rmat = None
    if "rmatrix" in entry:
        rmat = _ref(b.rmatrices, entry["rmatrix"], who, "r-matrix")[1]
    if entry.get("kind", "natural") == "coadjoint-dressing":
        if "defining" not in entry:
            raise SchemaError(f"{who}: coadjoint-dressing needs defining matrices")
        act = action_mod.coadjoint_dressing_bundle(L, _matrices(entry["defining"]), rmatrix=rmat)
        if pi.vars != act.bivector.vars or pi != act.bivector:
            raise SchemaError(
                f"{who}: bivector {entry['bivector']!r} is not the Lie-Poisson bivector of "
                f"{entry['algebra']!r} on {', '.join(v.name for v in act.bivector.vars)}"
            )
        return act
    if "representation" not in entry:
        raise SchemaError(f"{who}: natural actions need representation matrices")
    return action_mod.LinearPoissonAction(
        algebra=L,
        rep_mats=_matrices(entry["representation"]),
        bivector=pi,
        rmatrix=rmat,
        defining_mats=_matrices(entry["defining"]) if "defining" in entry else None,
    )
