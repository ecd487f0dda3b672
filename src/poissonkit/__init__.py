"""poissonkit: exact-arithmetic finite-dimensional Poisson geometry.

Layers, bottom up: Gaussian-rational scalars, sparse polynomial rings with
angular (Laurent) variables, exact linear algebra, Lie algebras with
Chevalley-Eilenberg cohomology, polynomial Poisson bivectors with Schouten
calculus and rank stratification, classical r-matrices and Lie bialgebras,
and linear Poisson actions with momentum maps and their obstruction
cocycles.  A batch CLI (``poissonkit``) drives named check suites over JSON
bundles.

Importing the package loads no layer.  Each public name below, and each
layer's submodule, is imported on first use (PEP 562), so a process pays
only for the layers it touches: ``import poissonkit.lie`` compiles
``scalars``, ``linalg`` and ``lie`` alone.
"""

from importlib import import_module as _import_module

# each layer with the names the package re-exports from it
_EXPORTS = {
    "scalars": ("GaussianRational", "Q"),
    "poly": (
        "AFFINE", "ANGULAR", "MultiPoly", "RelationIdeal", "Var", "generators",
        "sl2_relation_ideal",
    ),
    "linalg": (),
    "lie": (
        "CochainComplexSlice", "LieAlgebra", "LieModule", "abelian", "ce_differential",
        "cohomology_dim", "heisenberg3", "representation", "sl2", "sl2_defining_matrices",
        "so3",
    ),
    "multivector": ("PolyMultiVector", "schouten"),
    "poisson": (
        "PolyBivector", "PolyOneForm", "PolyVectorField", "StratifyConfig", "bracket_fn",
        "casimir_check", "differential", "hamiltonian_field", "hamiltonian_flow",
        "jacobi_check", "lie_derivative_bivector", "lie_poisson", "one_form_bracket", "r_k",
        "rank_at", "stratify_sample",
    ),
    "bialgebra": (
        "AbelianPLStructure", "LieBialgebra", "RMatrix", "abelian_pl_check",
        "check_log_coordinate_identity", "delta_from_r", "dual_algebra_from_r",
        "dual_bracket_from_r", "schouten_wedge_bracket", "validate_bialgebra",
    ),
    "action": (
        "LinearPoissonAction", "MomentumMap", "check_action_bracket_identity",
        "check_poisson_action", "check_commutator_inclusion", "check_structure_preserved",
        "gamma", "gamma_checks", "identity_momentum_map", "tangential_coefficient_predicate",
        "isotropy_and_annihilator", "momentum_check", "momentum_kernel_image",
        "psi_cocycle_check", "sigma", "solve_h_certificate", "tangential_check", "xi_f",
    ),
}
# public name -> the submodule that defines it; a layer's name -> that layer
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))
