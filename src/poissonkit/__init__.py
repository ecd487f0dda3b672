"""poissonkit: exact-arithmetic finite-dimensional Poisson geometry.

Layers, bottom up: Gaussian-rational scalars, sparse polynomial rings with
angular (Laurent) variables, exact linear algebra, Lie algebras with
Chevalley-Eilenberg cohomology, polynomial Poisson bivectors with Schouten
calculus and rank stratification, classical r-matrices and Lie bialgebras,
and linear Poisson actions with momentum maps and their obstruction
cocycles.  A batch CLI (``poissonkit``) drives named check suites over JSON
bundles.
"""

from .scalars import GaussianRational, Q
from .poly import (
    AFFINE,
    ANGULAR,
    MultiPoly,
    RelationIdeal,
    Var,
    generators,
    sl2_relation_ideal,
)
from .lie import (
    CochainComplexSlice,
    LieAlgebra,
    LieModule,
    abelian,
    ce_differential,
    cohomology_dim,
    heisenberg3,
    representation,
    sl2,
    sl2_defining_matrices,
    so3,
)
from .multivector import PolyMultiVector, schouten
from .poisson import (
    PolyBivector,
    PolyOneForm,
    PolyVectorField,
    StratifyConfig,
    bracket_fn,
    casimir_check,
    differential,
    hamiltonian_field,
    hamiltonian_flow,
    jacobi_check,
    lie_derivative_bivector,
    lie_poisson,
    one_form_bracket,
    r_k,
    rank_at,
    stratify_sample,
)
from .bialgebra import (
    AbelianPLStructure,
    LieBialgebra,
    RMatrix,
    abelian_pl_check,
    check_log_coordinate_identity,
    delta_from_r,
    dual_algebra_from_r,
    dual_bracket_from_r,
    schouten_wedge_bracket,
    validate_bialgebra,
)
from .action import (
    GammaCochain,
    LinearPoissonAction,
    MomentumMap,
    check_action_bracket_identity,
    check_poisson_action,
    check_commutator_inclusion,
    check_structure_preserved,
    gamma,
    gamma_checks,
    identity_momentum_map,
    tangential_coefficient_predicate,
    isotropy_and_annihilator,
    momentum_check,
    momentum_kernel_image,
    psi_cocycle_check,
    sigma,
    solve_h_certificate,
    tangential_check,
    xi_f,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
