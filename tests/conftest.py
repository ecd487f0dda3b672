import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from poissonkit import lie, linalg
from poissonkit.poly import MultiPoly
from poissonkit.poisson import PolyBivector, lie_poisson

# one profile: every run draws the same examples and keeps no example
# database, so two runs of one tree give one verdict; per-test settings
# change only the number of examples.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def sl2():
    return lie.sl2()


@pytest.fixture
def sl2_lp(sl2):
    return lie_poisson(sl2)


@pytest.fixture
def plane():
    """Constant symplectic bivector on the (x, y) plane."""
    return PolyBivector(("x", "y"), {(0, 1): MultiPoly.constant(("x", "y"), 1)})


def rand_poly(rng, variables, gens, max_terms=4, max_deg=2, coeff_bound=4):
    acc = MultiPoly.zero(variables)
    for _ in range(rng.randint(1, max_terms)):
        t = MultiPoly.constant(variables, Fraction(rng.randint(-coeff_bound, coeff_bound),
                                                   rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_deg)):
            t = t * gens[rng.randint(0, len(gens) - 1)]
        acc = acc + t
    return acc


def rand_point(rng, n, scale=6, denom_power=2):
    return [Fraction(rng.randint(-scale, scale), 2 ** rng.randint(0, denom_power))
            for _ in range(n)]


@pytest.fixture
def rng():
    return random.Random(20240817)


# -- algebras beyond the stock ones --------------------------------------------


def filiform4():
    """Nilpotent 4-dimensional algebra: [e1,e2]=e3, [e1,e3]=e4."""
    return lie.LieAlgebra(4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]})


SL2_BRACKETS = {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, 1, 0]}


def direct_sum(*parts):
    """Direct sum of algebras given as (dim, brackets) pairs."""
    n = sum(d for d, _ in parts)
    brackets, shift = {}, 0
    for d, br in parts:
        for (i, j), vec in br.items():
            brackets[(i + shift, j + shift)] = [0] * shift + vec + [0] * (n - shift - d)
        shift += d
    return lie.LieAlgebra(n, brackets)


def gl2():
    return direct_sum((3, SL2_BRACKETS), (1, {}))


def sl2_sl2():
    return direct_sum((3, SL2_BRACKETS), (3, SL2_BRACKETS))


def book3():
    """Non-unimodular: [e1,e2]=e2, [e1,e3]=e3, so several terms of one
    (p+1)-set land on the same p-set and must add up."""
    return lie.LieAlgebra(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, 1]})


def random_constant_algebra(rng, n):
    """Skew structure constants with no Jacobi identity imposed."""
    return lie.LieAlgebra(n, {(i, j): [rng.randint(-2, 2) for _ in range(n)]
                              for i, j in itertools.combinations(range(n), 2)})


def scaled_basis(L, factors):
    """``L`` in the basis f_i = s_i e_i, an isomorphic algebra with structure
    constants C^k_ij s_i s_j / s_k."""
    n = L.dim
    return lie.LieAlgebra(n, {(i, j): [L.structure_constant(i, j, k) * factors[i] * factors[j]
                                       / factors[k] for k in range(n)]
                              for i, j in itertools.combinations(range(n), 2)})


def conjugated(M, g, g_inv):
    """The module ``M`` in another basis of its space: ``g rho(e_i) g^-1``."""
    return lie.LieModule(M.algebra, [linalg.mat_mul(linalg.mat_mul(g, m), g_inv)
                                     for m in M.mats], kind=M.kind)
