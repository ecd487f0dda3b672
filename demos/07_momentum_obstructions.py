"""Momentum maps on the dual space and the equivariance obstruction.

For a group with zero Poisson structure acting on its dual vector space with
the linear bivector, the identity map is a momentum map.  Shifting it by a
constant breaks equivariance; the failure is measured by the cochain

    Gamma(X, Y) = m([X, Y]) - {m(X), m(Y)},

which is Casimir-valued, closed, and exact precisely when a constant
correction restores equivariance (guaranteed here since the second
cohomology of the simple algebra vanishes)."""

import random
from fractions import Fraction

from poissonkit import action as A
from poissonkit import lie
from poissonkit.scalars import Q

L = lie.sl2()
bun = A.coadjoint_dressing_bundle(L, lie.sl2_defining_matrices())

# -- the identity map is a momentum map -----------------------------------------------

m_id = A.identity_momentum_map(L, bun.bivector)
print("identity map satisfies lam(X) = X_{m(X)}:", A.momentum_check(bun, m_id).passed)
G0 = A.gamma(bun, m_id)
print("its obstruction cochain vanishes:", all(p.is_zero() for p in G0.entries.values()))

# -- the shifted identity map ----------------------------------------------------------

mu0 = [Q(3), Q(-2), Q("5/7")]
m = A.identity_momentum_map(L, bun.bivector, shift=mu0)
print("\nshifted map still a momentum map:", A.momentum_check(bun, m).passed)
G = A.gamma(bun, m)
print("Gamma entries (constants <mu0, [e_i, e_j]>):")
for (i, j), p in sorted(G.entries.items()):
    print(f"  Gamma(e{i+1}, e{j+1}) =", p)

chk = A.gamma_checks(bun, G, m)
print("every entry Casimir:", chk.casimir_ok)
print("d Gamma = 0:", chk.cocycle_ok)
print("correcting constants found:", [str(t) for t in chk.correction])
print("corrected cochain vanishes:", chk.corrected_vanishes)

# -- a class that does not vanish --------------------------------------------------------

H = lie.heisenberg3()
# the strictly upper triangular 3x3 matrices: [E12, E23] = E13
E12 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
E23 = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
E13 = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
bunH = A.coadjoint_dressing_bundle(H, [E12, E23, E13])
from poissonkit.poly import MultiPoly

vs = bunH.bivector.vars
G_bad = A.GammaCochain(H, {(0, 1): MultiPoly.zero(vs), (0, 2): MultiPoly.constant(vs, 1),
                           (1, 2): MultiPoly.zero(vs)})
chkH = A.gamma_checks(bunH, G_bad)
print("\nHeisenberg cochain with a nonzero class: closed =", chkH.cocycle_ok,
      "| correctable =", chkH.correction_solvable)

# -- the group cocycle ---------------------------------------------------------------------

rng = random.Random(4)
gs = A.sl2_rational_samples(10, seed=4)
pts = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in range(10)]
triples = [(gs[i], gs[(i + 3) % 10], pts[i]) for i in range(10)]
rep = A.psi_cocycle_check(bun, m, triples)
print("\ngroup cocycle identity Psi(gh) = Psi(g) + Ad*_{g^-1} Psi(h) exact:",
      rep.passed)
print("components of Sigma(g, .) are Casimirs:", rep.casimir_ok)

# -- kernel and image of the momentum differential ------------------------------------------

rot = A.rotation_plane_action()
from poissonkit.poly import generators

x, y = generators("x", "y")
m_rot = A.MomentumMap(rot.algebra, [(x * x + y * y).scale(Q("1/2"))])
rep51 = A.momentum_kernel_image(rot, m_rot, [1, 0])
print("\nrotation example at (1,0):")
print("  kernel of dm =", [[str(t) for t in v] for v in rep51.kernel_basis])
print("  equals the symplectic orthogonal of the orbit:", rep51.kernel_matches_orthogonal)
print("  image equals the isotropy annihilator:", rep51.image_matches_annihilator)
print("commutator inclusion at the point:",
      A.check_commutator_inclusion(rot, m_rot, [1, 0]).inclusion_holds)
