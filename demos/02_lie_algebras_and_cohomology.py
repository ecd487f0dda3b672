"""Lie algebras by structure constants and their cohomology.

The three-dimensional split simple algebra ([e1,e2]=e3, [e2,e3]=e1,
[e3,e1]=-e2) is the running example throughout the package.  Its first and
second cohomology vanish for any coefficients (the semisimple vanishing
theorem); the Heisenberg algebra shows a nonzero class.
"""

from poissonkit import (
    LieAlgebra,
    abelian,
    ce_differential,
    cohomology_dim,
    heisenberg3,
    representation,
    sl2,
)
from poissonkit import linalg

L = sl2()
print("Jacobi on sl2:", L.check_jacobi().ok)
print("[e1, e2] =", [str(c) for c in L.basis_bracket(0, 1)])

bad = LieAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [0, 1, 0]})
rep = bad.check_jacobi()
print("\ncorrupted constants pass Jacobi?", rep.ok)
for idx, res in rep.violations:
    print("  violating triple", idx, "residual", [str(c) for c in res])

# -- modules ------------------------------------------------------------------

adj = representation(L, "adjoint")
coad = representation(L, "coadjoint")
print("\nadjoint module axiom:", adj.check_axiom().ok)
print("coadjoint module axiom:", coad.check_axiom().ok)
print("<ad*_{e1} e3*, e2> =", linalg.mat_vec(coad.mats[0], [0, 0, 1])[1])

# d composed with d is the zero matrix for a valid module
d1 = ce_differential(L, adj, 1)
d2 = ce_differential(L, adj, 2)
print("d2 . d1 = 0:", linalg.is_zero_mat(linalg.mat_mul(d2.matrix, d1.matrix)))

# -- cohomology dimensions --------------------------------------------------------

for kind in ("trivial", "adjoint"):
    M = representation(L, kind)
    print(f"\nH^1(sl2, {kind}) = {cohomology_dim(L, M, 1)}",
          f"  H^2(sl2, {kind}) = {cohomology_dim(L, M, 2)}")

ab2 = abelian(2)
print("H^2(R^2, trivial) =", cohomology_dim(ab2, representation(ab2, "trivial"), 2))

H = heisenberg3()
print("H^2(heisenberg, trivial) =", cohomology_dim(H, representation(H, "trivial"), 2))
