"""The determinant-one group acting on the plane: the full worked pipeline.

For the coefficient family Lam = l1 e1^e2 + l2 e2^e3 + l3 e3^e1 the plane
bivector that makes the natural action a Poisson action is h d1^d2 with

    h = (l1+l3)/4 x1^2 - (l1-l3)/4 x2^2 - l2/2 x1 x2 + c,

certified here as an exact polynomial identity modulo the determinant
relation, then checked again at exact group samples.  The same CLI pipeline
runs as:

    poissonkit example51 --lambda 0,2,0 --c 1
"""

import random
from fractions import Fraction

from poissonkit import action as A

l1, l2, l3, c = 0, 2, 0, 1

# -- the cocycle identity and its solution -------------------------------------------

cert = A.solve_h_certificate(l1, l2, l3, c)
print("h =", cert["h"])
print("polynomial certificate (must be 0):", cert["certificate"])

# -- the action is Poisson, exactly ----------------------------------------------------

act = A.sl2_plane_action(l1, l2, l3, c)
rng = random.Random(0)
gs = A.sl2_rational_samples(100, seed=0)
pts = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)] for _ in gs]
rep = A.check_poisson_action(act, list(zip(gs, pts)))
print("\nPoisson-action identity residuals at 100 exact samples:",
      "all zero" if rep["passed"] else rep["failures"][:1])

print("printed infinitesimal generators:")
for i, f in enumerate(act.fields()):
    print(f"  lam(e{i+1}) =", f)

# -- tangentiality and the inequality predicate ---------------------------------------

print("\ninequality predicate for (0,2,0,c=1):", A.tangential_coefficient_predicate(l1, l2, l3, c))
w = A.find_rank_drop_witness(l1, l2, l3, c)
print("rank-drop witness on h = 0:", [str(t) for t in w])
print("tangential there?", A.tangential_check(act, [w])["passed"])

good = (0, 0, 4, 1)
print("predicate for (0,0,4,c=1):", A.tangential_coefficient_predicate(*good))
act_good = A.sl2_plane_action(*good)
sample = [[Fraction(rng.randint(-6, 6), 2) for _ in range(2)] for _ in range(200)]
print("tangential at 200 samples:", A.tangential_check(act_good, sample)["passed"])

# -- the diagonal subgroup: preservation and its momentum map ---------------------------

pres = A.check_structure_preserved(act)
print("\nstructure preserved per generator:",
      [(g["index"] + 1, g["preserved"]) for g in pres["per_generator"]])

sub = A.diagonal_subgroup_action(c)
print("diagonal subgroup preserves the bivector:",
      A.check_structure_preserved(sub)["passed"])

fit = A.solve_momentum_normalization(sub)
print("log-family momentum map s*log|c - x1 x2|: s =", fit["solved_constant"],
      "| h*lam - s*X_h =", fit["residual"])
print("inverse-square-root family a*|c - x1 x2|^(-1/2) admits a constant:",
      fit["power_family_consistent"], "| residual 4*h^3*lam_k^2 - a^2*X_h,k^2:",
      fit["power_family_residual"])
print("=> the additive momentum map is (1/2) log|c - x1 x2| + const;")
print("   the inverse square root is its exponential, a multiplicative-group value.")
