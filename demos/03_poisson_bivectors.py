"""Polynomial Poisson bivectors: brackets, Hamiltonian fields, the Jacobi
identity as a Schouten square, rank stratification, and Casimirs."""


from poissonkit import (
    MultiPoly,
    PolyBivector,
    Q,
    StratifyConfig,
    bracket_fn,
    casimir_check,
    differential,
    generators,
    hamiltonian_field,
    jacobi_check,
    lie_poisson,
    one_form_bracket,
    r_k,
    rank_at,
    sl2,
    stratify_sample,
)

# -- the symplectic plane ------------------------------------------------------

vs = ("x", "y")
x, y = generators(*vs)
plane = PolyBivector(vs, {(0, 1): MultiPoly.constant(vs, 1)})
print("{x, y} =", bracket_fn(plane, x, y))
print("X_{(x^2+y^2)/2} =", hamiltonian_field(plane, (x * x + y * y).scale(Q("1/2"))))

# -- a bivector that fails Jacobi -----------------------------------------------

vs3 = ("x1", "x2", "x3")
x1, x2, x3 = generators(*vs3)
bad = PolyBivector(vs3, {(0, 1): x3, (1, 2): x2})
rep = jacobi_check(bad)
print("\nx3 d1^d2 + x2 d2^d3 satisfies Jacobi?", rep["passed"])
print("cyclic residual trivector:", rep["residual"])
print("independent Schouten-square route agrees:", rep["routes_consistent"])

# -- the linear bivector on the dual of sl2 ---------------------------------------

lp = lie_poisson(sl2())
print("\nlinear bivector on sl2*:", lp)
print("Jacobi:", jacobi_check(lp)["passed"])
mu = [MultiPoly.variable(lp.vars, v.name) for v in lp.vars]
print("{mu1, mu2} =", bracket_fn(lp, mu[0], mu[1]))
print("{dmu1, dmu2} as one-forms =",
      one_form_bracket(lp, differential(mu[0], lp.vars), differential(mu[1], lp.vars)))

K = mu[0] ** 2 - mu[1] ** 2 + mu[2] ** 2
print("mu1^2 - mu2^2 + mu3^2 is a Casimir:", casimir_check(lp, K))

# -- rank stratification ------------------------------------------------------------

print("\nrank of the linear bivector at (1,0,0):", rank_at(lp, [1, 0, 0]))
print("r_2 at (1,0,0):", r_k(lp, [1, 0, 0], 2))
print("r_3 at (1,0,0) (beyond the rank):", r_k(lp, [1, 0, 0], 3))

report = stratify_sample(lp, StratifyConfig(count=500, seed=42))
print("rank histogram over 500 rational samples:", report["histogram"])
print("max-rank stratum fraction:", report["max_rank_fraction"])
print("every sampled rank confirmed by principal Pfaffians:", report["minor_consistency"])

pix = PolyBivector(vs, {(0, 1): x})
line = stratify_sample(pix, StratifyConfig(count=100, seed=7,
                                           include_points=[[0, 1], [0, -2]]))
print("\nx d_x^d_y histogram with the degenerate line sampled:", line["histogram"])
