"""Exact scalars and polynomial rings.

Everything in poissonkit computes over Gaussian rationals: pairs of exact
fractions.  This script walks through the ring layer: ordinary polynomial
variables, angular (Laurent) variables for torus coordinates, and normal
forms modulo a single group relation.
"""

from poissonkit import Q, MultiPoly, Var, ANGULAR, generators, sl2_relation_ideal

# -- exact scalars -----------------------------------------------------------

a = Q("1/2") + Q("1/3")
print("1/2 + 1/3 =", a)
i = Q(0, 1)
print("i * i =", i * i)
print("(1+2i)/(3-i) =", Q(1, 2) / Q(3, -1))

# -- polynomials ---------------------------------------------------------------

x, y = generators("x", "y")
p = (x + 1) * (x - 1)
print("\n(x+1)(x-1) =", p)
print("d/dx of x^2 y =", (x ** 2 * y).partial("x"))

# -- angular variables: Laurent monomials in the unit w = exp(i theta) -----------

th = Var("th", ANGULAR)
w = MultiPoly.variable([th], "th")
w_inv = MultiPoly.monomial([th], [-1], 1)
print("\nexp(i th) * exp(-i th) =", w * w_inv)
print("d/d th of exp(i th) =", w.partial("th"))          # i * exp(i th)
print("value of exp(2 i th) at w = i:", (w * w).eval({"th": Q(0, 1)}))

# -- normal forms on the determinant-one variety ----------------------------------

ideal = sl2_relation_ideal()   # a1 a4 - a2 a3 - 1
a1, a2, a3, a4 = generators("a1", "a2", "a3", "a4")
print("\na1 a4 reduces to:", ideal.reduce(a1 * a4))
print("(a1 a4)^2 reduces to:", ideal.reduce(a1 ** 2 * a4 ** 2))
print("the generator itself reduces to:", ideal.reduce(ideal.generator))
