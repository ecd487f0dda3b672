"""Classical r-matrices, dual Lie brackets, and abelian multiplicative
structures on a torus times a line.

Any skew element of the second wedge power of a three-dimensional simple
algebra is an r-matrix (its Schouten square lands in the invariant top
wedge), so the whole coefficient family below gives Lie bialgebras."""

from fractions import Fraction

from poissonkit import (
    AbelianPLStructure,
    LieAlgebra,
    LieBialgebra,
    Q,
    RMatrix,
    abelian_pl_check,
    check_log_coordinate_identity,
    dual_algebra_from_r,
    dual_bracket_from_r,
    schouten_wedge_bracket,
    sl2,
    validate_bialgebra,
)
from poissonkit.scalars import ONE, ZERO

L = sl2()
e = lambda i: [ONE if t == i else ZERO for t in range(3)]

# -- the coefficient family on sl2 --------------------------------------------------

r = RMatrix.sl2_family(L, Fraction(1), Fraction(2), Fraction(-3))
inv = schouten_wedge_bracket(r)
print("[Lam, Lam] =", inv["schouten_square"])
print("ad-invariant:", inv["passed"])

for (i, j), label in (((0, 1), "[e1*,e2*]*"), ((1, 2), "[e2*,e3*]*"), ((2, 0), "[e3*,e1*]*")):
    print(label, "=", [str(c) for c in dual_bracket_from_r(r, e(i), e(j))])

dual = dual_algebra_from_r(r)
print("dual bracket satisfies Jacobi:", dual.check_jacobi().ok)

bi = LieBialgebra.from_r_matrix(r)
rep = validate_bialgebra(bi)
print("bialgebra validation (Jacobi x2 + cocycle):", rep["passed"])

# the worked special case lam = (0, 2, 0)
r2 = RMatrix.sl2_family(L, 0, 2, 0)
print("\nlam=(0,2,0):")
print("  [e1*,e2*]* =", [str(c) for c in dual_bracket_from_r(r2, e(0), e(1))])
print("  [e2*,e3*]* =", [str(c) for c in dual_bracket_from_r(r2, e(1), e(2))])
print("  [e3*,e1*]* =", [str(c) for c in dual_bracket_from_r(r2, e(2), e(0))])

# -- abelian multiplicative structures ------------------------------------------------

lin = AbelianPLStructure.torus2_line_linear(Q(2), Q(-3), Q("1/2"))
print("\nlinear structure on T^2 x R passes all identities:", abelian_pl_check(lin)["passed"])

lit = AbelianPLStructure.torus2_line_example(Q(2), Q(-3), Q("1/2"))
rep = abelian_pl_check(lit)
print("mixed-exponential structure: Jacobi =", rep["jacobi"],
      "| multiplicative =", rep["multiplicative"])
print("failing identities:", rep["failing_identities"])

# -- the log-coordinate identity on multiplicative groups -----------------------------

logid = check_log_coordinate_identity(L)
print("\nlog-coordinate identity for the sl2 constants holds identically:", logid["passed"])
bad = LieAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [0, 1, 0]})
print("for constants that fail Jacobi, residuals in the logs l_k:",
      check_log_coordinate_identity(bad)["residuals"][:2])
