import itertools
import random
from fractions import Fraction

import pytest

from poissonkit import linalg
from poissonkit.scalars import GaussianRational, Q, ZERO, ONE


def rand_matrix(rng, n, m, bound=5):
    return [
        [GaussianRational(Fraction(rng.randint(-bound, bound), rng.randint(1, 3)))
         for _ in range(m)]
        for _ in range(n)
    ]


def test_rank_known():
    assert linalg.rank([[Q(1), Q(2)], [Q(2), Q(4)]]) == 1
    assert linalg.rank(linalg.identity(4)) == 4
    assert linalg.rank(linalg.zeros(3, 5)) == 0
    skew = [[Q(0), Q(1)], [Q(-1), Q(0)]]
    assert linalg.rank(skew) == 2


def rand_entry(rng, gaussian, bound=3, den=3):
    re = Fraction(rng.randint(-bound, bound), rng.randint(1, den))
    im = Fraction(rng.randint(-bound, bound), rng.randint(1, den)) if gaussian else 0
    return GaussianRational(re, im)


def low_rank_matrices(rng, count):
    """Products B.C with inner dimension 0-3, so rank deficiency really occurs;
    half of them have Gaussian-rational entries."""
    for trial in range(count):
        gaussian = trial % 2 == 1
        n, k, m = rng.randint(1, 5), rng.randint(0, 3), rng.randint(1, 5)
        B = [[rand_entry(rng, gaussian) for _ in range(k)] for _ in range(n)]
        C = [[rand_entry(rng, gaussian) for _ in range(m)] for _ in range(k)]
        yield [[sum((B[i][t] * C[t][j] for t in range(k)), ZERO) for j in range(m)]
               for i in range(n)]


def largest_nonzero_minor(M) -> int:
    """The largest k with a nonzero k x k minor, each minor by Bareiss ``det``."""
    n, m = len(M), len(M[0])
    for k in range(min(n, m), 0, -1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                if not linalg.det([[M[r][c] for c in cols] for r in rows]).is_zero():
                    return k
    return 0


def test_rank_matches_largest_nonzero_minor(rng=random.Random(3)):
    ranks = set()
    for M in low_rank_matrices(rng, 60):
        r = linalg.rank(M)
        assert r == largest_nonzero_minor(M)
        ranks.add((r, min(len(M), len(M[0]))))
    assert any(r < full for r, full in ranks) and any(0 < r == full for r, full in ranks)


def test_rank_matches_sympy(rng=random.Random(6)):
    sympy = pytest.importorskip("sympy")

    for M in low_rank_matrices(rng, 40):
        S = sympy.Matrix([[sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im) for x in row]
                          for row in M])
        assert linalg.rank(M) == S.rank()


def test_nullspace_and_solve(rng=random.Random(4)):
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        M = rand_matrix(rng, n, m)
        for v in linalg.nullspace(M):
            assert all(x.is_zero() for x in linalg.mat_vec(M, v))
        x = [Q(rng.randint(-3, 3)) for _ in range(m)]
        b = linalg.mat_vec(M, x)
        sol = linalg.solve(M, b)
        assert sol is not None
        assert linalg.mat_vec(M, sol) == b


def test_solve_inconsistent():
    assert linalg.solve([[Q(1)], [Q(1)]], [Q(0), Q(1)]) is None


def test_inverse_and_det():
    M = [[Q(2), Q(1)], [Q(1), Q(1)]]
    Minv = linalg.inverse(M)
    assert linalg.mat_eq(linalg.mat_mul(M, Minv), linalg.identity(2))
    assert linalg.det(M) == Q(1)
    assert linalg.inverse([[Q(1), Q(2)], [Q(2), Q(4)]]) is None
    assert linalg.det([[Q(1), Q(2)], [Q(2), Q(4)]]) == Q(0)


def test_det_random_multiplicative(rng=random.Random(5)):
    for _ in range(15):
        A = rand_matrix(rng, 3, 3)
        B = rand_matrix(rng, 3, 3)
        assert linalg.det(linalg.mat_mul(A, B)) == linalg.det(A) * linalg.det(B)


def test_gaussian_entries():
    i = GaussianRational(0, 1)
    M = [[i, Q(1)], [Q(1), i]]
    assert linalg.det(M) == Q(-2)
    assert linalg.rank(M) == 2


def test_subspace_ops():
    e1, e2 = [ONE, ZERO], [ZERO, ONE]
    assert linalg.in_span([e1], [Q(3), Q(0)])
    assert not linalg.in_span([e1], e2)
    assert linalg.subspace_equal([e1, e2], [[ONE, ONE], [ONE, -ONE]])
    assert not linalg.subspace_equal([e1], [e2])
    ann = linalg.annihilator([[ONE, ONE]], 2)
    assert len(ann) == 1 and ann[0][0] == -ann[0][1]
    assert len(linalg.annihilator([], 3)) == 3


def _brute_minor_sum(m, k) -> Fraction:
    """Sum of |minor|^2 over all k x k minors of the square ``m``, each minor by
    Bareiss ``det``: the C(n, k)^2 enumeration that ``minor_sums`` replaces."""
    n = len(m)
    total = Fraction(0)
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.combinations(range(n), k):
            total += linalg.det([[m[r][c] for c in cols] for r in rows]).abs2()
    return total


def square_matrices(rng, count, n_max=6):
    """Square matrices with n cycling through 1..n_max and Gaussian-rational
    entries whose parts have denominators up to 4, or up to 35 in every other
    matrix, and about one in five purely imaginary; every third is a product
    B.C with inner dimension 0-3, so rank deficiency really occurs."""
    for trial in range(count):
        n = trial % n_max + 1
        den = 4 if trial % 2 == 0 else 35

        def entry():
            x = rand_entry(rng, True, den=den)
            return GaussianRational(0, x.im) if rng.random() < 0.2 else x

        if trial % 3 == 2:
            k = rng.randint(0, 3)
            B = [[entry() for _ in range(k)] for _ in range(n)]
            C = [[entry() for _ in range(n)] for _ in range(k)]
            yield [[sum((B[i][t] * C[t][j] for t in range(k)), ZERO) for j in range(n)]
                   for i in range(n)]
        else:
            yield [[entry() for _ in range(n)] for _ in range(n)]


def test_minor_sums_match_brute_force(rng=random.Random(8)):
    singular = regular = 0
    for m in square_matrices(rng, 60):
        sums = linalg.minor_sums(m)
        assert len(sums) == len(m) + 1
        for k, r in enumerate(sums):
            assert r == _brute_minor_sum(m, k), (len(m), k)
        singular += sums[-1] == 0
        regular += sums[-1] != 0
    assert singular and regular


def test_minor_sums_at_n_8(rng=random.Random(9)):
    m = [[rand_entry(rng, True, den=4) for _ in range(8)] for _ in range(8)]
    sums = linalg.minor_sums(m)
    assert sums[2] == _brute_minor_sum(m, 2)
    assert sums[8] == linalg.det(m).abs2() != 0


def test_minor_sums_use_no_elimination(monkeypatch, rng=random.Random(10)):
    m = [[rand_entry(rng, True, den=4) for _ in range(4)] for _ in range(4)]
    expected = [_brute_minor_sum(m, k) for k in range(5)]
    for name in ("rank", "rref", "det"):
        monkeypatch.setattr(linalg, name,
                            lambda *a, name=name: pytest.fail(f"minor_sums called {name}"))
    assert linalg.minor_sums(m) == expected
    assert linalg.minor_sums([]) == [1]
