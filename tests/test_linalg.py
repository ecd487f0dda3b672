import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import evaluation_oracles
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


def _int_inverse(matrix):
    """The inverse kernel of ``linalg`` on scalar matrices: None if singular."""
    inv = linalg._int_inverse(linalg._int_mat(matrix))
    return inv and linalg._scalars(inv)


def test_inverse_and_det():
    M = [[Q(2), Q(1)], [Q(1), Q(1)]]
    Minv = _int_inverse(M)
    assert linalg.mat_mul(M, Minv) == linalg.identity(2)
    assert evaluation_oracles.inverse(M) == Minv
    assert linalg.det(M) == Q(1)
    assert _int_inverse([[Q(1), Q(2)], [Q(2), Q(4)]]) is None
    assert evaluation_oracles.inverse([[Q(1), Q(2)], [Q(2), Q(4)]]) is None
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


def real_square_matrices(rng):
    """Real square matrices for n = 1..6: integer entries and rational ones
    with denominators up to 35, each either dense or a product B.C with inner
    dimension 0-3, so rank deficiency really occurs."""
    for n, den, product, _ in itertools.product(range(1, 7), (1, 35), (False, True), range(2)):
        def entry():
            return rand_entry(rng, False, den=den)

        if product:
            k = rng.randint(0, 3)
            B = [[entry() for _ in range(k)] for _ in range(n)]
            C = [[entry() for _ in range(n)] for _ in range(k)]
            yield [[sum((B[i][t] * C[t][j] for t in range(k)), ZERO) for j in range(n)]
                   for i in range(n)]
        else:
            yield [[entry() for _ in range(n)] for _ in range(n)]


def test_real_minor_sums_match_brute_force(rng=random.Random(11)):
    singular = regular = 0
    for m in real_square_matrices(rng):
        sums = linalg.minor_sums(m)
        assert sums == [_brute_minor_sum(m, k) for k in range(len(m) + 1)], m
        singular += sums[-1] == 0
        regular += sums[-1] != 0
    assert singular and regular


def test_one_imaginary_entry_takes_the_complex_loop(monkeypatch, rng=random.Random(12)):
    # the same matrix, real and then with one entry i*eps: both loops agree
    # with brute force, and the dot-product count tells which loop ran (real:
    # one per entry on and above the diagonal of H and of its ceil(n/2) - 1
    # products, one per power sum p_2..p_n; complex: four per entry of each
    # power and four per power sum)
    n = 4
    powers = (n + 1) // 2
    m = [[rand_entry(rng, False, den=4) for _ in range(n)] for _ in range(n)]
    tilted = [list(row) for row in m]
    tilted[1][2] = GaussianRational(0, Fraction(1, 1000))
    dots = []
    inner = linalg._dot
    monkeypatch.setattr(linalg, "_dot", lambda a, b: dots.append(1) or inner(a, b))
    for matrix, count in ((m, n * (n + 1) // 2 * powers + n - 1),
                          (tilted, 4 * (n * n * powers + n - 1))):
        dots.clear()
        assert linalg.minor_sums(matrix) == [_brute_minor_sum(matrix, k) for k in range(n + 1)]
        assert len(dots) == count


def test_minor_sums_at_n_8(rng=random.Random(9)):
    m = [[rand_entry(rng, True, den=4) for _ in range(8)] for _ in range(8)]
    sums = linalg.minor_sums(m)
    assert sums[2] == _brute_minor_sum(m, 2)
    assert sums[8] == linalg.det(m).abs2() != 0


@st.composite
def minor_sum_matrices(draw):
    """Square matrices for n = 0..8 with real or Gaussian entries over mixed
    denominators: dense, skew, with zero rows, or a product B.C of inner
    dimension 0-3, so rank deficiency really occurs."""
    n = draw(st.integers(0, 8))
    part = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    entry = st.builds(GaussianRational, part, part if draw(st.booleans()) else st.just(0))

    def rows(count, length):
        return draw(st.lists(st.lists(entry, min_size=length, max_size=length),
                             min_size=count, max_size=count))

    shape = draw(st.sampled_from(["dense", "skew", "zero rows", "product"]))
    if shape == "product":
        k = draw(st.integers(0, 3))
        B, C = rows(n, k), rows(k, n)
        return [[sum((B[i][t] * C[t][j] for t in range(k)), ZERO) for j in range(n)]
                for i in range(n)]
    m = rows(n, n)
    if shape == "skew":
        m = [[m[i][j] if i < j else -m[j][i] if i > j else ZERO for j in range(n)]
             for i in range(n)]
    elif shape == "zero rows" and n:
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            m[i] = [ZERO] * n
    return m


@settings(max_examples=100, deadline=None)
@given(minor_sum_matrices())
def test_power_sums_match_faddeev_leverrier_and_brute_force(m):
    sums = linalg.minor_sums(m)
    assert sums == evaluation_oracles.faddeev_leverrier_minor_sums(m)
    if len(m) <= 4:
        assert sums == [_brute_minor_sum(m, k) for k in range(len(m) + 1)]


def test_minor_sums_use_no_elimination(monkeypatch, rng=random.Random(10)):
    m = [[rand_entry(rng, True, den=4) for _ in range(4)] for _ in range(4)]
    expected = [_brute_minor_sum(m, k) for k in range(5)]
    for name in ("rank", "rref", "det"):
        monkeypatch.setattr(linalg, name,
                            lambda *a, name=name: pytest.fail(f"minor_sums called {name}"))
    assert linalg.minor_sums(m) == expected
    assert linalg.minor_sums([]) == [1]


# -- integer-row elimination and products: plain entries, sympy oracle, structure --


def test_plain_int_fraction_and_str_entries():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.in_span([[Q(1), Q(0)]], [1, 0])
    assert not linalg.in_span([[1, 0]], [0, 1])
    mixed = [[Fraction(1, 2), "1/3"], [1, 2]]
    assert linalg.rref(mixed) == linalg.rref(linalg.mat(mixed))
    assert linalg.rref([[2, 4, 6]]) == ([[ONE, Q(2), Q(3)]], [0])
    assert linalg.nullspace([[1, 1]]) == [[Q(-1), ONE]]
    assert linalg.mat_mul([[1, 2]], [[3], ["1/2"]]) == [[Q(4)]]
    assert linalg.mat_vec([[1, Fraction(1, 3)]], [3, 3]) == [Q(4)]


def _sym(x):
    import sympy

    return sympy.Rational(x.a, x.d) + sympy.I * sympy.Rational(x.b, x.d)


def _canonical(x) -> bool:
    return type(x) is GaussianRational and x.d > 0 and gcd(x.a, x.b, x.d) == 1


def _same(ours, theirs) -> bool:
    """Entry for entry equality of a list of lists with a sympy matrix, every
    entry of ours a canonical triple."""
    return (len(ours) == theirs.rows
            and all(len(row) == theirs.cols for row in ours)
            and all(_canonical(x) and _sym(x) == theirs[i, j]
                    for i, row in enumerate(ours) for j, x in enumerate(row)))


_entries = st.fractions(min_value=-9, max_value=9, max_denominator=12)


_gaussian_entries = st.one_of(
    st.builds(GaussianRational, _entries),
    st.builds(lambda t: GaussianRational(0, t), _entries),
    st.builds(GaussianRational, _entries, _entries))

I = GaussianRational(0, 1)


@st.composite
def exact_matrices(draw):
    """Rational or Gaussian-rational n x m matrices, 0 <= n <= 7 and
    0 <= m <= 8, often square: dense, or a product B.C with inner dimension
    0-3 (rank deficient), with some rows and columns zeroed and, often, the
    first row negated (negative pivots).  Gaussian ones mix real, pure
    imaginary and complex entries, often have the first row times i (pure
    imaginary pivots) and often a last row that is i times the first."""
    gaussian = draw(st.sampled_from([False, True, True]))
    entry = _gaussian_entries if gaussian else st.builds(GaussianRational, _entries)
    n = draw(st.integers(0, 7))
    m = draw(st.one_of(st.just(n), st.integers(0, 8)))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        B = [[draw(entry) for _ in range(k)] for _ in range(n)]
        C = [[draw(entry) for _ in range(m)] for _ in range(k)]
        rows = [[sum((B[i][t] * C[t][j] for t in range(k)), ZERO) for j in range(m)]
                for i in range(n)]
    else:
        rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    zero_rows = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2))
    rows = [[ZERO if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
    if rows and draw(st.booleans()):
        rows[0] = [-x for x in rows[0]]
    if gaussian and rows and draw(st.booleans()):
        rows[0] = [I * x for x in rows[0]]
    if gaussian and n > 1 and draw(st.booleans()):
        rows[-1] = [I * x for x in rows[0]]
    return rows


@settings(max_examples=120, deadline=None)
@given(exact_matrices(), st.data())
def test_integer_row_kernel_matches_sympy(M, data):
    """Against sympy's exact matrices over QQ and QQ_I (``DomainMatrix``):
    rref, pivots, rank and inverse (the kernel ``_int_inverse``, and the
    adjugate oracle) entry for entry; a kernel basis and a
    solution verified exactly, each with its free coordinates as sympy's
    ``nullspace`` and ``gauss_jordan_solve`` set them (0, and 1 at its own
    free column)."""
    sympy = pytest.importorskip("sympy")
    n, m = len(M), len(M[0]) if M else 0
    S = sympy.Matrix(n, m, [_sym(x) for row in M for x in row])
    column = lambda v: sympy.Matrix(len(v), 1, [_sym(t) for t in v])  # noqa: E731
    red, pivots = linalg.rref(M)
    S_red, S_pivots = S.to_DM().rref()
    assert pivots == list(S_pivots)
    assert _same(red, S_red.to_Matrix())
    assert linalg.rank(M) == S.to_DM().rank()
    free = [c for c in range(m) if c not in pivots]
    if n:
        null = linalg.nullspace(M)
        assert len(null) == len(free)
        for v, fc in zip(null, free):
            assert all(_canonical(t) for t in v)
            assert [v[c] for c in free] == [Q(c == fc) for c in free]
            assert (S * column(v)).expand() == sympy.zeros(n, 1)
        b = [GaussianRational(data.draw(_entries)) for _ in range(n)]
        x = linalg.solve(M, b)
        if S.row_join(column(b)).to_DM().rank() > len(pivots):
            assert x is None
        else:
            assert all(_canonical(t) for t in x) and all(x[c] == 0 for c in free)
            assert (S * column(x)).expand() == column(b)
    if n == m:
        # M and, mostly invertible, M + z for a Gaussian z
        z = GaussianRational(data.draw(_entries), data.draw(_entries))
        for A in (M, [[x + z if i == j else x for j, x in enumerate(row)]
                      for i, row in enumerate(M)]):
            S_A = sympy.Matrix(n, n, [_sym(x) for row in A for x in row]).to_DM()
            inv = _int_inverse(A)
            if S_A.rank() < n:
                assert inv is None and evaluation_oracles.inverse(A) is None
            else:
                assert _same(inv, S_A.to_field().inv().to_Matrix())
                assert evaluation_oracles.inverse(A) == inv
    if m:
        v = [GaussianRational(data.draw(_entries)) for _ in range(m)]
        assert _same([[t] for t in linalg.mat_vec(M, v)], (S * column(v)).expand())
        q = data.draw(st.integers(1, 5))
        X = [[GaussianRational(data.draw(_entries)) for _ in range(q)] for _ in range(m)]
        assert _same(linalg.mat_mul(M, X),
                     (S * sympy.Matrix(m, q, [_sym(t) for row in X for t in row])).expand())


def test_real_elimination_builds_one_scalar_per_entry_at_most(monkeypatch, rng=random.Random(13)):
    made = []
    make = linalg._make
    monkeypatch.setattr(linalg, "_make", lambda *t: made.append(t) or make(*t))
    for M in itertools.islice(low_rank_matrices(rng, 40), 0, None, 2):
        made.clear()
        linalg.rank(M)
        assert not made
        linalg.rref(M)
        assert len(made) <= len(M) * len(M[0])


def test_one_imaginary_entry_takes_the_gaussian_loop(monkeypatch, rng=random.Random(14)):
    sympy = pytest.importorskip("sympy")
    made = []
    make = linalg._make
    monkeypatch.setattr(linalg, "_make", lambda *t: made.append(t) or make(*t))
    for M in itertools.islice(low_rank_matrices(rng, 20), 0, None, 2):
        tilted = [list(row) for row in M]
        tilted[0][0] = tilted[0][0] + GaussianRational(0, Fraction(1, 1000))
        made.clear()
        assert linalg.rank(tilted) == largest_nonzero_minor(tilted)
        assert not made
        S = sympy.Matrix([[_sym(x) for x in row] for row in tilted])
        red, pivots = linalg.rref(tilted)
        S_red, S_pivots = S.rref()
        assert pivots == list(S_pivots) and _same(red, S_red)
        # one scalar at most per output entry: the real form builds none
        assert len(made) <= len(tilted) * len(tilted[0])
        # products take the Gaussian-integer dot product instead
        assert _same(linalg.mat_mul(tilted, linalg.transpose(tilted)), (S * S.T).expand())
        assert _same([[x] for x in linalg.mat_vec(tilted, tilted[0])], (S * S[0, :].T).expand())


# -- the integer rank route: rows taken as built, short side, vanished rows dropped --

# (rows, columns) of Chevalley-Eilenberg differentials: tall, wide and square
CE_SHAPES = [(9, 3), (3, 9), (9, 9), (18, 6), (6, 18), (16, 24), (24, 16), (36, 90), (90, 36)]


def sparse_int_rows(rng, n, m, density=0.15):
    """n x m integer rows in -3..3, about ``density`` of the entries nonzero."""
    return [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(m)]
            for _ in range(n)]


def ce_like_matrices(rng, gaussian):
    """``(P, Q)`` pairs, ``Q`` None unless ``gaussian``, for every shape of
    :data:`CE_SHAPES`: a few rows replaced by sums of Gaussian-integer
    multiples of two others (rank deficiency), and some rows and columns
    zeroed."""
    for n, m in CE_SHAPES:
        p = sparse_int_rows(rng, n, m)
        q = sparse_int_rows(rng, n, m, density=0.08) if gaussian else None
        for _ in range(n // 3):
            k, i, j = rng.sample(range(n), 3)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2) if gaussian else 0
            p[k] = [a * x - b * y + z for x, y, z in zip(p[i], q[i] if q else p[i], p[j])]
            if q:
                q[k] = [b * x + a * y + z for x, y, z in zip(p[i], q[i], q[j])]
        for i in rng.sample(range(n), n // 5):
            for part in [p] + ([q] if q else []):
                part[i] = [0] * m
        for c in rng.sample(range(m), m // 5):
            for row in p + (q or []):
                row[c] = 0
        yield p, q


@pytest.mark.parametrize("gaussian", [False, True])
def test_integer_rows_rank_as_scalars_and_sympy(gaussian, rng=random.Random(30)):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix      # exact over ZZ and ZZ_I, and fast
    deficient = 0
    for p, q in ce_like_matrices(rng, gaussian):
        copies = [list(row) for row in p], q and [list(row) for row in q]
        S = sympy.Matrix(p) + sympy.I * sympy.Matrix(q) if q else sympy.Matrix(p)
        scalars = [[GaussianRational(x, y) for x, y in zip(u, v or [0] * len(u))]
                   for u, v in zip(p, q or [None] * len(p))]
        r = linalg.rank(p, q)
        assert r == linalg.rank(scalars) == DomainMatrix.from_Matrix(S).rank(), (len(p), len(p[0]))
        assert (p, q) == copies     # the rows are not modified
        deficient += r < min(len(p), len(p[0]))
    assert deficient >= 3


def test_rank_reads_integer_rows_without_int_row(monkeypatch):
    calls = []
    int_row = linalg._int_row
    monkeypatch.setattr(linalg, "_int_row", lambda row: calls.append(row) or int_row(row))
    assert linalg.rank([[1, 2], [2, 4], [0, 3]], None) == 2 and not calls
    assert linalg.rank([[1, 0], [0, 1]], [[0, 1], [-1, 0]]) == 1 and not calls
    assert linalg.rank([[1, 2], [2, 4], [0, 3]]) == 2 and len(calls) == 3


def test_rank_rows_eliminates_the_short_side(monkeypatch, rng=random.Random(31)):
    shapes = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda m, jordan: shapes.append((len(m), len(m[0]) if m else 0))
                        or eliminate(m, jordan))
    p = sparse_int_rows(rng, 90, 36)
    for row in p:
        row[5] = row[17] = 0
    assert linalg.rank(p, None) == linalg.rank(linalg.mat(p))
    assert shapes[0] == (34, sum(map(any, p))) and shapes[1][0] <= shapes[1][1]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 12), st.integers(1, 12))
def test_eliminate_leaves_the_pivot_rows_alone_in_order(seed, n, m):
    rng = random.Random(seed)
    rows = sparse_int_rows(rng, n, m, density=rng.choice((0.2, 0.5)))
    for _ in range(rng.randint(0, n)):     # dependent rows, which vanish
        i, j = rng.randrange(n), rng.randrange(n)
        rows.append([2 * x - y for x, y in zip(rows[i], rows[j])])
    rows = [row for row in rows if any(row)]
    expected = linalg.rank(linalg.mat(rows)) if rows else 0
    pivots = linalg._eliminate(rows, jordan=False)
    assert len(pivots) == len(rows) == expected
    assert pivots == sorted(pivots)
    for row, c in zip(rows, pivots):
        assert row[c] and not any(row[:c])


# -- shapes: helpers reject or tell apart matrices of different shapes ----------------


def test_mat_eq_tells_shapes_apart():
    mat_eq = evaluation_oracles.mat_eq
    assert not mat_eq([[1]], [[1, 2]])
    assert not mat_eq([[1], [2]], [[1]])
    assert not mat_eq([[1, 2]], [[1]])
    assert mat_eq([[1, 2]], [[Q(1), Q(2)]])


@pytest.mark.parametrize("helper, args", [
    ("mat_add", ([[1, 2]], [[1]])),
    ("mat_add", ([[1], [2]], [[1]])),
    ("mat_sub", ([[1], [2, 3]], [[1], [2, 3]])),
    ("mat_mul", ([[1, 2]], [[1], [2], [3]])),
    ("mat_mul", ([[1, 2], [3]], [[1], [2]])),
    ("mat_vec", ([[1, 2]], [1, 2, 3])),
    ("in_span", ([[1, 0]], [1, 0, 7])),
    ("in_span", ([[1, 0], [1]], [0, 0])),
    ("rank", ([[3], [1, 2]],)),
    ("rank", ([[1, 2], [3]],)),
    ("rref", ([[1, 2], [3]],)),
], ids=lambda x: x if isinstance(x, str) else "")
def test_helpers_reject_mismatched_or_ragged_shapes(helper, args):
    # mat_add and mat_sub are test oracles; the rest are linalg's
    module = evaluation_oracles if helper in ("mat_add", "mat_sub") else linalg
    with pytest.raises(ValueError):
        getattr(module, helper)(*args)


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    # zipping the rows with the right-hand side would drop the second equation
    with pytest.raises(ValueError, match="right-hand side of length 1"):
        linalg.solve([[1], [1]], [1])
    with pytest.raises(ValueError):
        linalg.solve([[1, 0]], [1, 2])
    with pytest.raises(ValueError):
        linalg.solve([], [1])
    assert linalg.solve([], []) == []


def test_solve_rejects_a_ragged_matrix():
    with pytest.raises(ValueError, match="ragged"):
        linalg.solve([[1, 2], [3]], [1, 2])


def test_transpose_rejects_a_ragged_matrix():
    # zipping the rows would drop the column the short row lacks
    with pytest.raises(ValueError, match="ragged"):
        linalg.transpose([[1, 2], [3]])
    assert linalg.transpose([[1, 2], [3, 4], [5, 6]]) == [[1, 3, 5], [2, 4, 6]]
    assert linalg.transpose([]) == []
