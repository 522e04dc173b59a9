import random
from fractions import Fraction
from math import ceil
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from zetalab.precision import (_GUARD, HPMatrix, _reflect, _sturm_count, _tridiagonalize,
                               jacobi_eigensystem)


def reflected(lam):
    """H diag(lam) H for the 8 eigenvalues lam, built at 400 bits.  H = I -
    v v^T/8 with v = (3, 1, ..., 1) is a reflector (v.v = 16) with dyadic
    entries, so for dyadic lam every entry is exact at 192 bits and the
    eigenvalues are exactly lam."""
    v = [3, 1, 1, 1, 1, 1, 1, 1]
    with mp.workprec(400):
        h = [[int(i == j) - mpf(v[i] * v[j]) / 8 for j in range(8)] for i in range(8)]
        a = [[mp.fsum(h[i][k] * lam[k] * h[k][j] for k in range(8)) for j in range(8)]
             for i in range(8)]
    with mp.workprec(192):
        stored = [[+x for x in row] for row in a]
    assert stored == a
    return stored


def clustered_blocks():
    """An 8x8 reflected block and a 2x2 block [[1, 1/4], [1/4, 1]]: the
    eigenvalues are lam, 3/4 and 5/4, with a triple one, a pair 2^-150 apart
    (closer than the residual at 128 bits), and a second block that makes T
    split (a zero off-diagonal)."""
    with mp.workprec(400):
        lam = [mpf(-5) / 8] * 3 + [mpf(1) / 2, mpf(1) / 2 + mpf(2) ** -150, 2, -1, mpf(3) / 16]
    entries = [row + [0, 0] for row in reflected(lam)] + [[0] * 8 + [1, mpf(1) / 4], [0] * 8 + [mpf(1) / 4, 1]]
    return entries, lam + [mpf(3) / 4, mpf(5) / 4]


def graded():
    """A reflected block with eigenvalues from 1 down to 2^-150, of both
    signs.  Its entries run over some 157 bits, so at 128 bits the rounding
    to fixed point (152 bits below the largest entry) is not exact."""
    with mp.workprec(400):
        lam = [mpf(s) * mpf(2) ** -e for s, e in
               zip([1, -1, 1, -1, 1, -1, 1, 1], [0, 20, 45, 70, 95, 120, 140, 150])]
    return reflected(lam), lam


def tridiagonal_ones(n=36):
    """tridiag(1, 1, 1), eigenvalues 1 + 2 cos(k pi/(n + 1)).  It is already
    tridiagonal, so no reflector runs, yet the residual counts the bisection's
    2 units, ceil(n/2) = 18 for the input rounding and the a-priori reduction
    count, 395: 415 units of 2^-151 in all.  The centres lie within 1.6 units
    of the eigenvalues."""
    entries = [[int(abs(i - j) <= 1) for j in range(n)] for i in range(n)]
    with mp.workprec(800):
        return entries, [1 + 2 * mp.cos(k * mp.pi / (n + 1)) for k in range(1, n + 1)]


def zero_pivot(bits=128):
    """[[3 - 3u, u, 0], [u, 0, 0], [0, 0, 3]], u = 2^-(bits + _GUARD), is its
    own T, with u = 64 units, and the bisection reaches a zero pivot three
    ways: every bracket's first midpoint is 0, where q_1 = 0 - 64^2 // q_0 =
    0, and later midpoints land on T's diagonal entries 3 - 3u and 3, where
    q_0 = 0 and q_2 = 0.  An instrumented count finds zero pivots in other
    tests too: test_swap's first midpoint, 0, equals d_0, and diagonal,
    clustered and tridiagonal matrices and the Weil blocks meet them where a
    midpoint hits an entry."""
    u = mpf(2) ** -(bits + _GUARD)
    with mp.workprec(800):
        a = 3 - 3 * u
        r = mp.sqrt(a * a / 4 + u * u)
        return [[a, u, 0], [u, 0, 0], [0, 0, 3]], [a / 2 - r, a / 2 + r, mpf(3)]


SPECTRA = {
    "clustered": clustered_blocks,
    "graded": graded,
    "one-by-one": lambda: ([[mpf(1) / 3]], [mpf(1) / 3]),
    "tridiagonal": tridiagonal_ones,
    "zero-pivot": zero_pivot,
}


def random_symmetric(rng, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.uniform(-2, 2)
        for j in range(i):
            a[i][j] = a[j][i] = rng.uniform(-1, 1)
    return a


class TestHPMatrix:
    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            HPMatrix([[1, 2], [3, 1]], 128)

    @pytest.mark.parametrize("entries", [[[1j, 0], [0, 1]], [[1, 1j], [-1j, 1]]])
    def test_rejects_complex_entries(self, entries):
        with pytest.raises(ValueError, match="real"):
            HPMatrix(entries, 128)

    def test_keeps_symmetric_entries_exactly(self):
        # an entry already equal to its mirror is not rounded to 128 bits
        with mp.workprec(256):
            third = mpf(1) / 3
        m = HPMatrix([[1, third], [third, 2]], 128)
        assert m[0, 1] == third and m[1, 0] == third

    def test_enforces_exact_symmetry(self):
        # a mirror pair 2^-100 apart is refused, not averaged
        with mp.workprec(128):
            half, off = mpf(1) / 2, mpf(1) / 2 + mpf(2) ** -100
        with pytest.raises(ValueError, match="symmetric"):
            HPMatrix([[1, off], [half, 2]], 64)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            HPMatrix([[1, 0]], 128)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HPMatrix([[1, 0, bad], [0, 2, 0], [bad, 0, 3]], 128)


class TestJacobi:
    def test_diagonal(self):
        m = HPMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]], 128)
        res = jacobi_eigensystem(m)
        assert [float(x) for x in res.eigenvalues] == [1.0, 2.0, 3.0]

    def test_swap(self):
        res = jacobi_eigensystem(HPMatrix([[0, 1], [1, 0]], 128))
        assert [float(x) for x in res.eigenvalues] == [-1.0, 1.0]
        assert float(res.residual) < 1e-30

    def test_trace_identity_12x12_256bits(self):
        rng = random.Random(5)
        a = random_symmetric(rng, 12)
        m = HPMatrix(a, 256)
        res = jacobi_eigensystem(m)
        with mp.workprec(300):
            trace = mp.fsum(m[i, i] for i in range(12))
            diff = abs(mp.fsum(res.eigenvalues) - trace)
        assert diff < mpf(10) ** -70
        assert float(res.residual) < 1e-70

    @pytest.mark.parametrize("seed", [7, 8, 9, 10])
    def test_matches_numpy(self, seed):
        m = HPMatrix(random_symmetric(random.Random(seed), 9), 192)
        res = jacobi_eigensystem(m)
        ref = np.linalg.eigvalsh(np.array([[float(x) for x in r] for r in m.rows]))
        got = np.array([float(x) for x in res.eigenvalues])
        assert np.allclose(got, ref, atol=1e-12)

    def test_tiny_eigenvalue_resolved(self):
        # 2x2 with eigenvalues ~ {1, 1e-60}: certified at 256 bits
        with mp.workprec(300):
            e = mpf(10) ** -60
            c = mp.cos(mpf(1) / 3)
            s = mp.sin(mpf(1) / 3)
            a = [
                [c * c + e * s * s, (1 - e) * c * s],
                [(1 - e) * c * s, s * s + e * c * c],
            ]
        m = HPMatrix(a, 256)
        res = jacobi_eigensystem(m)
        small = res.eigenvalues[0]
        assert abs(small - mpf(10) ** -60) < mpf(10) ** -70
        assert res.residual < mpf(2) ** -200

    @pytest.mark.parametrize("case", sorted(SPECTRA))
    def test_certificate_covers_every_eigenvalue(self, case):
        entries, exact = SPECTRA[case]()
        res = jacobi_eigensystem(HPMatrix(entries, 128))
        with mp.workprec(800):
            for got, want in zip(res.eigenvalues, sorted(exact)):
                assert abs(got - want) <= res.residual

    def test_residual_scales_with_the_matrix(self):
        # no absolute floor: 2^-300 A gets 2^-300 times A's residual
        entries, _ = clustered_blocks()
        with mp.workprec(400):
            scaled = [[mpf(x) * mpf(2) ** -300 for x in row] for row in entries]
        a, b = (jacobi_eigensystem(HPMatrix(x, 128)) for x in (entries, scaled))
        with mp.workprec(400):
            assert b.residual == a.residual * mpf(2) ** -300

    def test_residual_is_the_a_priori_count(self):
        # diag(1..8): no reflector runs, the brackets end on the exact
        # eigenvalues, and the residual is exactly the bisection's 2 units +
        # ceil(n/2) + the reduction's sum, in units of 2^(k - P) = 2^(4 - 152)
        n = 8
        res = jacobi_eigensystem(HPMatrix([[(i + 1) * (i == j) for j in range(n)]
                                           for i in range(n)], 128))
        units = 2 + ceil(n / 2) + reduction_units(n)
        assert res.residual == units * mpf(2) ** -148
        assert res.eigenvalues == list(range(1, n + 1))

    def test_empty(self):
        res = jacobi_eigensystem(HPMatrix([], 128))
        assert res.eigenvalues == []


def reduction_units(n):
    """sum_{m=2}^{n-1} ceil((9m + 12)/16): _tridiagonalize's bound in units."""
    return sum(ceil(Fraction(9 * m + 12, 16)) for m in range(2, n))


def sorted_eigenvalues(rows):
    """The eigenvalues of the symmetric integer matrix rows by mpmath's dense
    solver at 800 bits, far below a unit for entries of a few hundred bits."""
    with mp.workprec(800):
        return sorted(mp.eigsy(mp.matrix(rows), eigvals_only=True))


def matmul(a, b):
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def symmetric_ints(draws):
    """The symmetric matrix whose lower triangle, row by row, is draws."""
    m = int((2 * len(draws)) ** 0.5)
    c = [[0] * m for _ in range(m)]
    it = iter(draws)
    for i in range(m):
        for j in range(i + 1):
            c[i][j] = c[j][i] = next(it)
    return c


ENTRY = st.integers(-(2**40), 2**40)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.lists(ENTRY, min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2),
    st.lists(st.one_of(st.integers(-1, 1), ENTRY), min_size=m, max_size=m))))
@example(([0, 5, 7], [0, 1]))  # a = 1
@example(([3, -2, 9], [-1, 1]))  # a = -1
def test_reflect_within_its_lemma(case):
    # against H c H in Fractions, H = I - 2 v v^T/h for the returned a:
    # every entry within 9/16, and ||H x + a e_1||^2 <= 1/2
    c, x = symmetric_ints(case[0]), case[1]
    got, a = _reflect(c, x)
    v = [x[0] + a, *x[1:]] if any(x[1:]) else [0] * len(x)
    h = sum(t * t for t in v) or 1
    H = [[int(i == j) - Fraction(2 * vi * vj, h) for j, vj in enumerate(v)]
         for i, vi in enumerate(v)]
    want = matmul(matmul(H, c), H)
    assert all(abs(g - w) <= Fraction(9, 16) for gr, wr in zip(got, want) for g, w in zip(gr, wr))
    r = [hx + a * (i == 0) for i, (hx,) in enumerate(matmul(H, [[t] for t in x]))]
    assert sum(t * t for t in r) <= Fraction(1, 2)


@pytest.mark.parametrize("n, seed", [(3, 1), (6, 2), (10, 3), (12, 4)])
def test_tridiagonal_within_the_reduction_sum(n, seed):
    # T's sorted eigenvalues against N's, both from the 800-bit oracle, for a
    # random symmetric N with entries up to 2^160
    rng = random.Random(seed)
    N = symmetric_ints([rng.randint(-(2**160), 2**160) for _ in range(n * (n + 1) // 2)])
    d, e = _tridiagonalize(N)
    T = [[d[i] if i == j else e[min(i, j)] if abs(i - j) == 1 else 0 for j in range(n)]
         for i in range(n)]
    with mp.workprec(800):
        gap = max(abs(x - y) for x, y in zip(sorted_eigenvalues(N), sorted_eigenvalues(T)))
        assert gap <= reduction_units(n)


def direct_sum(a, b):
    return [r + [0] * len(b) for r in a] + [[0] * len(a) + r for r in b]


@st.composite
def integer_symmetric(draw):
    """A symmetric integer matrix of dimension up to 8, with entries small
    (exact ties) or up to 2^40: a block B, whose diagonal may be zeroed,
    alone, beside a second such block (T splits: a zero off-diagonal) or
    beside itself (every eigenvalue doubled); or a I + v v^T, whose
    eigenvalue a is repeated n - 1 times."""
    entry = st.one_of(st.integers(-3, 3), ENTRY)

    def block():
        m = draw(st.integers(1, 4))
        b = symmetric_ints(draw(st.lists(entry, min_size=m * (m + 1) // 2,
                                         max_size=m * (m + 1) // 2)))
        if draw(st.booleans()):
            for i in range(m):
                b[i][i] = 0
        return b

    kind = draw(st.sampled_from(["block", "split", "doubled", "rank-one"]))
    if kind == "rank-one":
        a, v = draw(entry), draw(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
        return [[a * (i == j) + x * y for j, y in enumerate(v)] for i, x in enumerate(v)]
    b = block()
    if kind == "split":
        return direct_sum(b, block())
    return direct_sum(b, b) if kind == "doubled" else b


@settings(max_examples=150, deadline=None)
@given(integer_symmetric(), st.sampled_from([8, 64, 128]))
@example([[0, 0], [0, 0]], 64)  # t = 0: the bracket starts at (-1, 1)
@example([[0, 1, 0], [1, 0, 1], [0, 1, 0]], 8)  # zero diagonal, eigenvalue 0
def test_bisection_within_the_residual(rows, bits):
    # every centre against the 800-bit oracle, one residual for all of them
    res = jacobi_eigensystem(HPMatrix(rows, bits))
    with mp.workprec(800):
        for got, want in zip(res.eigenvalues, sorted_eigenvalues(rows), strict=True):
            assert abs(got - want) <= res.residual


def exact_count(d, e, tau):
    """#{lambda(T) < tau} for T = tridiag(e, d, e) with integer entries and an
    integer tau, by the Fraction recurrence at tau - 2^-64.  A rational that
    is not an integer is no root of the monic integer characteristic
    polynomial of T or of a leading block, so no pivot is zero.  Removing
    the factors x - tau from T's polynomial leaves a monic integer one,
    nonzero at tau, so for these T (|lambda|, |tau| <= 10, n <= 6) every
    other eigenvalue is at least 20^-5 from tau."""
    sigma, count, q = tau - Fraction(1, 2**64), 0, Fraction(1)
    for di, e2 in zip(d, [0] + [x * x for x in e]):
        q = di - sigma - e2 / q
        count += q < 0
    return count


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1),
    st.integers(-9, 9))))
def test_sturm_count_within_one_unit(case):
    # the integer count is exact for a T' within one unit of T: it lies
    # between T's exact counts one unit either side of sigma
    d, e, sigma = case
    got = _sturm_count(d, [0] + [x * x for x in e], sigma)
    assert exact_count(d, e, sigma - 1) <= got <= exact_count(d, e, sigma + 1)
