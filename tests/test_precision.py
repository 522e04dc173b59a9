import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from zetalab.precision import _GUARD, HPMatrix, _sturm_count, jacobi_eigensystem


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
    tridiagonal, so the reduction is exact (Q = I, R = 0, delta = 0) and the
    residual is the Sturm radius rho plus 1 + n/2 units (0.14 u), which QL's
    error here exceeds without rho."""
    entries = [[int(abs(i - j) <= 1) for j in range(n)] for i in range(n)]
    with mp.workprec(800):
        return entries, [1 + 2 * mp.cos(k * mp.pi / (n + 1)) for k in range(1, n + 1)]


def zero_pivot(bits=128):
    """[[3 - 3u, u, 0], [u, 0, 0], [0, 0, 3]], u = 2^-(bits + _GUARD), is its
    own T, with u = 64 units.  The Sturm radius starts at t >> p = 192 units
    = 3u, so c_i -+ rho lands on T's diagonal entries 3 - 3u and 3, and the
    counts reach a zero pivot: q_0 = 0 at c_2 - rho = 3 - 3u, q_2 = 0 at
    c_1 + rho = 3."""
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
        eps = 1e-25
        m = HPMatrix([[1, 0.5 + eps], [0.5, 2]], 64)
        assert m[0, 1] == m[1, 0]

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
        assert float(res.max_residual()) < 1e-30

    def test_trace_identity_12x12_256bits(self):
        rng = random.Random(5)
        a = random_symmetric(rng, 12)
        m = HPMatrix(a, 256)
        res = jacobi_eigensystem(m)
        with mp.workprec(300):
            trace = mp.fsum(m[i, i] for i in range(12))
            diff = abs(mp.fsum(res.eigenvalues) - trace)
        assert diff < mpf(10) ** -70
        assert float(res.max_residual()) < 1e-70

    @pytest.mark.parametrize("seed", [7, 8, 9, 10])
    def test_matches_numpy(self, seed):
        m = HPMatrix(random_symmetric(random.Random(seed), 9), 192)
        res = jacobi_eigensystem(m)
        ref = np.linalg.eigvalsh(np.array([[float(x) for x in r] for r in m.rows]))
        got = np.array([float(x) for x in res.eigenvalues])
        assert np.allclose(got, ref, atol=1e-12)

    def test_orthogonality_defect(self):
        rng = random.Random(11)
        m = HPMatrix(random_symmetric(rng, 8), 192)
        res = jacobi_eigensystem(m)
        assert res.defect < mpf(2) ** -150

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
        assert res.max_residual() < mpf(2) ** -200

    @pytest.mark.parametrize("case", sorted(SPECTRA))
    def test_certificate_covers_every_eigenvalue(self, case):
        entries, exact = SPECTRA[case]()
        res = jacobi_eigensystem(HPMatrix(entries, 128))
        with mp.workprec(800):
            for got, want in zip(res.eigenvalues, sorted(exact)):
                assert abs(got - want) <= res.max_residual()

    def test_residual_scales_with_the_matrix(self):
        # no absolute floor: 2^-300 A gets 2^-300 times A's residual
        entries, _ = clustered_blocks()
        with mp.workprec(400):
            scaled = [[mpf(x) * mpf(2) ** -300 for x in row] for row in entries]
        a, b = (jacobi_eigensystem(HPMatrix(x, 128)) for x in (entries, scaled))
        with mp.workprec(400):
            assert b.max_residual() == a.max_residual() * mpf(2) ** -300

    def test_empty(self):
        res = jacobi_eigensystem(HPMatrix([], 128))
        assert res.eigenvalues == []


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
