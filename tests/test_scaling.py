import numpy as np
import pytest
from mpmath import mp, mpf

from zetalab.scaling import (
    _MODE_CUT,
    _gauss_legendre,
    _phase_table,
    _segments,
    dirac_matrix,
    dirac_spectrum,
    poincare_sum,
    resonant_lambda,
)
from zetalab.zerotable import bundled_zero_table

# the zeta-cycle protocol: circle length resonant_lambda(4, ordinate), k = 2
M_CYCLE, K, BASIS = 4, 2, 301


@pytest.fixture(scope="module")
def zeros():
    return bundled_zero_table()


def _spectrum(ordinate, zeros):
    return dirac_spectrum(resonant_lambda(M_CYCLE, ordinate), K, BASIS, zeros)


@pytest.mark.parametrize("index, bound", [(1, 1e-11), (2, 1e-8), (3, 1e-5)])
def test_resonant_zero_is_reproduced(zeros, index, bound):
    report = _spectrum(float(zeros[index - 1]), zeros)
    eigs = report.eigenvalues
    assert eigs.shape == (BASIS,) and np.all(np.diff(eigs) >= 0)
    assert report.zero_errors[index - 1] < bound
    # zero_errors covers the table up to the top eigenvalue, nearest eigenvalue each
    n = len(report.zero_errors)
    assert float(zeros[n - 1]) <= eigs[-1] < float(zeros[n])
    brute = [np.min(np.abs(eigs - float(g))) for g in zeros[:n]]
    assert np.array_equal(report.zero_errors, brute)


@pytest.mark.parametrize("fake", [15.5, 19.0, 23.0, 27.5])
def test_fake_ordinate_is_not_reproduced(zeros, fake):
    # the null model: at a fake ordinate's resonant length no eigenvalue locks on
    eigs = _spectrum(fake, zeros).eigenvalues
    assert np.min(np.abs(eigs - fake)) > 1e-4


@pytest.mark.parametrize("k, basis_size", [(2, 300), (2, 11), (0, BASIS)])
def test_dirac_spectrum_rejects_bad_sizes(zeros, k, basis_size):
    with pytest.raises(ValueError):
        dirac_spectrum(resonant_lambda(M_CYCLE, 14.5), k, basis_size, zeros)


def test_dirac_spectrum_takes_a_zero_table(zeros):
    ordinates = [float(g) for g in zeros[:40]]
    with pytest.raises(TypeError):
        dirac_spectrum(resonant_lambda(M_CYCLE, 14.5), K, BASIS, ordinates)


def test_gauss_legendre_is_cached_and_read_only():
    x, w = _gauss_legendre(37)
    want_x, want_w = np.polynomial.legendre.leggauss(37)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    assert not x.flags.writeable and not w.flags.writeable
    again = _gauss_legendre(37)
    assert again[0] is x and again[1] is w


def test_few_node_counts_across_circle_lengths(zeros):
    # every circle length of the bench's rounds: the first 31 zeros and seven
    # points across each gap between them (the fakes are drawn from the
    # middle half of a gap).  Rounded to multiples of 32 the segments ask for
    # at most 30 distinct rules (93 without the rounding), never fewer nodes
    # than the sizing rule, and still tile [-L, L];
    # test_resonant_zero_is_reproduced gates the zero errors under these counts
    g = [float(x) for x in zeros[:31]]
    ordinates = g + [a + (b - a) * i / 8 for a, b in zip(g, g[1:]) for i in range(1, 8)]
    counts = set()
    for ordinate in ordinates:
        lam = resonant_lambda(M_CYCLE, ordinate)
        L = np.log(lam)
        segments = _segments(lam, _MODE_CUT)
        assert segments[0][0] == -L and segments[-1][1] == L
        assert all(b == a2 for (_, b, _), (a2, _, _) in zip(segments, segments[1:]))
        for a, b, n in segments:
            assert n > 3.5 * _MODE_CUT * (b - a) / (2 * L) + 23  # the rule floors, then adds 24
            counts.add(n)
    assert len(counts) <= 30


@pytest.mark.parametrize("M", [5, 150, 256])
def test_phase_table_matches_direct(M):
    lam = resonant_lambda(M_CYCLE, 21.0)
    L = np.log(lam)
    alpha = np.pi / L
    t = np.linspace(-L, L, 97)
    direct = np.exp(-1j * alpha * np.outer(np.arange(-M, M + 1), t))
    got = _phase_table(alpha, M, t)
    eps = np.finfo(float).eps
    assert got.shape == direct.shape
    assert np.abs(got - direct).max() <= 4 * eps * (1 + alpha * M * np.abs(t).max())


def test_rank_2k_dirac_matrix_matches_dense():
    # a random orthonormal complex frame with exactly basis_size modes, so the
    # truncation keeps it whole and its SVD gives the Q that dirac_matrix uses
    lam, n, k = 1.3, 61, 4
    rng = np.random.default_rng(7)
    frame, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    got = dirac_matrix(lam, frame, n)
    q, _, _ = np.linalg.svd(frame, full_matrices=False)
    d0 = np.pi * np.arange(-(n // 2), n // 2 + 1) / np.log(lam)
    comp = np.eye(n) - q @ q.conj().T
    dense = comp @ np.diag(d0) @ comp
    tol = 64 * np.finfo(float).eps * np.abs(d0).max()
    assert np.array_equal(got, got.conj().T)
    assert np.abs(got - dense).max() <= tol
    assert np.abs(np.linalg.eigvalsh(got) - np.linalg.eigvalsh(dense)).max() <= tol


def test_poincare_sum_invariant_and_accurate():
    def g(u):
        return mp.exp(-mp.log(u) ** 2)

    with mp.workprec(256):
        u = mpf(17) / 10
        ell = mp.log(3)
        # Poisson summation: sum_k g(3^k u) is a theta series in log u
        want = mp.sqrt(mp.pi) / ell * (1 + 2 * mp.fsum(
            mp.exp(-(mp.pi * n / ell) ** 2) * mp.cos(2 * mp.pi * n * mp.log(u) / ell)
            for n in range(1, 12)
        ))
        three_u = 3 * u
    got = poincare_sum(3, g, u, 128)
    assert abs(got - poincare_sum(3, g, three_u, 128)) < mpf(2) ** -110
    assert abs(got - want) < mpf(2) ** -110
