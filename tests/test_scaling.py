import numpy as np
import pytest
from mpmath import mp, mpf

from zetalab.scaling import dirac_spectrum, poincare_sum, resonant_lambda
from zetalab.zerotable import bundled_zero_table

# the zeta-cycle protocol: circle length resonant_lambda(4, ordinate), k = 2
M_CYCLE, K, BASIS = 4, 2, 301


@pytest.fixture(scope="module")
def zeros():
    return bundled_zero_table()


def _spectrum(ordinate, zeros):
    return dirac_spectrum(resonant_lambda(M_CYCLE, ordinate), K, BASIS, zeros)


@pytest.mark.parametrize("index, bound", [(1, 1e-11), (2, 1e-8)])
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
