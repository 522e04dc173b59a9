import pytest
from mpmath import mpf

from zetalab.bandfn import LogBandFunction
from zetalab.hermitefn import EvenGaussHermite
from zetalab.semilocal import (
    _gamma_orbit_integers,
    semilocal_lift_check,
    tate_arch_check,
    u_arch,
    zeta_ratio,
)


@pytest.mark.parametrize(
    "mu, want",
    [
        (1, [1]),
        (7, [1, 2, 3, 4, 5, 6]),  # 7 itself has the prime factor 7 = mu
        (7.5, [1, 2, 3, 4, 5, 6, 7]),
        (8, [1, 2, 3, 4, 5, 6, 7, 8]),
        (13, list(range(1, 13))),
    ],
)
def test_gamma_orbit_integers(mu, want):
    assert _gamma_orbit_integers(mu) == want


def test_u_arch_is_zeta_ratio():
    for s in (mpf("3.7"), mpf(-11) / 3):
        assert abs(u_arch(s, 128) - zeta_ratio(s, 128)) < mpf(2) ** -120


def test_tate_functional_equation():
    f = EvenGaussHermite(mpf("1.3"), [1, mpf("0.5"), mpf(-2) / 3, mpf("0.25")])
    lhs, rhs, residual = tate_arch_check(f, mpf("0.7"), 96)
    # each side is certified to 2^-(bits/2) by its quadrature error estimate
    assert abs(residual) < mpf(2) ** -48


@pytest.mark.parametrize("u", [mpf("0.5"), mpf("1.3")])
def test_semilocal_lift(u):
    # support of f is [1/sqrt(8), sqrt(8)] = [1/lambda, lambda] for mu = 8
    f = LogBandFunction.cosine_power(8, 2)
    lhs, rhs = semilocal_lift_check(f, 8, u, precision_bits=128)
    assert abs(rhs) > mpf("0.1")
    assert abs(lhs - rhs) < mpf(2) ** -120
