import pytest

from zetalab.semilocal import _gamma_orbit_integers


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
