import pytest
from mpmath import mp, mpf

from zetalab.hermitefn import EvenGaussHermite

F = EvenGaussHermite(mpf("1.3"), [1, mpf("0.5"), mpf(-2) / 3, mpf("0.25")])


def test_fourier_closed_form_matches_transform():
    # F(f)(y) = 2 int_0^inf f(x) cos(2 pi x y) dx for even f
    with mp.workprec(96):
        fhat = F.fourier(96)
        for y in (mpf("0.4"), mpf("1.1")):
            num = 2 * mp.quad(
                lambda x: F.evaluate(x, 96) * mp.cos(2 * mp.pi * x * y),
                [0, 2, F.decay_radius(128)],
            )
            assert abs(num - fhat.evaluate(y, 96)) < mpf(2) ** -80


@pytest.mark.parametrize("scale, coeffs", [
    (mpf("inf"), [1]), (mpf("nan"), [1]), (float("inf"), [1]), (0, [1]), (mpf(-1), [1]),
    (1, [mpf("nan")]), (1, [1, mpf("-inf")]), (mpf("1.3"), [1, float("inf")]),
], ids=["inf-scale", "nan-scale", "float-inf-scale", "zero-scale", "negative-scale",
        "nan-coeff", "minus-inf-coeff", "float-inf-coeff"])
def test_rejects_non_finite_or_non_positive_input(scale, coeffs):
    with pytest.raises(ValueError):
        EvenGaussHermite(scale, coeffs)
