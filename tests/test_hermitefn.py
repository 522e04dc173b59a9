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


def phi_even_at_zero(m):
    """phi_2m(0) = 2^(1/4) (-1)^m sqrt((2m)!)/(2^m m!) in closed form, at the
    caller's working precision."""
    return mp.root(2, 4) * (-1) ** m * mp.sqrt(mp.factorial(2 * m)) / (2**m * mp.factorial(m))


@pytest.mark.parametrize("scale", [mpf("1.3"), mpf(5) / 4])
@pytest.mark.parametrize("bits", [64, 128])
def test_value_at_zero_matches_closed_form(scale, bits):
    # g(0) is read from evaluate (tate_arch_check's subtracted constant):
    # phi_2m(0)/sqrt(a) for each order m = 0..6, within 2^-bits relative
    with mp.workprec(bits + 64):
        for m in range(7):
            want = phi_even_at_zero(m) / mp.sqrt(scale)
            got = EvenGaussHermite(scale, [0] * m + [1]).evaluate(0, bits)
            assert abs(got - want) <= mpf(2) ** -bits * abs(want), m


@pytest.mark.parametrize("scale, coeffs", [
    (mpf("inf"), [1]), (mpf("nan"), [1]), (float("inf"), [1]), (0, [1]), (mpf(-1), [1]),
    (1, [mpf("nan")]), (1, [1, mpf("-inf")]), (mpf("1.3"), [1, float("inf")]),
], ids=["inf-scale", "nan-scale", "float-inf-scale", "zero-scale", "negative-scale",
        "nan-coeff", "minus-inf-coeff", "float-inf-coeff"])
def test_rejects_non_finite_or_non_positive_input(scale, coeffs):
    with pytest.raises(ValueError):
        EvenGaussHermite(scale, coeffs)


def test_evaluate_at_non_finite_points():
    # a NaN x is refused; at +-inf the value is the Gaussian's limit, 0, where
    # the recurrence would give inf * 0 from order 1 on
    with pytest.raises(ValueError):
        F.evaluate(mp.nan, 64)
    for x in (mp.inf, mp.ninf, float("inf")):
        assert F.evaluate(x, 64) == 0
