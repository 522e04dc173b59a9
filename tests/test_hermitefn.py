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


def test_project_even_schwartz_zero():
    # orders 0 (where f^(0) = f(0) a, one constraint), 1, 3 and 6
    for coeffs in ([mpf("0.7")], [1, mpf("-0.3")], F.coeffs,
                   [mpf(1) / (m + 2) * (-1) ** (m * m // 3) for m in range(7)]):
        f = EvenGaussHermite(F.scale, coeffs)
        with mp.workprec(128):
            g = f.project_even_schwartz_zero(128)
            assert abs(g.value_at_zero(128)) < mpf(2) ** -100
            assert abs(g.fourier(128).value_at_zero(128)) < mpf(2) ** -100
            h = g.project_even_schwartz_zero(128)
            assert max(abs(a - b) for a, b in zip(g.coeffs, h.coeffs)) < mpf(2) ** -100
            # orthogonal: what is removed is orthogonal to what is kept
            rest = [mp.mpmathify(a) - b for a, b in zip(f.coeffs, g.coeffs)]
            assert abs(mp.fdot(rest, g.coeffs)) < mpf(2) ** -100
            assert abs(g.norm_sq(128) + mp.fsum(x * x for x in rest) - f.norm_sq(128)) < mpf(2) ** -100


@pytest.mark.parametrize("scale, coeffs", [
    (mpf("inf"), [1]), (mpf("nan"), [1]), (float("inf"), [1]), (0, [1]), (mpf(-1), [1]),
    (1, [mpf("nan")]), (1, [1, mpf("-inf")]), (mpf("1.3"), [1, float("inf")]),
], ids=["inf-scale", "nan-scale", "float-inf-scale", "zero-scale", "negative-scale",
        "nan-coeff", "minus-inf-coeff", "float-inf-coeff"])
def test_rejects_non_finite_or_non_positive_input(scale, coeffs):
    with pytest.raises(ValueError):
        EvenGaussHermite(scale, coeffs)
