from mpmath import mp, mpf

from zetalab.hermitefn import EvenGaussHermite


def test_project_even_schwartz_zero():
    with mp.workprec(128):
        f = EvenGaussHermite(mpf("1.3"), [1, mpf("0.5"), mpf(-2) / 3, mpf("0.25")])
        g = f.project_even_schwartz_zero()
        assert abs(g.value_at_zero()) < mpf(2) ** -100
        assert abs(g.fourier_at_zero()) < mpf(2) ** -100
        h = g.project_even_schwartz_zero()
        assert max(abs(a - b) for a, b in zip(g.coeffs, h.coeffs)) < mpf(2) ** -100
