from fractions import Fraction

import pytest
from mpmath import mp, mpf

from zetalab.bandfn import LogBandFunction, star_convolve
from zetalab.zerotable import bundled_zero_table


@pytest.fixture(autouse=True)
def _prec():
    with mp.workprec(240):
        yield


def band(coeffs, lam2=4):
    return LogBandFunction(lam2, coeffs)


class TestLogBandFunction:
    def test_support(self):
        f = band({0: 1, 2: 1})
        assert f.evaluate(3.0) == 0
        assert f.evaluate(0.2) == 0
        assert f.evaluate(1.0) != 0
        with pytest.raises(ValueError):
            f.evaluate(-1)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            LogBandFunction(1, {0: 1})

    def test_orthonormality_via_quadrature(self):
        f = band({3: 1})
        g = band({3: 1})
        L = f.log_halfwidth()
        ip = mp.quad(lambda t: f.evaluate_log(t) * mp.conj(g.evaluate_log(t)), [-L, L])
        assert abs(ip - 1) < mpf(10) ** -40
        h = band({2: 1})
        ip2 = mp.quad(lambda t: f.evaluate_log(t) * mp.conj(h.evaluate_log(t)), [-L, L])
        assert abs(ip2) < mpf(10) ** -40

    def test_norm_sq(self):
        f = band({0: Fraction(1, 3), 5: Fraction(-2, 7)})
        want = mpf(1) / 9 + mpf(4) / 49
        assert abs(f.norm_sq() - want) < mpf(10) ** -60

    def test_star_conjugates_coefficients(self):
        f = band({1: 2 + 1j, -3: 0.5})
        fs = f.star()
        for t in (0.1, -0.4, 0.62):
            lhs = fs.evaluate_log(t)
            rhs = mp.conj(f.evaluate_log(-t))
            assert abs(lhs - rhs) < mpf(10) ** -60

    def test_minus_center_matches_difference(self):
        f = band({0: 1, 1: Fraction(1, 2), -2: Fraction(1, 5)})
        for t in (mpf(1) / 3, mpf(-1) / 7, mpf(2) ** -40):
            direct = f.evaluate_log(t) - f.value_at_one()
            stable = f.evaluate_log_minus_center(t)
            assert abs(direct - stable) < mpf(2) ** -200

    def test_cosine_power_endpoint_flatness(self):
        f = LogBandFunction.cosine_power(4, 3)
        L = f.log_halfwidth()
        assert f.is_real()
        assert abs(f.evaluate_log(L)) < mpf(10) ** -60
        h = mpf(10) ** -6
        # vanishing to high order: value at L-h is O(h^6)
        assert abs(f.evaluate_log(L - h)) < mpf(10) ** -30

    def test_mellin_vs_quadrature(self):
        f = band({2: 1, -1: Fraction(1, 3)})
        L = f.log_halfwidth()
        for s in (mpf(0), mpf(3) / 2, mp.mpc(0, 0.5), mp.mpc(2, -0.5)):
            closed = f.mellin(s)
            quad = mp.quad(lambda t: f.evaluate_log(t) * mp.expj(-s * t), [-L, L])
            assert abs(closed - quad) < mpf(10) ** -40

    def test_mellin_real_for_real_even(self):
        f = LogBandFunction.cosine_power(4, 2, modulation=1)
        for s in (0.3, 5.0, 17.25):
            v = f.mellin(mpf(s))
            assert abs(mp.im(v)) < mpf(10) ** -60

    def test_mellin_removable_singularity(self):
        f = band({3: 1})
        alpha = mp.pi / f.log_halfwidth()
        on_grid = f.mellin(3 * alpha)
        near = f.mellin(3 * alpha + mpf(10) ** -30)
        assert abs(on_grid - near) < mpf(10) ** -25

    @pytest.mark.parametrize("lam2", [3, 11])
    def test_pair_sum_matches_mellin(self, lam2):
        # complex coefficients with an odd part (v_k != v_-k), which the pair
        # sum must drop; table ordinates (pair form) and points on and next to
        # the grid alpha k (term-by-term form), against mellin 64 bits higher
        coeffs = {0: mp.mpc(1, 0.5), 1: Fraction(1, 3), -1: mp.mpc(-0.25, 2),
                  2: mp.mpc(0, 1), 3: mp.mpc(0.5, -0.5), -3: Fraction(2, 7)}
        f = band(coeffs, lam2=lam2)
        p, L = mp.prec, f.log_halfwidth()
        alpha, c0 = mp.pi / L, 1 / mp.sqrt(2 * L)
        K = f.half_width_index
        size = 4 * c0 * mp.fsum(abs(e) for e in f.even_coefficients())

        def tolerance(ordinates):
            # per ordinate, sin(gL) carries an absolute error of about
            # 2^-p (|g| L + 1), the rational part (at most 2 size/(4 c0) in
            # absolute value) a relative one of about 2^-p (2 alpha K + 1),
            # and the term-by-term form near the grid no more; 2^8 covers the
            # small constants and the reference's own error
            return mp.fsum(mpf(2) ** (8 - p) * size * (2 + L * abs(g) + 2 * alpha * K)
                           for g in ordinates)

        def reference(ordinates):
            with mp.workprec(p + 64):
                return mp.fsum(f.mellin(g) + f.mellin(-g) for g in ordinates)

        grid = [alpha * k + d for k in range(K + 1) for d in (0, mpf(10) ** -30, -mpf(10) ** -60)]
        for g in grid:
            assert abs(f.mellin_pair_sum([g]) - reference([g])) <= tolerance([g])
        table = bundled_zero_table().ordinates[:300]
        assert abs(f.mellin_pair_sum(table) - reference(table)) <= tolerance(table)


class TestStarConvolve:
    def test_value_at_one_is_norm(self):
        g = band({0: Fraction(1, 3), 1: Fraction(-2, 7), -2: Fraction(1, 5)})
        h = star_convolve(g, g)
        assert abs(h.value_at_one() - g.norm_sq()) < mpf(10) ** -60

    def test_support_doubles(self):
        g = band({1: 1})
        h = star_convolve(g, g)
        assert h.evaluate(4.5) == 0
        assert h.evaluate(mpf(1) / 5) == 0
        assert abs(h.log_halfwidth() - 2 * g.log_halfwidth()) < mpf(10) ** -60

    def test_matches_direct_convolution(self):
        g = band({0: Fraction(1, 3), 1: Fraction(-2, 7), -1: Fraction(1, 5)})
        f = band({0: Fraction(1, 2), 2: Fraction(1, 11)})
        h = star_convolve(f, g)
        L = g.log_halfwidth()
        for t in (mpf(1) / 3, mpf(-2) / 3, mpf(11) / 10):
            # split at the indicator kinks so the oracle quadrature converges
            pts = sorted({max(-L, t - L), min(L, t + L), max(-L, min(L, t - L)), 0})
            direct = mp.quad(
                lambda tau: f.evaluate_log(t - tau) * mp.conj(g.evaluate_log(-tau)),
                [-L] + pts + [L],
            )
            assert abs(h.evaluate_log(t) - direct) < mpf(10) ** -40

    def test_mellin_factorization(self):
        f = band({0: 1, 1: Fraction(1, 3)})
        g = band({-1: Fraction(2, 5), 2: 1})
        h = star_convolve(f, g)
        S = h.log_halfwidth()
        for s in (mpf(1) / 3, mpf(7) / 2, mp.mpc(1, 1), mp.mpc(0, 0.5), mpf(12)):
            closed = h.mellin(s)
            quad = mp.quad(lambda t: h.evaluate_log(t) * mp.expj(-s * t), [-S, 0, S])
            assert abs(closed - quad) < mpf(10) ** -30

    def test_requires_same_band(self):
        with pytest.raises(ValueError):
            star_convolve(band({0: 1}, lam2=4), band({0: 1}, lam2=9))

    def test_hermitian_pairing(self):
        f = band({0: 1, 1: 0.25})
        g = band({1: 0.5, -1: 0.125})
        hfg = star_convolve(f, g)
        hgf = star_convolve(g, f)
        for t in (0.3, -0.9):
            assert abs(hfg.evaluate_log(t) - mp.conj(hgf.evaluate_log(-t))) < mpf(10) ** -50
