from fractions import Fraction

import pytest
from mpmath import mp, mpf

from convolved_band import star_convolve
from zetalab.bandfn import LogBandFunction
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

    @pytest.mark.parametrize(
        "lam2, coeffs",
        [(mp.inf, {0: 1}), (5, {0: mp.nan}), (5, {1: mp.mpc(1, mp.inf)}), (5, {2: float("inf")})],
        ids=["lam2-inf", "nan", "complex-inf", "float-inf"],
    )
    def test_rejects_non_finite(self, lam2, coeffs):
        # mellin would return nan or inf
        with pytest.raises(ValueError):
            LogBandFunction(lam2, coeffs)

    def test_rejects_non_integer_keys(self):
        # truncated, both keys would be 1 and one coefficient lost
        with pytest.raises(TypeError):
            LogBandFunction(5, {1.5: 1, 1.2: 2})

    def test_orthonormality_via_quadrature(self):
        f = band({3: 1})
        g = band({3: 1})
        L = f.log_halfwidth()
        ip = mp.quad(lambda t: f.evaluate_log(t) * mp.conj(g.evaluate_log(t)), [-L, L])
        assert abs(ip - 1) < mpf(10) ** -40
        h = band({2: 1})
        ip2 = mp.quad(lambda t: f.evaluate_log(t) * mp.conj(h.evaluate_log(t)), [-L, L])
        assert abs(ip2) < mpf(10) ** -40

    def test_minus_center_matches_difference(self):
        f = band({0: 1, 1: Fraction(1, 2), -2: Fraction(1, 5)})
        for t in (mpf(1) / 3, mpf(-1) / 7, mpf(2) ** -40):
            direct = f.evaluate_log(t) - f.value_at_one()
            stable = f.evaluate_log_minus_center(t)
            assert abs(direct - stable) < mpf(2) ** -200

    def test_cosine_power_endpoint_flatness(self):
        f = LogBandFunction.cosine_power(4, 3)
        L = f.log_halfwidth()
        # real and even: v_-k = v_k, exact Fractions
        assert all(type(v) is Fraction and f.coeffs[-k] == v for k, v in f.coeffs.items())
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

    def test_pair_sum_within_stated_bound(self, bump_prefix):
        f, table, want = bump_prefix
        with mp.workprec(256):
            got = f.mellin_pair_sum(table)
            assert abs(got - want) <= pair_sum_bound(f, table, got)

    def test_pair_sum_follows_the_working_precision(self, bump_prefix):
        # the 128- and 256-bit sums each meet their own bound and agree within
        # the 128-bit one; the 256-bit sum is not a 128-bit number
        f, table, want = bump_prefix
        with mp.workprec(128):
            low = f.mellin_pair_sum(table)
            low_bound = pair_sum_bound(f, table, low)
        with mp.workprec(256):
            high = f.mellin_pair_sum(table)
            assert abs(high - want) <= pair_sum_bound(f, table, high)
        assert abs(low - want) <= low_bound
        assert abs(high - low) <= low_bound
        with mp.workprec(128):
            assert +high != high


@pytest.fixture(scope="module")
def bump_prefix():
    """The explicit formula's cosine_power(5, 4, 1) over the first 2,000
    bundled zeros (gamma_1 is within alpha K + 1 of the grid, so both routes
    run) and the sum of mellin(g) + mellin(-g), 64 bits above the highest
    precision tested; f is real and even in log u, so f^(-g) = f^(g)."""
    f = LogBandFunction.cosine_power(5, 4, 1)
    table = bundled_zero_table().ordinates[:2000]
    with mp.workprec(256 + 64):
        want = 2 * mp.fsum(f.mellin(g) for g in table)
    return f, table, want


def pair_sum_bound(f, ordinates, result):
    """mellin_pair_sum's stated rounding bound for real Fraction coefficients
    at the ambient precision p: 2^-p |result| + 4 c0 2^-(p+32) sum_g beta(g).
    The reference's own error is about 2^-64 of it."""
    p = mp.prec
    L = f.log_halfwidth()
    alpha, c0 = mp.pi / L, 1 / mp.sqrt(2 * L)
    K = f.half_width_index
    V = mp.fsum(abs(mpf(v.numerator) / v.denominator) for v in f.coeffs.values())
    edge = alpha * K + 1

    def beta(g):
        if abs(g) <= edge:
            return V * L * (4 * mp.pi * K + L + 20) + 1
        return K * (abs(g) + 1) + V * (3 * L * abs(g) + 15 * alpha * K + 30) + 4

    terms = mp.fsum(beta(g) for g in ordinates)
    return mpf(2) ** -p * abs(result) + 4 * c0 * mpf(2) ** -(p + 32) * terms


class TestStarConvolve:
    def test_value_at_one_is_norm(self):
        # (g * g~)(1) = ||g||^2 = sum |v_k|^2: the basis is orthonormal
        g = band({0: Fraction(1, 3), 1: Fraction(-2, 7), -2: Fraction(1, 5)})
        h = star_convolve(g, g)
        norm_sq = mpf(1) / 9 + mpf(4) / 49 + mpf(1) / 25
        assert abs(h.value_at_one() - norm_sq) < mpf(10) ** -60

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

    def test_pieces_follow_the_working_precision(self):
        # pieces are kept per precision: a value at 64 bits after use at 240
        # equals a fresh object's, and the 240-bit value is unchanged
        f = band({0: 1, 1: Fraction(1, 3)})
        g = band({-1: Fraction(2, 5), 2: 1})
        h = star_convolve(f, g)
        t = mpf(1) / 7
        high = h.evaluate_log(t)
        with mp.workprec(64):
            assert h.evaluate_log(t) == star_convolve(f, g).evaluate_log(t)
            assert h.value_at_one() == star_convolve(f, g).value_at_one()
        assert h.evaluate_log(t) == high == star_convolve(f, g).evaluate_log(t)

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
