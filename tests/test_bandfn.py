from fractions import Fraction

import pytest
from mpmath import mp, mpf

from band_value import evaluate_log
from convolved_band import star_convolve
from zetalab import bandfn
from zetalab.bandfn import LogBandFunction, _band_frame, _fixed_sin, _sine_tables
from zetalab.zerotable import bundled_zero_table

BITS = 240  # the precision asked of the band functions, and the tests' own


@pytest.fixture(autouse=True)
def _prec():
    with mp.workprec(BITS):
        yield


def band(coeffs, lam2=4):
    return LogBandFunction(lam2, coeffs)


class TestLogBandFunction:
    def test_support(self):
        f = band({0: 1, 2: 1})
        assert evaluate_log(f, mp.log(3), BITS) == 0
        assert evaluate_log(f, mp.log(0.2), BITS) == 0
        assert evaluate_log(f, 0, BITS) != 0
        # a Fraction t is read at the precision asked for
        assert evaluate_log(f, Fraction(1, 3), BITS) == evaluate_log(f, mpf(1) / 3, BITS) != 0

    def test_rejects_bad_lambda(self):
        # lambda^2 is read exactly, so a decimal string is 6/5, not a float
        assert LogBandFunction("1.2", {0: 1}).lam2 == "1.2"
        for lam2 in (1, "1", "abc"):
            with pytest.raises(ValueError):
                LogBandFunction(lam2, {0: 1})

    @pytest.mark.parametrize(
        "lam2, coeffs",
        [(mp.inf, {0: 1}), (5, {0: mp.nan}), (5, {1: mp.mpc(1, mp.inf)}), (5, {2: float("inf")}),
         (float("inf"), {0: 1}), ("inf", {0: 1}), ("nan", {0: 1})],
        ids=["lam2-inf", "nan", "complex-inf", "float-inf", "lam2-float-inf", "lam2-str-inf",
             "lam2-str-nan"],
    )
    def test_rejects_non_finite(self, lam2, coeffs):
        # mellin would return nan or inf
        with pytest.raises(ValueError):
            LogBandFunction(lam2, coeffs)

    @pytest.mark.parametrize("method", ["evaluate_log_minus_center"])
    @pytest.mark.parametrize("coeffs", [{0: 1}, {-2: 1, 0: 3, 2: 1}], ids=["K0", "K2"])
    def test_rejects_nan_log_point(self, method, coeffs):
        # abs(nan) > L is False, so a NaN t was read as a point of the band
        f = band(coeffs)
        for t in (float("nan"), mp.nan, "nan"):
            with pytest.raises(ValueError):
                getattr(f, method)(t, 64)

    def test_infinite_log_point_lies_outside_the_band(self):
        f = LogBandFunction.cosine_power(4, 2)
        for t in (float("inf"), -mp.inf):
            assert evaluate_log(f, t, 64) == 0
            assert f.evaluate_log_minus_center(t, 64) == -evaluate_log(f, 0, 64)

    def test_rejects_non_integer_keys(self):
        # truncated, both keys would be 1 and one coefficient lost
        with pytest.raises(TypeError):
            LogBandFunction(5, {1.5: 1, 1.2: 2})

    @pytest.mark.parametrize("coeffs", [[(0, 1)], (1, 2), None], ids=["pairs", "tuple", "none"])
    def test_rejects_non_mapping_coefficients(self, coeffs):
        # a list of (k, v) pairs failed with AttributeError on .values()
        with pytest.raises(TypeError, match="coeffs"):
            LogBandFunction(4, coeffs)

    def test_orthonormality_via_quadrature(self):
        f = band({3: 1})
        g = band({3: 1})
        L = _band_frame(f.lam2)[0]
        ip = mp.quad(lambda t: evaluate_log(f, t, BITS) * mp.conj(evaluate_log(g, t, BITS)), [-L, L])
        assert abs(ip - 1) < mpf(10) ** -40
        h = band({2: 1})
        ip2 = mp.quad(lambda t: evaluate_log(f, t, BITS) * mp.conj(evaluate_log(h, t, BITS)), [-L, L])
        assert abs(ip2) < mpf(10) ** -40

    def test_minus_center_matches_difference(self):
        f = band({0: 1, 1: Fraction(1, 2), -2: Fraction(1, 5)})
        for t in (mpf(1) / 3, mpf(-1) / 7, mpf(2) ** -40, Fraction(-2, 9)):
            direct = evaluate_log(f, t, BITS) - evaluate_log(f, 0, BITS)
            stable = f.evaluate_log_minus_center(t, BITS)
            assert abs(direct - stable) < mpf(2) ** -200

    def test_cosine_power_endpoint_flatness(self):
        f = LogBandFunction.cosine_power(4, 3)
        L = _band_frame(f.lam2)[0]
        # real and even: v_-k = v_k, exact Fractions
        assert all(type(v) is Fraction and f.coeffs[-k] == v for k, v in f.coeffs.items())
        assert abs(evaluate_log(f, L, BITS)) < mpf(10) ** -60
        h = mpf(10) ** -6
        # vanishing to high order: value at L-h is O(h^6)
        assert abs(evaluate_log(f, L - h, BITS)) < mpf(10) ** -30

    @pytest.mark.parametrize("q", range(1, 10))
    def test_cosine_power_is_the_product(self, q):
        # the closed form against the q-fold product of 1 + cos x = e^(-ix)/2
        # + 1 + e^(ix)/2, times cos(mx) = (e^(-imx) + e^(imx))/2 for m != 0
        def times(a, b):
            out = {}
            for ka, va in a.items():
                for kb, vb in b.items():
                    out[ka + kb] = out.get(ka + kb, 0) + va * vb
            return out

        half, power = Fraction(1, 2), {0: Fraction(1)}
        for _ in range(q):
            power = times(power, {-1: half, 0: Fraction(1), 1: half})
        for m in range(-4, 12):
            want = times(power, {-m: half, m: half}) if m else power
            got = LogBandFunction.cosine_power(4, q, m).coeffs
            assert dict(got) == {k: v for k, v in want.items() if v}, m
            assert all(type(v) is Fraction for v in got.values())

    def test_mellin_vs_quadrature(self):
        f = band({2: 1, -1: Fraction(1, 3)})
        L = _band_frame(f.lam2)[0]
        for s in (mpf(0), mpf(3) / 2, mp.mpc(0, 0.5), mp.mpc(2, -0.5)):
            closed = f.mellin(s, BITS)
            quad = mp.quad(lambda t: evaluate_log(f, t, BITS) * mp.expj(-s * t), [-L, L])
            assert abs(closed - quad) < mpf(10) ** -40

    def test_mellin_real_for_real_even(self):
        f = LogBandFunction.cosine_power(4, 2, modulation=1)
        for s in (0.3, 5.0, 17.25):
            v = f.mellin(mpf(s), BITS)
            assert abs(mp.im(v)) < mpf(10) ** -60

    def test_mellin_removable_singularity(self):
        f = band({3: 1})
        alpha = _band_frame(f.lam2)[1]
        on_grid = f.mellin(3 * alpha, BITS)
        near = f.mellin(3 * alpha + mpf(10) ** -30, BITS)
        assert abs(on_grid - near) < mpf(10) ** -25

    @pytest.mark.parametrize("s", [mp.nan, mp.inf, mp.ninf, float("inf"), mp.mpc(1, mp.inf)],
                             ids=["nan", "inf", "minus-inf", "float-inf", "complex-inf"])
    def test_mellin_rejects_non_finite_points(self, s):
        with pytest.raises(ValueError):
            band({0: 1, 2: 1}).mellin(s, BITS)

    @pytest.mark.parametrize("lam2", [3, 11])
    def test_pair_sum_matches_mellin(self, lam2):
        # complex coefficients with an odd part (v_k != v_-k), which the pair
        # sum must drop; table ordinates (pair form) and points on and next to
        # the grid alpha k (term-by-term form), against mellin 64 bits higher
        coeffs = {0: mp.mpc(1, 0.5), 1: Fraction(1, 3), -1: mp.mpc(-0.25, 2),
                  2: mp.mpc(0, 1), 3: mp.mpc(0.5, -0.5), -3: Fraction(2, 7)}
        f = band(coeffs, lam2=lam2)
        p, L = BITS, _band_frame(f.lam2)[0]
        alpha, c0 = mp.pi / L, 1 / mp.sqrt(2 * L)
        K = f.half_width_index
        size = 4 * c0 * mp.fsum(abs(e) for e in f._even_coefficients())

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
                return mp.fsum(f.mellin(g, p + 64) + f.mellin(-g, p + 64) for g in ordinates)

        grid = [alpha * k + d for k in range(K + 1) for d in (0, mpf(10) ** -30, -mpf(10) ** -60)]
        for g in grid:
            assert abs(f.mellin_pair_sum([g], p) - reference([g])) <= tolerance([g])
        table = bundled_zero_table().ordinates[:300]
        assert abs(f.mellin_pair_sum(table, p) - reference(table)) <= tolerance(table)

    def test_pair_sum_within_stated_bound(self, bump_prefix):
        f, table, want = bump_prefix
        with mp.workprec(256):
            got = f.mellin_pair_sum(table, 256)
            assert abs(got - want) <= pair_sum_bound(f, table, got)

    def test_pair_sum_follows_the_working_precision(self, bump_prefix):
        # the 128- and 256-bit sums each meet their own bound and agree within
        # the 128-bit one; the 256-bit sum is not a 128-bit number
        f, table, want = bump_prefix
        with mp.workprec(128):
            low = f.mellin_pair_sum(table, 128)
            low_bound = pair_sum_bound(f, table, low)
        with mp.workprec(256):
            high = f.mellin_pair_sum(table, 256)
            assert abs(high - want) <= pair_sum_bound(f, table, high)
        assert abs(low - want) <= low_bound
        assert abs(high - low) <= low_bound
        with mp.workprec(128):
            assert +high != high

    @pytest.mark.parametrize("g", [mpf("inf"), mpf("-inf"), mpf("nan"), float("inf")],
                             ids=["inf", "-inf", "nan", "float-inf"])
    def test_pair_sum_rejects_non_finite_ordinates(self, g):
        # each would be read as the ordinate 0 and summed as a finite term
        f = LogBandFunction.cosine_power(5, 2)
        with pytest.raises(ValueError):
            f.mellin_pair_sum([14, g], 64)

    def test_pair_sum_one_sine_per_ordinate(self, monkeypatch):
        # the precision contract's complex band: the real and imaginary parts
        # of its coefficients share one pass and one sine per ordinate, and
        # the sum is, bit for bit, that of the band of the real parts plus i
        # times that of the band of the imaginary parts
        f = band({0: mp.mpc(1, 0.5), 1: Fraction(1, 3), -1: mp.mpc(-0.25, 2), 2: 1j, -3: Fraction(2, 7)})
        edge = _band_frame(f.lam2)[1] * f.half_width_index + 1
        table = [g for g in bundled_zero_table().ordinates if g > edge][:200]
        calls = []

        def counting_sin(theta, W):
            calls.append(theta)
            return _fixed_sin(theta, W)

        monkeypatch.setattr(bandfn, "_fixed_sin", counting_sin)
        got = f.mellin_pair_sum(table, BITS)
        assert len(calls) == 200
        re, im = (band({k: getattr(v, part) for k, v in f.coeffs.items()}).mellin_pair_sum(table, BITS)
                  for part in ("real", "imag"))
        assert got._mpc_ == mp.mpc(re, im)._mpc_


class TestFixedSine:
    """_fixed_sin against mp.sin 64 bits higher, within its stated bound
    |q| (1/2 + 2^-15) + 10 units of 2^-W, q = floor(theta / (pi/2 at W bits))."""

    @staticmethod
    def assert_within_bound(thetas, W):
        pio2 = _sine_tables(W)[0]
        for theta in thetas:
            with mp.workprec(W + 64):
                want = mp.ldexp(mp.sin(mp.ldexp(theta, -W)), W)
            bound = abs(theta // pio2) * (0.5 + 2.0**-15) + 10
            assert abs(_fixed_sin(theta, W) - want) <= bound, theta

    @pytest.mark.parametrize("W", [BITS + 64, 368, 97])
    def test_quadrant_and_table_edges(self, W):
        # theta = 0, a few units either side of k pi/2, and r one unit either
        # side of each level's index steps, the last entries included
        pio2 = _sine_tables(W)[0]
        thetas = [0]
        for k in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6366):
            thetas += [k * pio2 + d for d in (-3, -1, 0, 1, 3)]
        for level, last in ((10, 1608), (20, 1023), (30, 1023)):
            for j in (1, 2, 512, last):
                thetas += [(j << (W - level)) + d for d in (-1, 0, 1)]
        thetas.append(pio2 - 1)  # the largest r
        assert _fixed_sin(0, W) == 0
        self.assert_within_bound(thetas, W)

    def test_large_and_negative_ordinates(self):
        # theta = g L for the bench's band, g negative and |g| up to 10^6
        W = BITS + 64
        with mp.workprec(W + 64):
            L = _band_frame(5)[0]
            gs = [mpf(g) for g in ("-14.134725141734693790457", "-1e3", "-98765.4321", "-1e6",
                                   "1e6", "999999.999", "123456.789")]
            thetas = [int(mp.floor(mp.ldexp(g * L, W))) for g in gs]
        self.assert_within_bound(thetas, W)


@pytest.fixture(scope="module")
def bump_prefix():
    """The explicit formula's cosine_power(5, 4, 1) over the first 2,000
    bundled zeros (gamma_1 is within alpha K + 1 of the grid, so both routes
    run) and the sum of mellin(g) + mellin(-g), 64 bits above the highest
    precision tested; f is real and even in log u, so f^(-g) = f^(g)."""
    f = LogBandFunction.cosine_power(5, 4, 1)
    table = bundled_zero_table().ordinates[:2000]
    with mp.workprec(256 + 64):
        want = 2 * mp.fsum(f.mellin(g, 256 + 64) for g in table)
    return f, table, want


def pair_sum_bound(f, ordinates, result):
    """mellin_pair_sum's stated rounding bound for real Fraction coefficients
    at the ambient precision p: 2^-p |result| + 4 c0 2^-(p+32) sum_g beta(g).
    The reference's own error is about 2^-64 of it."""
    p = mp.prec
    L = _band_frame(f.lam2)[0]
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
        assert abs(h.log_halfwidth() - 2 * _band_frame(g.lam2)[0]) < mpf(10) ** -60

    def test_matches_direct_convolution(self):
        g = band({0: Fraction(1, 3), 1: Fraction(-2, 7), -1: Fraction(1, 5)})
        f = band({0: Fraction(1, 2), 2: Fraction(1, 11)})
        h = star_convolve(f, g)
        L = _band_frame(g.lam2)[0]
        for t in (mpf(1) / 3, mpf(-2) / 3, mpf(11) / 10):
            # split at the indicator kinks so the oracle quadrature converges
            pts = sorted({max(-L, t - L), min(L, t + L), max(-L, min(L, t - L)), 0})
            direct = mp.quad(
                lambda tau: evaluate_log(f, t - tau, BITS) * mp.conj(evaluate_log(g, -tau, BITS)),
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
