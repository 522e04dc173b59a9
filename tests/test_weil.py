import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_rational

from arch_quadrature import w_arch_quadrature
from band_value import evaluate_log
from convolved_band import star_convolve
from gram_oracle import WEIL_GRID, mpf_parity_blocks, oracle_scale
from zetalab.bandfn import LogBandFunction, _band_frame, _exact
from zetalab.precision import HPMatrix
from zetalab.scaling import dirac_spectrum, prolate_vectors, resonant_lambda
from zetalab.semilocal import (_theta_prime, arch_trace_check, quad_checked, tate_arch_check,
                               trace_side_integral)
from zetalab.weil import (
    _pole_functionals,
    _prime_powers,
    explicit_formula_residual,
    is_prime,
    w_arch,
    w_prime,
    weil_gram,
    weil_gram_complex,
    weil_gram_spectrum,
)
from zetalab.zerotable import bundled_zero_table


# inputs that are not a LogBandFunction: a band function of another type,
# and a plain callable
NON_BAND = pytest.mark.parametrize("make", [
    lambda: star_convolve(LogBandFunction(4, {0: 1}), LogBandFunction(4, {1: 1})),
    lambda: (lambda x: x),
], ids=["convolved", "callable"])


@pytest.fixture(scope="module")
def zeros():
    return bundled_zero_table()


@pytest.fixture(scope="module")
def spectrum_5_8_192():
    # shared by the certificate tests below
    return weil_gram_spectrum(5, 8, 192)


@pytest.fixture(scope="module")
def bump_profile(zeros):
    # the first 10 zeros and the whole table, shared by the tests below
    f = LogBandFunction.cosine_power(4, 4, modulation=1)
    return [explicit_formula_residual(f, z, 256) for z in (zeros.truncated(10), zeros)]


class TestMellinHat:
    def test_constant_basis_at_zero(self):
        f = LogBandFunction(4, {0: 1})
        with mp.workprec(256):
            want = mp.sqrt(2 * mp.log(2))
            assert abs(f.mellin(0, 256) - want) < mpf(10) ** -70

    def test_spot_values_vs_quadrature(self):
        f = LogBandFunction(9, {3: 1, -1: Fraction(1, 7)})
        with mp.workprec(256):
            L = _band_frame(f.lam2)[0]
            for s in (mpf(2), mpf(-11) / 3):
                quad = mp.quad(lambda t: evaluate_log(f, t, 256) * mp.expj(-s * t), [-L, L])
                assert abs(f.mellin(s, 256) - quad) < mpf(10) ** -30

    def test_real_for_symmetric(self):
        f = LogBandFunction.cosine_power(4, 2)
        with mp.workprec(200):
            assert abs(mp.im(f.mellin(mpf(7) / 3, 200))) < mpf(10) ** -50


class TestWPrime:
    def test_support_inside_prime_window_vanishes(self):
        # lambda^2 = 3.9 < 4 holds no prime power, so the sum is empty
        f = LogBandFunction(mpf(3.9), {0: 1, 1: Fraction(1, 3)})
        assert w_prime(f, 256) == 0

    def test_single_term_value(self):
        # f = 1 on the band lambda^2 = 9: 2 contributes log 2 2^(-1/2) (1 + 1)
        # and 3, on the edge at half weight, log 3 3^(-1/2) (1 + 1)/2
        with mp.workprec(300):
            c0 = 1 / mp.sqrt(2 * mp.log(3))
            f = LogBandFunction(9, {0: 1 / c0})
            want = mp.sqrt(2) * mp.log(2) + mp.log(3) / mp.sqrt(3)
        assert abs(w_prime(f, 256) - want) < mpf(10) ** -70

    def test_edge_at_half_weight_at_every_precision(self):
        # f = c0 on the band lambda^2 = 729: the closed form over every p^m <=
        # 27, with 27 = 3^3 on the edge at half weight, at every precision
        f = LogBandFunction(729, {0: 1})
        with mp.workprec(400):
            c0 = 1 / mp.sqrt(2 * mp.log(27))
            powers = [(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for m in range(1, 5) if p**m <= 27]
            want = 2 * c0 * mp.fsum(mp.log(p) * mpf(p) ** (-mpf(m) / 2) / (2 if p**m == 27 else 1)
                                    for p, m in powers)
        for bits in (16, 80, 144, 256, 288):
            assert abs(w_prime(f, bits) - want) < mpf(2) ** -bits, bits


def _brute_prime_powers(q):
    # (p, m, weight factor) for every prime power n = p^m with n^2 <= q, the
    # factor 1/2 where n^2 = q; primes from is_prime, n up to 200
    out = []
    for n in range(2, 200):
        ps = [d for d in range(2, n + 1) if n % d == 0 and is_prime(d)]
        if len(ps) == 1 and n * n <= q:
            m = round(mp.log(n) / mp.log(ps[0]))
            assert ps[0] ** m == n
            out.append((ps[0], m, Fraction(1, 2) if n * n == q else 1))
    return sorted(out)


EDGES = (4, 9, 16, 64, 729)
# exact edges, 2^-200 off them, non-integer lambda^2, and the Gram's (lam2)^2
BANDS = {
    **{str(e): e for e in EDGES},
    **{f"{e}{'-+'[d > 0]}2^-200": Fraction(e) + d * Fraction(1, 2**200) for e in EDGES for d in (-1, 1)},
    "11/2": Fraction(11, 2), "mpf-7.25": mpf("7.25"), "float-64": 64.0,
    **{f"gram-{x}": _exact(x) ** 2 for x in (2, 3, 5, 7, 11)},
}


@pytest.mark.parametrize("lam2", BANDS.values(), ids=BANDS.keys())
def test_prime_powers_match_brute_force(lam2):
    # membership and weight decided exactly, against a table built from
    # is_prime; an edge's t is the band's own L, bit for bit
    with mp.workprec(128):
        got = _prime_powers(lam2)
        want = _brute_prime_powers(_exact(lam2))
        assert len(got) == len(want)
        for (p, t, w), (q, m, half) in zip(got, want):
            assert p == q
            assert abs(t - m * mp.log(p)) < mpf(2) ** -120
            assert abs(w - half * mp.log(p) * mpf(p) ** (-mpf(m) / 2)) < mpf(2) ** -120
            if half != 1:
                assert t == _band_frame(lam2)[0]


class TestWArch:
    def test_zero_function(self):
        assert w_arch(LogBandFunction(4, {}), 256) == 0

    def test_gaussian_in_log_trace_identity(self):
        # W_R(f) = -(1/2 pi) int_R f^(s) theta'(s) ds, f^(s) = sqrt(pi) e^(-s^2/4)
        def gauss(x):
            return mp.exp(-mp.log(x) ** 2)

        got = w_arch_quadrature(gauss, 120)
        with mp.workprec(168):
            trace = -quad_checked(
                lambda s: mp.sqrt(mp.pi) * mp.exp(-s * s / 4) * mp.re(_theta_prime(s)),
                [0, 10, 20, 40, 80], 120,
            ) / mp.pi
        assert abs(got - trace) < mpf(2) ** -120

    def test_band_path_matches_generic(self):
        f = LogBandFunction.cosine_power(4, 2, modulation=1)
        band_val = w_arch(f, 192)
        with mp.workprec(240):
            def generic(x):  # f at the precision the quadrature runs at
                return evaluate_log(f, mp.log(x), mp.prec)

            # the support edge is a kink in log coordinates
            gen_val = w_arch_quadrature(generic, 160, breakpoints=[mp.log(2)])
            assert abs(band_val - gen_val) < mpf(10) ** -40

    @pytest.mark.parametrize("lam2", ["1.2", "4", "11"])
    @pytest.mark.parametrize(
        "coeffs",
        [
            LogBandFunction.cosine_power(4, 3, modulation=1).coeffs,
            {1: 1, -1: -1},  # odd: f(1) = 0 and W_R(f) = 0
            {0: mpc(1, 0.5), 1: Fraction(1, 3), -1: mpc(-0.25, 2), 2: 1j, -3: Fraction(2, 7)},
        ],
        ids=["cosine-power", "odd", "complex"],
    )
    def test_closed_form_matches_generic(self, lam2, coeffs):
        # the closed form (no quadrature) against the plain-callable route
        bits = 128
        f = LogBandFunction(mpf(lam2), coeffs)
        closed = w_arch(f, bits)
        with mp.workprec(bits + 48):
            generic = w_arch_quadrature(lambda x: evaluate_log(f, mp.log(x), mp.prec), bits,
                                        breakpoints=[_band_frame(f.lam2)[0]])
        assert abs(closed - generic) < mpf(2) ** -(bits - 8)

    @NON_BAND
    @pytest.mark.parametrize("check", [
        w_arch, arch_trace_check, trace_side_integral,
        w_prime, lambda f, bits: tate_arch_check(f, 0, bits),
    ], ids=["w_arch", "arch-trace", "trace-side", "w_prime", "tate"])
    def test_rejects_non_band_function(self, check, make):
        # before any work: w_arch's digamma pass, the quadratures, or a read of
        # f's band; tate_arch_check takes an EvenGaussHermite only
        with pytest.raises(TypeError):
            check(make(), 128)

    def test_vanishing_at_one_truncates(self):
        # f(1) = 0: no distributional term, integral over the band only
        f = LogBandFunction(4, {1: 1, -1: -1})  # odd combination: f(1) = 0
        with mp.workprec(200):
            assert abs(evaluate_log(f, 0, 200)) < mpf(10) ** -50
        v = w_arch(f, 160)
        assert mp.isfinite(v)


class TestExplicitFormula:
    def test_zero_function(self, zeros):
        chk = explicit_formula_residual(LogBandFunction(4, {}), zeros.truncated(10), 256)
        assert chk.lhs == chk.rhs == chk.residual == 0

    def test_smooth_bump_small_residual(self, zeros, bump_profile):
        chk = bump_profile[1]
        assert chk.zeros_used == len(zeros)
        assert abs(chk.residual) < mpf(10) ** -8

    def test_real_function_gives_real_values(self, bump_profile):
        # a real even f: the poles, W_R, the primes and the zero sum are all
        # real, so no mpc with a zero imaginary part comes back
        for chk in bump_profile:
            assert all(type(x) is mpf for x in (chk.lhs, chk.rhs, chk.residual))
        assert abs(bump_profile[1].residual) < mpf(10) ** -8

    def test_truncation_dominates_short_table(self, bump_profile):
        profile = bump_profile
        assert abs(profile[0].residual) > 1000 * abs(profile[1].residual)

    @NON_BAND
    def test_rejects_non_band_function(self, zeros, make):
        with pytest.raises(TypeError):
            explicit_formula_residual(make(), zeros.truncated(10), 128)

    def test_rejects_non_zero_table(self, monkeypatch):
        # before W_R or the prime side is computed
        from zetalab import weil

        monkeypatch.setattr(weil, "w_arch", lambda *args: pytest.fail("W_R computed"))
        with pytest.raises(TypeError):
            explicit_formula_residual(LogBandFunction(4, {0: 1}), [14.13, 21.02], 256)

    @pytest.mark.parametrize("lam2, p", [(4, 2), (9, 3)])
    def test_edge_prime_at_half_weight(self, zeros, lam2, p):
        # f = c0 on its band jumps to 0 at p = lambda.  Counting the edge at
        # full weight leaves about -w f(lambda^-) in the residual, dropping it
        # about +w f(lambda^-), w = log p/sqrt(p); half weight, the mean of
        # the one-sided values, leaves only the table's truncation
        f = LogBandFunction(lam2, {0: 1})
        chk = explicit_formula_residual(f, zeros, 64)
        with mp.workprec(64):
            edge = mp.log(p) / mp.sqrt(p) * evaluate_log(f, 0, 64)
        assert abs(chk.residual) < edge / 2

    def test_reads_f_only_through_its_even_coefficients(self, zeros, monkeypatch):
        # a real band with an odd part gives three mpf, bit for bit those of
        # the even band with the same e_k, from one pass over the band's
        # prime powers, with no call of mellin and no point value of f
        from zetalab import weil

        odd = LogBandFunction(9, {3: 1, -1: Fraction(1, 7)})
        even = LogBandFunction(9, {k: Fraction(1, 14 if abs(k) == 1 else 2) for k in (-3, -1, 1, 3)})
        passes, prime_powers = [], weil._prime_powers
        monkeypatch.setattr(weil, "_prime_powers", lambda lam2: passes.append(lam2) or prime_powers(lam2))
        for name in ("mellin", "evaluate_log_minus_center"):  # the band's other readers
            monkeypatch.setattr(LogBandFunction, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        got, want = (explicit_formula_residual(f, zeros.truncated(100), 256) for f in (odd, even))
        assert passes == [9, 9]
        for x, y in zip((got.lhs, got.rhs, got.residual), (want.lhs, want.rhs, want.residual)):
            assert type(x) is mpf and x._mpf_ == y._mpf_


@pytest.mark.parametrize(
    "call",
    [
        lambda zeros: weil_gram_spectrum(0.5, 3, 128),
        lambda zeros: weil_gram_spectrum(1, 3, 128),
        lambda zeros: weil_gram_spectrum(2, -1, 128),
        lambda zeros: weil_gram(1, 3, 128, project_poles=True),
        *(lambda zeros, x=x: weil_gram_spectrum(x, 3, 128) for x in ("inf", "nan", "1", "abc")),
    ],
    ids=["lam2-below-1", "lam2-1", "negative-K", "poles-lam2-1", "lam2-str-inf", "lam2-str-nan",
         "lam2-str-1", "lam2-abc"],
)
def test_bad_input_raises_value_error(call, zeros):
    with pytest.raises(ValueError):
        call(zeros)


@pytest.mark.parametrize(
    "call",
    [
        lambda zeros: HPMatrix([[1, 0], [0, 2]], 0, 64.5),
        lambda zeros: HPMatrix([[1, 0], [0, 2]], -64.0, 64),
        lambda zeros: w_arch(LogBandFunction(4, {0: 1}), 128.0),
        lambda zeros: w_prime(LogBandFunction(9, {0: 1}), 128.0),
        lambda zeros: explicit_formula_residual(LogBandFunction(4, {0: 1}), zeros, 128.0),
        lambda zeros: weil_gram_spectrum(5, 4, 128.0),
        lambda zeros: weil_gram_spectrum(5, 3.0, 128),
        lambda zeros: weil_gram(5, 4, 128.0, project_poles=True),
        lambda zeros: weil_gram_complex(5, 4, 128.0),
        lambda zeros: resonant_lambda(1.5, 14.13),
        lambda zeros: dirac_spectrum(resonant_lambda(4, 14.13), 2, 301.0, zeros),
        lambda zeros: dirac_spectrum(resonant_lambda(4, 14.13), 2.0, 301, zeros),
    ],
    ids=["hpmatrix-bits", "hpmatrix-exponent", "w_arch-bits", "w_prime-bits",
         "explicit-bits", "spectrum-bits", "spectrum-float-K", "gram-bits", "complex-bits",
         "resonant-m", "dirac-basis", "dirac-k"],
)
def test_non_integer_arguments_raise_type_error_first(call, zeros, monkeypatch):
    # operator.index at entry: TypeError before any work is reached
    from zetalab import scaling, weil

    def reached(*args):
        pytest.fail("the work started before the argument check")

    for name in ("_parity_blocks", "_pole_functionals", "_psi_pass", "_prime_powers"):
        monkeypatch.setattr(weil, name, reached)
    monkeypatch.setattr(scaling, "prolate_vectors", reached)
    with pytest.raises(TypeError):
        call(zeros)


# (lam2, K, bits) of the benchmark's Weil grid, then two narrow bands, where
# y = alpha K/2 reaches about 100 and 2,600
PSI_SETTINGS = (
    (5, 24, 128), (7, 20, 160), (11, 24, 192), (5, 16, 128), (11, 20, 192), (3, 12, 192),
    ("1.2", 6, 192), ("1.05", 40, 192),
)


@pytest.mark.parametrize("ambient", [30, 53, 2000])
@pytest.mark.parametrize(
    "call",
    [
        lambda: weil_gram_spectrum("1.0000000001", 2, 64),
        lambda: w_arch(LogBandFunction(Fraction(10001, 10000), {0: 1}), 64),
    ],
    ids=["gram", "w_arch"],
)
def test_narrow_band_refused_by_the_series_cap(call, ambient):
    # near lambda^2 = 1 the series would take some 7 10^5 (w_arch) and 10^11
    # (gram) terms: the cap refuses the band in about half a second, and lam2
    # is read at the call's precision, so 30 ambient bits do not round it to 1
    with mp.workprec(ambient), pytest.raises(ValueError, match="too narrow"):
        call()


def unfixed(x, p):
    """The integer x, or the integer pair x (real, imaginary), at p fractional
    bits, as an exact mpf or mpc."""
    if isinstance(x, tuple):
        return mpc(*(unfixed(v, p) for v in x))
    return mpf((x, -p), prec=0)


def _psi_arguments(lam2, K, p):
    # y = alpha k/2 for k = 0..K, as _arch_integrals forms them; k = 0 is beta = 0
    with mp.workprec(p):
        L = mp.log(mpf(lam2)) / 2
        alpha = mp.pi / L
        return L, [alpha * k / 2 for k in range(K + 1)]


def test_psi_pass_matches_mpmath():
    # psi(w) and psi'(w), w = 1/4 + iy, within the 2^-p that _gram_entry_error
    # assumes of them, against mpmath's digamma and trigamma 64 bits higher;
    # the pass runs with _arch_integrals' series, x = lambda
    from zetalab.weil import _GUARD, _psi_pass

    widest = {}  # (5, 16) and (11, 20) run on prefixes of (5, 24) and (11, 24)
    for lam2, K, bits in PSI_SETTINGS:
        widest[lam2, bits] = max(K, widest.get((lam2, bits), 0))
    for (lam2, bits), K in widest.items():
        p = bits + _GUARD
        L, ys = _psi_arguments(lam2, K, p)
        with mp.workprec(p):
            lam = mp.exp(L)
        with mp.workprec(p + 64):
            for y, (psi, dpsi, _, _) in zip(ys, _psi_pass(ys, p, lam, lambda a: 2 / a)):
                w = mpc(mpf(1) / 4, y)
                assert abs(unfixed(psi, p) - mp.digamma(w)) < mpf(2) ** -p, (lam2, K, bits, y)
                assert abs(unfixed(dpsi, p) - mp.psi(1, w)) < mpf(2) ** -p, (lam2, K, bits, y)


@pytest.mark.parametrize("lam2", ["3", "1.2"])
def test_psi_pass_series_match_direct_sums(lam2):
    # S_i = sum_n lambda^-(4n+1) (w+n)^-i: the pass stops where the tail bound
    # of terms |t_n| <= 2/a_n (both |1/(w+n)| and |(w+n)^-2| past n = 0) is
    # below 2^-p, and is within 2^-p sum_n lambda^-(4n+1) of its own sums, so
    # it is within 2^-p (1 + sum_n lambda^-(4n+1)) of the infinite series
    from zetalab.weil import _GUARD, _psi_pass

    p = 192 + _GUARD
    L, ys = _psi_arguments(lam2, 8, p)
    with mp.workprec(p):
        lam = mp.exp(L)
    out = list(_psi_pass(ys, p, lam, lambda a: 2 / a))
    with mp.workprec(p + 64):
        g = []
        while not g or g[-1] > mpf(2) ** -(p + 80):
            g.append(lam ** -(4 * len(g) + 1))
        allowance = mpf(2) ** -p * (1 + 1 / (lam - lam**-3))
        for y, (_, _, s1, s2) in zip(ys, out):
            w = mpc(mpf(1) / 4, y)
            for i, got in ((1, unfixed(s1, p)), (2, unfixed(s2, p))):
                assert abs(got - mp.fsum(gn / (w + n) ** i for n, gn in enumerate(g))) < allowance, (y, i)


class TestWeilGram:
    def test_hermitian_lam2_5(self):
        K = 16
        G = weil_gram_complex(5, K, 128)
        n = 2 * K + 1
        with mp.workprec(160):
            resid = max(abs(G[i][j] - mp.conj(G[j][i])) for i in range(n) for j in range(n))
            assert resid < mpf(2) ** -100
            # G(j, k) = G(-j, -k): QW commutes with the reflection x -> 1/x
            skew = max(abs(G[i][j] - G[n - 1 - i][n - 1 - j]) for i in range(n) for j in range(n))
            assert skew < mpf(2) ** -100
        # both parity blocks pass HPMatrix's symmetry gate
        even, odd = weil_gram(5, K, 128)
        assert (even.dim, odd.dim) == (K + 1, K)

    def test_gram_over_psi_is_real(self):
        # psi_-k^(i/2) = conj psi_k^(i/2), so every entry is real, not a
        # complex number with a zero imaginary part
        G = weil_gram_complex(5, 6, 128)
        assert all(isinstance(x, mpf) for r in G for x in r)

    def test_no_prime_terms_below_sqrt2(self):
        # the Gram reads h's band [lambda^-2, lambda^2], lambda^2 = lam2^2:
        # empty below lam2 = 2, 2 on its edge at lam2 = 2, and 2, 4, 3 at 4.1
        with mp.workprec(128):
            assert _prime_powers(_exact(mpf(1.9)) ** 2) == []
            [(p, _, w)] = _prime_powers(_exact(2) ** 2)
            assert p == 2 and abs(w - mp.log(2) / mp.sqrt(8)) < mpf(2) ** -120
            assert [p for p, _, _ in _prime_powers(_exact(mpf(4.1)) ** 2)] == [2, 2, 3]

    def test_closed_form_matches_generic_route(self):
        # dual route: poles - W_R(h) - sum W_p(h) with h built by star_convolve
        prec = 160
        lam2, K = 5, 3
        G = weil_gram_complex(lam2, K, prec)
        with mp.workprec(prec + 48):
            for (j, k) in [(0, 0), (1, -2), (3, 3), (0, 2), (2, -2), (-1, 3)]:
                h = star_convolve(
                    LogBandFunction(lam2, {k: 1}), LogBandFunction(lam2, {j: 1})
                )
                val = h.mellin(mpc(0, 0.5)) + h.mellin(mpc(0, -0.5))
                val -= w_arch_quadrature(h, prec)
                # w_prime's sum, formed here: w_prime takes a LogBandFunction only
                for _, t, w in _prime_powers(h.lam2):
                    val -= w * (h.evaluate_log(t) + h.evaluate_log(-t))
                assert abs(val - G[j + K][k + K]) < mpf(10) ** -40

    def test_primes_above_band_never_contribute(self):
        # the support truncation is exact: at lam2 = 11 the Gram's table holds
        # the prime powers below 11 at full weight, 11 on h's edge at half
        # weight, and nothing above the band
        with mp.workprec(128):
            pp = _prime_powers(_exact(11) ** 2)
            powers = [int(round(float(mp.exp(t)))) for _, t, _ in pp]
            assert powers == [2, 4, 8, 3, 9, 5, 7, 11]
            assert abs(pp[-1][2] - mp.log(11) / mp.sqrt(11) / 2) < mpf(2) ** -120

    def test_positivity_at_small_lambda(self):
        spec = weil_gram_spectrum(2, 8, 160, project_poles=True)
        for lam, resid in zip(spec.eigenvalues, spec.residuals):
            assert lam > -resid

    def test_unprojected_gram_is_psd_too(self):
        # the zero-side form is PSD outright; poles only enter the prime-side
        # expression of it
        spec = weil_gram_spectrum(2, 6, 160)
        assert spec.eigenvalues[0] > -max(spec.residuals)

    def test_parity_blocks_decouple(self):
        # the cos-sin cross block of the real basis, formed from the complex
        # Gram, vanishes; weil_gram keeps only the two parity blocks
        K = 6
        G = weil_gram_complex(5, K, 128)
        with mp.workprec(128):
            rt2 = mp.sqrt(2)

            def g(j, k):
                return G[j + K][k + K]

            for k in range(1, K + 1):
                assert abs(g(0, k) - g(0, -k)) / rt2 < mpf(2) ** -60
                for j in range(1, K + 1):
                    assert abs(g(j, k) - g(j, -k) + g(-j, k) - g(-j, -k)) / 2 < mpf(2) ** -60
        even, odd = weil_gram(5, K, 128)
        assert (even.dim, odd.dim) == (K + 1, K)

    def test_projected_lambda_min_pinned(self):
        # the value the full-matrix projection (both pole vectors at once) gave
        spec = weil_gram_spectrum(2, 8, 160, project_poles=True)
        with mp.workprec(160):
            want = mpf("0.5495570442393672361675858169873364299816")
            assert abs(spec.eigenvalues[0] - want) < mpf(10) ** -40

    @pytest.mark.parametrize("project", [False, True])
    def test_numpy_half_width_gives_the_int_spectrum(self, project):
        # K and precision_bits are read once by operator.index and passed on
        # as ints, so numpy integers give the int arguments' bits
        import numpy as np

        want = weil_gram_spectrum(5, 4, 64, project)
        got = weil_gram_spectrum(5, np.int64(4), np.int64(64), project)
        assert [x._mpf_ for x in got.eigenvalues + got.residuals] == [
            x._mpf_ for x in want.eigenvalues + want.residuals]
        blocks = weil_gram(5, np.int64(4), 64, project)
        assert [(b.rows, b.exponent, type(b.precision_bits)) for b in blocks] == [
            (b.rows, b.exponent, int) for b in weil_gram(5, 4, 64, project)]

    def test_eigenvalue_counts_at_half_width_zero(self):
        assert len(weil_gram_spectrum(2, 0, 128).eigenvalues) == 1
        assert weil_gram_spectrum(2, 0, 128, project_poles=True).eigenvalues == []

    def test_pole_constraints_are_the_pole_functionals(self):
        lam2, K, prec = 2, 5, 160
        # real coordinates over [const, cos_1..cos_K] and [sin_1..sin_K]
        x = [mpf(1), mpf(1) / 2, -mpf(1) / 3, mpf(1) / 5, mpf(0), mpf(1) / 7]
        y = [mpf(2) / 3, mpf(0), mpf(1) / 4, -mpf(1), mpf(1) / 9]
        with mp.workprec(prec + 48):
            even, odd = _pole_functionals(K, *_band_frame(lam2))
            assert (len(even), len(odd)) == (K + 1, K)
            rt2 = mp.sqrt(2)
            # f = x_0 + sum_k (x_k cos_k + y_k sin_k), a real function
            coeffs = {0: x[0]}
            for k in range(1, K + 1):
                coeffs[k] = mpc(x[k], -y[k - 1]) / rt2
                coeffs[-k] = mpc(x[k], y[k - 1]) / rt2
            f = LogBandFunction(lam2, coeffs)
            up = f.mellin(mpc(0, 0.5), prec + 48)
            down = f.mellin(mpc(0, -0.5), prec + 48)
            assert abs(mp.fdot(even, x) - (up + down) / 2) < mpf(2) ** -140
            assert abs(mp.fdot(odd, y) - (up - down) / 2) < mpf(2) ** -140

    def test_spectrum_residuals_certified(self, spectrum_5_8_192):
        spec = spectrum_5_8_192
        assert max(spec.residuals) < mpf(2) ** -140
        assert spec.smallest_positive is not None

    @pytest.mark.parametrize("project", [False, True])
    def test_certificate_covers_eigenvalues(self, project, spectrum_5_8_192):
        # each sorted eigenvalue at 128 bits is within both residuals of the
        # same sorted eigenvalue at 192 bits
        low = weil_gram_spectrum(5, 8, 128, project_poles=project)
        high = spectrum_5_8_192 if not project else weil_gram_spectrum(5, 8, 192, True)
        assert len(low.eigenvalues) == len(high.eigenvalues)
        with mp.workprec(256):
            for a, b, ra, rb in zip(
                low.eigenvalues, high.eigenvalues, low.residuals, high.residuals
            ):
                assert abs(a - b) <= ra + rb

    @pytest.mark.parametrize("project", [False, True])
    def test_solver_residual_pinned(self, project):
        # jacobi_eigensystem's residual on the (5, 8) blocks at 128 bits, the
        # bisection's 2 units plus the a-priori reduction and input counts,
        # measured 2^-(bits+16.9) to 2^-(bits+17.5), most of it the
        # reduction's count; the pin leaves over 5 bits of margin
        from zetalab.precision import jacobi_eigensystem

        for block in weil_gram(5, 8, 128, project_poles=project):
            assert jacobi_eigensystem(block).residual < mpf(2) ** -(128 + 11.5)

    @pytest.mark.parametrize("project, bits", [(False, 192), (True, 128)])
    def test_residual_covers_its_parts_exactly(self, project, bits, spectrum_5_8_192):
        # the returned residual is the exact sum of the larger solver
        # residual, K + 1 entry errors and the projection's error: each part
        # is an integer times a power of two, and nothing is rounded
        from zetalab.precision import jacobi_eigensystem
        from zetalab.weil import _gram_entry_error, _projection_error

        def exact(x):
            return Fraction(*to_rational(x._mpf_))

        blocks = weil_gram(5, 8, bits, project)
        parts = max(exact(jacobi_eigensystem(b).residual) for b in blocks)
        parts += 9 * exact(_gram_entry_error(5, bits))
        if project:
            parts += exact(_projection_error(blocks))
        spectrum = weil_gram_spectrum(5, 8, bits, project) if project else spectrum_5_8_192
        assert exact(spectrum.residuals[0]) == parts

    @pytest.mark.parametrize(
        "lam2, K, bits",
        [("3", 12, 192), ("11", 24, 128), ("1.2", 6, 192)],
        ids=["lam2-3", "lam2-11", "lam2-1.2"],
    )
    def test_arch_integrals_match_quadrature(self, lam2, K, bits):
        # the closed form against a certified tanh-sinh quadrature of each
        # defining integrand; lambda^2 = 3 at 192 bits and 1.2 (ratio
        # lambda^-4 near 0.69) run the longest series
        from zetalab.weil import _GUARD, _arch_integrals

        with mp.workprec(bits + _GUARD):
            L = mp.log(mpf(lam2)) / 2
            alpha, c2 = mp.pi / L, 1 / (2 * L)
            I, J = _arch_integrals(K, L, alpha, c2, bits)

            def i_integrand(t, b):
                return mp.sin(b * t) * mp.exp(t / 2) / mp.sinh(t) if t else b

            def j_integrand(t, b):
                if t == 0:
                    return mpf(1) / 2 - c2
                n = -2 * mp.sin(b * t / 2) ** 2 - c2 * t * mp.cos(b * t) - mp.expm1(-t / 2)
                return n * mp.exp(t / 2) / mp.sinh(t)

            assert I[0] == 0
            for k in range(K + 1):
                b = alpha * k
                for got, f in ((unfixed(I[k], bits + _GUARD), i_integrand),
                               (unfixed(J[k], bits + _GUARD), j_integrand)):
                    want = quad_checked(lambda t: f(t, b), [0, 2 * L], bits)
                    assert abs(got - want) < mpf(2) ** -(bits + 8)

    def test_projected_blocks_exactly_symmetric(self):
        # the assembly and the projection each form one triangle and mirror
        # it, so HPMatrix has no unequal pair to refuse
        from zetalab.weil import _GUARD, _parity_blocks, _project_out

        lam2, K, bits = 5, 16, 128
        with mp.workprec(bits + _GUARD):
            blocks, poles = _parity_blocks(lam2, K, bits)
            projected = [_project_out(b, c, bits + _GUARD)[0] for b, c in zip(blocks, poles)]
            for rows in (*blocks, *projected):
                n = len(rows)
                assert sum(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)) == 0

    @staticmethod
    def projection_gaps(lam2, K, bits=128):
        """The compression at bits + _GUARD against the same stored blocks
        compressed at 512 bits onto the pole functionals formed at 1024 bits:
        the two Frobenius gaps and _projection_error."""
        from zetalab.precision import _fixed
        from zetalab.weil import _GUARD, _parity_blocks, _project_out, _projection_error

        blocks, poles = _parity_blocks(lam2, K, bits)
        low = [HPMatrix(*_project_out(b, c, bits + _GUARD), bits) for b, c in zip(blocks, poles)]
        gaps = []
        with mp.workprec(1024):
            fine = _pole_functionals(K, *_band_frame(lam2))
            for a, b, c in zip(low, blocks, fine):
                b = [[x << (512 - bits - _GUARD) for x in r] for r in b]  # the same block at 2^-512
                high = HPMatrix(*_project_out(b, [_fixed(x, 1024) for x in c], 512), 512)
                gaps.append(mp.sqrt(mp.fsum((a[i, j] - high[i, j]) ** 2
                                            for i in range(a.dim) for j in range(a.dim))))
        return gaps, _projection_error(low)

    def test_projection_error_covers_reflector(self):
        # both projected settings of the benchmark's grid, and a small block
        for lam2, K, bits in ((5, 16, 128), (11, 20, 192), (5, 8, 128)):
            gaps, bound = self.projection_gaps(lam2, K, bits)
            assert max(gaps) <= bound, (lam2, K, bits)

    def test_projection_error_covers_narrow_band(self):
        # at lambda^2 = 1.12 the odd pole functional is small, |Po| near
        # L^(3/2)/pi, and the bound rests on it being far above 2^(12-p);
        # lambda^2 = 1.2 at 64 bits is the precision contract's projection
        for lam2, K, bits in (("1.12", 24, 128), ("1.2", 4, 64)):
            gaps, bound = self.projection_gaps(lam2, K, bits)
            assert max(gaps) <= bound, (lam2, K, bits)

    def test_projection_refuses_a_pole_vector_below_its_premise(self, monkeypatch):
        # _projection_error's count holds for |c| >= 2^(12-p): a smaller
        # pole vector is refused before the reflector runs
        from zetalab import weil

        p, rows = 176, [[1 << 176, 0], [0, 1 << 176]]
        # at the premise, |c| = 2^(12-p), the identity compresses to 1 = 2^(p+7) 2^-(p+7)
        assert weil._project_out(rows, [1 << (p + 12), 0], p) == ([[1 << (p + 7)]], -p - 7)
        monkeypatch.setattr(weil, "_reflect", lambda *args: pytest.fail("the reflector ran"))
        for c in ([1 << (p + 11), 0], [1 << (p + 11), 1 << (p + 11)]):
            with pytest.raises(ArithmeticError, match="premise"):
                weil._project_out(rows, c, p)

    def test_one_pole_functional_pass_per_spectrum(self, monkeypatch):
        # the pole functionals are formed once per spectrum, by
        # _parity_blocks, for both the entries and the reflector
        from zetalab import weil

        calls = []
        poles = weil._pole_functionals
        monkeypatch.setattr(weil, "_pole_functionals", lambda *args: calls.append(args) or poles(*args))
        weil_gram_spectrum(5, 16, 128, project_poles=True)
        assert len(calls) == 1

    @pytest.mark.parametrize("lam2, bits", [(3, 128), (5, 128), (11, 192)])
    def test_spectra_interlace_across_half_width(self, lam2, bits):
        # the stored blocks at K are the leading principal submatrices of
        # those at K + 1, bit for bit, so by Cauchy interlacing each sorted
        # eigenvalue obeys lambda_i(K+1) <= lambda_i(K) <= lambda_(i+1)(K+1),
        # within the two solvers' residuals alone
        from zetalab.precision import jacobi_eigensystem

        for K in (8, 16):
            for small, large in zip(weil_gram(lam2, K, bits), weil_gram(lam2, K + 1, bits)):
                assert small.exponent == large.exponent
                assert small.rows == tuple(r[:small.dim] for r in large.rows[:small.dim])
                lo, hi = jacobi_eigensystem(small), jacobi_eigensystem(large)
                r = mp.fadd(lo.residual, hi.residual, exact=True)
                for i, x in enumerate(lo.eigenvalues):
                    assert hi.eigenvalues[i] <= mp.fadd(x, r, exact=True), (K, i)
                    assert x <= mp.fadd(hi.eigenvalues[i + 1], r, exact=True), (K, i)

    @pytest.mark.parametrize("lam2, bits", [(3, 128), (5, 128), (11, 192)])
    def test_spectra_interlace_across_projection(self, lam2, bits):
        # each projected block is within _projection_error of the exact
        # compression of its stored block A onto a hyperplane, whose sorted
        # eigenvalues interlace A's (Cauchy): lambda_i(A) <= mu_i <=
        # lambda_(i+1)(A), within the two solvers' residuals and that bound.
        # Both spectra come from the same stored block, so no entry bound
        # enters.
        from zetalab.precision import jacobi_eigensystem
        from zetalab.weil import _projection_error

        for K in (8, 12, 16, 24):
            for a, pap in zip(weil_gram(lam2, K, bits), weil_gram(lam2, K, bits, True)):
                assert pap.dim == a.dim - 1
                full, projected = jacobi_eigensystem(a), jacobi_eigensystem(pap)
                r = mp.fadd(full.residual, projected.residual, exact=True)
                r = mp.fadd(r, _projection_error([pap]), exact=True)
                for i, mu in enumerate(projected.eigenvalues):
                    assert full.eigenvalues[i] <= mp.fadd(mu, r, exact=True), (K, i)
                    assert mu <= mp.fadd(full.eigenvalues[i + 1], r, exact=True), (K, i)

    def test_one_psi_pass_per_spectrum(self, monkeypatch):
        # the digamma pass runs once per spectrum, for _arch_integrals: the
        # certificate reads closed forms of L and the stored blocks
        from zetalab import weil

        calls = []
        psi_pass = weil._psi_pass
        monkeypatch.setattr(weil, "_psi_pass", lambda *args: calls.append(args) or psi_pass(*args))
        weil_gram_spectrum(5, 16, 128, project_poles=True)
        assert len(calls) == 1

    def test_entry_error_covers_gram(self):
        # every parity-block entry at 128 bits is within both entry-error
        # bounds of the same entry at 192 bits
        from zetalab.weil import _gram_entry_error

        lam2, K = 5, 8
        low, high = weil_gram(lam2, K, 128), weil_gram(lam2, K, 192)
        allowance = sum(_gram_entry_error(lam2, bits) for bits in (128, 192))
        with mp.workprec(256):
            for a, b in zip(low, high):
                gap = max(abs(a[i, j] - b[i, j]) for i in range(a.dim) for j in range(a.dim))
                assert gap <= allowance

    @pytest.mark.parametrize(
        "lam2, K, bits",
        [(lam2, K, bits) for lam2, K, bits, _ in WEIL_GRID]
        + [("1.2", 6, 192), (2, 8, 128), ("1.2", 0, 128), (2, 1, 160)],
    )
    def test_integer_blocks_within_the_entry_count(self, lam2, K, bits):
        # every entry of the integer assembly against the mpf assembly 64
        # bits higher (tests/gram_oracle.py): within the exact entry count,
        # plus the oracle's own error there, the mpf assembly's hand count
        # 2^-(p+64) (2 + 2^10 S) with S = oracle_scale
        from zetalab.weil import _GUARD, _gram_entry_error, _parity_blocks

        p = bits + _GUARD
        blocks, _ = _parity_blocks(lam2, K, bits)
        S = oracle_scale(lam2, K, bits)
        with mp.workprec(p + 64):
            oracle = mpf_parity_blocks(lam2, K, bits + 64)
            allowance = _gram_entry_error(lam2, bits) + mpf(2) ** -(p + 64) * (2 + 2**10 * S)
            for block, want in zip(blocks, oracle, strict=True):
                for row, ref in zip(block, want, strict=True):
                    for x, y in zip(row, ref, strict=True):
                        assert abs(unfixed(x, p) - y) <= allowance

    def test_high_order_arch_integrals_pinned(self):
        # I(m), J(m) at lambda^2 = 5, 128 bits, to 40 digits, from an independent
        # route: a rectangle contour on a Gauss-Legendre rule, good to ~5e-52
        from zetalab.weil import _GUARD, _arch_integrals

        ref = {
            18: (
                "1.564654806101629316716510533092396133866",
                "-5.11730740040618174514454428897183290807",
            ),
            24: (
                "1.566189615932991791755512343388541035952",
                "-5.404969431862693567591209464085459215882",
            ),
        }
        with mp.workprec(128 + _GUARD):
            L = mp.log(mpf(5)) / 2
            c2 = 1 / (2 * L)
            I, J = _arch_integrals(24, L, mp.pi / L, c2, 128)
            for m, (i_ref, j_ref) in ref.items():
                assert abs(unfixed(I[m], 128 + _GUARD) - mpf(i_ref)) < mpf(2) ** -120
                assert abs(unfixed(J[m], 128 + _GUARD) - mpf(j_ref)) < mpf(2) ** -120


def _quadratic_form(blocks, x):
    """u^T E u + v^T O v for the parity blocks (E, O) and float coordinates
    x = [u | v] = [const, cos_1..cos_K | sin_1..sin_K], at the ambient
    precision."""
    K = blocks[1].dim
    parts = [mpf(v) for v in x[:K + 1]], [mpf(v) for v in x[K + 1:]]
    return mp.fsum(a * b[i, j] * c for b, v in zip(blocks, parts)
                   for i, a in enumerate(v) for j, c in enumerate(v))


# (lambda^2, K, k, gap): the prolate frame prolate_vectors(lambda, k, 150)
# against weil_gram(lambda^2, K, 128); gap is the null-model gate in decades,
# two below the 13.41, 17.32 and 19.12 decades measured when this check was
# written, as perfbench's DIRAC_TRUE_ERROR_GATE sits two decades above its errors
ZETA_CYCLE_FRAMES = ((5, 16, 2, 11), (7, 20, 4, 15), (11, 24, 6, 17))


@pytest.mark.parametrize("lam2, K, k, gap", ZETA_CYCLE_FRAMES)
def test_zeta_cycle_frame_lies_in_the_near_radical(lam2, K, k, gap):
    # The E-images of prolates are nearly supported in [1/lambda, lambda] and
    # their Mellin transforms vanish at every zero, so QW(x) = sum |f^(gamma)|^2
    # is tiny on the frame.  The frame's real basis e_0, c_m, s_m is the parity
    # blocks' [const, cos | sin] for the same L, so rows 0..K and M+1..M+K of
    # the frame are the blocks' coordinates.  Two gates:
    #   - QW >= -e ||x||_1^2 on every vector: the exact form is nonnegative
    #     (Weil positivity), each stored entry is within e = _gram_entry_error
    #     of it, and the sum at 512 bits adds far below 2^-400;
    #   - the least QW of 50 seeded random unit vectors is at least 10^gap
    #     times the largest QW of a frame column.
    from zetalab.weil import _gram_entry_error

    M = 150
    frame = prolate_vectors(math.sqrt(lam2), k, M)[np.r_[0:K + 1, M + 1:M + K + 1]]
    null = np.random.default_rng(1).standard_normal((2 * K + 1, 50))
    null /= np.linalg.norm(null, axis=0)
    blocks = weil_gram(lam2, K, 128)
    with mp.workprec(512):
        e = _gram_entry_error(lam2, 128)
        qw = [[_quadratic_form(blocks, x) for x in v.T] for v in (frame, null)]
        for x, q in zip(np.hstack([frame, null]).T, qw[0] + qw[1]):
            assert q >= -e * mpf(float(np.abs(x).sum())) ** 2
        assert min(qw[1]) >= 10**gap * max(qw[0])
