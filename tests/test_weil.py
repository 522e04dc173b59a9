from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_rational

from arch_quadrature import quad_checked, w_arch_quadrature
from convolved_band import star_convolve
from zetalab.bandfn import LogBandFunction, band_frame
from zetalab.semilocal import arch_phase_derivative, arch_trace_check
from zetalab.weil import (
    _pole_functionals,
    explicit_formula_residual,
    primes_up_to,
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
            assert abs(f.mellin(0) - want) < mpf(10) ** -70

    def test_spot_values_vs_quadrature(self):
        f = LogBandFunction(9, {3: 1, -1: Fraction(1, 7)})
        with mp.workprec(256):
            L = f.log_halfwidth()
            for s in (mpf(2), mpf(-11) / 3):
                quad = mp.quad(lambda t: f.evaluate_log(t) * mp.expj(-s * t), [-L, L])
                assert abs(f.mellin(s) - quad) < mpf(10) ** -30

    def test_real_for_symmetric(self):
        f = LogBandFunction.cosine_power(4, 2)
        with mp.workprec(200):
            assert abs(mp.im(f.mellin(mpf(7) / 3))) < mpf(10) ** -50


class TestWPrime:
    def test_support_inside_prime_window_vanishes(self):
        # support in (1/2, 2) strictly: any lam2 < 4 band works for p = 2
        f = LogBandFunction(mpf(3.9), {0: 1, 1: Fraction(1, 3)})
        assert w_prime(2, f) == 0

    def test_single_term_value(self):
        # f(2) = f(1/2) = 1 with lambda in (2, 4): only m = 1 contributes
        with mp.workprec(300):
            f0 = LogBandFunction(9, {0: 1})
            c0 = f0.evaluate(1)
            f = LogBandFunction(9, {0: 1 / c0})
            got = w_prime(2, f, 256)
            want = mp.sqrt(2) * mp.log(2)
            assert abs(got - want) < mpf(10) ** -70

    def test_prime_above_band(self):
        f = LogBandFunction(4, {0: 1, 1: 1})
        assert w_prime(3, f) == 0

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            w_prime(6, LogBandFunction(4, {0: 1}))


class TestWArch:
    def test_zero_function(self):
        assert w_arch(LogBandFunction(4, {})) == 0

    def test_gaussian_in_log_trace_identity(self):
        # W_R(f) = -(1/2 pi) int_R f^(s) theta'(s) ds, f^(s) = sqrt(pi) e^(-s^2/4)
        def gauss(x):
            return mp.exp(-mp.log(x) ** 2)

        got = w_arch_quadrature(gauss, 120)
        with mp.workprec(168):
            trace = -mp.quad(
                lambda s: mp.sqrt(mp.pi) * mp.exp(-s * s / 4) * arch_phase_derivative(s, 120),
                [0, 10, 20, 40, 80],
            ) / mp.pi
        assert abs(got - trace) < mpf(2) ** -120

    def test_band_path_matches_generic(self):
        f = LogBandFunction.cosine_power(4, 2, modulation=1)
        band_val = w_arch(f, 192)
        with mp.workprec(240):
            def generic(x):
                return f.evaluate(x)

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
            generic = w_arch_quadrature(lambda x: f.evaluate(x), bits,
                                        breakpoints=[f.log_halfwidth()])
        assert abs(closed - generic) < mpf(2) ** -(bits - 8)

    @NON_BAND
    @pytest.mark.parametrize("check", [w_arch, arch_trace_check], ids=["w_arch", "arch-trace"])
    def test_rejects_non_band_function(self, check, make):
        # before any work: arch_trace_check's quadosc alone would run for minutes
        with pytest.raises(TypeError):
            check(make(), 128)

    def test_vanishing_at_one_truncates(self):
        # f(1) = 0: no distributional term, integral over the band only
        f = LogBandFunction(4, {1: 1, -1: -1})  # odd combination: f(1) = 0
        with mp.workprec(200):
            assert abs(f.value_at_one()) < mpf(10) ** -50
        v = w_arch(f, 160)
        assert mp.isfinite(v)


class TestExplicitFormula:
    def test_zero_function(self, zeros):
        chk = explicit_formula_residual(LogBandFunction(4, {}), zeros.truncated(10))
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


@pytest.mark.parametrize(
    "call",
    [
        lambda zeros: weil_gram_spectrum(0.5, 3, 128),
        lambda zeros: weil_gram_spectrum(1, 3, 128),
        lambda zeros: weil_gram_spectrum(2, -1, 128),
        lambda zeros: weil_gram_spectrum(5, 3.0, 128),
        lambda zeros: weil_gram(1, 3, 128, project_poles=True),
    ],
    ids=["lam2-below-1", "lam2-1", "negative-K", "float-K", "poles-lam2-1"],
)
def test_bad_input_raises_value_error(call, zeros):
    with pytest.raises(ValueError):
        call(zeros)


# (lam2, K, bits) of the benchmark's Weil grid, then two narrow bands, where
# y = alpha K/2 reaches about 100 and 2,600
PSI_SETTINGS = (
    (5, 24, 128), (7, 20, 160), (11, 24, 192), (5, 16, 128), (11, 20, 192), (3, 12, 192),
    ("1.2", 6, 192), ("1.05", 40, 192),
)


def _psi_arguments(lam2, K, p):
    # y = alpha k/2 for k = 0..K, as _arch_integrals forms them; k = 0 is beta = 0
    with mp.workprec(p):
        L = mp.log(mpf(lam2)) / 2
        alpha = mp.pi / L
        return L, [alpha * k / 2 for k in range(K + 1)]


def test_psi_pass_matches_mpmath():
    # psi(w) and psi'(w), w = 1/4 + iy, within the 2^-p that _gram_entry_error
    # assumes of them, against mpmath's digamma and trigamma 64 bits higher
    from zetalab.weil import _GUARD, _psi_pass

    widest = {}  # (5, 16) and (11, 20) run on prefixes of (5, 24) and (11, 24)
    for lam2, K, bits in PSI_SETTINGS:
        widest[lam2, bits] = max(K, widest.get((lam2, bits), 0))
    for (lam2, bits), K in widest.items():
        p = bits + _GUARD
        _, ys = _psi_arguments(lam2, K, p)
        with mp.workprec(p + 64):
            for y, (psi, dpsi, _, _) in zip(ys, _psi_pass(ys, p)):
                w = mpc(mpf(1) / 4, y)
                assert abs(psi - mp.digamma(w)) < mpf(2) ** -p, (lam2, K, bits, y)
                assert abs(dpsi - mp.psi(1, w)) < mpf(2) ** -p, (lam2, K, bits, y)


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
            for i, got in ((1, s1), (2, s2)):
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
        from zetalab.weil import _prime_powers

        with mp.workprec(128):
            assert _prime_powers(mpf(1.9)) == []
            assert len(_prime_powers(mpf(4.1))) == 3  # 2, 3, 4

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
                S = h.log_halfwidth()
                for p in primes_up_to(int(mp.exp(S)) + 1):
                    if mp.log(p) <= S:
                        val -= w_prime(p, h, prec)
                assert abs(val - G[j + K][k + K]) < mpf(10) ** -40

    def test_primes_above_band_never_contribute(self):
        # assembling with a larger sieve bound cannot change the matrix:
        # the support truncation is exact
        from zetalab.weil import _prime_powers

        with mp.workprec(128):
            pp = _prime_powers(mpf(11))
            assert max(int(round(float(mp.exp(t)))) for t, _ in pp) < 11
            assert {int(round(float(mp.exp(t)))) for t, _ in pp} == {2, 3, 4, 5, 7, 8, 9}

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

    def test_eigenvalue_counts_at_half_width_zero(self):
        assert len(weil_gram_spectrum(2, 0, 128).eigenvalues) == 1
        assert weil_gram_spectrum(2, 0, 128, project_poles=True).eigenvalues == []

    def test_pole_constraints_are_the_pole_functionals(self):
        lam2, K, prec = 2, 5, 160
        # real coordinates over [const, cos_1..cos_K] and [sin_1..sin_K]
        x = [mpf(1), mpf(1) / 2, -mpf(1) / 3, mpf(1) / 5, mpf(0), mpf(1) / 7]
        y = [mpf(2) / 3, mpf(0), mpf(1) / 4, -mpf(1), mpf(1) / 9]
        with mp.workprec(prec + 48):
            even, odd = _pole_functionals(K, *band_frame(lam2))
            assert (len(even), len(odd)) == (K + 1, K)
            rt2 = mp.sqrt(2)
            # f = x_0 + sum_k (x_k cos_k + y_k sin_k), a real function
            coeffs = {0: x[0]}
            for k in range(1, K + 1):
                coeffs[k] = mpc(x[k], -y[k - 1]) / rt2
                coeffs[-k] = mpc(x[k], y[k - 1]) / rt2
            f = LogBandFunction(lam2, coeffs)
            up = f.mellin(mpc(0, 0.5))
            down = f.mellin(mpc(0, -0.5))
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
        # the returned residual is at least the exact sum of the larger
        # solver residual, K + 1 entry errors and the projection's error
        from zetalab.precision import jacobi_eigensystem
        from zetalab.weil import _gram_entry_error, _gram_scale, _projection_error

        def exact(x):
            return Fraction(*to_rational(x._mpf_))

        S = _gram_scale(5, 8, bits)
        parts = max(exact(jacobi_eigensystem(b).residual)
                    for b in weil_gram(5, 8, bits, project))
        parts += 9 * exact(_gram_entry_error(S, bits))
        if project:
            parts += exact(_projection_error(5, 8, bits, S))
        spectrum = weil_gram_spectrum(5, 8, bits, project) if project else spectrum_5_8_192
        assert exact(spectrum.residuals[0]) >= parts

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
                for got, f in ((I[k], i_integrand), (J[k], j_integrand)):
                    want = quad_checked(lambda t: f(t, b), [0, 2 * L], bits)
                    assert abs(got - want) < mpf(2) ** -(bits + 8)

    def test_projected_blocks_exactly_symmetric(self):
        # the assembly and the projection each form one triangle and mirror
        # it, so HPMatrix has no unequal pair to average
        from zetalab.weil import _GUARD, _parity_blocks, _project_out

        lam2, K, bits = 5, 16, 128
        with mp.workprec(bits + _GUARD):
            blocks, poles = _parity_blocks(lam2, K, bits)
            projected = [_project_out(b, c, bits + _GUARD) for b, c in zip(blocks, poles)]
            for rows in (*blocks, *projected):
                n = len(rows)
                assert sum(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)) == 0

    def test_projection_error_covers_reflector(self):
        # the compression at bits + _GUARD against the same stored blocks
        # compressed at 512 bits onto the pole functionals formed at 512 bits
        from zetalab.weil import (_GUARD, _gram_scale, _parity_blocks, _project_out,
                                  _projection_error)

        lam2, K, bits = 5, 16, 128
        with mp.workprec(bits + _GUARD):
            blocks, poles = _parity_blocks(lam2, K, bits)
            low = [_project_out(b, c, bits + _GUARD) for b, c in zip(blocks, poles)]
        bound = _projection_error(lam2, K, bits, _gram_scale(lam2, K, bits))
        with mp.workprec(512):
            fine = _pole_functionals(K, *band_frame(lam2))
            for a, b, c in zip(low, blocks, fine):
                gap = mp.sqrt(mp.fsum((x - y) ** 2 for r, s in zip(a, _project_out(b, c, 512))
                                      for x, y in zip(r, s)))
                assert gap <= bound

    def test_gram_scale_formed_once(self, monkeypatch):
        # both error bounds of a projected spectrum scale with one S
        from zetalab import weil

        calls = []
        scale = weil._gram_scale
        monkeypatch.setattr(weil, "_gram_scale", lambda *args: calls.append(args) or scale(*args))
        weil_gram_spectrum(5, 16, 128, project_poles=True)
        assert calls == [(5, 16, 128)]

    def test_entry_error_covers_gram(self):
        # every parity-block entry at 128 bits is within both entry-error
        # bounds of the same entry at 192 bits
        from zetalab.weil import _gram_entry_error, _gram_scale

        lam2, K = 5, 8
        low, high = weil_gram(lam2, K, 128), weil_gram(lam2, K, 192)
        allowance = sum(_gram_entry_error(_gram_scale(lam2, K, bits), bits) for bits in (128, 192))
        with mp.workprec(256):
            for a, b in zip(low, high):
                gap = max(abs(x - y) for r, s in zip(a.rows, b.rows) for x, y in zip(r, s))
                assert gap <= allowance

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
                assert abs(I[m] - mpf(i_ref)) < mpf(2) ** -120
                assert abs(J[m] - mpf(j_ref)) < mpf(2) ** -120
