import math
import time
import warnings

import numpy as np
import pytest
from mpmath import mp, mpf

from complex_dirac import complex_coordinates, complex_dirac_matrix, real_coordinates
from e_image_quadrature import e_image_coefficients
from zetalab.scaling import (
    _EXTRA,
    _constrained_span,
    _prolate_E_coefficients,
    _zeta_critical,
    dirac_matrix,
    dirac_spectrum,
    prolate_vectors,
    pswf_basis,
    resonant_lambda,
)
from zetalab.zerotable import bundled_zero_table

# the zeta-cycle protocol: circle length resonant_lambda(4, ordinate), k = 2
M_CYCLE, K, BASIS = 4, 2, 301
# a mode cut wider than the protocol's BASIS // 2 = 150, so the checks of
# _zeta_critical and prolate_vectors cover more modes than it uses
WIDE_CUT = 256
ZEROS = bundled_zero_table()
# the null model's fakes: a few fixed ordinates and the midpoint of every gap
# between the first 31 zeros
_G31 = ZEROS.float_ordinates()[:31]
FAKES = [15.5, 19.0, 23.0, 27.5] + [
    pytest.param((a + b) / 2, id=f"midpoint{i}") for i, (a, b) in enumerate(zip(_G31, _G31[1:]), 1)
]


@pytest.fixture(scope="module")
def zeros():
    return ZEROS


def _spectrum(ordinate, zeros):
    return dirac_spectrum(resonant_lambda(M_CYCLE, ordinate), K, BASIS, zeros)


@pytest.mark.parametrize("index", range(1, 32))
def test_resonant_zero_is_reproduced(zeros, index):
    report = _spectrum(float(zeros[index - 1]), zeros)
    eigs = report.eigenvalues
    assert eigs.shape == (BASIS,) and np.all(np.diff(eigs) >= 0)
    assert report.zero_errors[index - 1] < 1e-11
    # zero_errors covers the table up to the top eigenvalue, nearest eigenvalue each
    n = len(report.zero_errors)
    assert float(zeros[n - 1]) <= eigs[-1] < float(zeros[n])
    brute = [np.min(np.abs(eigs - float(g))) for g in zeros[:n]]
    assert np.array_equal(report.zero_errors, brute)


@pytest.mark.parametrize("fake", FAKES)
def test_fake_ordinate_is_not_reproduced(zeros, fake):
    # the null model: at a fake ordinate's resonant length no eigenvalue locks on
    eigs = _spectrum(fake, zeros).eigenvalues
    assert np.min(np.abs(eigs - fake)) > 1e-4


@pytest.mark.parametrize("k, basis_size", [(2, 300), (2, 11), (0, BASIS)])
def test_dirac_spectrum_rejects_bad_sizes(zeros, k, basis_size):
    with pytest.raises(ValueError):
        dirac_spectrum(resonant_lambda(M_CYCLE, 14.5), k, basis_size, zeros)


def test_prolate_vectors_near_one_fails_fast():
    # lambda = 1 + 1e-6 would need a zeta head of 4e8 terms (gigabytes)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="zeta head"):
        prolate_vectors(1 + 1e-6, K, WIDE_CUT)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "m, ordinate, lam",
    [(4, 0.0, None), (0, 14.1, None), (4, -14.1, None), (4, math.nan, None), (4, math.inf, None)]
    + [(None, None, lam) for lam in (1.0, 0.8, math.nan, -2.0, math.inf)]
    # an int past the largest float raised OverflowError from math.isfinite
    + [pytest.param(1, 10**400, None, id="ordinate-1e400"), pytest.param(None, None, 10**400, id="lam-1e400")],
)
def test_bad_circle_length_raises_value_error(zeros, m, ordinate, lam):
    with pytest.raises(ValueError):
        if lam is None:
            resonant_lambda(m, ordinate)
        else:
            dirac_spectrum(lam, K, BASIS, zeros)


@pytest.mark.parametrize(
    "m, ordinate", [(10**6, 14.1), (10**400, 14.1), (1, 1e-300), (2**1023, 1.0), (1, 5e-324)],
    ids=["m-1e6", "m-1e400", "tiny", "product-inf", "quotient-inf"],
)
def test_overflowing_circle_length_raises_value_error(m, ordinate):
    # exp(m pi/ordinate) past the largest float: no inf, no numpy warning,
    # also where m pi or m pi/ordinate overflows before exp, whose exp(inf)
    # raises nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            resonant_lambda(m, ordinate)


def test_resonant_lambda_reads_the_ordinate_as_a_float(zeros):
    # an mpf table entry made the float64 quotient an mpf, which numpy's exp
    # refused with TypeError
    assert resonant_lambda(M_CYCLE, zeros[0]) == resonant_lambda(M_CYCLE, float(zeros[0]))


@pytest.mark.parametrize(
    "lam, count, error",
    [(2.0, 1.5, TypeError), (2.0, 0, ValueError), (math.inf, 2, ValueError),
     (math.nan, 2, ValueError), (0.0, 2, ValueError), (-2.0, 2, ValueError),
     (10**400, 2, ValueError), (40.0, 2, ValueError), (1e200, 2, ValueError), (2.0, 10**6, ValueError)],
    ids=["float-count", "count0", "inf", "nan", "zero", "negative", "int-1e400", "lam40", "lam1e200", "count1e6"],
)
def test_pswf_basis_checks_before_the_eigensolve(monkeypatch, lam, count, error):
    # a float count failed on a slice after the eigensolve, an infinite
    # lambda or an int past the largest float raised OverflowError, and a
    # lambda of 40 or a count of 10^6 built a matrix of over 7,000 pairs
    from zetalab import scaling

    monkeypatch.setattr(scaling, "_legendre_matrix_even", lambda *args: pytest.fail("matrix built"))
    with pytest.raises(error):
        pswf_basis(lam, count)


@pytest.mark.parametrize("lam", [1.0, 0.5, math.inf, math.nan, pytest.param(10**400, id="int-1e400")])
def test_dirac_matrix_rejects_a_bad_circle(lam):
    # at lambda = 1 the log is 0: inf and NaN entries and divide-by-zero warnings
    frame = prolate_vectors(2.0, K, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lambda"):
            dirac_matrix(lam, frame)


@pytest.mark.parametrize(
    "k, mode_cut, error",
    [(2, 0, ValueError), (4, 1, ValueError), (2, -1, ValueError), (0, 3, ValueError),
     (2, 10.0, TypeError), (2.0, 3, TypeError)],
    ids=["k2-cut0", "k4-cut1", "negative-cut", "k0", "float-cut", "float-k"],
)
def test_prolate_vectors_rejects_bad_shapes(k, mode_cut, error):
    # the frame has 2 mode_cut + 1 rows, too few for k orthonormal columns
    # at cut 0 (it came out 1 x 1), and a cut of -1 or 10.0 failed in numpy
    with pytest.raises(error):
        prolate_vectors(2.0, k, mode_cut)


def test_prolate_vectors_square_frame():
    # 2 mode_cut + 1 = k is allowed, with integer-like arguments
    q = prolate_vectors(2.0, np.int64(3), np.int64(1))
    assert q.shape == (3, 3) and np.allclose(q.T @ q, np.eye(3))


def test_dirac_spectrum_takes_a_zero_table(zeros):
    ordinates = [float(g) for g in zeros[:40]]
    with pytest.raises(TypeError):
        dirac_spectrum(resonant_lambda(M_CYCLE, 14.5), K, BASIS, ordinates)


@pytest.mark.parametrize("index", [1, 31])
def test_zeta_on_the_critical_line(zeros, index):
    # _zeta_critical against mp.zeta at 80 bits, within its docstring's bound
    lam = resonant_lambda(M_CYCLE, float(zeros[index - 1]))
    alpha, M = math.pi / math.log(lam), WIDE_CUT
    got = _zeta_critical(alpha, M)
    N, u = int(alpha * M / 2) + 30, 2.0**-53
    m = np.arange(M + 1)
    bound = (4 * math.sqrt(N) + 1) * u * (m * (4 * alpha * math.log(N) + 6) + N + 12) + 1e-18 * math.sqrt(N)
    with mp.workprec(80):
        want = np.array([complex(mp.zeta(mp.mpc(0.5, -mpf(alpha) * k))) for k in range(M + 1)])
    assert np.all(np.abs(got - want) <= bound)


def test_closed_form_frame_matches_quadrature(zeros):
    # on the constrained span the Mellin identity is exact, so the closed form
    # lies within the quadrature oracle's own truncation error, its change from
    # one Poincare level below the circle to two
    lam = resonant_lambda(M_CYCLE, float(zeros[0]))
    coeffs = pswf_basis(lam, K + _EXTRA)
    span = _constrained_span(coeffs, lam)
    closed = _prolate_E_coefficients(coeffs, lam, WIDE_CUT) @ span
    depth1, depth2 = (real_coordinates(e_image_coefficients(coeffs, lam, WIDE_CUT, d)) @ span
                      for d in (1, 2))
    assert np.abs(closed - depth2).max() <= np.abs(depth2 - depth1).max()


@pytest.mark.parametrize("ordinate", [float(ZEROS[0]), float(ZEROS[9]), float(ZEROS[30]), 27.5])
def test_frame_at_the_operators_modes_spans_the_truncated_frame(ordinate):
    # each mode's coefficient is a closed form that does not depend on the
    # cut, so the frame built at modes -150..150 spans what the wider frame,
    # cut to those modes (e_0, c_1..c_M, s_1..s_M) and made orthonormal
    # again, spans
    lam, M = resonant_lambda(M_CYCLE, ordinate), BASIS // 2
    wide = prolate_vectors(lam, K, WIDE_CUT)[np.r_[0 : M + 1, WIDE_CUT + 1 : WIDE_CUT + M + 1]]
    old = np.linalg.svd(wide, full_matrices=False)[0]
    new = prolate_vectors(lam, K, M)
    assert np.abs(new @ new.T - old @ old.T).max() <= 1e-12


def test_rank_2k_dirac_matrix_matches_dense():
    # a random real frame made orthonormal by QR, as prolate_vectors returns
    # its frame, against the dense compression of S0 by 1 - Q Q^T
    lam, n, k = 1.3, 61, 4
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    got = dirac_matrix(lam, q)
    # S0 in the real basis e_0, c_1..c_M, s_1..s_M: S0 c_m = d_m s_m, S0 s_m = -d_m c_m
    M = n // 2
    d = np.pi * np.arange(1, M + 1) / np.log(lam)
    s0 = np.zeros((n, n))
    s0[M + 1 :, 1 : M + 1] = np.diag(d)
    s0[1 : M + 1, M + 1 :] = -np.diag(d)
    comp = np.eye(n) - q @ q.T
    dense = comp @ s0 @ comp
    tol = 64 * np.finfo(float).eps * np.abs(d).max()
    assert np.array_equal(got, -got.T)
    assert np.abs(got - dense).max() <= tol
    svd = [np.linalg.svd(a, compute_uv=False) for a in (got, dense)]
    assert np.abs(svd[0] - svd[1]).max() <= tol


@pytest.mark.parametrize("ordinate", [float(ZEROS[0]), float(ZEROS[9]), float(ZEROS[30]), 27.5])
def test_prolate_frame_is_real_and_orthonormal(ordinate):
    q = prolate_vectors(resonant_lambda(M_CYCLE, ordinate), K, BASIS // 2)
    assert q.dtype == np.float64 and q.shape == (BASIS, K)
    assert np.abs(q.T @ q - np.eye(K)).max() <= 1e-14


@pytest.mark.parametrize("ordinate", [float(ZEROS[0]), float(ZEROS[30]), 27.5])
def test_dirac_spectrum_reads_the_real_skew_matrix(zeros, ordinate):
    # dirac_matrix is exactly skew; the spectrum is exactly +-symmetric
    # outside its kernel, and the kernel is the trailing singular values of S
    # as computed, at least k of them below 1e-8 (the frame)
    lam = resonant_lambda(M_CYCLE, ordinate)
    s = dirac_matrix(lam, prolate_vectors(lam, K, BASIS // 2))
    assert s.dtype == np.float64 and np.array_equal(s, -s.T)
    eigs = _spectrum(ordinate, zeros).eigenvalues
    h = (BASIS - K) // 2
    assert np.array_equal(eigs[:h], -eigs[: -h - 1 : -1])
    kernel = eigs[h : BASIS - h]
    assert np.array_equal(kernel, np.linalg.svd(s, compute_uv=False)[2 * h :][::-1])
    assert np.count_nonzero(np.abs(kernel) < 1e-8) >= K


@pytest.mark.parametrize("ordinate", [float(ZEROS[0]), float(ZEROS[1]), float(ZEROS[2]), 27.5])
def test_real_route_matches_complex_route(zeros, ordinate):
    # the frame's real coordinates mapped to the modes -M..M by the unitary
    # change of basis, compressed as a complex Hermitian matrix: its eigvalsh
    # spectrum is the real route's
    lam = resonant_lambda(M_CYCLE, ordinate)
    frame = complex_coordinates(prolate_vectors(lam, K, BASIS // 2))
    assert np.abs(frame.conj().T @ frame - np.eye(K)).max() <= 1e-14
    want = np.linalg.eigvalsh(complex_dirac_matrix(lam, frame))
    tol = 64 * np.finfo(float).eps * np.pi * (BASIS // 2) / np.log(lam)
    assert np.abs(_spectrum(ordinate, zeros).eigenvalues - want).max() <= tol
