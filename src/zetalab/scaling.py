"""The prolate frame on the circle and the prolate-compressed Dirac operator
D(lambda, k) of Connes-Consani ("Spectral triples and zeta-cycles",
arXiv:2106.01715).

The averaging map E(f)(x) = x^(1/2) sum_{n>0} f(nx) sends even functions with
f(0) = f^(0) = 0 into the near-radical of the Weil form.  Prolate spheroidal
wave functions (computed by the classical Legendre tridiagonalization of the
commuting differential operator) supply the f's: the first even prolates at
bandwidth c = 2 pi lambda^2 are nearly invariant under time/band truncation,
which is exactly what makes their E-images almost lie in the radical.

On the circle R+*/lambda^(2Z), with L = log lambda and alpha = pi/L, the
periodization sum_k E(g)(lambda^(2k) u) has the coefficient Mellin(E(g))(alpha m)/sqrt(2L) at
the mode exp(i alpha m log u)/sqrt(2L), and summing E(g) term by term gives

    int E(g)(u) u^(-is) d*u = zeta(1/2 - is) g^(s),  g^(s) = int g(x) x^(1/2 - is) d*x.

That sum converges only right of the critical line.  On the line the
identity needs int g = 0 (f^(0) = 0): else E(g) grows like u^(-1/2) at 0,
the periodization diverges, and the right side is a continuation, the
coefficient of no function.  The right side is linear in g, so it is taken
per prolate and is exact on the constrained span that prolate_vectors keeps,
where g(0) = 0 only removes E(g)'s term -u^(1/2) g(0)/2 at 0, speeding the
decay of the periodization's levels.  Both factors are closed forms: no
quadrature, and each mode's coefficient does not depend on the mode cut.

The Dirac operator D0 = -i u d/du on the circle is diagonal in the log-Fourier
basis e_m, with eigenvalues d_m = pi m / log(lambda).  The prolates are real,
so their E-images are real functions: the frame is invariant under the real
structure J: a_m -> conj(a_-m), and J D0 J = -D0 (Connes, "Noncommutative
geometry and reality", J. Math. Phys. 36, 1995).  So everything runs in the
real basis e_0, c_m = (e_m + e_-m)/sqrt(2), s_m = (e_m - e_-m)/(i sqrt(2)),
m = 1..M, in that order, where D0 = i S0 with the real skew S0 c_m = d_m s_m,
S0 s_m = -d_m c_m.  D(lambda, k) compresses D0 to the orthocomplement of the
k-dimensional prolate frame, a rank-2k update, and is i S for a real skew S,
whose eigenvalues +-sigma are read off the singular values of S.  The frame
is built at the operator's own modes -M..M and made orthonormal once.
The zeta-cycle check reads one spectrum per ordinate: at the circle length
resonant_lambda(m, gamma) an eigenvalue reproduces a zero gamma, while a fake
ordinate finds no eigenvalue that close.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from zetalab.zerotable import ZeroTable

_EXTRA = 2  # prolates beyond k: the constraints f(0) = f^(0) = 0 use up two
_RANK_TOL = 1e-8  # least singular-value ratio of the constrained E-images
_MAX_ZETA_HEAD = 2**21  # most Euler-Maclaurin head terms _zeta_critical builds
# Most Legendre pairs pswf_basis builds: its dense n x n eigh takes 32 MiB at
# n = 2^11 and time like n^3, 0.8 s at n = 1,929 (lambda = 20) on 2 vCPUs.
_MAX_PSWF_PAIRS = 2**11
# B_2j/(2j)!, j = 1..16: the Euler-Maclaurin corrections of _zeta_critical
_EM_COEFFS = [float(Fraction(*mp.bernfrac(2 * j)) / math.factorial(2 * j)) for j in range(1, 17)]


class ProlateRankError(RuntimeError):
    """The prolate-vector family lost rank after constraint projection."""


# -- even prolate spheroidal wave functions ------------------------------------


def _read_lambda(lam, least) -> float:
    """lambda read once as a float (inf past the largest), ValueError unless finite and above least."""
    try:
        x = float(lam)
    except OverflowError:
        x = math.inf
    if not (math.isfinite(x) and x > least):
        raise ValueError(f"lambda read as a float must be finite and above {least}, not {x}")
    return x


def _legendre_matrix_even(c, n_pairs: int) -> np.ndarray:
    """Symmetric tridiagonal matrix of the prolate operator
    -d/dx[(1-x^2) d/dx] + c^2 x^2 over normalized even Legendre polynomials."""
    n = 2 * np.arange(n_pairs)
    diag = n * (n + 1) + c * c * (2 * n * (n + 1) - 1) / ((2 * n + 3) * (2 * n - 1))
    n = n[:-1]
    off = c * c * (n + 1) * (n + 2) / ((2 * n + 3) * np.sqrt((2 * n + 1) * (2 * n + 5)))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _legendre_at_one(n_pairs: int) -> np.ndarray:
    """P~_2k(1) = sqrt(2k + 1/2), k < n_pairs, where P~_2k = sqrt(2k + 1/2) P_2k."""
    return np.sqrt(2 * np.arange(n_pairs) + 0.5)


def pswf_basis(lam: float, count: int) -> np.ndarray:
    """First `count` even prolates for the time interval [-lambda, lambda]
    against the Fourier band [-lambda, lambda] (kernel exp(-2 pi i x y)), so
    at bandwidth c = 2 pi lambda^2, as L^2([-1,1])-normalized columns of
    normalized-even-Legendre coefficients, positive at x = 1.

    count must pass operator.index (else TypeError) and be >= 1, lambda
    must be finite and positive, and the n = floor(0.75 c) + 2 count + 40
    Legendre pairs at most _MAX_PSWF_PAIRS, else ValueError, all before any
    numpy work.  Raises ValueError when the trailing coefficients show that
    the expansion does not resolve the requested modes.
    """
    if operator.index(count) < 1:
        raise ValueError("count must be >= 1")
    try:
        c = 2 * np.pi * _read_lambda(lam, 0) ** 2
        n_pairs = max(int(0.75 * c) + 2 * count + 40, 60)
    except OverflowError:  # lambda^2 past the largest float
        n_pairs = math.inf
    if n_pairs > _MAX_PSWF_PAIRS:
        raise ValueError(f"lambda {lam}, count {count}: {n_pairs} Legendre pairs, over {_MAX_PSWF_PAIRS}")
    _, vecs = np.linalg.eigh(_legendre_matrix_even(c, n_pairs))
    coeffs = vecs[:, :count].copy()
    tail = np.abs(coeffs[-5:, :]).max()
    if tail > 1e-11:
        raise ValueError(
            f"requested count exceeds numerically resolvable modes "
            f"(trailing Legendre coefficient {tail:.2e})"
        )
    # sign convention: positive value at x = 1
    coeffs *= np.where(_legendre_at_one(n_pairs) @ coeffs >= 0, 1.0, -1.0)
    return coeffs


# -- prolate vectors on the circle ---------------------------------------------


def _zeta_critical(alpha: float, M: int) -> np.ndarray:
    """zeta(1/2 - i alpha m), m = 0..M, by Euler-Maclaurin in float64: with
    s = 1/2 - i alpha m, N = floor(alpha M / 2) + 30 and J = 16,

        zeta(s) = sum_{n<N} n^-s + N^-s (N/(s-1) + 1/2 + sum_{j<=J} T_j) + R,
        T_j = B_2j/(2j)! s(s+1)...(s+2j-2) N^(1-2j).

    The row n^(-1/2) n^(i alpha m), n < N, goes from m to m + 1 by one
    product with n^(i alpha): no (M+1) x N table of powers is built.

    Accuracy, u = 2^-53.  |R| <= |s+2J+1|/(Re s+2J+1) |N^-s T_{J+1}| (Edwards,
    Riemann's Zeta Function, 6.4), below 1e-18 sqrt(N): |s| + 32 < 2N, so each
    |s+k|/(2 pi N) in it is below 1/pi, and |B_2j|/(2j)! < 2.1 (2 pi)^-2j.  The
    phase m alpha log n, by the running product or directly for N, rounds
    within 4u m alpha log N; cos, sin, complex products and n^(-1/2) add 6u per
    mode and 2u.  The head weighs below 2 sqrt(N), its sum rounds (N - 2) u of
    that, and N^-s times the tail factor (below 2N + 1) below 2 sqrt(N) + 1, so

        |error at m| <= (4 sqrt(N) + 1) u (m (4 alpha log N + 6) + N + 12) + 1e-18 sqrt(N).
    """
    N = int(alpha * M / 2) + 30
    if N > _MAX_ZETA_HEAD:
        raise ValueError(f"zeta head of {N} terms exceeds {_MAX_ZETA_HEAD}: "
                         f"the circle is too short for {M} modes")
    n = np.arange(1, N)
    step = np.exp(1j * alpha * np.log(n))
    row = n ** -0.5 + 0j
    head = np.empty(M + 1, dtype=complex)
    for m in range(M + 1):
        head[m] = row.sum()
        row *= step
    s = 0.5 - 1j * alpha * np.arange(M + 1)
    tail = N / (s - 1) + 0.5
    rising = s / N  # s(s+1)...(s+2j-2) N^(1-2j)
    for j, b in enumerate(_EM_COEFFS, start=1):
        tail += b * rising
        rising *= (s + 2 * j - 1) * (s + 2 * j) / (N * N)
    return head + N ** -0.5 * np.exp(1j * alpha * np.log(N) * np.arange(M + 1)) * tail


def _prolate_E_coefficients(coeffs: np.ndarray, lam: float, M: int) -> np.ndarray:
    """The E-images of the prolates g_i(x) = psi_i(x/lambda)/sqrt(lambda) on
    the circle in the real basis e_0, c_1..c_M, s_1..s_M; shape (2M+1, count).

    Their coefficient at e_m is a_m = zeta(1/2 - i alpha m) g^(alpha m)/sqrt(2L).
    With psi = sum_k c_k P~_2k, g^(s) = lambda^(-is) sum_k c_k P~_2k(1) M_2k(z),
    z = 1/2 - is, whose Legendre moments M_n(z) = int_0^1 x^(z-1) P_n(x) dx obey
    M_0 = 1/z and M_{n+2} = M_n (z-n-1)/(z+n+2); lambda^(-i alpha m) = (-1)^m.
    m -> -m conjugates both factors, a_-m = conj(a_m), so the real
    coordinates are a_0, sqrt(2) Re a_m and -sqrt(2) Im a_m, m = 1..M."""
    L = math.log(lam)
    alpha = math.pi / L
    zeta = _zeta_critical(alpha, M)
    z = 0.5 - 1j * alpha * np.arange(M + 1)[:, None]
    n = 2 * np.arange(coeffs.shape[0] - 1)
    moments = np.cumprod(np.hstack([1 / z, (z - n - 1) / (z + n + 2)]), axis=1)
    sign = np.where(np.arange(M + 1) % 2, -1.0, 1.0)  # lambda^(-i alpha m)
    half = moments @ (_legendre_at_one(coeffs.shape[0])[:, None] * coeffs)
    half *= (sign * zeta / math.sqrt(2 * L))[:, None]
    return np.vstack([half[:1].real, math.sqrt(2) * half[1:].real, -math.sqrt(2) * half[1:].imag])


def resonant_lambda(m: int, ordinate: float) -> float:
    """Circle parameter with log-circumference m * 2pi / ordinate: the m-th
    zeta-cycle length for a zero at that ordinate (the compressed Dirac then
    locks onto it instead of carrying the generic seam error).  Needs an
    integer m >= 1 (else TypeError), a finite positive ordinate and a
    circle parameter that a float holds, else ValueError.  The ordinate is
    read once as a float, so an mpf table entry gives its float's lambda."""
    try:
        g = float(ordinate)  # an mpf would carry the quotient out of float64
        if not (operator.index(m) >= 1 and math.isfinite(g) and g > 0):
            raise ValueError(f"need m >= 1 and a finite positive ordinate, not {m}, {ordinate}")
        with np.errstate(over="raise"):  # in float64 throughout, so every overflow raises
            return float(np.exp(np.float64(m) * np.pi / g))
    except (OverflowError, FloatingPointError):
        raise ValueError(f"the circle parameter exp({m} pi/{ordinate}) or its ordinate "
                         f"overflows a float") from None


def _constrained_span(coeffs: np.ndarray, lam: float) -> np.ndarray:
    """Orthonormal columns spanning the prolate combinations g with g(0) = 0
    and int g = 0: P~_2k(0) = P~_2k(1) (-1)^k (2k)!/(4^k k!^2), a product of
    ratios -(2k+1)/(2k+2), and int_{-1}^{1} P~_2k = sqrt(2) [k = 0]."""
    n = 2 * np.arange(coeffs.shape[0] - 1)
    at0 = _legendre_at_one(coeffs.shape[0]) * np.cumprod(np.append(1.0, -(n + 1) / (n + 2)))
    integ = np.sqrt(2.0) * coeffs[0] * np.sqrt(lam)
    return np.linalg.svd(np.vstack([at0 @ coeffs / np.sqrt(lam), integ]))[2][2:].T


def prolate_vectors(lam: float, k: int, mode_cut: int) -> np.ndarray:
    """The k-dimensional prolate-vector frame on the circle: real orthonormal
    columns in the real basis e_0, c_1..c_M, s_1..s_M, M = mode_cut, of the
    log-Fourier modes e_m(t) = exp(i pi m t / L)/sqrt(2L), m = -M..M, so of
    shape (2 mode_cut + 1, k).

    Takes the first k + _EXTRA even prolates, restricts their span to the
    codimension-2 subspace f(0) = 0, f^(0) = 0, applies E to a basis of it,
    restricts to the circle and makes the columns orthonormal.  lambda must be
    finite, above 1 and far enough from 1 that _zeta_critical's head, N =
    floor(pi mode_cut/(2 log lambda)) + 30 terms, stays within 2^21 (else
    ValueError, raised before the head is built); the resonant lambda of the
    bundled table's last zero at m = 1, mode cut 150, needs N = 740,863.
    k and mode_cut must pass operator.index (else TypeError), with k >= 1,
    mode_cut >= 0 and 2 mode_cut + 1 >= k, as the frame has 2 mode_cut + 1
    rows (else ValueError).  Rank loss beyond _RANK_TOL is an error
    (reported, never silently repaired)."""
    k, mode_cut = operator.index(k), operator.index(mode_cut)
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode_cut < 0 or 2 * mode_cut + 1 < k:
        raise ValueError(f"need mode_cut >= 0 and 2 mode_cut + 1 >= k, not {mode_cut}, {k}")
    lam = _read_lambda(lam, 1)
    coeffs = pswf_basis(lam, k + _EXTRA)
    E = _prolate_E_coefficients(coeffs, lam, mode_cut)
    q, sv, _ = np.linalg.svd(E @ _constrained_span(coeffs, lam), full_matrices=False)
    ratio = sv[-1] / sv[0]
    if ratio < _RANK_TOL:
        raise ProlateRankError(
            f"prolate vectors lost rank: singular value ratio "
            f"{ratio:.2e} below {_RANK_TOL:.0e}"
        )
    return q


# -- the compressed Dirac operator ----------------------------------------------


@dataclass
class SpectralReport:
    """The full spectrum, ascending, and for each table ordinate up to the
    top eigenvalue the distance to the nearest eigenvalue."""

    eigenvalues: np.ndarray
    zero_errors: np.ndarray


def dirac_matrix(lam: float, frame: np.ndarray) -> np.ndarray:
    """The real skew S with (1 - Pi) D0 (1 - Pi) = i S in the real basis
    e_0, c_1..c_M, s_1..s_M, 2M + 1 = n the frame's row count; D0 = i S0 with
    S0 c_m = d_m s_m, S0 s_m = -d_m c_m, d_m = pi m / L, and Pi = Q Q^T
    projects on the frame Q, n x k with real orthonormal columns as
    prolate_vectors returns it.

    Expanded, S = S0 - W Q^T + Q W^T with W = S0 Q - Q C/2 and C = Q^T S0 Q:
    a rank-2k update of O(n^2 k) in place of two dense n^3 products, exactly
    skew (S = -S^T bit for bit), and within a few eps max|d| of the dense
    product entrywise.  lambda must be finite and above 1 (else ValueError),
    as in prolate_vectors."""
    lam = _read_lambda(lam, 1)
    M = frame.shape[0] // 2
    d = np.pi * np.arange(1, M + 1) / np.log(lam)
    c, s = np.arange(1, M + 1), np.arange(M + 1, 2 * M + 1)
    sq = np.zeros_like(frame)  # S0 Q
    sq[c] = -d[:, None] * frame[s]
    sq[s] = d[:, None] * frame[c]
    x = (sq - frame @ (frame.T @ sq) / 2) @ frame.T  # W Q^T
    out = x.T - x
    out[s, c] += d
    out[c, s] -= d
    return out


def dirac_spectrum(lam: float, k: int, basis_size: int, zeros: ZeroTable) -> SpectralReport:
    """Spectrum of D(lambda, k) on basis_size modes -M..M (odd, at least
    2k + 8), the prolate frame built at those modes, against the ordinates of
    a ZeroTable, read from the table's cached float64 view.

    D(lambda, k) = i S with S real skew (dirac_matrix), so its eigenvalues are
    +-sigma over the singular values of S, which come in equal pairs in exact
    arithmetic.  The h = (basis_size - k) // 2 leading pairs give h values
    sigma, each the mean of its pair, and the spectrum is -sigma, the
    basis_size - 2h trailing singular values as computed (the kernel, which
    holds the frame), then +sigma: ascending, as each mean is at least every
    trailing value."""
    if not isinstance(zeros, ZeroTable):
        raise TypeError(f"dirac_spectrum takes a ZeroTable, not {type(zeros).__name__}")
    if operator.index(basis_size) < 2 * operator.index(k) + 8:
        raise ValueError("basis_size must be at least 2k + 8")
    if basis_size % 2 == 0:
        raise ValueError("basis_size must be odd (modes -M..M)")
    skew = dirac_matrix(lam, prolate_vectors(lam, k, basis_size // 2))
    sv = np.linalg.svd(skew, compute_uv=False)
    h = (basis_size - k) // 2
    sigma = (sv[: 2 * h : 2] + sv[1 : 2 * h : 2]) / 2
    eigs = np.concatenate([-sigma, sv[2 * h :][::-1], sigma[::-1]])
    table = zeros.float_ordinates()
    ords = table[: np.searchsorted(table, eigs[-1], side="right")]
    i = np.clip(np.searchsorted(eigs, ords), 1, len(eigs) - 1)
    errors = np.minimum(np.abs(ords - eigs[i - 1]), np.abs(eigs[i] - ords))
    return SpectralReport(eigs, errors)
