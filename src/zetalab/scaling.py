"""Scaling-space constructions: the averaging map E, Poincare sums, and the
prolate-compressed Dirac operator D(lambda, k) of Connes-Consani ("Spectral
triples and zeta-cycles", arXiv:2106.01715).

E(f)(x) = x^(1/2) sum_{n>0} f(nx) sends even functions with f(0) = f^(0) = 0
into the near-radical of the Weil form.  Prolate spheroidal wave functions
(computed by the classical Legendre tridiagonalization of the commuting
differential operator) supply the f's: the first even prolates at bandwidth
c = 2 pi lambda^2 are nearly invariant under time/band truncation, which is
exactly what makes their E-images almost lie in the radical.

On the circle R+*/lambda^(2Z), with L = log lambda and alpha = pi/L, the
Poincare sum of E(g) has the coefficient Mellin(E(g))(alpha m)/sqrt(2L) at
the mode exp(i alpha m log u)/sqrt(2L), and summing E(g) term by term gives

    int E(g)(u) u^(-is) d*u = zeta(1/2 - is) g^(s),  g^(s) = int g(x) x^(1/2 - is) d*x.

That sum converges only right of the critical line.  On the line the
identity needs int g = 0 (f^(0) = 0): else E(g) grows like u^(-1/2) at 0,
the Poincare sum diverges, and the right side is a continuation, the
coefficient of no function.  The right side is linear in g, so it is taken
per prolate and is exact on the constrained span that prolate_vectors keeps,
where g(0) = 0 only removes E(g)'s term -u^(1/2) g(0)/2 at 0, speeding the
decay of the Poincare levels.  Both factors are closed forms: no quadrature.

The Dirac operator D0 = -i u d/du on the circle is diagonal in the log-Fourier
basis with eigenvalues pi m / log(lambda); D(lambda, k) compresses it to the
orthocomplement of the k-dimensional prolate-vector subspace, a rank-2k
update.  The zeta-cycle check reads one spectrum per ordinate: at the circle
length resonant_lambda(m, gamma) an eigenvalue reproduces a zero gamma, while
a fake ordinate finds no eigenvalue that close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from zetalab.weil import _GUARD
from zetalab.zerotable import ZeroTable

_EXTRA = 2  # prolates beyond k: the constraints f(0) = f^(0) = 0 use up two
_RANK_TOL = 1e-8  # least singular-value ratio of the constrained E-images
_MODE_CUT = 256  # least mode cut M of the prolate frame
_MAX_TERMS = 400  # terms per side of a Poincare sum without compact support
_MAX_ZETA_HEAD = 2**21  # most Euler-Maclaurin head terms _zeta_critical builds
# B_2j/(2j)!, j = 1..16: the Euler-Maclaurin corrections of _zeta_critical
_EM_COEFFS = [float(Fraction(*mp.bernfrac(2 * j)) / math.factorial(2 * j)) for j in range(1, 17)]


class ProlateRankError(RuntimeError):
    """The prolate-vector family lost rank after constraint projection."""


# -- map E and Poincare averaging ---------------------------------------------


def map_E(f, x, support_radius, precision_bits: int = 53):
    """x^(1/2) sum_{n>=1} f(n x) for f vanishing beyond support_radius, so
    the sum stops at n = support_radius / x; computed with guard bits."""
    if x <= 0:
        raise ValueError("x must be positive")
    with mp.workprec(precision_bits + _GUARD):
        x = mp.mpmathify(x)
        nmax = int(mp.floor(support_radius / x))
        if nmax < 1:
            return mpf(0)
        return mp.sqrt(x) * mp.fsum(f(n * x) for n in range(1, nmax + 1))


def poincare_sum(mu, g, u, precision_bits: int = 53):
    """(Sigma_mu g)(u) = sum_{k in Z} g(mu^k u); invariant under u -> mu u.

    Terms must decay below 2^-precision_bits within _MAX_TERMS on each side,
    else the input is rejected as divergent.  Computed with guard bits.
    """
    if not (mu > 1):
        raise ValueError("mu must exceed 1")
    if u <= 0:
        raise ValueError("u must be positive")
    with mp.workprec(precision_bits + _GUARD):
        mu = mp.mpmathify(mu)
        u = mp.mpmathify(u)
        tol = mpf(2) ** (-precision_bits)
        total = mp.mpmathify(g(u))
        for direction in (1, -1):
            streak = 0
            for k in range(1, _MAX_TERMS + 1):
                term = mp.mpmathify(g(mu ** (direction * k) * u))
                total += term
                if abs(term) < tol:
                    streak += 1
                    if streak >= 3:
                        break
                else:
                    streak = 0
            else:
                raise ValueError("series did not converge; rejecting divergent input")
        return total


# -- even prolate spheroidal wave functions ------------------------------------


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

    Raises ValueError when the trailing coefficients show that the expansion
    does not resolve the requested modes.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    c = 2 * np.pi * float(lam) ** 2
    n_pairs = max(int(0.75 * c) + 2 * count + 40, 60)
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
    """Circle coefficients zeta(1/2 - i alpha m) g^(alpha m)/sqrt(2L), m = -M..M,
    of the prolates g_i(x) = psi_i(x/lambda)/sqrt(lambda); shape (2M+1, count).

    With psi = sum_k c_k P~_2k, g^(s) = lambda^(-is) sum_k c_k P~_2k(1) M_2k(z),
    z = 1/2 - is, whose Legendre moments M_n(z) = int_0^1 x^(z-1) P_n(x) dx obey
    M_0 = 1/z and M_{n+2} = M_n (z-n-1)/(z+n+2); lambda^(-i alpha m) = (-1)^m,
    and m -> -m conjugates both factors."""
    L = math.log(lam)
    alpha = math.pi / L
    zeta = _zeta_critical(alpha, M)
    z = 0.5 - 1j * alpha * np.arange(M + 1)[:, None]
    n = 2 * np.arange(coeffs.shape[0] - 1)
    moments = np.cumprod(np.hstack([1 / z, (z - n - 1) / (z + n + 2)]), axis=1)
    sign = np.where(np.arange(M + 1) % 2, -1.0, 1.0)  # lambda^(-i alpha m)
    half = moments @ (_legendre_at_one(coeffs.shape[0])[:, None] * coeffs)
    half *= (sign * zeta / math.sqrt(2 * L))[:, None]
    return np.vstack([half[:0:-1].conj(), half])


def resonant_lambda(m: int, ordinate: float) -> float:
    """Circle parameter with log-circumference m * 2pi / ordinate: the m-th
    zeta-cycle length for a zero at that ordinate (the compressed Dirac then
    locks onto it instead of carrying the generic seam error).  Needs m >= 1
    and a finite positive ordinate, else raises ValueError."""
    if not (m >= 1 and math.isfinite(ordinate) and ordinate > 0):
        raise ValueError(f"need m >= 1 and a finite positive ordinate, not {m}, {ordinate}")
    return float(np.exp(m * np.pi / ordinate))


def _constrained_span(coeffs: np.ndarray, lam: float) -> np.ndarray:
    """Orthonormal columns spanning the prolate combinations g with g(0) = 0
    and int g = 0: P~_2k(0) = P~_2k(1) (-1)^k (2k)!/(4^k k!^2), a product of
    ratios -(2k+1)/(2k+2), and int_{-1}^{1} P~_2k = sqrt(2) [k = 0]."""
    n = 2 * np.arange(coeffs.shape[0] - 1)
    at0 = _legendre_at_one(coeffs.shape[0]) * np.cumprod(np.append(1.0, -(n + 1) / (n + 2)))
    integ = np.sqrt(2.0) * coeffs[0] * np.sqrt(lam)
    return np.linalg.svd(np.vstack([at0 @ coeffs / np.sqrt(lam), integ]))[2][2:].T


def prolate_vectors(lam: float, k: int, mode_cut: int) -> np.ndarray:
    """The k-dimensional prolate-vector frame on the circle: orthonormal
    columns in the log-Fourier basis e_m(t) = exp(i pi m t / L)/sqrt(2L),
    modes -mode_cut..mode_cut, so of shape (2 mode_cut + 1, k).

    Takes the first k + _EXTRA even prolates, restricts their span to the
    codimension-2 subspace f(0) = 0, f^(0) = 0, applies E to a basis of it,
    restricts to the circle and makes the columns orthonormal.  lambda must be
    finite, above 1 and far enough from 1 that _zeta_critical's head, N =
    floor(pi mode_cut/(2 log lambda)) + 30 terms, stays within 2^21 (else
    ValueError, raised before the head is built); the resonant lambda of the
    bundled table's last zero at m = 1, mode cut 256, needs N = 1,264,386.
    Rank loss beyond _RANK_TOL is an error (reported, never silently repaired)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (math.isfinite(lam) and lam > 1):
        raise ValueError(f"circle parameter lambda must be finite and above 1, not {lam}")
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


def dirac_matrix(lam: float, frame: np.ndarray, basis_size: int) -> np.ndarray:
    """(1 - Pi) D0 (1 - Pi) in the log-Fourier basis; D0 = diag(pi m / L) and
    Pi = Q Q^H projects on the prolate frame truncated to modes -M..M and
    made orthonormal again (Q is n x k, n = basis_size).

    Expanded, (1 - Pi) D0 (1 - Pi) = D0 - (W Q^H + Q W^H) with
    W = D0 Q - Q C/2 and C = Q^H D0 Q: a rank-2k update of O(n^2 k) in place
    of two dense n^3 products, exactly Hermitian, and within a few
    eps max|d0| of the dense product entrywise."""
    if basis_size % 2 == 0:
        raise ValueError("basis_size must be odd (modes -M..M)")
    M = (basis_size - 1) // 2
    mid = (frame.shape[0] - 1) // 2
    if mid < M:
        raise ValueError("prolate frame has fewer modes than basis_size")
    L = np.log(float(lam))
    d0 = np.pi * np.arange(-M, M + 1) / L
    # orthonormal again after mode truncation
    q, s, _ = np.linalg.svd(frame[mid - M : mid + M + 1, :], full_matrices=False)
    if s[-1] < 0.5:
        raise ValueError(
            f"basis_size {basis_size} too small for the projection rank "
            f"(singular value {s[-1]:.2e} after truncation)"
        )
    dq = d0[:, None] * q
    x = (dq - q @ (q.conj().T @ dq) / 2) @ q.conj().T  # W Q^H
    out = -(x + x.conj().T)
    out[np.diag_indices(basis_size)] += d0
    return out


def dirac_spectrum(lam: float, k: int, basis_size: int, zeros: ZeroTable) -> SpectralReport:
    """Spectrum of D(lambda, k) against the ordinates of a ZeroTable, read
    from the table's cached float64 view."""
    if not isinstance(zeros, ZeroTable):
        raise TypeError(f"dirac_spectrum takes a ZeroTable, not {type(zeros).__name__}")
    if basis_size < 2 * k + 8:
        raise ValueError("basis_size must be at least 2k + 8")
    M = (basis_size - 1) // 2
    frame = prolate_vectors(lam, k, max(M, _MODE_CUT))
    eigs = np.linalg.eigvalsh(dirac_matrix(lam, frame, basis_size))
    table = zeros.float_ordinates()
    ords = table[: np.searchsorted(table, eigs[-1], side="right")]
    i = np.clip(np.searchsorted(eigs, ords), 1, len(eigs) - 1)
    errors = np.minimum(np.abs(ords - eigs[i - 1]), np.abs(eigs[i] - ords))
    return SpectralReport(eigs, errors)
