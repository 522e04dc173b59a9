"""The zeta-free route to the prolate frame, as the tests' oracle.

The circle Fourier coefficients of the Poincare-periodized E-images of the
time-limited prolates g_i(x) = psi_i(x/lambda)/sqrt(lambda), computed by
quadrature straight from the definitions: v_i(t) = sum_j E(g_i)(lambda^(2j)
e^t) over the levels j = 0..-depth, and its coefficient at mode m is
int_{-L}^{L} v_i(t) exp(-i alpha m t) dt / sqrt(2L), alpha = pi/L.  The
level j = 0 is piecewise smooth, with breakpoints t = log(lambda/n) where the
terms g(n x) enter, so the quadrature is Gauss-Legendre per segment, with
nodes enough for the top oscillation.  Deeper levels are weaker by their
magnitude and get no breakpoints of their own.

zetalab.scaling reaches the same coefficients through the Mellin identity
Mellin(E(g))(s) = zeta(1/2 - is) g^(s); this route carries no zeta, so
agreement checks that identity.  Nothing here is cached or tuned: it is slow
and plain on purpose.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre


def prolate_values(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """psi_i(x) for columns of normalized-even-Legendre coefficients
    (P~_2k = sqrt(2k + 1/2) P_2k); shape (len(x), count)."""
    n_pairs = coeffs.shape[0]
    series = np.zeros((2 * n_pairs - 1, coeffs.shape[1]))
    series[::2] = np.sqrt(2 * np.arange(n_pairs) + 0.5)[:, None] * coeffs
    return legendre.legval(x, series).T


def e_image_coefficients(coeffs: np.ndarray, lam: float, M: int, depth: int) -> np.ndarray:
    """Coefficients at the modes -M..M of the prolates' E-images summed over
    the Poincare levels j = 0..-depth; shape (2M + 1, count)."""
    L = np.log(lam)
    alpha = np.pi / L
    cuts = sorted({-L, L} | {np.log(lam / n) for n in range(1, int(lam * lam) + 1) if abs(np.log(lam / n)) < L})
    t, w = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        x, wx = legendre.leggauss(int(3.5 * M * (b - a) / (2 * L)) + 24)
        t.append((a + b) / 2 + (b - a) / 2 * x)
        w.append((b - a) / 2 * wx)
    t, w = np.concatenate(t), np.concatenate(w)
    values = np.zeros((len(t), coeffs.shape[1]))
    for j in range(0, -depth - 1, -1):
        u = lam ** (2 * j) * np.exp(t)
        for n in range(1, int(lam / u.min()) + 1):
            inside = n * u <= lam
            values[inside] += np.sqrt(u[inside])[:, None] * prolate_values(coeffs, n * u[inside] / lam)
    values /= np.sqrt(lam)
    phases = np.exp(-1j * alpha * np.outer(np.arange(-M, M + 1), t))
    return phases @ (w[:, None] * values) / np.sqrt(2 * L)
