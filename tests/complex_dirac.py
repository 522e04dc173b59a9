"""The complex route to the compressed Dirac operator, as the tests' oracle.

zetalab.scaling works in the real basis e_0, c_m = (e_m + e_-m)/sqrt(2),
s_m = (e_m - e_-m)/(i sqrt(2)), m = 1..M, where the compressed operator is
i S with S real skew.  Here the same operator is built as a complex Hermitian
matrix in the log-Fourier basis e_m, m = -M..M, where D0 = diag(pi m / L):
the two routes are related by the unitary change of basis between the
coordinates, so their spectra agree to rounding.
"""

from __future__ import annotations

import math

import numpy as np


def complex_coordinates(real: np.ndarray) -> np.ndarray:
    """Coordinates a_m, m = -M..M, of the vectors whose real coordinates are
    the rows of `real`: a_0, then a_m = (c_m - i s_m)/sqrt(2) and a_-m =
    conj(a_m) for m = 1..M."""
    M = real.shape[0] // 2
    half = np.vstack([real[:1], (real[1 : M + 1] - 1j * real[M + 1 :]) / math.sqrt(2)])
    return np.vstack([half[:0:-1].conj(), half])


def real_coordinates(coeffs: np.ndarray) -> np.ndarray:
    """The real coordinates a_0, sqrt(2) Re a_m, -sqrt(2) Im a_m, m = 1..M, of
    coefficients at the modes -M..M of real functions, read from m >= 0."""
    half = coeffs[coeffs.shape[0] // 2 :]
    return np.vstack([half[:1].real, math.sqrt(2) * half[1:].real, -math.sqrt(2) * half[1:].imag])


def complex_dirac_matrix(lam: float, frame: np.ndarray) -> np.ndarray:
    """(1 - Pi) D0 (1 - Pi) in the log-Fourier basis, modes -M..M, for a
    complex frame Q with orthonormal columns, Pi = Q Q^H, as the rank-2k
    update D0 - (W Q^H + Q W^H), W = D0 Q - Q C/2, C = Q^H D0 Q."""
    n = frame.shape[0]
    d0 = np.pi * np.arange(-(n // 2), n // 2 + 1) / np.log(float(lam))
    dq = d0[:, None] * frame
    x = (dq - frame @ (frame.conj().T @ dq) / 2) @ frame.conj().T  # W Q^H
    out = -(x + x.conj().T)
    out[np.diag_indices(n)] += d0
    return out
