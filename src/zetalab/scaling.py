"""Scaling-space constructions: the averaging map E, Poincare sums, and the
prolate-compressed Dirac operator D(lambda, k) of Connes-Consani ("Spectral
triples and zeta-cycles", arXiv:2106.01715).

E(f)(x) = x^(1/2) sum_{n>0} f(nx) sends even functions with f(0) = f^(0) = 0
into the near-radical of the Weil form.  For f supported in [-lambda, lambda]
only n <= lambda/x contribute, so on the circle R+*/lambda^(2Z) everything is
a finite sum.  Prolate spheroidal wave functions (computed by the classical
Legendre tridiagonalization of the commuting differential operator) supply
the f's: the first even prolates at bandwidth c = 2 pi lambda^2 are nearly
invariant under time/band truncation, which is exactly what makes their
E-images almost lie in the radical.

The Dirac operator D0 = -i u d/du on the circle is diagonal in the log-Fourier
basis with eigenvalues pi m / log(lambda); D(lambda, k) compresses it to the
orthocomplement of the k-dimensional prolate-vector subspace.  The zeta-cycle
check reads one spectrum per ordinate: at the circle length
resonant_lambda(m, gamma) an eigenvalue reproduces a zero gamma, while a fake
ordinate finds no eigenvalue that close.  dirac_spectrum reports the spectrum
and, for each ordinate of a ZeroTable up to its top eigenvalue, the distance
to the nearest eigenvalue.

What does not change between calls is built once: the Gauss-Legendre rule of
each node count (leggauss is a dense O(n^3) eigensolve) is cached, at most
128 rules; node counts are rounded up to multiples of 32, so circle lengths
share rules.  A table's float64 ordinates are cached on the table.  Per
call, the circle phases exp(-i alpha m t) over the modes m = -M..M are
products of two small exponential tables, and the compression of D0 is a
rank-2k update.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf

from zetalab.weil import _GUARD
from zetalab.zerotable import ZeroTable

_EXTRA = 2  # prolates beyond k: the constraints f(0) = f^(0) = 0 use up two
_RANK_TOL = 1e-8  # least singular-value ratio of the constrained E-images
_DEPTH = 1  # Poincare levels lambda^(2j), j = 0..-_DEPTH, in each E-image
_MODE_CUT = 256  # least mode cut M of the prolate frame
_MAX_TERMS = 400  # terms per side of a Poincare sum without compact support
_PHASE_BLOCK = 32  # modes per block of the factored phase table
_NODE_STEP = 32  # Gauss-Legendre node counts are multiples of this


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
    diag = np.empty(n_pairs)
    off = np.empty(n_pairs - 1)
    for k in range(n_pairs):
        n = 2 * k
        diag[k] = n * (n + 1) + c * c * (2 * n * (n + 1) - 1) / ((2 * n + 3) * (2 * n - 1))
        if k + 1 < n_pairs:
            off[k] = (
                c * c * (n + 1) * (n + 2)
                / ((2 * n + 3) * np.sqrt((2 * n + 1) * (2 * n + 5)))
            )
    m = np.diag(diag)
    m += np.diag(off, 1) + np.diag(off, -1)
    return m


def legendre_even_values(n_pairs: int, x: np.ndarray) -> np.ndarray:
    """Matrix of normalized even Legendre values P~_{2k}(x); shape (len(x), n_pairs)."""
    x = np.asarray(x, dtype=float)
    nmax = 2 * (n_pairs - 1)
    out = np.empty((len(x), n_pairs))
    p_prev = np.ones_like(x)
    p_cur = x.copy()
    out[:, 0] = p_prev * np.sqrt(0.5)
    for n in range(1, nmax + 1):
        p_next = ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1)
        if n % 2 == 1 and (n + 1) // 2 < n_pairs:
            out[:, (n + 1) // 2] = p_next * np.sqrt(n + 1.5)
        p_prev, p_cur = p_cur, p_next
    return out


def _prolate_values(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Prolate values at x in [-1, 1]; shape (len(x), count)."""
    return legendre_even_values(coeffs.shape[0], x) @ coeffs


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
    # sign convention: positive value at x = 1 (all normalized Legendre are
    # positive there, so the column sum against sqrt(n+1/2) decides)
    at_one = _prolate_values(coeffs, np.array([1.0]))
    coeffs *= np.where(at_one[0] >= 0, 1.0, -1.0)
    return coeffs


# -- prolate vectors on the circle ---------------------------------------------


@lru_cache(maxsize=128)
def _gauss_legendre(n: int):
    """leggauss(n), nodes and weights on [-1, 1], built once per node count
    and shared by every caller, hence read-only.  Node counts are multiples
    of _NODE_STEP up to 3.5 M + 24 rounded up (928 at the least mode cut, so
    at most 29 counts there), and the 128 rules kept hold a few MB."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _phase_table(alpha: float, M: int, t: np.ndarray) -> np.ndarray:
    """exp(-i alpha m t) for the modes m = -M..M (rows) at the nodes t.

    With m = -M + B a + b and 0 <= b < B = _PHASE_BLOCK, each entry is the
    product hi[a] lo[b] of exp(-i alpha (B a - M) t) and exp(-i alpha b t),
    so about (2M+1)/B + B exponentials per node replace 2M+1.  Like the
    direct exp(-i alpha m t), the factors round arguments of size up to
    alpha M max|t|, and the product adds a few eps: both forms lie within a
    few eps (1 + alpha M max|t|) of the exact phase.
    """
    blocks = -(-(2 * M + 1) // _PHASE_BLOCK)
    hi = np.exp(-1j * alpha * np.outer(_PHASE_BLOCK * np.arange(blocks) - M, t))
    lo = np.exp(-1j * alpha * np.outer(np.arange(_PHASE_BLOCK), t))
    return (hi[:, None, :] * lo[None, :, :]).reshape(-1, len(t))[: 2 * M + 1]


def _segments(lam: float, M: int) -> list[tuple[float, float, int]]:
    """The quadrature segments (a, b, node count) of the E-images in
    t = log u on [-L, L]: the breakpoints are where the terms f(n x) enter,
    t = log(lambda/n).  Each count is sized to the top oscillation,
    3.5 M (b - a)/(2L) + 24, and rounded up to a multiple of _NODE_STEP,
    so that the node counts, and with them the _gauss_legendre rules, are
    few whatever lambda is."""
    L = np.log(lam)
    nmax0 = int(np.floor(lam * lam))
    cuts = sorted({-L, L} | {np.log(lam / n) for n in range(1, nmax0 + 1) if -L < np.log(lam / n) < L})
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n_nodes = int(M * (b - a) / (2 * L) * 3.5) + 24
        out.append((a, b, -(-n_nodes // _NODE_STEP) * _NODE_STEP))
    return out


def _truncated_prolate_E_coefficients(coeffs: np.ndarray, lam: float, M: int):
    """Circle Fourier coefficients of the Poincare-periodized E-images of the
    time-limited prolates g_i(x) = psi_i(x/lambda)/sqrt(lambda).

    v_i(t) = sum_{j<=0} E(g_i)(lambda^(2j) e^t); the j = 0 term is piecewise
    smooth with breakpoints where terms f(n x) enter, so the quadrature is
    segment-by-segment Gauss-Legendre (_segments), each segment's rule taken
    from the _gauss_legendre cache.  Levels down to -_DEPTH are included
    (their own kinks are weaker by the level's magnitude and need no extra
    breakpoints).  The phases over the 2M+1
    modes come from the factored _phase_table.
    """
    lam = float(lam)
    L = np.log(lam)
    alpha = np.pi / L
    rows = []
    for a, b, n_nodes in _segments(lam, M):
        width = b - a
        x, w = _gauss_legendre(n_nodes)
        t = 0.5 * (a + b) + 0.5 * width * x
        rows.append((t, 0.5 * width * w))
    t_all = np.concatenate([r[0] for r in rows])
    w_all = np.concatenate([r[1] for r in rows])
    vals = np.zeros((len(t_all), coeffs.shape[1]))
    for j in range(0, -_DEPTH - 1, -1):
        u = lam ** (2 * j) * np.exp(t_all)
        su = np.sqrt(u)
        nmax = int(np.floor(lam / u.min()))
        for n in range(1, nmax + 1):
            arg = n * u / lam
            inside = arg <= 1.0
            if not inside.any():
                continue
            vals[inside] += su[inside, None] * _prolate_values(coeffs, arg[inside])
    vals /= np.sqrt(lam)
    phases = _phase_table(alpha, M, t_all)
    return phases @ (w_all[:, None] * vals) / np.sqrt(2 * L)  # (2M+1, count)


def resonant_lambda(m: int, ordinate: float) -> float:
    """Circle parameter with log-circumference m * 2pi / ordinate: the m-th
    zeta-cycle length for a zero at that ordinate (the compressed Dirac then
    locks onto it instead of carrying the generic seam error)."""
    return float(np.exp(m * np.pi / ordinate))


def prolate_vectors(lam: float, k: int, mode_cut: int) -> np.ndarray:
    """The k-dimensional prolate-vector frame on the circle: orthonormal
    columns in the log-Fourier basis e_m(t) = exp(i pi m t / L)/sqrt(2L),
    modes -mode_cut..mode_cut, so of shape (2 mode_cut + 1, k).

    Takes the first k + _EXTRA even prolates, restricts their span to the
    codimension-2 subspace f(0) = 0, f^(0) = 0, applies E to a basis of it,
    restricts to the circle and orthonormalizes.  Rank loss beyond _RANK_TOL
    is an error (reported, never silently repaired)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coeffs = pswf_basis(lam, k + _EXTRA)
    E = _truncated_prolate_E_coefficients(coeffs, lam, mode_cut)
    at0 = _prolate_values(coeffs, np.array([0.0]))[0] / np.sqrt(lam)
    integ = np.sqrt(2.0) * coeffs[0] * np.sqrt(lam)  # integral of psi_i over [-1, 1]
    # orthonormal basis of the constraint null space inside the prolate span
    _, _, vt = np.linalg.svd(np.vstack([at0, integ]))
    q, sv, _ = np.linalg.svd(E @ vt[2:].T, full_matrices=False)
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
    re-orthonormalized (Q is n x k, n = basis_size).

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
    # re-orthonormalize after mode truncation
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
