"""Scaling-space constructions: the averaging map E, prolate bases, and the
prolate-projected Dirac operator whose low spectrum tracks zeta zeros.

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
orthocomplement of the k-dimensional prolate-vector subspace."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf


class ProlateRankError(RuntimeError):
    """The prolate-vector family lost rank after constraint projection."""


# -- map E and Poincare averaging ---------------------------------------------


def map_E(f, x, precision_bits: int = 53, support_radius=None):
    """x^(1/2) sum_{n>=1} f(n x), truncated where the terms provably vanish.

    If support_radius is given (or f carries decay_radius), terms with
    n x > radius are dropped exactly/below target precision; otherwise the
    sum must be cut by the caller's radius.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if support_radius is None:
        if hasattr(f, "decay_radius"):
            support_radius = f.decay_radius(precision_bits)
        else:
            raise ValueError("need support_radius for a bare callable")
    nmax = int(mp.floor(support_radius / x))
    if nmax < 1:
        return mpf(0)
    val = mp.fsum(f(n * x) for n in range(1, nmax + 1))
    return mp.sqrt(x) * val


def poincare_sum(mu, g, u, precision_bits: int = 53, support=None, max_terms: int = 400):
    """(Sigma_mu g)(u) = sum_{k in Z} g(mu^k u); invariant under u -> mu u.

    Compactly supported g (pass support=(lo, hi)) always converges; otherwise
    terms must decay below 2^-precision_bits within max_terms on each side,
    else the input is rejected as divergent.
    """
    if not (mu > 1):
        raise ValueError("mu must exceed 1")
    if u <= 0:
        raise ValueError("u must be positive")
    mu = mp.mpmathify(mu)
    if support is not None:
        lo, hi = support
        if not (0 < lo < hi):
            raise ValueError("support must be inside the positive half-line")
        kmin = int(mp.ceil(mp.log(lo / u) / mp.log(mu)))
        kmax = int(mp.floor(mp.log(hi / u) / mp.log(mu)))
        return mp.fsum(g(mu**k * u) for k in range(kmin, kmax + 1))
    tol = mpf(2) ** (-precision_bits)
    total = mp.mpmathify(g(u))
    for direction in (1, -1):
        streak = 0
        for k in range(1, max_terms + 1):
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


def zero_count_estimate(E):
    """Main term E/2pi log(E/2pi) - E/2pi of Riemann's zero count (diagnostic)."""
    if not (E > 2 * mp.pi):
        raise ValueError("defined for E > 2*pi")
    w = E / (2 * mp.pi)
    return w * mp.log(w) - w


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


@dataclass
class EvenPSWFBasis:
    """Even prolate spheroidal wave functions at bandwidth parameter c,
    L^2([-1,1])-normalized, as normalized-even-Legendre coefficient columns."""

    c: float
    chi: np.ndarray  # ODE eigenvalues, ascending
    coeffs: np.ndarray  # (n_pairs, count): Legendre coefficients per prolate
    band_eigenvalues: np.ndarray  # concentration eigenvalues in (0,1), decreasing

    @property
    def count(self) -> int:
        return self.coeffs.shape[1]

    def values(self, x: np.ndarray) -> np.ndarray:
        """Prolate values at x in [-1,1]; shape (len(x), count)."""
        return legendre_even_values(self.coeffs.shape[0], x) @ self.coeffs

    def value_at_zero(self) -> np.ndarray:
        return self.values(np.array([0.0]))[0]

    def integral(self) -> np.ndarray:
        """integral_{-1}^{1} psi_i(x) dx = sqrt(2) * (first Legendre coefficient)."""
        return np.sqrt(2.0) * self.coeffs[0]


def pswf_even_basis(c: float, count: int, n_pairs: int | None = None) -> EvenPSWFBasis:
    """First `count` even prolates at bandwidth c via the Legendre tridiagonal.

    Raises ValueError when the requested modes are not resolvable with the
    expansion length (trailing-coefficient test).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if n_pairs is None:
        n_pairs = max(int(0.75 * c) + 2 * count + 40, 60)
    m = _legendre_matrix_even(float(c), n_pairs)
    chi, vecs = np.linalg.eigh(m)
    if count > n_pairs - 10:
        raise ValueError("requested count exceeds numerically resolvable modes")
    coeffs = vecs[:, :count].copy()
    tail = np.abs(coeffs[-5:, :]).max()
    if tail > 1e-11:
        raise ValueError(
            f"requested count exceeds numerically resolvable modes "
            f"(trailing Legendre coefficient {tail:.2e})"
        )
    # sign convention: positive value at x = 1 (all normalized Legendre are
    # positive there, so the column sum against sqrt(n+1/2) decides)
    at_one = legendre_even_values(n_pairs, np.array([1.0])) @ coeffs
    coeffs *= np.where(at_one[0] >= 0, 1.0, -1.0)
    # concentration eigenvalues nu_i = c/(2 pi) * mu_i^2 via the finite
    # Fourier eigenrelation  int_{-1}^1 cos(c s t) psi(t) dt = mu psi(s)
    nodes, weights = np.polynomial.legendre.leggauss(max(2 * n_pairs, 220))
    vals = legendre_even_values(n_pairs, nodes) @ coeffs  # (nodes, count)
    nu = np.empty(count)
    probe = np.array([0.31290717, 0.57735027, 0.12353243])
    pv = legendre_even_values(n_pairs, probe) @ coeffs
    for i in range(count):
        transforms = np.array(
            [np.sum(weights * np.cos(c * s * nodes) * vals[:, i]) for s in probe]
        )
        j = int(np.argmax(np.abs(pv[:, i])))
        mu_i = transforms[j] / pv[j, i]
        nu[i] = c / (2 * np.pi) * mu_i * mu_i
    return EvenPSWFBasis(float(c), chi[:count], coeffs, nu)


def pswf_basis(lam: float, count: int) -> EvenPSWFBasis:
    """Even prolates for time interval [-lambda, lambda] against the Fourier
    band [-lambda, lambda] (kernel exp(-2 pi i x y)): c = 2 pi lambda^2."""
    return pswf_even_basis(2 * np.pi * float(lam) ** 2, count)


# -- prolate vectors on the circle ---------------------------------------------


@dataclass
class ProlateBundle:
    """Orthonormalized E-images of constraint-projected prolates, expressed in
    the circle's log-Fourier basis e_m(t) = exp(i pi m t / L)/sqrt(2L)."""

    lam: float
    count: int
    vectors: np.ndarray  # (2M+1, count) complex, orthonormal columns
    pswf_eigenvalues: np.ndarray
    mode_cut: int  # M
    singular_values: np.ndarray = field(default=None)

    def projection(self) -> np.ndarray:
        return self.vectors @ self.vectors.conj().T


def _truncated_prolate_E_coefficients(basis: EvenPSWFBasis, lam: float, M: int, depth: int = 1):
    """Circle Fourier coefficients of the Poincare-periodized E-images of the
    time-limited prolates g_i(x) = psi_i(x/lambda)/sqrt(lambda).

    v_i(t) = sum_{j<=0} E(g_i)(lambda^(2j) e^t); the j = 0 term is piecewise
    smooth with breakpoints where terms f(n x) enter, so the quadrature is
    segment-by-segment Gauss-Legendre sized to the top oscillation.  Levels
    down to -depth are included (their own kinks are weaker by the level's
    magnitude and need no extra breakpoints).
    """
    lam = float(lam)
    L = np.log(lam)
    alpha = np.pi / L
    nmax0 = int(np.floor(lam * lam))
    cuts = sorted({-L, L} | {np.log(lam / n) for n in range(1, nmax0 + 1) if -L < np.log(lam / n) < L})
    rows = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        width = b - a
        n_nodes = int(M * width / (2 * L) * 3.5) + 24
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        t = 0.5 * (a + b) + 0.5 * width * x
        rows.append((t, 0.5 * width * w))
    t_all = np.concatenate([r[0] for r in rows])
    w_all = np.concatenate([r[1] for r in rows])
    vals = np.zeros((len(t_all), basis.count))
    for j in range(0, -depth - 1, -1):
        u = lam ** (2 * j) * np.exp(t_all)
        su = np.sqrt(u)
        nmax = int(np.floor(lam / u.min()))
        for n in range(1, nmax + 1):
            arg = n * u / lam
            inside = arg <= 1.0
            if not inside.any():
                continue
            vals[inside] += su[inside, None] * basis.values(arg[inside])
    vals /= np.sqrt(lam)
    ms = np.arange(-M, M + 1)
    phases = np.exp(-1j * alpha * np.outer(ms, t_all)) / np.sqrt(2 * L)
    return phases @ (w_all[:, None] * vals)  # (2M+1, count)


def resonant_lambda(m: int, ordinate: float) -> float:
    """Circle parameter with log-circumference m * 2pi / ordinate: the m-th
    zeta-cycle length for a zero at that ordinate (the compressed Dirac then
    locks onto it instead of carrying the generic seam error)."""
    return float(np.exp(m * np.pi / ordinate))


def prolate_vectors(
    lam: float,
    k: int,
    mode_cut: int = 256,
    extra: int = 2,
    rank_tol: float = 1e-8,
    depth: int = 1,
) -> ProlateBundle:
    """The k-dimensional prolate-vector frame on the circle.

    Takes the first k+extra even prolates, restricts their span to the
    codimension-2 subspace f(0) = 0, f^(0) = 0, applies E to a basis of it,
    restricts to the circle and orthonormalizes.  Rank loss beyond rank_tol
    is an error (reported, never silently repaired)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    basis = pswf_basis(lam, k + extra)
    E = _truncated_prolate_E_coefficients(basis, lam, mode_cut, depth=depth)
    at0 = basis.value_at_zero() / np.sqrt(lam)
    integ = basis.integral() * np.sqrt(lam)
    cons = np.vstack([at0, integ])
    # orthonormal basis of the constraint null space inside the prolate span
    _, s, vt = np.linalg.svd(cons)
    null = vt[2:].T  # (k+extra, k+extra-2)
    vecs = E @ null
    q, sv, _ = np.linalg.svd(vecs, full_matrices=False)
    keep = k + extra - 2
    if sv[keep - 1] / sv[0] < rank_tol:
        raise ProlateRankError(
            f"prolate vectors lost rank: singular value ratio "
            f"{sv[keep - 1] / sv[0]:.2e} below {rank_tol:.0e}"
        )
    take = min(k, keep)
    if take < k:
        raise ProlateRankError(f"only {take} independent prolate vectors for k={k}")
    return ProlateBundle(
        lam=float(lam),
        count=k,
        vectors=q[:, :k],
        pswf_eigenvalues=basis.band_eigenvalues,
        mode_cut=mode_cut,
        singular_values=sv,
    )


# -- the compressed Dirac operator ----------------------------------------------


@dataclass
class ZeroMatch:
    eigenvalue: float
    ordinate: float
    zero_index: int  # 1-based index into the table
    abs_error: float
    rel_error: float


@dataclass
class SpectralReport:
    lam: float
    k: int
    basis_size: int
    eigenvalues: np.ndarray  # full spectrum, ascending
    positive: np.ndarray  # positive eigenvalues above the kernel cut
    matches: list  # ZeroMatch per matched positive eigenvalue, in order
    unmatched: list  # positive eigenvalues that found no zero within 0.5
    matched_within_threshold: int
    first20_max_rel_error: float

    def summary(self) -> dict:
        return {
            "lambda": self.lam,
            "k": self.k,
            "basis_size": self.basis_size,
            "matched_within_threshold": self.matched_within_threshold,
            "first20_max_rel_error": self.first20_max_rel_error,
            "n_positive": int(len(self.positive)),
        }


def dirac_matrix(lam: float, bundle: ProlateBundle | None, basis_size: int) -> np.ndarray:
    """(1 - Pi) D0 (1 - Pi) in the log-Fourier basis; D0 = diag(pi m / L)."""
    if basis_size % 2 == 0:
        raise ValueError("basis_size must be odd (modes -M..M)")
    M = (basis_size - 1) // 2
    L = np.log(float(lam))
    d0 = np.pi * np.arange(-M, M + 1) / L
    if bundle is None:
        return np.diag(d0)
    if bundle.mode_cut < M:
        raise ValueError("prolate bundle has fewer modes than basis_size")
    mid = bundle.mode_cut
    V = bundle.vectors[mid - M : mid + M + 1, :]
    # re-orthonormalize after mode truncation
    q, s, _ = np.linalg.svd(V, full_matrices=False)
    if s[-1] < 0.5:
        raise ValueError(
            f"basis_size {basis_size} too small for the projection rank "
            f"(singular value {s[-1]:.2e} after truncation)"
        )
    P = q @ q.conj().T
    comp = np.eye(basis_size) - P
    return comp @ np.diag(d0).astype(complex) @ comp


def match_zeros(eigs: np.ndarray, zeros, threshold: float = 0.5, positive_cut: float = 0.5):
    """Greedy nearest-neighbor pairing of positive eigenvalues with ordinates.

    Returns (positive, aligned) where aligned[i] is the ZeroMatch for
    positive[i] or None if no unused ordinate lies within the threshold.
    """
    ords = [float(g) for g in zeros]
    used = set()
    positive = np.array([e for e in eigs if e > positive_cut])
    aligned = []
    for e in positive:
        i = bisect_left(ords, e)
        best = None
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(ords) and j not in used:
                d = abs(ords[j] - e)
                if best is None or d < best[0]:
                    best = (d, j)
        if best is not None and best[0] <= threshold:
            used.add(best[1])
            aligned.append(
                ZeroMatch(
                    eigenvalue=float(e),
                    ordinate=ords[best[1]],
                    zero_index=best[1] + 1,
                    abs_error=float(best[0]),
                    rel_error=float(best[0] / ords[best[1]]),
                )
            )
        else:
            aligned.append(None)
    return positive, aligned


def dirac_spectrum(
    lam: float,
    k: int,
    basis_size: int,
    zeros,
    mode_cut: int | None = None,
    bundle: ProlateBundle | None = None,
) -> SpectralReport:
    """Spectrum of D(lambda, k) against a zero table."""
    if k > 0 and basis_size < 2 * k + 8:
        raise ValueError("basis_size must be at least 2k + 8")
    if bundle is None and k > 0:
        M = (basis_size - 1) // 2
        bundle = prolate_vectors(lam, k, mode_cut=mode_cut or max(M, 256))
    mat = dirac_matrix(lam, bundle if k > 0 else None, basis_size)
    eigs = np.linalg.eigvalsh(mat)
    positive, aligned = match_zeros(eigs, zeros)
    matches = [m for m in aligned if m is not None]
    unmatched = [float(e) for e, m in zip(positive, aligned) if m is None]
    # the first 20 positive eigenvalues must all match for the figure of merit
    head = aligned[: min(20, len(aligned))]
    if head and all(m is not None for m in head):
        first20_max = max(m.rel_error for m in head)
    else:
        first20_max = float("inf")
    return SpectralReport(
        lam=float(lam),
        k=k,
        basis_size=basis_size,
        eigenvalues=eigs,
        positive=positive,
        matches=matches,
        unmatched=unmatched,
        matched_within_threshold=len(matches),
        first20_max_rel_error=first20_max,
    )
