"""Arbitrary-precision Hermitian matrices and a certified Jacobi eigensolver.

HPMatrix stores a real symmetric or complex Hermitian matrix together with
its working precision in bits; Hermitianity is checked on construction and
enforced exactly (averaging with the adjoint) so the solver cannot silently
operate on skew junk.

jacobi_eigensystem runs cyclic Jacobi sweeps at full precision.  For speed it
can first diagonalize a float64 shadow of the matrix and apply the resulting
(re-orthonormalized at full precision) rotation as an exact similarity; the
eigenvalues are untouched by that step and the remaining sweeps only polish.
Every returned eigenpair carries the certified residual ||A v - lambda v||_2
evaluated against the original matrix at full precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpc, mpf

from zetalab.immutable import Immutable


_MAX_SWEEPS = 80
_GUARD_BITS = 8  # Jacobi stops at off-norm 2^(_GUARD_BITS - precision_bits) ||A||_F


def _is_complex(x) -> bool:
    return isinstance(x, (mpc, complex)) and x.imag != 0


def _hermitize(rows, cplx):
    """Average rows with its adjoint in place (real diagonal, exact symmetry);
    returns the rows, converted to mpf when the matrix is real."""
    n = len(rows)
    for i in range(n):
        rows[i][i] = mp.re(rows[i][i])
        for j in range(i):
            avg = (rows[i][j] + mp.conj(rows[j][i])) / 2
            rows[i][j] = avg
            rows[j][i] = mp.conj(avg)
    if not cplx:
        return [[mp.re(x) for x in r] for r in rows]
    return rows


def remove_components(v, basis):
    """v minus its components along the orthonormal basis, one vector at a
    time (the modified Gram-Schmidt order)."""
    v = list(v)
    for u in basis:
        dot = mp.fdot(v, u, conjugate=True)
        v = [x - dot * y for x, y in zip(v, u)]
    return v


def orthonormalize(vectors, threshold, basis=()):
    """Modified Gram-Schmidt over real or complex vectors.

    Each vector is orthogonalized against the already orthonormal basis and
    against the vectors accepted before it; one whose remaining norm is at or
    below threshold is dropped.  Returns the accepted vectors, normalized.
    """
    basis = list(basis)
    out = []
    for v in vectors:
        v = remove_components(v, basis)
        nrm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in v))
        if nrm > threshold:
            u = [x / nrm for x in v]
            basis.append(u)
            out.append(u)
    return out


class HPMatrix(Immutable):
    """Dense Hermitian matrix with explicit precision-in-bits."""

    __slots__ = ("dim", "precision_bits", "rows", "is_complex")

    def __init__(self, entries, precision_bits: int):
        if precision_bits < 8:
            raise ValueError("precision_bits too small")
        n = len(entries)
        if any(len(r) != n for r in entries):
            raise ValueError("matrix must be square")
        with mp.workprec(precision_bits):
            rows = [[mp.mpmathify(x) for x in r] for r in entries]
            if not all(mp.isfinite(x) for r in rows for x in r):
                raise ValueError("matrix entries must be finite")
            cplx = any(_is_complex(x) for r in rows for x in r)
            scale = max((abs(x) for r in rows for x in r), default=mpf(0))
            tol = (scale if scale else mpf(1)) * mpf(2) ** (-(precision_bits // 2))
            for i in range(n):
                if abs(mp.im(rows[i][i])) > tol:
                    raise ValueError(f"diagonal entry {i} is not real")
            resid = max(
                (abs(rows[i][j] - mp.conj(rows[j][i])) for i in range(n) for j in range(i)),
                default=mpf(0),
            )
            if resid > tol:
                raise ValueError(f"matrix is not Hermitian: residual {resid}")
            rows = _hermitize(rows, cplx)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "precision_bits", precision_bits)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "is_complex", cplx)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def to_numpy(self) -> np.ndarray:
        dtype = complex if self.is_complex else float
        return np.array([[dtype(x) for x in r] for r in self.rows], dtype=dtype)

    def frobenius_norm(self):
        with mp.workprec(self.precision_bits):
            return mp.sqrt(mp.fsum(abs(x) ** 2 for r in self.rows for x in r))

    def __repr__(self):
        kind = "hermitian" if self.is_complex else "symmetric"
        return f"HPMatrix(dim={self.dim}, {kind}, {self.precision_bits} bits)"


@dataclass
class EigenResult:
    eigenvalues: list  # ascending mpf
    vectors: list | None  # vectors[i] is the column for eigenvalues[i]
    residuals: list  # certified ||A v - lambda v||_2 per pair
    off_norm: object  # final off-diagonal Frobenius norm
    sweeps: int
    precision_bits: int

    def max_residual(self):
        return max(self.residuals) if self.residuals else mpf(0)


def _offdiag_norm(rows, n):
    return mp.sqrt(mp.fsum(abs(rows[i][j]) ** 2
                           for i in range(n) for j in range(n) if i != j))


def _rotate(rows, vecs, n, p, q, cplx):
    """One Jacobi rotation annihilating rows[p][q]; returns rotation applied."""
    apq = rows[p][q]
    g = abs(apq)
    if g == 0:
        return False
    phase = apq / g if cplx else (mpf(1) if apq > 0 else mpf(-1))
    app = rows[p][p]
    aqq = rows[q][q]
    tau = (aqq - app) / (2 * g)
    if tau >= 0:
        t = 1 / (tau + mp.sqrt(1 + tau * tau))
    else:
        t = -1 / (-tau + mp.sqrt(1 + tau * tau))
    c = 1 / mp.sqrt(1 + t * t)
    s = t * c
    # U = diag(1, conj(phase)) . [[c, s], [-s, c]] on coordinates (p, q):
    # U[p][p] = c, U[p][q] = s, U[q][p] = -s*w, U[q][q] = c*w, w = conj(phase)
    w = mp.conj(phase) if cplx else phase
    sw = s * w
    cw = c * w
    sp_ = s * phase
    cp_ = c * phase
    # columns p,q of every row  (A <- A U)
    for k in range(n):
        rk = rows[k]
        akp = rk[p]
        akq = rk[q]
        rk[p] = c * akp - sw * akq
        rk[q] = s * akp + cw * akq
    # rows p,q  (A <- U* A)
    rp = rows[p]
    rq = rows[q]
    for k in range(n):
        apk = rp[k]
        aqk = rq[k]
        rp[k] = c * apk - sp_ * aqk
        rq[k] = s * apk + cp_ * aqk
    rows[p][q] = 0
    rows[q][p] = 0
    rows[p][p] = mp.re(rows[p][p])
    rows[q][q] = mp.re(rows[q][q])
    if vecs is not None:
        for k in range(n):
            vk = vecs[k]
            vkp = vk[p]
            vkq = vk[q]
            vk[p] = c * vkp - sw * vkq
            vk[q] = s * vkp + cw * vkq
    return True


def jacobi_eigensystem(
    m: HPMatrix,
    want_vectors: bool = True,
    warm_start: bool = True,
) -> EigenResult:
    """Eigenvalues (ascending) and certified eigenpairs by cyclic Jacobi.

    Convergence target: off-diagonal Frobenius norm below
    2^(_GUARD_BITS - precision_bits) * ||A||_F.  Raises RuntimeError if the
    sweep budget is exhausted first.
    """
    n = m.dim
    prec = m.precision_bits
    if n == 0:
        return EigenResult([], [] if want_vectors else None, [], mpf(0), 0, prec)
    with mp.workprec(prec + 16):
        rows = [list(r) for r in m.rows]
        cplx = m.is_complex
        norm = m.frobenius_norm()
        target = (norm if norm else mpf(1)) * mpf(2) ** (_GUARD_BITS - prec)
        basis = None  # columns of the accumulated similarity, as rows[k][j]
        if warm_start and n >= 3:
            a64 = m.to_numpy()
            if np.all(np.isfinite(a64)):
                _, q64 = np.linalg.eigh(a64)
                cols = [[mp.mpmathify(q64[k, j]) for k in range(n)] for j in range(n)]
                cols = orthonormalize(cols, 0)
                if len(cols) != n:
                    raise ValueError("warm-start basis is singular")
                # B = Q* A Q, exact at working precision; re-Hermitize so the
                # sweeps see exact symmetry (Q is orthonormal only to ~2^-prec)
                aq = [[mp.fsum(m.rows[i][k] * cols[j][k] for k in range(n))
                       for j in range(n)] for i in range(n)]
                rows = [[mp.fsum(mp.conj(cols[i][k]) * aq[k][j] for k in range(n))
                         for j in range(n)] for i in range(n)]
                rows = _hermitize(rows, cplx)
                basis = [[cols[j][k] for j in range(n)] for k in range(n)]
        if want_vectors and basis is None:
            basis = [[mpf(1) if i == j else mpf(0) for j in range(n)] for i in range(n)]
        if not want_vectors:
            basis = None

        sweeps = 0
        off = _offdiag_norm(rows, n)
        skip = target / (2 * n)
        while off > target:
            if sweeps >= _MAX_SWEEPS:
                raise RuntimeError(
                    f"Jacobi did not converge in {_MAX_SWEEPS} sweeps "
                    f"(off-norm {mp.nstr(off, 5)}, target {mp.nstr(target, 5)})"
                )
            for p in range(n - 1):
                for q in range(p + 1, n):
                    if abs(rows[p][q]) > skip:
                        _rotate(rows, basis, n, p, q, cplx)
            sweeps += 1
            off = _offdiag_norm(rows, n)

        order = sorted(range(n), key=lambda i: rows[i][i])
        eigenvalues = [rows[i][i] for i in order]
        vectors = None
        residuals = []
        if want_vectors:
            vectors = [[basis[k][i] for k in range(n)] for i in order]
            for lam, v in zip(eigenvalues, vectors):
                r2 = mp.fsum(
                    abs(mp.fsum(m.rows[i][k] * v[k] for k in range(n)) - lam * v[i]) ** 2
                    for i in range(n)
                )
                residuals.append(mp.sqrt(r2))
        else:
            # Gershgorin-style certificate from the final off-diagonal mass
            residuals = [off] * n
        return EigenResult(eigenvalues, vectors, residuals, off, sweeps, prec)

