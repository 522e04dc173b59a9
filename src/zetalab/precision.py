"""Arbitrary-precision real symmetric matrices and a certified eigensolver.

HPMatrix stores a real symmetric matrix with its working precision in bits.
Symmetry is checked on construction and made exact by averaging, _GUARD
bits above that precision, the pairs of entries that differ; every other
entry is kept as given.  jacobi_eigensystem (a kept name: no Jacobi sweep runs) solves it with
mpmath's eigsy, Householder tridiagonalisation plus implicit QL, and returns
one residual that bounds every eigenvalue's error, in sorted order, for the
eigenproblem of the stored matrix; the error of the entries is the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from zetalab.immutable import Immutable

# Working bits above precision_bits for averaging, solving and hermitefn's
# closed-form projection.  They set the certificate's level: with 16, the
# eigsy residual plus the rounding term n 2^-(bits+16) (||A||_F + max|lambda|)
# comes to between 2^-(bits+6) and 2^-(bits+8) on the Weil blocks of the
# benchmark (dimension up to 25), a few bits past the precision_bits asked for.
_GUARD = 16


class HPMatrix(Immutable):
    """Dense real symmetric matrix with explicit precision-in-bits."""

    __slots__ = ("dim", "precision_bits", "rows")

    def __init__(self, entries, precision_bits: int):
        if precision_bits < 8:
            raise ValueError("precision_bits too small")
        n = len(entries)
        if any(len(r) != n for r in entries):
            raise ValueError("matrix must be square")
        with mp.workprec(precision_bits + _GUARD):
            rows = [[mp.mpmathify(x) for x in r] for r in entries]
            if not all(isinstance(x, mpf) for r in rows for x in r):
                raise ValueError("matrix entries must be real")
            if not all(mp.isfinite(x) for r in rows for x in r):
                raise ValueError("matrix entries must be finite")
            scale = max((abs(x) for r in rows for x in r), default=mpf(0)) or mpf(1)
            resid = max((abs(rows[i][j] - rows[j][i]) for i in range(n) for j in range(i)),
                        default=mpf(0))
            if resid > scale * mpf(2) ** (-(precision_bits // 2)):
                raise ValueError(f"matrix is not symmetric: residual {resid}")
            for i in range(n):
                for j in range(i):
                    if rows[i][j] != rows[j][i]:
                        rows[i][j] = rows[j][i] = (rows[i][j] + rows[j][i]) / 2
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "precision_bits", precision_bits)
        object.__setattr__(self, "rows", rows)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __repr__(self):
        return f"HPMatrix(dim={self.dim}, {self.precision_bits} bits)"


@dataclass
class EigenResult:
    eigenvalues: list  # ascending mpf
    vectors: list  # vectors[i] is the column for eigenvalues[i]
    residuals: list  # certified |lambda_i - lambda_i(A)|, the same bound for every i
    sweeps: int  # always 0: no Jacobi sweep runs
    precision_bits: int

    def max_residual(self):
        return max(self.residuals) if self.residuals else mpf(0)


def jacobi_eigensystem(m: HPMatrix) -> EigenResult:
    """Ascending eigenvalues, eigenvectors and one certified residual from
    E, Q = mp.eigsy(A) at precision_bits + _GUARD (eigsy raises RuntimeError
    when its QL iteration does not converge).

    Let V = Q, Lam = diag(E), R = A V - V Lam, G = V^T V and delta =
    ||G - I||_F, which must be below 1/2 (else ArithmeticError).  W = V G^(-1/2)
    is orthogonal, so M = W^T A W has exactly A's eigenvalues, and from
    V^T A V = G Lam + V^T R,

        M - Lam = G^(-1/2) (V^T R + G^(1/2) [G^(1/2) - I, Lam]) G^(-1/2).

    In the 2-norm ||G^(-1/2)||^2 <= 1/(1 - delta), ||V|| <= 1 + delta and
    ||G^(1/2)|| ||G^(1/2) - I|| <= sqrt(1 + delta) delta/(1 + sqrt(1 - delta))
    <= delta, so ||M - Lam|| <= ((1 + delta) ||R||_F + 2 delta max|lambda|)/
    (1 - delta).  By Weyl's inequality that bounds the distance of the i-th
    computed eigenvalue from A's i-th, both sorted, not only from the nearest
    one.  n 2^-(precision_bits + _GUARD) (||A||_F + max|lambda|) is added for
    the rounding of forming R and G.
    """
    n, prec = m.dim, m.precision_bits
    if n == 0:
        return EigenResult([], [], [], 0, prec)
    with mp.workprec(prec + _GUARD):
        E, Q = mp.eigsy(mp.matrix(m.rows))
        lam = [E[i] for i in range(n)]
        vecs = [[Q[k, i] for k in range(n)] for i in range(n)]
        r2 = mp.fsum((mp.fdot(m.rows[k], v) - lam[i] * v[k]) ** 2
                     for i, v in enumerate(vecs) for k in range(n))
        delta = mp.sqrt(mp.fsum((mp.fdot(u, v) - (i == j)) ** 2
                                for i, u in enumerate(vecs) for j, v in enumerate(vecs)))
        if delta >= 0.5:
            raise ArithmeticError(f"eigsy vectors are not orthonormal: defect {delta}")
        top = max(abs(x) for x in lam)
        norm_a = mp.sqrt(mp.fsum(x * x for r in m.rows for x in r))
        bound = ((1 + delta) * mp.sqrt(r2) + 2 * delta * top) / (1 - delta)
        bound += n * mpf(2) ** -(prec + _GUARD) * (norm_a + top)
    return EigenResult(lam, vecs, [bound] * n, 0, prec)
