"""Arbitrary-precision real symmetric matrices and a certified eigensolver.

HPMatrix stores a real symmetric matrix with its working precision in bits.
Symmetry is checked on construction and made exact by averaging, _GUARD
bits above that precision, the pairs of entries that differ; every other
entry is kept as given.  jacobi_eigensystem (the name is kept; no Jacobi
sweep runs) reduces the stored matrix to tridiagonal form once, takes the
tridiagonal's eigenvalues by values-only implicit QL, and certifies them
without eigenvectors: a Weyl bound for the reduction and Sturm counts for
every eigenvalue of the tridiagonal.  It returns one residual that bounds
every eigenvalue's error, in sorted order, for the eigenproblem of the
stored matrix; the error of the entries is the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from mpmath import mp, mpf
from mpmath.matrices.eigen_symmetric import r_sy_tridiag, tridiag_eigen

from zetalab.immutable import Immutable

# Working bits above precision_bits for averaging, solving and hermitefn's
# closed-form projection.  They set the certificate's level: with 16, the
# reduction's Weyl term plus the Sturm radius rho + eta comes to between
# 2^-(bits+7.5) and 2^-(bits+9) on the Weil blocks of the benchmark
# (dimension up to 25), a few bits past the precision_bits asked for.
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
    defect: object  # delta = ||Q^T Q - I||_F of the tridiagonalising Q
    residuals: list  # certified |lambda_i - lambda_i(A)|, the same bound for every i
    sweeps: int  # always 0: no Jacobi sweep runs
    precision_bits: int

    def max_residual(self):
        return max(self.residuals) if self.residuals else mpf(0)


def _sturm_count(diag, off2, sigma, pivmin):
    """Number of negative pivots q_i of T - sigma I, for T tridiagonal with
    diagonal diag and squared off-diagonals off2 (off2[0] = 0, off2[i] =
    e_(i-1)^2); a zero pivot is replaced by -pivmin.  jacobi_eigensystem
    bounds what the rounding of this recurrence counts."""
    count, q = 0, mpf(1)
    for d, e2 in zip(diag, off2):
        q = d - sigma - e2 / q
        if not q:
            q = -pivmin
        count += q < 0
    return count


def jacobi_eigensystem(m: HPMatrix) -> EigenResult:
    """Ascending eigenvalues of A and one certified residual, without
    eigenvectors.

    At p = precision_bits + _GUARD bits, u = 2^-p, each half of mpmath's eigsy
    runs once: r_sy_tridiag reduces A to T = Q^T A Q, T tridiagonal with
    diagonal d and off-diagonal e, and forms Q; tridiag_eigen(z=False) takes
    T's eigenvalues lam~ by implicit QL (RuntimeError when it does not
    converge).  They are eigsy's eigenvalues bit for bit.

    A against T.  Let R = A Q - Q T, G = Q^T Q and delta = ||G - I||_F,
    which must be below 1/2 (else ArithmeticError).  W = Q G^(-1/2) is
    orthogonal, so M = W^T A W has exactly A's eigenvalues, and from
    Q^T A Q = G T + Q^T R,

        M - T = G^(-1/2) (Q^T R + G^(1/2) [G^(1/2) - I, T]) G^(-1/2).

    In the 2-norm ||G^(-1/2)||^2 <= 1/(1 - delta), ||Q|| <= 1 + delta and
    ||G^(1/2)|| ||G^(1/2) - I|| <= sqrt(1 + delta) delta/(1 + sqrt(1 - delta))
    <= delta, so ||M - T|| <= ((1 + delta) ||R||_F + 2 delta ||T||)/(1 - delta).
    By Weyl's inequality that bounds |lambda_i(A) - lambda_i(T)|, both
    sorted.

    T against lam~.  The count of negative q_i in q_0 = d_0 - sigma,
    q_i = d_i - sigma - e_(i-1)^2/q_(i-1) is #{lambda(T) < sigma}, by the
    inertia of T - sigma I = L diag(q) L^T.  Rounded to nearest, with e^2
    formed once, q_i = ((d_i - sigma)(1 + a_i) - e_(i-1)^2 (1 + b)(1 + c)/
    q_(i-1))(1 + f_i), every |a|, |b|, |c|, |f| <= u.  q^_i = q_i/((1 + a_i)
    (1 + f_i)) has q_i's sign and runs the exact recurrence with e_(i-1)^2
    scaled by (1 + b)(1 + c)/((1 + a_i)(1 + a_(i-1))(1 + f_(i-1))): the
    computed count is exact for a T' whose off-diagonals are within
    2.5 u + O(u^2) <= 3u of T's, relatively.  A zero pivot is replaced by
    -theta, theta = u t with t = max |T entry|; that is exact for d_i moved by
    theta/(1 + a_i) <= 2 theta.  So ||T' - T|| <= 2 (3u max|e|) + 2 theta
    <= eta = 8 u t, whatever sigma is.  The radius rho climbs a ladder, x 9/8
    per rung, from u t (u when T = 0) until, for each i in turn,

        #{lambda(T) < lam~_i - rho} <= i < #{lambda(T) < lam~_i + rho},

    with sigma = lam~_i -+ rho formed exactly.  Each count is exact for its
    own T' within eta of T, so lambda_i(T) is within rho + eta of lam~_i, and
    ||T|| <= max|lam~| + rho + eta.

    Rounding of the certificate.  Each entry of R and of G - I is one fdot:
    exact products, summed exactly except that mpf_sum drops a term or
    partial sum 2p bits below the next, and rounded once; so it is within u
    of itself, relatively, plus (n + 3) u^2 times its terms' absolute sum.
    With ||Q||_F^2 <= n (1 + delta), the computed ||R||_F and delta are
    within 3u of the exact ones, relatively, plus 5 n^1.5 u^2 (||A||_F +
    ||T||_F) and 5 n^2 u^2.  The bound is a formula of positive terms (u t is
    exact), evaluated within 14u of itself, inputs' errors included, so the
    Weyl term plus rho + eta is scaled by 1 + 32u.  The dropped terms reach
    it through the factor (1 + delta)/(1 - delta) <= 3 on ||R||_F and a slope
    2 (||R||_F + ||T||)/(1 - delta)^2 <= 20 (||A||_F + ||T||_F) in delta, so
    2^7 n^2 u^2 (||A||_F + 2 n t), with ||T||_F <= 2 n t, covers them.

    The residual bounds every sorted eigenvalue, not only the smallest.
    defect is delta.
    """
    n, prec = m.dim, m.precision_bits
    if n == 0:
        return EigenResult([], mpf(0), [], 0, prec)
    p = prec + _GUARD
    u = mpf(2) ** -p
    with mp.workprec(p):
        Q, d, e = mp.matrix(m.rows), mp.zeros(n, 1), mp.zeros(n, 1)
        r_sy_tridiag(mp, Q, d, e, calc_ev=True)
        diag, off = [d[i] for i in range(n)], [e[i] for i in range(n - 1)]
        tridiag_eigen(mp, d, e, False)
        lam = [d[i] for i in range(n)]

        qrows = [[Q[k, j] for j in range(n)] for k in range(n)]
        qcols = list(zip(*qrows))

        def tcol(j):  # column j of T as (row, entry)
            return [(i, diag[j] if i == j else off[min(i, j)])
                    for i in range(max(j - 1, 0), min(j + 2, n))]

        r2 = mp.fsum(
            mp.fdot(chain(zip(m.rows[k], qcols[j]), ((qrows[k][i], -x) for i, x in tcol(j)))) ** 2
            for j in range(n) for k in range(n))
        g2 = mp.fsum(
            (2 if i != j else 1) * mp.fdot(chain(zip(qcols[i], qcols[j]), [(int(i == j), -1)])) ** 2
            for j in range(n) for i in range(j + 1))
        delta = mp.sqrt(g2)
        if delta >= 0.5:
            raise ArithmeticError(f"tridiagonalising Q is not orthonormal: defect {delta}")

        t = max(abs(x) for x in chain(diag, off))
        off2 = [mpf(0)] + [x * x for x in off]
        top = max(abs(x) for x in lam)
        rho = u * (t or 1)
        for i, x in enumerate(lam):
            while (_sturm_count(diag, off2, mp.fsub(x, rho, exact=True), u * t) > i
                   or _sturm_count(diag, off2, mp.fadd(x, rho, exact=True), u * t) <= i):
                rho += rho / 8
        eig_t = rho + 8 * u * t  # |lambda_i(T) - lam~_i|
        weyl = ((1 + delta) * mp.sqrt(r2) + 2 * delta * (top + eig_t)) / (1 - delta)
        norm_a = mp.sqrt(mp.fsum(x * x for r in m.rows for x in r))
        bound = (weyl + eig_t) * (1 + 32 * u) + 2**7 * n * n * u * u * (norm_a + 2 * n * t)
    return EigenResult(lam, delta, [bound] * n, 0, prec)
