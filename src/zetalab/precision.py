"""Arbitrary-precision real symmetric matrices and a certified eigensolver.

HPMatrix stores a real symmetric matrix, as a tuple of row tuples, with its
working precision in bits.  Symmetry is checked on construction and made
exact by averaging, _GUARD bits above that precision, the pairs of entries
that differ; every other entry is kept as given.  jacobi_eigensystem (the
name is kept; no Jacobi sweep runs) rounds the stored matrix once to fixed
point, reduces it to tridiagonal form by Householder reflectors on Python
integers, guesses the tridiagonal's eigenvalues by mpmath's values-only
implicit QL, and certifies them without eigenvectors and without
floating-point rounding: the input rounding, a Weyl bound whose residual
and orthogonality defect are formed exactly in integers, and Sturm counts
on the tridiagonal's integers for every eigenvalue, added in Fractions.  It
returns one residual that bounds every eigenvalue's error, in sorted order,
for the eigenproblem of the stored matrix; the error of the entries is the
caller's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt
from operator import mul

from mpmath import mp, mpf
from mpmath.matrices.eigen_symmetric import tridiag_eigen

from zetalab.immutable import Immutable

# Working bits above precision_bits for averaging, solving and hermitefn's
# closed-form projection.  They set the certificate's level: with 16, the
# Sturm radius rho + 1 unit (3.7 to 8.6 u t, t the largest tridiagonal
# entry), the reduction's Weyl term (below u t/2) and the input rounding
# (below u t/10) come to between 2^-(bits+11.3) and 2^-(bits+12.8) on the
# Weil blocks of the benchmark (dimension up to 25).
_GUARD = 16


class HPMatrix(Immutable):
    """Dense real symmetric matrix with explicit precision-in-bits, rows a tuple of tuples."""

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
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))

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


def _sturm_count(diag, off2, sigma):
    """Number of negative pivots q_i = diag_i - sigma - off2_i // q_(i-1) of
    the integer tridiagonal T - sigma I, off2 its squared off-diagonals
    (off2[0] = 0, off2[i] = e_(i-1)^2); a zero pivot is set to -1.  The count
    is exact for a T' within one unit of T (jacobi_eigensystem)."""
    count, q = 0, 1
    for d, e2 in zip(diag, off2):
        q = d - sigma - e2 // q or -1
        count += q < 0
    return count


def _tridiagonalize(N, P):
    """Householder reduction of the symmetric integer matrix N on Python
    integers: T's diagonal d and off-diagonal e, on N's scale, and the
    columns of Q, for 2^-P Q, with N Q ~ Q T.  For a column x, H = I -
    2 v v^T/h, v = x + a e_1, h = |v|^2, is orthogonal whatever a is;
    a = round(|x|) with x_0's sign (one isqrt) makes H x = -a e_1 to half a
    unit per entry.  H B H = B - (v y^T + y v^T)/h^2, w = B v, y = 2 (h w -
    (v.w) v), with y/h^2 kept to s bits past the point (s above v's length)
    and each entry rounded to nearest by one shift; Q = H_1 H_2 ... is
    accumulated backward the same way.  The caller certifies what is
    returned: no rounding is analysed here."""
    n = len(N)
    c, d, e, refl = [list(r) for r in N], [], [], []
    for j in range(1, n - 1):  # c is the trailing block from row j - 1
        d.append(c[0][0])
        x, c = [r[0] for r in c[1:]], [r[1:] for r in c[1:]]
        s2, a = sum(map(mul, x, x)), -x[0]
        if s2 > a * a:  # something below the subdiagonal: reflect
            a = isqrt(s2)
            a = (a + (s2 - a * a > a)) * (1 if x[0] >= 0 else -1)
            v = [x[0] + a, *x[1:]]
            h, w = sum(map(mul, v, v)), [sum(map(mul, r, v)) for r in c]
            vw, s = sum(map(mul, v, w)), max(map(abs, v)).bit_length() + 4
            z = [(((h * wi - vw * vi) << (s + 2)) + h * h) // (2 * h * h) for wi, vi in zip(w, v)]
            half = 1 << (s - 1)
            c = [[cil - ((vi * zl + zi * vl + half) >> s) for cil, zl, vl in zip(r, z, v)]
                 for r, vi, zi in zip(c, v, z)]
            refl.append((j, v, h, s))
        e.append(-a)
    d.extend(c[i][i] for i in range(len(c)))
    e.extend(c[i + 1][i] for i in range(len(c) - 1))
    q = [[int(i == j) << P for j in range(n)] for i in range(n)]
    for j, v, h, s in reversed(refl):  # H acts on rows and columns j..n-1
        half = 1 << (s - 1)
        z = [((sum(map(mul, v, col)) << (s + 2)) + h) // (2 * h)
             for col in zip(*(r[j:] for r in q[j:]))]
        for r, vi in zip(q[j:], v):
            r[j:] = [qil - ((vi * zl + half) >> s) for qil, zl in zip(r[j:], z)]
    return d, e, list(zip(*q))


def _fixed(x, s):
    """round(x 2^s) for an mpf x, to nearest."""
    sign, man, exp, _ = x._mpf_
    man = man << (exp + s) if exp + s >= 0 else (man + (1 << (-exp - s - 1))) >> (-exp - s)
    return -man if sign else man


def _isqrt_up(x):
    """ceil(sqrt(x)) for an integer x >= 0."""
    r = isqrt(x)
    return r + (r * r < x)


def _round_up(x, bits):
    """An mpf of about `bits` bits at least the Fraction x >= 0."""
    s = bits + x.denominator.bit_length() - x.numerator.bit_length()
    return mpf((ceil(x * Fraction(2) ** s), -s), prec=0)


def _bound(r2, g2, P, top, radius):
    """The residual in units of 2^(k-P), exactly: ((1 + delta) ||R||_F +
    2 delta ||T||)/(1 - delta) + radius, ||R||_F and delta from the integers
    r2 and g2 (jacobi_eigensystem) and ||T|| <= top."""
    delta = Fraction(_isqrt_up(g2), 1 << 2 * P)
    if delta >= Fraction(1, 2):
        raise ArithmeticError(f"tridiagonalising Q is not orthonormal: defect {float(delta)}")
    return ((1 + delta) * Fraction(_isqrt_up(r2), 1 << P) + 2 * delta * top) / (1 - delta) + radius


def jacobi_eigensystem(m: HPMatrix) -> EigenResult:
    """Ascending eigenvalues of A and one certified residual, without
    eigenvectors.

    Fixed point.  Let p = precision_bits + _GUARD, P = p + 8, 2^k > max|A_ij|
    (k read off the entries' exponents) and a unit 2^(k-P).  Each entry of A
    is rounded to nearest once, to A^ = N units with N integer, so by Weyl's
    inequality A's sorted eigenvalues are within ||A - A^||_2 <= n/2 units of
    A^'s.  _tridiagonalize reduces N to T = tridiag(e, d, e) units and Q (for
    2^-P Q).  mpmath's tridiag_eigen(z=False) guesses T's eigenvalues by
    implicit QL at p bits (RuntimeError when it does not converge); rounded
    to units they are the centres c_i, which are returned.  QL's rounding is
    not analysed: the Sturm counts below certify the centres.

    A^ against T.  R = A^ Q - Q T and G = Q^T Q - I are integer matrices
    times 2^(k-2P) and 2^-2P, formed exactly; ||R||_F and delta = ||G||_F
    are their integer square roots rounded up, and delta must be below 1/2
    (else ArithmeticError).  W = Q G^(-1/2) is orthogonal, so M = W^T A^ W
    has exactly A^'s eigenvalues, and from Q^T A^ Q = G T + Q^T R,

        M - T = G^(-1/2) (Q^T R + G^(1/2) [G^(1/2) - I, T]) G^(-1/2).

    In the 2-norm ||G^(-1/2)||^2 <= 1/(1 - delta), ||Q|| <= 1 + delta and
    ||G^(1/2)|| ||G^(1/2) - I|| <= sqrt(1 + delta) delta/(1 + sqrt(1 - delta))
    <= delta, so ||M - T|| <= ((1 + delta) ||R||_F + 2 delta ||T||)/(1 - delta).
    By Weyl's inequality that bounds |lambda_i(A^) - lambda_i(T)|, both
    sorted.

    T against c.  For an integer sigma, _sturm_count's floor moves q_i by
    less than one unit, and setting a zero pivot to -1 by at most one more:
    its pivots are exactly those of T' - sigma I = L diag(q) L^T, for T'
    = T plus a diagonal with entries in [-1, 1) units, and none is zero.  By
    inertia the count is #{lambda(T') < sigma}, and by Weyl's inequality
    lambda_i(T') is within one unit of lambda_i(T).  The radius rho climbs a
    ladder, x 9/8 per rung, from max(t >> p, 1) units (t = max |T entry|)
    until, for each i in turn, the count at c_i - rho is at most i and the
    count at c_i + rho above i.  Each count is exact for its own T', so
    lambda_i(T) is within rho + 1 units of c_i, and ||T|| <= max|c| + rho + 1
    units.

    The bound, the Weyl term plus rho + 1 + n/2 units, is formed exactly in
    Fractions and rounded up to an mpf once.  It bounds every sorted
    eigenvalue, not only the smallest.  defect is delta.
    """
    n, prec = m.dim, m.precision_bits
    if n == 0:
        return EigenResult([], mpf(0), [], 0, prec)
    p, P = prec + _GUARD, prec + _GUARD + 8
    k = max((x.exp + x.bc for r in m.rows for x in r if x), default=0)
    N = [[_fixed(x, P - k) for x in r] for r in m.rows]
    d, e, qc = _tridiagonalize(N, P)
    qp, ep = [(0,) * n, *qc, (0,) * n], [0, *e, 0]  # qp[j + 1] = qc[j], ep[j + 1] = e_j
    r2 = sum((sum(map(mul, row, qc[j])) - qp[j][i] * ep[j] - qc[j][i] * d[j]
              - qp[j + 2][i] * ep[j + 1]) ** 2 for j in range(n) for i, row in enumerate(N))
    g2 = sum((2 if i != j else 1) * (sum(map(mul, qc[i], qc[j])) - ((i == j) << 2 * P)) ** 2
             for j in range(n) for i in range(j + 1))
    with mp.workprec(p):
        lam, off = ([mpf((x, 0), prec=0) for x in y] for y in (d, e + [0]))
        tridiag_eigen(mp, lam, off, False)
    c, e2 = [_fixed(x, 0) for x in lam], [0] + [x * x for x in e]
    rho = max(max(map(abs, d + e)) >> p, 1)
    for i, x in enumerate(c):
        while _sturm_count(d, e2, x - rho) > i or _sturm_count(d, e2, x + rho) <= i:
            rho += (rho + 7) // 8
    bound = _bound(r2, g2, P, max(map(abs, c)) + rho + 1, rho + 1 + Fraction(n, 2))
    bound = _round_up(bound * Fraction(2) ** (k - P), p)
    return EigenResult([mpf((x, k - P), prec=0) for x in c], mpf((_isqrt_up(g2), -2 * P), prec=0),
                       [bound] * n, 0, prec)
