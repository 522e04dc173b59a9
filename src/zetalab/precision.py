"""Arbitrary-precision real symmetric matrices and a certified eigensolver.

HPMatrix stores a real symmetric matrix, as a tuple of row tuples, with its
working precision in bits.  Symmetry is checked on construction and made
exact by averaging, _GUARD bits above that precision, the pairs of entries
that differ; every other entry is kept as given.  jacobi_eigensystem (the
name is kept; no Jacobi sweep runs) rounds the stored matrix once to fixed
point, reduces it to tridiagonal form by Householder reflectors on Python
integers (_reflect, each exactly orthogonal, with its rounding bounded a
priori), guesses the tridiagonal's eigenvalues by mpmath's values-only
implicit QL, and certifies them without eigenvectors and without
floating-point rounding: the input rounding, the reduction's a-priori
bound and Sturm counts on the tridiagonal's integers for every eigenvalue,
added as one integer count of units.  It returns one residual that bounds
every eigenvalue's error, in sorted order, for the eigenproblem of the
stored matrix; the error of the entries is the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import mul

from mpmath import mp, mpf
from mpmath.matrices.eigen_symmetric import tridiag_eigen

from zetalab.immutable import Immutable

# Working bits above precision_bits for averaging, solving and hermitefn's
# closed-form projection.  They set the certificate's level: with 16 the
# eigensolve works at P = bits + 24, and on the Weil blocks of the benchmark
# (dimension up to 25) the reduction's a-priori count (83 to 286 u t, u =
# 2^-P, t the largest tridiagonal entry), the input rounding (10 to 19 u t)
# and the Sturm radius rho + 1 unit (6 to 11 u t) come to between
# 2^-(bits+14.2) and 2^-(bits+16.2).
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
    residual: object  # certified |lambda_i - lambda_i(A)|, one bound for every i
    sweeps: int  # always 0: no Jacobi sweep runs


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


def _reflect(c, x):
    """H c H, rounded, and a, for a symmetric integer matrix c and an integer
    vector x, with H exactly orthogonal and H x = -a e_1 + r.

    H = I - 2 v v^T/h, v = x + a e_1, h = |v|^2, is orthogonal for any
    integer a.  a = round(|x|) with x_1's sign (one isqrt) makes a x_1 >= 0,
    so h >= a^2 + |x|^2, and r = v (a^2 - |x|^2)/h has ||r||_2 <= |a - |x||
    (|a| + |x|)/sqrt(a^2 + |x|^2) <= 1/sqrt2.  When x has no entry past x_1,
    H = I, a = -x_1 and r = 0.  H c H = c - (v y^T + y v^T)/h^2 with w = c v
    and y = 2 (h w - (v.w) v); z = y 2^s/h^2 is rounded to integers, within
    1/2, and s is set so that every |v_i| < 2^(s-4), which moves each entry
    of (v z^T + z v^T) 2^-s by less than 1/16; one shift rounds that entry
    to nearest, within 1/2 more.  So every returned entry is within 9/16 of
    H c H's, and the returned matrix is exactly symmetric.
    """
    s2, a = sum(map(mul, x, x)), -x[0]
    if s2 <= a * a:  # nothing past x_1: H = I
        return c, a
    a = isqrt(s2)
    a = (a + (s2 - a * a > a)) * (1 if x[0] >= 0 else -1)
    v = [x[0] + a, *x[1:]]
    h, w = sum(map(mul, v, v)), [sum(map(mul, r, v)) for r in c]
    vw, s = sum(map(mul, v, w)), max(map(abs, v)).bit_length() + 4
    z = [(((h * wi - vw * vi) << (s + 2)) + h * h) // (2 * h * h) for wi, vi in zip(w, v)]
    half = 1 << (s - 1)
    return [[cil - ((vi * zl + zi * vl + half) >> s) for cil, zl, vl in zip(r, z, v)]
            for r, vi, zi in zip(c, v, z)], a


def _tridiagonalize(N):
    """Householder reduction of the symmetric integer matrix N by _reflect:
    T's diagonal d and off-diagonal e, on N's scale.  Step j = 1..n-2
    reflects the trailing m x m block, m = n - j, by diag(I, H), exactly
    orthogonal.  Its result differs from the exact diag(I, H) A diag(I, H)
    by r in one row and column (2-norm at most 1/sqrt2) and by the block's
    rounding (entries within 9/16, 2-norm at most 9m/16), so by Weyl's
    inequality each step moves the sorted eigenvalues by less than
    (9m + 12)/16."""
    n = len(N)
    c, d, e = N, [], []
    for _ in range(n - 2):  # c is the trailing block from the row of d's next entry
        d.append(c[0][0])
        c, a = _reflect([r[1:] for r in c[1:]], [r[0] for r in c[1:]])
        e.append(-a)
    d.extend(c[i][i] for i in range(len(c)))
    e.extend(c[i + 1][i] for i in range(len(c) - 1))
    return d, e


def _fixed(x, s):
    """round(x 2^s) for an mpf x, to nearest."""
    sign, man, exp, _ = x._mpf_
    man = man << (exp + s) if exp + s >= 0 else (man + (1 << (-exp - s - 1))) >> (-exp - s)
    return -man if sign else man


def jacobi_eigensystem(m: HPMatrix) -> EigenResult:
    """Ascending eigenvalues of A and one certified residual, without
    eigenvectors.

    Fixed point.  Let P = precision_bits + _GUARD + 8, the one working
    precision, 2^k > max|A_ij| (k read off the entries' exponents) and a unit
    2^(k-P).  Each entry of A is rounded to nearest once, to A^ = N units with
    N integer, so by Weyl's inequality A's sorted eigenvalues are within
    ||A - A^||_F <= n/2 units of A^'s.  _tridiagonalize reduces N to T = tridiag(e, d, e) units, whose
    sorted eigenvalues are within sum_{m=2}^{n-1} (9m + 12)/16 units of N's.
    mpmath's tridiag_eigen(z=False) guesses T's eigenvalues by implicit QL at
    P bits too (RuntimeError when it does not converge); rounded to units
    they are the centres c_i, which are returned.  QL's rounding is not
    analysed: the Sturm counts below certify the centres.

    T against c.  For an integer sigma, _sturm_count's floor moves q_i by
    less than one unit, and setting a zero pivot to -1 by at most one more:
    its pivots are exactly those of T' - sigma I = L diag(q) L^T, for T'
    = T plus a diagonal with entries in [-1, 1) units, and none is zero.  By
    inertia the count is #{lambda(T') < sigma}, and by Weyl's inequality
    lambda_i(T') is within one unit of lambda_i(T).  The radius rho climbs a
    ladder, x 9/8 per rung, from max(t >> P, 1) units (t = max |T entry|)
    until, for each i in turn, the count at c_i - rho is at most i and the
    count at c_i + rho above i.  Each count is exact for its own T', so
    lambda_i(T) is within rho + 1 units of c_i.

    The residual, rho + 1 + ceil(n/2) + sum_{m=2}^{n-1} ceil((9m + 12)/16)
    units, is an integer times 2^(k-P), formed exactly.  It bounds every
    sorted eigenvalue, not only the smallest.
    """
    n, P = m.dim, m.precision_bits + _GUARD + 8
    if n == 0:
        return EigenResult([], mpf(0), 0)
    k = max((x.exp + x.bc for r in m.rows for x in r if x), default=0)
    d, e = _tridiagonalize([[_fixed(x, P - k) for x in r] for r in m.rows])
    with mp.workprec(P):
        lam, off = ([mpf((x, 0), prec=0) for x in y] for y in (d, e + [0]))
        tridiag_eigen(mp, lam, off, False)
    c, e2 = [_fixed(x, 0) for x in lam], [0] + [x * x for x in e]
    rho = max(max(map(abs, d + e)) >> P, 1)
    for i, x in enumerate(c):
        while _sturm_count(d, e2, x - rho) > i or _sturm_count(d, e2, x + rho) <= i:
            rho += (rho + 7) // 8
    units = rho + 1 + (n + 1) // 2 + sum((9 * j + 27) // 16 for j in range(2, n))
    return EigenResult([mpf((x, k - P), prec=0) for x in c], mpf((units, k - P), prec=0), 0)
