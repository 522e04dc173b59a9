"""Arbitrary-precision real symmetric matrices and a certified eigensolver.

HPMatrix stores a real symmetric matrix, as a tuple of row tuples, with its
working precision in bits.  Its entries must be exactly symmetric; each is
kept as given.  jacobi_eigensystem rounds the stored matrix once to fixed
point, reduces it to tridiagonal form by Householder reflectors on Python
integers (_reflect, each exactly orthogonal, with its rounding bounded a
priori), and finds every eigenvalue by bisection on integer Sturm counts
(_sturm_count), the same counts that certify it: no eigenvectors, no
floating-point rounding and no iteration that may fail to converge.  The
input rounding, the reduction's a-priori bound and the final bracket add up
to one integer count of units.  It returns one residual that bounds every
eigenvalue's error, in sorted order, for the eigenproblem of the stored
matrix; the error of the entries is the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import mul

from mpmath import mp, mpf

from zetalab.immutable import Immutable

# Working bits above precision_bits for reading HPMatrix entries, the
# eigensolve and hermitefn's closed-form projection.  They set the
# certificate's level: with 16 the eigensolve works at P = bits + 24, and on
# the Weil blocks of the benchmark (dimension 12 to 25) the reduction's
# a-priori count (48 to 196 units of 2^(k-P), 2^k just above the largest
# entry), the input rounding (6 to 13 units) and the bisection's 2 units come
# to 56 to 211 units, between 2^-(bits+14.3) and 2^-(bits+16.2).
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
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise ValueError("matrix is not exactly symmetric")
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
    eigenvectors, by Sturm bisection.  The name is kept, though no Jacobi
    sweep runs, because the benchmark's span map names it.

    Fixed point.  Let P = precision_bits + _GUARD + 8, the one working
    precision, 2^k > max|A_ij| (k read off the entries' exponents) and a unit
    2^(k-P).  Each entry of A is rounded to nearest once, to A^ = N units with
    N integer, so by Weyl's inequality A's sorted eigenvalues are within
    ||A - A^||_F <= n/2 units of A^'s.  _tridiagonalize reduces N to T =
    tridiag(e, d, e) units, whose sorted eigenvalues are within
    sum_{m=2}^{n-1} (9m + 12)/16 units of N's.

    Counts.  For an integer sigma, _sturm_count's floor moves q_i by less
    than one unit and a zero pivot's -1 by at most one more, so its pivots
    are those of T' - sigma I = L diag(q) L^T for T' = T plus a diagonal in
    [-1, 1) units.  By inertia it counts lambda(T') < sigma, and by Weyl's
    inequality lambda_i(T') is within one unit of lambda_i(T).  With t =
    max |T entry| and b = 3t + 1, Gershgorin puts the spectrum of every such
    T' in [-b, b): the count is 0 at -b and n at b.

    Bisection.  For each i, (lo, hi) = (-b, b) halves at (lo + hi) // 2,
    keeping count(lo) <= i < count(hi), until hi = lo + 1: ceil(log2 2b)
    counts, a fixed number.  Then lambda_i(T'_lo) >= lo and lambda_i(T'_hi)
    < hi, so lambda_i(T) lies in [lo - 1, hi + 1), within 2 units of the
    returned centre c_i = hi.  Each count is exact only for its own T', so
    counts need not be monotone in sigma; brackets shared between
    eigenvalues could lose or double one, so each keeps its own.

    The residual, 2 + ceil(n/2) + sum_{m=2}^{n-1} ceil((9m + 12)/16) units,
    is an integer times 2^(k-P), formed exactly.  It bounds every sorted
    eigenvalue, not only the smallest.
    """
    n, P = m.dim, m.precision_bits + _GUARD + 8
    if n == 0:
        return EigenResult([], mpf(0), 0)
    k = max((x.exp + x.bc for r in m.rows for x in r if x), default=0)
    d, e = _tridiagonalize([[_fixed(x, P - k) for x in r] for r in m.rows])
    e2, b, c = [0] + [x * x for x in e], 3 * max(map(abs, d + e)) + 1, []
    for i in range(n):
        lo, hi = -b, b
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _sturm_count(d, e2, mid) > i else (mid, hi)
        c.append(hi)
    units = 2 + (n + 1) // 2 + sum((9 * j + 27) // 16 for j in range(2, n))
    return EigenResult([mpf((x, k - P), prec=0) for x in c], mpf((units, k - P), prec=0), 0)
