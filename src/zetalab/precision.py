"""Arbitrary-precision real symmetric matrices and a certified eigensolver.

HPMatrix stores a real symmetric matrix N 2^e in fixed point, exactly
symmetric integer rows N and their binary exponent e, with its working
precision in bits.  jacobi_eigensystem rounds N once, by a shift, reduces it
to tridiagonal form by Householder reflectors on Python integers (_reflect,
each exactly orthogonal, with its rounding bounded a priori), and certifies
every eigenvalue by bisection on integer Sturm counts (_sturm_count).  A
root-free QL on the same integers (_ql_centres) seeds each bracket, and a
seed is used only when two counts confirm it, so a wrong seed costs counts,
never certified bits.  The certificate itself has no eigenvectors, no
floating-point rounding and no iteration that may fail to converge; only the
seeding iterates, within LAPACK dsterf's budget of 30 sweeps per eigenvalue,
pooled over the matrix.  The input rounding, the reduction's a-priori bound
and the final bracket add up to one integer count of units.  It returns one
residual that bounds every eigenvalue's error, in sorted order, for the
eigenproblem of the stored matrix; the error of the entries is the caller's.
The fixed-point helpers below are also the Weil Gram's (weil).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import index, mul

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest

from zetalab.immutable import Immutable

# Working bits above precision_bits for the eigensolve.  They set the
# certificate's level: with 16 the eigensolve works at P = bits + 24, and on
# the Weil blocks of the benchmark (dimension 12 to 25) the reduction's
# a-priori count (48 to 196 units of 2^(k-P), 2^k just above the largest
# entry), the input rounding (6 to 13 units) and the bisection's 2 units come
# to 56 to 211 units, between 2^-(bits+14.3) and 2^-(bits+16.2).
_GUARD = 16


class HPMatrix(Immutable):
    """Dense real symmetric matrix N 2^exponent, rows the exact integers N as a
    tuple of tuples, with explicit precision-in-bits; m[i, j] an exact mpf."""

    __slots__ = ("dim", "exponent", "precision_bits", "rows")

    def __init__(self, rows, exponent: int, precision_bits: int):
        precision_bits, n = _working_bits(precision_bits), len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        if not all(type(x) is int for r in rows for x in r):
            raise TypeError("matrix entries must be ints")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise ValueError("matrix is not exactly symmetric")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "exponent", index(exponent))
        object.__setattr__(self, "precision_bits", precision_bits)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))

    def __getitem__(self, ij):
        return _to_mpf(self.rows[ij[0]][ij[1]], self.exponent)

    def __repr__(self):
        return f"HPMatrix(dim={self.dim}, 2^{self.exponent}, {self.precision_bits} bits)"


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


def _top_exponent(rows):
    """The least k >= 0 with 2^k > |x| for every int x in the rows."""
    return max((x.bit_length() for r in rows for x in r), default=0)


def _working_bits(precision_bits, guard=0):
    """precision_bits + guard as an int, the one check of every public
    precision_bits: TypeError unless it passes operator.index, ValueError
    below 8."""
    bits = index(precision_bits)
    if bits < 8:
        raise ValueError(f"precision_bits must be at least 8, got {precision_bits}")
    return bits + guard


def _num(v):
    """v at the ambient precision, rounded once, to nearest: a Fraction by
    from_rational, anything else by mp.mpmathify (exact for ints and floats)."""
    if isinstance(v, Fraction):
        return mp.make_mpf(from_rational(v.numerator, v.denominator, mp.prec, round_nearest))
    return mp.mpmathify(v)


# The fixed-point idiom of weil and the eigensolve: x as the integer
# round(x 2^s) (_fixed), integer division to nearest (_div) and exact mpfs
# back (_to_mpf).  bandfn's zero-sum pass and sine tables floor through
# libmp's to_fixed instead, as their error bounds are counted in floors.

def _fixed(x, s):
    """round(x 2^s), to nearest, for an int or an mpf x."""
    sign, man, exp = (x < 0, abs(x), 0) if isinstance(x, int) else x._mpf_[:3]
    man = man << (exp + s) if exp + s >= 0 else (man + (1 << (-exp - s - 1))) >> (-exp - s)
    return -man if sign else man


def _div(a, b):
    """round(a/b), to nearest, for integers a and b > 0."""
    return (2 * a + b) // (2 * b)


def _to_mpf(x, e):
    """The mpf x 2^e, exactly, for an integer x."""
    return mp.make_mpf(from_man_exp(x, e))


def _ql_centres(d, e, P):
    """n sorted guesses, in units, for the eigenvalues of T = tridiag(e, d, e):
    the Pal-Walker-Kahan root-free QL with a Wilkinson shift
    (Parlett, The Symmetric Eigenvalue Problem, ch. 8; LAPACK's dsterf) on
    integers.  Nothing certified rests on a guess (_centres checks each one).

    It works on the squared off-diagonals E2, as _sturm_count does: values
    at 2^P per unit, squares at 2^2P, and the squared cosine c = p/(p + E2_i)
    at C = bitlen(t) + P + 8 fractional bits, t = max|T entry|, s = 1 - c.
    An E2 below one unit (2^2P) deflates.  The shift takes one isqrt per
    sweep, a rotation one division.  dsterf's p = gamma^2/c has no relative
    accuracy left in fixed point once gamma and c are a few units, so p is
    formed from gamma_old^2 = p_old c_old as c delta^2 - 2 s delta gamma_old
    + s^2 c_old (p_old + E2_i), delta = d_i - shift, with no division and
    exact in dsterf's limit c = 0.  At 2^(P/2) per unit the seeds of graded
    and clustered blocks come out far off.  The sweeps share dsterf's one
    budget of 30 n for all of T, so a stall costs at most 30 n sweeps; D as
    it then stands is the guess, and _centres bisects from [-b, b) only the
    eigenvalues whose guess its counts do not confirm.
    """
    n, one = len(d), 1 << P
    C = max(map(abs, d + e)).bit_length() + P + 8
    unit, one2 = 1 << C, one * one
    D, E2 = [x << P for x in d], [x * x << 2 * P for x in e] + [0]
    budget = 30 * n  # dsterf's NMAXIT: MAXIT = 30 sweeps per eigenvalue, pooled
    for l in range(n):
        while budget:
            m = l
            while m < n - 1 and E2[m] >= one2:
                m += 1
            if m == l:
                break
            budget -= 1
            # Wilkinson shift from the leading 2 x 2
            d2, e2 = D[l + 1] - D[l], E2[l]
            r = isqrt(d2 * d2 + 4 * e2)
            shift = D[l] - 2 * e2 // (d2 + (r if d2 >= 0 else -r))
            c, s, g = unit, 0, D[m] - shift
            p = g * g
            for i in range(m - 1, l - 1, -1):
                r = p + E2[i]  # E2[i] >= 2^2P, so r > 0
                if i != m - 1:
                    E2[i + 1] = s * r >> C
                oldc, c = c, (p << C) // r
                s, delta = unit - c, D[i] - shift
                sg = s * g
                t = c * delta - sg
                D[i + 1] = g + D[i] - (t >> C)
                g = t >> C
                p = max(0, (delta * (t - sg) >> C) + (((s * s >> C) * oldc >> C) * r >> C))
            E2[l] = s * p >> C
            D[l] = shift + g
    return sorted((x + (one >> 1)) >> P for x in D)


# Half-width, in units, of the bracket around a guessed centre.
_WINDOW = 8


def _centres(d, e, seeds):
    """The bisection's centre c_i, in units, of every eigenvalue of T =
    tridiag(e, d, e), i ascending (jacobi_eigensystem), from n sorted seeds.
    Seed g_i's bracket [g_i - 8, g_i + 8) is used when two counts confirm
    it, and [-b, b) when they do not."""
    e2, b, c = [0] + [x * x for x in e], 3 * max(map(abs, d + e)) + 1, []
    for i, g in enumerate(seeds):
        lo, hi = g - _WINDOW, g + _WINDOW
        if not _sturm_count(d, e2, lo) <= i < _sturm_count(d, e2, hi):
            lo, hi = -b, b
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _sturm_count(d, e2, mid) > i else (mid, hi)
        c.append(hi)
    return c


def jacobi_eigensystem(m: HPMatrix) -> EigenResult:
    """Ascending eigenvalues of A and one certified residual, without
    eigenvectors, by Sturm bisection.  The name is kept, though no Jacobi
    sweep runs, because the benchmark's span map names it.

    Fixed point.  Let P = precision_bits + _GUARD + 8, the one working
    precision, 2^k > max|A_ij| (k = exponent + the rows' largest bit length)
    and a unit 2^(k-P).  One shift rounds each entry of A to nearest, to A^ =
    N units with N integer, so by Weyl's inequality A's sorted eigenvalues
    are within ||A - A^||_F <= n/2 units of A^'s.  _tridiagonalize reduces N
    to T = tridiag(e, d, e) units, whose sorted eigenvalues are within
    sum_{m=2}^{n-1} (9m + 12)/16 units of N's.

    Counts.  For an integer sigma, _sturm_count's floor moves q_i by less
    than one unit and a zero pivot's -1 by at most one more, so its pivots
    are those of T' - sigma I = L diag(q) L^T for T' = T plus a diagonal in
    [-1, 1) units.  By inertia it counts lambda(T') < sigma, and by Weyl's
    inequality lambda_i(T') is within one unit of lambda_i(T).  With t =
    max |T entry| and b = 3t + 1, Gershgorin puts the spectrum of every such
    T' in [-b, b): the count is 0 at -b and n at b.

    Bisection.  For each i a bracket [lo, hi) with count(lo) <= i <
    count(hi) halves at (lo + hi) // 2, keeping that, until hi = lo + 1.  It
    starts at [g_i - 8, g_i + 8), g_i the i-th guess of _ql_centres, when
    two counts confirm it, so 6 counts in all; when they do not, at [-b, b),
    2 + ceil(log2 2b) counts.  Either way lambda_i(T'_lo) >= lo and
    lambda_i(T'_hi) < hi, so lambda_i(T) lies in [lo - 1, hi + 1), within 2
    units of the returned centre c_i = hi: a seed sets how many counts run,
    not the bound.  Each count is exact only for its own T', so counts need
    not be monotone in sigma; brackets shared between eigenvalues could lose
    or double one, so each keeps its own.

    The residual, 2 + ceil(n/2) + sum_{m=2}^{n-1} ceil((9m + 12)/16) units,
    is an integer times 2^(k-P), formed exactly.  It bounds every sorted
    eigenvalue, not only the smallest.
    """
    n, P = m.dim, m.precision_bits + _GUARD + 8
    if n == 0:
        return EigenResult([], mpf(0), 0)
    top = _top_exponent(m.rows)
    d, e = _tridiagonalize([[_fixed(x, P - top) for x in r] for r in m.rows])
    c = _centres(d, e, _ql_centres(d, e, P))
    units = 2 + (n + 1) // 2 + sum((9 * j + 27) // 16 for j in range(2, n))
    u = top + m.exponent - P  # the unit is 2^(k-P)
    return EigenResult([_to_mpf(x, u) for x in c], _to_mpf(units, u), 0)
