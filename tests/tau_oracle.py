"""The tests' independent oracles for zetalab.witt: the standard complex
embedding and the iterated range, for tau, and the dense group-ring product,
for the monoid actions.

zetalab.witt is exact: a Root is an abstract root of unity and tau reads the
eigenvalue divisor off the cycles of a pointed map.  Here a Root becomes
exp(2 pi i num/den) in mpmath, and eigenvalue_divisor computes the complex
eigenvalues of the embedded matrix and snaps them back to Roots.

range_tau finds the cycles another way: it iterates the pointed map's range
until it stabilizes on the permuted part, one pass over the range per step
of the deepest tail, so it is quadratic in n where witt.tau is linear.

witt applies a MonoidMatrix factor by shifting entries.  dense_product is
the textbook product instead: it writes a MonoidMatrix out as a
DivisorMatrix (from_monoid) and sums the n^3 convolutions a_ij b_jk.  It
also multiplies two DivisorMatrix factors, which witt does not.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from mpmath import mp, mpc

from zetalab.cyclotomy import Divisor, Root, ZERO_ROOT, divisor_mul, rho_tilde
from zetalab.witt import DivisorMatrix, MonoidMatrix


def from_monoid(t: MonoidMatrix) -> DivisorMatrix:
    """t as a DivisorMatrix: e(r) at (i - 1, j - 1) where t binds column j to
    (i, r), and the empty divisor elsewhere."""
    rows = [[Divisor() for _ in range(t.n)] for _ in range(t.n)]
    for j, (i, root) in t.cols.items():
        rows[i - 1][j - 1] = Divisor.of(root)
    return DivisorMatrix(t.n, rows)


def dense_product(a: MonoidMatrix | DivisorMatrix, b: MonoidMatrix | DivisorMatrix) -> DivisorMatrix:
    """a b, entry (i, k) the Divisor sum of a_ij b_jk over all j."""
    a, b = (from_monoid(m) if isinstance(m, MonoidMatrix) else m for m in (a, b))
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    cols = list(zip(*b.rows))
    return DivisorMatrix(a.n, [[sum(map(divisor_mul, row, col), Divisor()) for col in cols]
                               for row in a.rows])


def range_tau(t: MonoidMatrix) -> Divisor:
    """tau by iterated range: the range of the pointed map stabilizes within n
    steps onto the columns it permutes; each of its cycles, of length m with
    entry roots summing to r, contributes the m-th preimages of e(r)."""
    live = set(range(1, t.n + 1))
    for _ in range(t.n + 1):
        nxt = {t.cols[j][0] for j in live if j in t.cols}
        if nxt == live:
            break
        live = nxt
    out = Divisor()
    seen: set[int] = set()
    for j in sorted(live):
        cycle_sum, length = ZERO_ROOT, 0
        while j not in seen:
            seen.add(j)
            j, root = t.cols[j]
            cycle_sum, length = cycle_sum + root, length + 1
        if length:
            out += rho_tilde(length, Divisor.of(cycle_sum))
    return out


def root_to_complex(r: Root) -> mpc:
    """e(num/den) under the standard embedding exp(2*pi*i*num/den)."""
    return mp.expjpi(2 * mp.mpf(r.num) / r.den)


def embed_complex(m: MonoidMatrix | DivisorMatrix):
    """mpmath matrix of the standard complex embedding (current precision)."""
    out = mp.zeros(m.n, m.n)
    if isinstance(m, MonoidMatrix):
        for j, (i, root) in m.cols.items():
            out[i - 1, j - 1] = root_to_complex(root)
        return out
    for i in range(m.n):
        for j in range(m.n):
            for root, coeff in m.rows[i][j].items():
                out[i, j] += coeff * root_to_complex(root)
    return out


def eigenvalue_divisor(t: MonoidMatrix, precision_bits: int = 128) -> Divisor:
    """Independent oracle for tau: numerically compute the complex eigenvalue
    multiset of the embedded matrix and snap the nonzero ones to roots of
    unity with denominator at most lcm(entry denominators) * n.

    Raises ValueError if an eigenvalue fails to snap within tolerance, i.e.
    if the matrix is not actually column-monomial over roots of unity.
    """
    if t.n == 0 or not t.cols:
        return Divisor()
    dens = [root.den for (_i, root) in t.cols.values()]
    max_den = lcm(*dens) * t.n
    with mp.workprec(precision_bits):
        eigs = mp.eig(embed_complex(t), left=False, right=False)
        if isinstance(eigs, tuple):  # 1x1 input: mp.eig ignores the flags
            eigs = eigs[0]
        # The spectrum is {0} + roots of unity.  A nilpotent Jordan block of
        # size m deflates with noise ~2^(-prec/m), so the zero cut must scale
        # with the dimension; unit eigenvalues are simple within their cycle
        # and far better conditioned.
        zero_tol = mp.mpf(2) ** (-mp.mpf(precision_bits) / (2 * (t.n + 1)))
        unit_tol = mp.mpf(2) ** (-mp.mpf(precision_bits) / 4)
        terms: list[tuple[Root, int]] = []
        for lam in eigs:
            mag = abs(lam)
            if mag < zero_tol:
                continue
            if abs(mag - 1) > unit_tol:
                raise ValueError(f"eigenvalue off the unit circle: {lam}")
            angle = mp.arg(lam) / (2 * mp.pi)
            frac = Fraction(float(mp.fmod(angle + 1, 1))).limit_denominator(max_den)
            root = Root(frac.numerator, frac.denominator)
            if abs(lam - root_to_complex(root)) > unit_tol:
                raise ValueError(f"eigenvalue does not snap to a root of unity: {lam}")
            terms.append((root, 1))
    return Divisor(terms)
