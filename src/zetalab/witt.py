"""Endomorphisms of finite modules over the root-of-unity monoid algebra.

A MonoidMatrix is an n x n matrix with entries in (Q/Z)_+ (a Root or the
basepoint), at most one non-basepoint entry per column; these are exactly the
endomorphisms of the free rank-n module.  tau assigns to such a matrix the
divisor of its nonzero eigenvalues, all of which are roots of unity: iterate
the underlying pointed map until its range stabilizes, decompose the residual
permutation into cycles, and read each length-m cycle with entry sum e(r) as
the m preimages of e(r).  Frobenius raises a matrix to a power, Verschiebung
spreads it over cyclically permuted copies; under tau they implement sigma_n
and rho_tilde_n on divisors.

DivisorMatrix carries matrices over the full group ring Z[Q/Z]; it hosts the
Fourier matrices V, W and the exact relations Delta(n) V = V C(n),
C(n) W = W Delta(n).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from mpmath import mp, mpc

from zetalab.cyclotomy import Divisor, Root, ZERO_ROOT, rho_tilde
from zetalab.immutable import Immutable

Entry = tuple[int, Root]


class MonoidMatrix(Immutable):
    """Column-monomial matrix over (Q/Z)_+; rows/columns are 1-based."""

    __slots__ = ("n", "cols")

    def __init__(self, n: int, cols: Mapping[int, Entry] | Iterable[tuple[int, Entry]] = ()):
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        items = cols.items() if isinstance(cols, Mapping) else cols
        clean: dict[int, Entry] = {}
        for j, (i, root) in items:
            if not (1 <= j <= n and 1 <= i <= n):
                raise ValueError(f"index out of range: column {j} -> row {i} with n={n}")
            if j in clean:
                raise ValueError(f"column {j} bound twice")
            if not isinstance(root, Root):
                raise TypeError("entry values must be Root")
            clean[j] = (i, root)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cols", dict(sorted(clean.items())))

    @classmethod
    def identity(cls, n: int) -> "MonoidMatrix":
        return cls(n, {j: (j, ZERO_ROOT) for j in range(1, n + 1)})

    def entry(self, i: int, j: int) -> Root | None:
        bound = self.cols.get(j)
        if bound is not None and bound[0] == i:
            return bound[1]
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonoidMatrix)
            and self.n == other.n
            and self.cols == other.cols
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.cols.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{j}->({i},{r})" for j, (i, r) in self.cols.items())
        return f"MonoidMatrix({self.n}, {{{inner}}})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "cols": {str(j): [i, f"{r.num}/{r.den}"] for j, (i, r) in self.cols.items()},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MonoidMatrix":
        n = int(data["n"])
        cols: dict[int, Entry] = {}
        for j, (i, frac) in data.get("cols", {}).items():
            if isinstance(frac, str):
                num, _, den = frac.partition("/")
                root = Root(int(num), int(den or 1))
            else:
                root = Root(int(frac), 1)
            cols[int(j)] = (int(i), root)
        return cls(n, cols)


def compose(a: MonoidMatrix, b: MonoidMatrix) -> MonoidMatrix:
    """Matrix product a.b; the basepoint absorbs missing chains."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    cols: dict[int, Entry] = {}
    for k, (j, rb) in b.cols.items():
        bound = a.cols.get(j)
        if bound is not None:
            i, ra = bound
            cols[k] = (i, ra + rb)
    return MonoidMatrix(a.n, cols)


def frobenius(n: int, t: MonoidMatrix) -> MonoidMatrix:
    """n-th matrix power (n >= 1)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    acc = t
    for _ in range(n - 1):
        acc = compose(acc, t)
    return acc


def verschiebung(n: int, t: MonoidMatrix) -> MonoidMatrix:
    """Cyclic spread over n copies: copy k maps to copy k+1 by the identity,
    the last copy maps back to the first through t."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    d = t.n
    cols: dict[int, Entry] = {}
    for k in range(1, n):
        for i in range(1, d + 1):
            cols[(k - 1) * d + i] = (k * d + i, ZERO_ROOT)
    for j, (i, root) in t.cols.items():
        cols[(n - 1) * d + j] = (i, root)
    return MonoidMatrix(n * d, cols)


def wedge(t1: MonoidMatrix, t2: MonoidMatrix) -> MonoidMatrix:
    """Block direct sum (the wedge of pointed modules)."""
    cols: dict[int, Entry] = dict(t1.cols)
    for j, (i, root) in t2.cols.items():
        cols[t1.n + j] = (t1.n + i, root)
    return MonoidMatrix(t1.n + t2.n, cols)


def smash(t1: MonoidMatrix, t2: MonoidMatrix) -> MonoidMatrix:
    """Kronecker product with entry roots added (the smash over the base)."""
    n2 = t2.n
    cols: dict[int, Entry] = {}
    for j1, (i1, r1) in t1.cols.items():
        for j2, (i2, r2) in t2.cols.items():
            cols[(j1 - 1) * n2 + j2] = ((i1 - 1) * n2 + i2, r1 + r2)
    return MonoidMatrix(t1.n * n2, cols)


def tau(t: MonoidMatrix) -> Divisor:
    """The divisor of nonzero eigenvalues of t, as roots of unity.

    The pointed map phi sends column j to its bound row; its iterated range
    stabilizes within n steps onto a subset where phi is a permutation.  Each
    cycle of length m with entry roots summing to r contributes the m-th
    preimages of e(r).  The zero matrix yields the empty divisor.
    """
    live = set(range(1, t.n + 1))
    for _ in range(t.n + 1):
        nxt = {t.cols[j][0] for j in live if j in t.cols}
        if nxt == live:
            break
        live = nxt
    acc = Divisor()
    seen: set[int] = set()
    for start in sorted(live):
        if start in seen:
            continue
        cycle_sum = ZERO_ROOT
        length = 0
        j = start
        while j not in seen:
            seen.add(j)
            i, root = t.cols[j]
            cycle_sum = cycle_sum + root
            length += 1
            j = i
        acc = acc + rho_tilde(length, Divisor.of(cycle_sum))
    return acc


class DivisorMatrix(Immutable):
    """Dense n x n matrix over Z[Q/Z]; rows/columns are 0-based."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: list[list[Divisor]] | None = None):
        if rows is None:
            rows = [[Divisor() for _ in range(n)] for _ in range(n)]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("shape mismatch")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", [list(r) for r in rows])

    @classmethod
    def from_monoid(cls, t: MonoidMatrix) -> "DivisorMatrix":
        rows = [[Divisor() for _ in range(t.n)] for _ in range(t.n)]
        for j, (i, root) in t.cols.items():
            rows[i - 1][j - 1] = Divisor.of(root)
        return cls(t.n, rows)

    def __getitem__(self, ij: tuple[int, int]) -> Divisor:
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DivisorMatrix)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __matmul__(self, other) -> "DivisorMatrix":
        if isinstance(other, MonoidMatrix):
            other = DivisorMatrix.from_monoid(other)
        if not isinstance(other, DivisorMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for k in range(n):
                acc = Divisor()
                for j in range(n):
                    a = self.rows[i][j]
                    b = other.rows[j][k]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            rows.append(row)
        return DivisorMatrix(n, rows)

    def __rmatmul__(self, other) -> "DivisorMatrix":
        if isinstance(other, MonoidMatrix):
            return DivisorMatrix.from_monoid(other) @ self
        return NotImplemented

    def __repr__(self) -> str:
        return f"DivisorMatrix({self.n})"


def fourier_pair(n: int) -> tuple[DivisorMatrix, DivisorMatrix, MonoidMatrix, MonoidMatrix]:
    """The Fourier matrix V_ij = e(ij/n), its transform-inverse W_ij = e(-ij/n),
    the cyclic permutation C(n), and the diagonal Delta(n) of n-th roots.

    Delta(n) V = V C(n) and C(n) W = W Delta(n) hold exactly in DivisorMatrix
    arithmetic; V W = n I only after embedding into a field (the group ring
    does not collapse the full root-of-unity sums on the diagonal).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    v_rows = [[Divisor.of(Root(i * j, n)) for j in range(n)] for i in range(n)]
    w_rows = [[Divisor.of(Root(-i * j, n)) for j in range(n)] for i in range(n)]
    cyc = MonoidMatrix(n, {j + 1: (((j + 1) % n) + 1, ZERO_ROOT) for j in range(n)})
    delta = MonoidMatrix(n, {j + 1: (j + 1, Root(j, n)) for j in range(n)})
    return DivisorMatrix(n, v_rows), DivisorMatrix(n, w_rows), cyc, delta


# -- numerical oracle ---------------------------------------------------------

def root_to_complex(r: Root) -> mpc:
    """e(num/den) under the standard embedding exp(2*pi*i*num/den)."""
    return mp.expjpi(2 * mp.mpf(r.num) / r.den)


def embed_complex(m: MonoidMatrix | DivisorMatrix):
    """mpmath matrix of the standard complex embedding (current precision)."""
    if isinstance(m, MonoidMatrix):
        out = mp.zeros(m.n, m.n)
        for j, (i, root) in m.cols.items():
            out[i - 1, j - 1] = root_to_complex(root)
        return out
    out = mp.zeros(m.n, m.n)
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
