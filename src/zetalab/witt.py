"""Endomorphisms of finite modules over the root-of-unity monoid algebra.

A MonoidMatrix is an n x n matrix with entries in (Q/Z)_+ (a Root or the
basepoint), at most one non-basepoint entry per column; these are exactly the
endomorphisms of the free rank-n module.  tau assigns to such a matrix the
divisor of its nonzero eigenvalues, all of which are roots of unity: walk
the underlying pointed map once from every column, in time linear in n, to
find the cycles it ends in, and read each length-m cycle with entry sum e(r)
as the m preimages of e(r).  Frobenius raises a matrix to a power by repeated
squaring, Verschiebung spreads it over cyclically permuted copies; under tau
they implement sigma_n and rho_tilde_n on divisors.

DivisorMatrix carries matrices over the full group ring Z[Q/Z], the Fourier
matrices V, W among them; a MonoidMatrix acts on one from either side by root
shifts, all that Delta(n) V = V C(n) and C(n) W = W Delta(n) ask for.  A
shift by the unit e(0) does no work: the output reuses the shifted line's
Divisor, so C(n) acts by permuting entries alone.

As in cyclotomy, everything here is exact and runs on Python integers alone,
with no floating point.  The tests' oracle holds the rest: the complex
embedding, which checks tau against numerically computed eigenvalues, and
the dense product of two group-ring matrices.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from zetalab.cyclotomy import Divisor, Root, ZERO_ROOT, rho_tilde
from zetalab.immutable import Immutable

Entry = tuple[int, Root]


class MonoidMatrix(Immutable):
    """Column-monomial matrix over (Q/Z)_+; rows/columns are 1-based."""

    __slots__ = ("n", "cols")

    def __init__(self, n: int, cols: Mapping[int, Entry] | Iterable[tuple[int, Entry]] = ()):
        n = operator.index(n)
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        clean: dict[int, Entry] = {}
        for j, (i, root) in cols.items() if isinstance(cols, Mapping) else cols:
            j, i = operator.index(j), operator.index(i)
            if not (1 <= j <= n and 1 <= i <= n):
                raise ValueError(f"index out of range: column {j} -> row {i} with n={n}")
            if j in clean:
                raise ValueError(f"column {j} bound twice")
            if not isinstance(root, Root):
                raise TypeError("entry values must be Root")
            clean[j] = (i, root)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cols", MappingProxyType(dict(sorted(clean.items()))))

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
    """n-th matrix power (n >= 1), by repeated squaring: O(log n) products."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    power, square = None, t
    while True:
        if n & 1:  # powers of t commute, so the factors' order does not matter
            power = square if power is None else compose(power, square)
        n >>= 1
        if not n:
            return power
        square = compose(square, square)


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

    The pointed map phi sends column j to its bound row, and an unbound
    column to the basepoint.  One pass walks phi from each column not yet
    visited until it reaches the basepoint or a visited column; only a walk
    that closes on its own path has found a new cycle, so every column is
    visited once and the cost is linear in n.  Each cycle of length m with
    entry roots summing to r contributes the m-th preimages of e(r).  The
    zero matrix yields the empty divisor.

    All cycles' terms go into one Divisor.  Each cycle still calls rho_tilde,
    through this module's name for it, so tau reads as the sum of rho_tilde_m
    images and a profile of tau sees one rho_tilde call per cycle.
    """
    walk_of: dict[int, int] = {}  # column -> the start of the walk that visited it
    pairs: list[tuple[Root, int]] = []
    for start in range(1, t.n + 1):
        j = start
        while j not in walk_of and j in t.cols:
            walk_of[j] = start
            j = t.cols[j][0]
        if walk_of.get(j) == start:  # closed on its own path: j lies on a new cycle
            k, cycle_sum = t.cols[j]
            length = 1
            while k != j:
                k, root = t.cols[k]
                cycle_sum, length = cycle_sum + root, length + 1
            pairs.extend(rho_tilde(length, Divisor.of(cycle_sum)).items())
    return Divisor(pairs)


def _shifted_sum(line: tuple[Divisor, ...], binds: list[tuple[int, Root]]) -> Divisor:
    """The sum over (j, r) in binds of line[j] with every root shifted by r.

    A single bind by the unit e(0) returns line[j] itself: a Divisor is an
    immutable value and the shift would rebuild it unchanged."""
    if len(binds) == 1 and binds[0][1] == ZERO_ROOT:
        return line[binds[0][0]]
    return Divisor((s + r, c) for j, r in binds for s, c in line[j].items())


class DivisorMatrix(Immutable):
    """n x n matrix over Z[Q/Z], rows a tuple of tuples of Divisors;
    rows/columns are 0-based.  A MonoidMatrix M acts on it from either side
    by at most n^2 root shifts.  A @ M: column k is column j of A shifted by
    r, where M binds k to (j, r), and 0 where k is unbound.  M @ A: row i sums
    row j of A shifted by r over every column j that M binds to (i, r).  An
    output line that is one line shifted by e(0) reuses that line's Divisors,
    so a permutation matrix shifts nothing.  Two DivisorMatrix factors have no
    product."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[Iterable[Divisor]]):
        rows = tuple(map(tuple, rows))
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("shape mismatch")
        if not all(isinstance(x, Divisor) for r in rows for x in r):
            raise TypeError("entries must be Divisor")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __getitem__(self, ij: tuple[int, int]) -> Divisor:
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return isinstance(other, DivisorMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def _binds(self, m: MonoidMatrix, left: bool) -> list[list[tuple[int, Root]]]:
        """binds[x]: the (j, r) such that output line x sums line j of A shifted
        by r; a line is a column for A @ M and a row for M @ A (left)."""
        if self.n != m.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {m.n}")
        binds: list[list[tuple[int, Root]]] = [[] for _ in range(self.n)]
        for j, (i, root) in m.cols.items():
            x, y = (i, j) if left else (j, i)
            binds[x - 1].append((y - 1, root))
        return binds

    def __matmul__(self, other) -> "DivisorMatrix":
        if not isinstance(other, MonoidMatrix):
            return NotImplemented
        binds = self._binds(other, left=False)
        return DivisorMatrix(self.n, [[_shifted_sum(row, b) for b in binds] for row in self.rows])

    def __rmatmul__(self, other) -> "DivisorMatrix":
        if not isinstance(other, MonoidMatrix):
            return NotImplemented
        binds, cols = self._binds(other, left=True), list(zip(*self.rows))
        return DivisorMatrix(self.n, [[_shifted_sum(col, b) for col in cols] for b in binds])

    def __repr__(self) -> str:
        return f"DivisorMatrix({self.n})"


def fourier_pair(n: int) -> tuple[DivisorMatrix, DivisorMatrix, MonoidMatrix, MonoidMatrix]:
    """The Fourier matrix V_ij = e(ij/n), its transform-inverse W_ij = e(-ij/n),
    the cyclic permutation C(n), and the diagonal Delta(n) of n-th roots.

    Delta(n) V = V C(n) and C(n) W = W Delta(n) hold exactly, a monoid factor
    acting on each side.  V W = n I holds only in a field (the group ring does
    not collapse the root-of-unity sums on the diagonal); the tests check it
    with their dense reference product.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    roots = [Divisor.of(Root(k, n)) for k in range(n)]  # immutable, so shared
    v_rows = [[roots[i * j % n] for j in range(n)] for i in range(n)]
    w_rows = [[roots[-i * j % n] for j in range(n)] for i in range(n)]
    cyc = MonoidMatrix(n, {j + 1: (((j + 1) % n) + 1, ZERO_ROOT) for j in range(n)})
    delta = MonoidMatrix(n, {j + 1: (j + 1, Root(j, n)) for j in range(n)})
    return DivisorMatrix(n, v_rows), DivisorMatrix(n, w_rows), cyc, delta
