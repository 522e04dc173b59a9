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

DivisorMatrix carries matrices over the full group ring Z[Q/Z], the Fourier
matrices V, W among them; a MonoidMatrix acts on one from either side by root
shifts, all that Delta(n) V = V C(n) and C(n) W = W Delta(n) ask for.

As in cyclotomy, everything here is exact and runs on Python integers alone,
with no floating point.  The tests' oracle holds the rest: the complex
embedding, which checks tau against numerically computed eigenvalues, and
the dense product of two group-ring matrices.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping
from functools import reduce
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
    """n-th matrix power (n >= 1)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return reduce(compose, [t] * n)


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

    All cycles' terms go into one Divisor.  Each cycle still calls rho_tilde,
    through this module's name for it, so tau reads as the sum of rho_tilde_m
    images and a profile of tau sees one rho_tilde call per cycle.
    """
    live = set(range(1, t.n + 1))
    for _ in range(t.n + 1):
        nxt = {t.cols[j][0] for j in live if j in t.cols}
        if nxt == live:
            break
        live = nxt
    pairs: list[tuple[Root, int]] = []
    seen: set[int] = set()
    for j in sorted(live):
        cycle_sum, length = ZERO_ROOT, 0
        while j not in seen:
            seen.add(j)
            j, root = t.cols[j]
            cycle_sum, length = cycle_sum + root, length + 1
        if length:
            pairs.extend(rho_tilde(length, Divisor.of(cycle_sum)).items())
    return Divisor(pairs)


def _shifted_sum(line: tuple[Divisor, ...], binds: list[tuple[int, Root]]) -> Divisor:
    """The sum over (j, r) in binds of line[j] with every root shifted by r."""
    return Divisor((s + r, c) for j, r in binds for s, c in line[j].items())


class DivisorMatrix(Immutable):
    """n x n matrix over Z[Q/Z], rows a tuple of tuples of Divisors;
    rows/columns are 0-based.  A MonoidMatrix M acts on it from either side
    by n^2 root shifts.  A @ M: column k is column j of A shifted by r, where
    M binds k to (j, r), and 0 where k is unbound.  M @ A: row i sums row j of
    A shifted by r over every column j that M binds to (i, r).  Two
    DivisorMatrix factors have no product."""

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
