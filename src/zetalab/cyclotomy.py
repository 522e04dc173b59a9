"""Exact arithmetic in Q/Z and in the group ring Z[Q/Z].

A Root is a reduced fraction num/den representing the abstract root of unity
e(num/den); the group law is addition mod 1.  A Divisor is a finite integer
combination of Roots, i.e. an element of the group ring, with multiplication
given by convolution over the group law.  sigma_n and rho_tilde_n are the two
endomorphism families generating the integral BC-system: sigma_n scales a
root by n, rho_tilde_n sums over its n preimages under scaling.

Divisor's constructor is the one accumulator of Z[Q/Z]: it sums the
coefficients of a stream of (Root, int) pairs per root and drops the zeros.
Sums, products and the images under sigma_n, rho_tilde_n and witt's tau and
monoid actions only hand it their unsummed pairs.

Everything here is immutable and exact (Python integers only).  A
coefficient must be an integer: the constructor reads each one with
operator.index and raises TypeError for a float, a Fraction or an mpf.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import chain
from math import gcd
from operator import index

from zetalab.immutable import Immutable


class Root(Immutable):
    """Reduced representative of an element of Q/Z, written e(num/den)."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("root denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __eq__(self, other) -> bool:
        return isinstance(other, Root) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # The binary operators read other.num and other.den directly, so the
    # Root-Root path does no type test; an operand without them is not a Root.
    def __lt__(self, other: "Root") -> bool:
        # canonical order: a Divisor keeps its roots sorted by (den, num)
        try:
            return (self.den, self.num) < (other.den, other.num)
        except AttributeError:
            return NotImplemented

    def __add__(self, other: "Root") -> "Root":
        try:
            return Root(self.num * other.den + other.num * self.den, self.den * other.den)
        except AttributeError:
            return NotImplemented

    def __neg__(self) -> "Root":
        return Root(-self.num, self.den)

    def __sub__(self, other: "Root") -> "Root":
        try:
            return Root(self.num * other.den - other.num * self.den, self.den * other.den)
        except AttributeError:
            return NotImplemented

    def scale(self, n: int) -> "Root":
        """The root e(n * num/den)."""
        return Root(n * self.num, self.den)

    def preimages(self, n: int) -> list["Root"]:
        """The n solutions r' of n*r' = self in Q/Z."""
        n = index(n)
        if n < 1:
            raise ValueError("n must be a positive integer")
        return [Root(self.num + j * self.den, n * self.den) for j in range(n)]

    def __repr__(self) -> str:
        return f"Root({self.num}, {self.den})"

    def __str__(self) -> str:
        return "e(0)" if self.den == 1 else f"e({self.num}/{self.den})"


ZERO_ROOT = Root(0, 1)


class Divisor(Immutable):
    """Element of Z[Q/Z]: a finite map Root -> nonzero integer coefficient.

    Built from a Mapping or a stream of (Root, int) pairs: coefficients of
    the same root are summed, zero sums dropped and the roots sorted.  This
    is the only place where coefficients are added.  Each coefficient is
    read with operator.index: anything but an integer raises TypeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Root, int] | Iterable[tuple[Root, int]] = ()):
        acc: dict[Root, int] = {}
        for root, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            if not isinstance(root, Root):
                raise TypeError(f"expected Root, got {type(root).__name__}")
            if type(coeff) is not int:
                coeff = index(coeff)
            acc[root] = acc.get(root, 0) + coeff
        object.__setattr__(self, "_terms", dict(sorted(rc for rc in acc.items() if rc[1])))

    @classmethod
    def of(cls, root: Root, coeff: int = 1) -> "Divisor":
        return cls([(root, coeff)])

    def items(self) -> Iterator[tuple[Root, int]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(chain(self._terms.items(), other._terms.items()))

    def __neg__(self) -> "Divisor":
        return Divisor({r: -c for r, c in self._terms.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __rmul__(self, n: int) -> "Divisor":
        if not isinstance(n, int):
            return NotImplemented
        return Divisor({r: n * c for r, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        if isinstance(other, Divisor):
            return divisor_mul(self, other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Divisor({self._terms!r})"

    def __str__(self) -> str:
        """Canonical text form `c1*e(a1/b1) + ...`, roots sorted by (den, num).

        Unit coefficients drop the `c*` prefix; the empty divisor prints as `0`.
        """
        parts: list[str] = []
        for root, coeff in self._terms.items():
            mag = abs(coeff)
            body = str(root) if mag == 1 else f"{mag}*{root}"
            if parts:
                parts.append(("+ " if coeff > 0 else "- ") + body)
            else:
                parts.append(body if coeff > 0 else f"-{body}")
        return " ".join(parts) or "0"


def divisor_mul(x: Divisor, y: Divisor) -> Divisor:
    """Convolution product in Z[Q/Z]: exponents add, coefficients multiply."""
    return Divisor((rx + ry, cx * cy) for rx, cx in x.items() for ry, cy in y.items())


def sigma(n: int, x: Divisor) -> Divisor:
    """Linear extension of e(r) -> e(n*r); images that coincide are summed."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return Divisor([(r.scale(n), c) for r, c in x.items()])


def rho_tilde(n: int, x: Divisor) -> Divisor:
    """Linear extension of e(r) -> sum of e(r') over the n solutions of n*r' = r."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return Divisor((rp, c) for r, c in x.items() for rp in r.preimages(n))
