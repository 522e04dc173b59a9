"""Exact arithmetic in Q/Z and in the group ring Z[Q/Z].

A Root is a reduced fraction num/den representing the abstract root of unity
e(num/den); the group law is addition mod 1.  A Divisor is a finite integer
combination of Roots, i.e. an element of the group ring, with multiplication
given by convolution over the group law.  sigma_n and rho_tilde_n are the two
endomorphism families generating the integral BC-system: sigma_n scales a
root by n, rho_tilde_n sums over its n preimages under scaling.

Everything here is immutable and exact (Python integers only).
"""

from __future__ import annotations

import re
from math import gcd
from typing import Iterable, Iterator, Mapping

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

    def __lt__(self, other: "Root") -> bool:
        # canonical order used by Divisor serialization
        return (self.den, self.num) < (other.den, other.num)

    def __add__(self, other: "Root") -> "Root":
        return Root(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "Root":
        return Root(-self.num, self.den)

    def __sub__(self, other: "Root") -> "Root":
        return self + (-other)

    def scale(self, n: int) -> "Root":
        """The root e(n * num/den)."""
        return Root(n * self.num, self.den)

    def preimages(self, n: int) -> list["Root"]:
        """The n solutions r' of n*r' = self in Q/Z."""
        if n < 1:
            raise ValueError("n must be a positive integer")
        return [Root(self.num + j * self.den, n * self.den) for j in range(n)]

    def __repr__(self) -> str:
        return f"Root({self.num}, {self.den})"

    def __str__(self) -> str:
        return "e(0)" if self.den == 1 else f"e({self.num}/{self.den})"


ZERO_ROOT = Root(0, 1)


class Divisor(Immutable):
    """Element of Z[Q/Z]: a finite map Root -> nonzero integer coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Root, int] | Iterable[tuple[Root, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Root, int] = {}
        for root, coeff in items:
            if not isinstance(root, Root):
                raise TypeError(f"expected Root, got {type(root).__name__}")
            c = acc.get(root, 0) + coeff
            if c:
                acc[root] = c
            elif root in acc:
                del acc[root]
        object.__setattr__(self, "_terms", dict(sorted(acc.items())))

    @classmethod
    def of(cls, root: Root, coeff: int = 1) -> "Divisor":
        return cls([(root, coeff)])

    @classmethod
    def zero(cls) -> "Divisor":
        return cls()

    def items(self) -> Iterator[tuple[Root, int]]:
        return iter(self._terms.items())

    def coeff(self, root: Root) -> int:
        return self._terms.get(root, 0)

    def total_mass(self) -> int:
        """Sum of all coefficients (the augmentation map to Z)."""
        return sum(self._terms.values())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __add__(self, other: "Divisor") -> "Divisor":
        acc = dict(self._terms)
        for root, coeff in other._terms.items():
            c = acc.get(root, 0) + coeff
            if c:
                acc[root] = c
            else:
                del acc[root]
        return Divisor(acc)

    def __neg__(self) -> "Divisor":
        return Divisor({r: -c for r, c in self._terms.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __rmul__(self, n: int) -> "Divisor":
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Divisor()
        return Divisor({r: n * c for r, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        if isinstance(other, Divisor):
            return divisor_mul(self, other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Divisor.parse({str(self)!r})"

    def __str__(self) -> str:
        return format_divisor(self)


def divisor_mul(x: Divisor, y: Divisor) -> Divisor:
    """Convolution product in Z[Q/Z]: exponents add, coefficients multiply."""
    acc: dict[Root, int] = {}
    for rx, cx in x.items():
        for ry, cy in y.items():
            r = rx + ry
            c = acc.get(r, 0) + cx * cy
            if c:
                acc[r] = c
            elif r in acc:
                del acc[r]
    return Divisor(acc)


def sigma(n: int, x: Divisor) -> Divisor:
    """Linear extension of e(r) -> e(n*r); images that coincide are summed."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return Divisor([(r.scale(n), c) for r, c in x.items()])


def rho_tilde(n: int, x: Divisor) -> Divisor:
    """Linear extension of e(r) -> sum of e(r') over the n solutions of n*r' = r."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    acc: list[tuple[Root, int]] = []
    for r, c in x.items():
        for rp in r.preimages(n):
            acc.append((rp, c))
    return Divisor(acc)


def format_divisor(x: Divisor) -> str:
    """Canonical text form `c1*e(a1/b1) + ...`, roots sorted by (den, num).

    Unit coefficients drop the `c*` prefix; the empty divisor prints as `0`.
    """
    if not x:
        return "0"
    parts: list[str] = []
    for root, coeff in x.items():
        mag = abs(coeff)
        body = str(root) if mag == 1 else f"{mag}*{root}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>\d+)\s*\*\s*)?e\(\s*(?P<num>\d+)\s*(?:/\s*(?P<den>\d+)\s*)?\)\s*$"
)


def parse_divisor(text: str) -> Divisor:
    """Inverse of format_divisor (also accepts unsorted input and `e(0/1)`)."""
    text = text.strip()
    if text == "0" or not text:
        return Divisor()
    terms: list[tuple[Root, int]] = []
    sign = 1
    for chunk in re.split(r"(?<![*(/])\s*([+-])\s*", "+" + text)[1:]:
        if chunk in "+-":
            sign = 1 if chunk == "+" else -1
            continue
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse divisor term {chunk!r}")
        coeff = sign * int(m.group("coeff") or 1)
        terms.append((Root(int(m.group("num")), int(m.group("den") or 1)), coeff))
    return Divisor(terms)


# attach for convenience: Divisor.parse("e(1/3) + 2*e(0)")
Divisor.parse = staticmethod(parse_divisor)  # type: ignore[attr-defined]
