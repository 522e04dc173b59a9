"""Tables of nontrivial zeta-zero ordinates: parsing and validation.

File format: plain text, `#` starts a comment, and every other line is
blank or one positive plain ASCII decimal, [0-9]+ or [0-9]+.[0-9]*, in
strictly increasing order; any other line is refused with its number.  A
genuine table must start with the first zero, so the leading entry is
required to lie in (14, 15); that anchor rejects files that are offset,
truncated from the front, or not zeta zeros at all.

Each entry, n/10^k with n its digits as one integer and k of them after
the point, is rounded once on integers to 203 bits, to nearest with ties to
even, as mpf(str) rounds it at 60 digits up to 400 digits after the point.
The order check compares two mpfs by their raw (sign, mantissa, exponent,
bitcount) tuples, exactly, and any other pair of ordinates by the operator.

A table bundled with the package carries the first 10^4 ordinates (leading
500 at 40 significant digits); see scripts/generate_zeros.py for provenance.
"""

from __future__ import annotations

from importlib import resources

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_lt, round_nearest

from zetalab.immutable import Immutable

# The bits each entry is rounded to: 60 digits, room above the 40-digit entries.
_PARSE_BITS = 203


class ZeroTableError(ValueError):
    pass


class ZeroTable(Immutable):
    """Strictly increasing positive ordinates with source metadata."""

    __slots__ = ("ordinates", "source", "_floats")

    def __init__(self, ordinates, source: str = ""):
        ordinates = tuple(ordinates)
        if not ordinates:
            raise ZeroTableError("empty zero table")
        prev = mpf(0)
        for i, g in enumerate(ordinates):
            if not _above(g, prev):
                raise ZeroTableError(f"ordinates must be strictly increasing and positive "
                                     f"(violated at line entry {i + 1})")
            prev = g
        if not mp.isfinite(prev):  # strictly increasing: only the last can be inf
            raise ZeroTableError(f"last ordinate {prev} is not finite")
        if not (14 < ordinates[0] < 15):
            raise ZeroTableError(f"first ordinate {ordinates[0]} outside (14,15); "
                                 "not a table of zeta zeros starting at the first zero")
        object.__setattr__(self, "ordinates", ordinates)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "_floats", None)

    def __len__(self) -> int:
        return len(self.ordinates)

    def __getitem__(self, i):
        return self.ordinates[i]

    def __iter__(self):
        return iter(self.ordinates)

    def float_ordinates(self) -> np.ndarray:
        """The ordinates rounded to float64, a read-only array built on first
        use and kept on the table."""
        if self._floats is None:
            floats = np.fromiter(map(float, self.ordinates), float, len(self.ordinates))
            floats.flags.writeable = False
            object.__setattr__(self, "_floats", floats)
        return self._floats

    def truncated(self, n: int) -> "ZeroTable":
        """Prefix table with the first n ordinates."""
        if not (1 <= n <= len(self.ordinates)):
            raise ValueError(f"cannot truncate table of {len(self)} to {n}")
        return ZeroTable(self.ordinates[:n], f"{self.source} [first {n}]")

    def __repr__(self):
        return f"ZeroTable({len(self)} ordinates, source={self.source!r})"


def _above(g, prev):
    """g > prev, exactly.  Two positive finite mpfs m 2^e, m of b bits, are
    ordered by their top bit e + b, then by mantissas aligned to the smaller
    exponent; any other pair of mpfs by libmp's mpf_lt, and anything else by
    the operator."""
    if not (isinstance(g, mpf) and isinstance(prev, mpf)):
        return g > prev
    (s, m, e, b), (ps, pm, pe, pb) = g._mpf_, prev._mpf_
    if s or ps or not m or not pm:
        return mpf_lt(prev._mpf_, g._mpf_)
    if e + b != pe + pb:
        return e + b > pe + pb
    return m << (e - pe) > pm if e >= pe else m > pm << (pe - e)


def _round_decimal(n, d, prec):
    """n/d for ints n >= 0 and d > 0, rounded once to prec bits, to nearest
    with ties to even, as a raw mpf.  q = floor(n 2^shift/d) has at least
    prec + 2 bits, so the remainder r can only break a tie, and the sticky
    bit r > 0 below q carries it: from_man_exp rounds where mpf_div would."""
    shift = max(prec + 2 + d.bit_length() - n.bit_length(), 0)
    q, r = divmod(n << shift, d)
    return from_man_exp(2 * q + (r > 0), -shift - 1, prec, round_nearest)


def parse_zero_table(text: str, source: str = "") -> ZeroTable:
    """The ZeroTable of text's entries: each line, stripped of its `#`
    comment and blanks, is empty or one plain ASCII decimal, [0-9]+ or
    [0-9]+.[0-9]*, read as n/10^k (n its digits, k of them after the point)
    rounded once to _PARSE_BITS (_round_decimal).  Any other line, or one
    past int()'s digit limit, raises ZeroTableError with its line number;
    ZeroTable then checks the order exactly (_above)."""
    ordinates, powers = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        whole, _, fraction = line.partition(".")
        digits, k = whole + fraction, len(fraction)
        try:
            if not (whole and digits.isascii() and digits.isdigit()):
                raise ValueError("not a plain decimal")
            d = powers.get(k) or powers.setdefault(k, 10**k)
            ordinates.append(mp.make_mpf(_round_decimal(int(digits), d, _PARSE_BITS)))
        except ValueError:
            raise ZeroTableError(f"line {lineno}: cannot parse {line!r}") from None
    return ZeroTable(ordinates, source)


def bundled_zero_table() -> ZeroTable:
    """The packaged table of the first 10^4 ordinates."""
    text = resources.files("zetalab").joinpath("data/zeros10k.txt").read_text()
    return parse_zero_table(text, source="zetalab bundled zeros10k")
