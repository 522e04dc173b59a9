"""Tables of nontrivial zeta-zero ordinates: parsing and validation.

File format: plain text, one positive decimal ordinate per line, strictly
increasing, `#` starts a comment.  A genuine table must start with the first
zero, so the leading entry is required to lie in (14, 15); that anchor
rejects files that are offset, truncated from the front, or not zeta zeros
at all.

A table bundled with the package carries the first 10^4 ordinates (leading
500 at 40 significant digits); see scripts/generate_zeros.py for provenance.
"""

from __future__ import annotations

from importlib import resources

import numpy as np
from mpmath import mp, mpf

from zetalab.immutable import Immutable

_PARSE_DPS = 60  # enough for 40-digit entries with headroom


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
            if not g > prev:
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


def parse_zero_table(text: str, source: str = "") -> ZeroTable:
    with mp.workdps(_PARSE_DPS):
        ordinates = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                ordinates.append(mpf(line))
            except (ValueError, TypeError):
                raise ZeroTableError(f"line {lineno}: cannot parse {line!r}") from None
        return ZeroTable(ordinates, source)


def bundled_zero_table() -> ZeroTable:
    """The packaged table of the first 10^4 ordinates."""
    text = resources.files("zetalab").joinpath("data/zeros10k.txt").read_text()
    return parse_zero_table(text, source="zetalab bundled zeros10k")
