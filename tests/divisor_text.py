"""Divisor shorthand for the tests: parse the text form str(Divisor) prints."""

import re

from zetalab.cyclotomy import Divisor, Root

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>\d+)\s*\*\s*)?e\(\s*(?P<num>\d+)\s*(?:/\s*(?P<den>\d+)\s*)?\)\s*$"
)


def parse_divisor(text: str) -> Divisor:
    """Inverse of str(Divisor) (also accepts unsorted input and `e(0/1)`)."""
    text = text.strip()
    if text == "0":
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
        terms.append((Root(int(m.group("num")), int(m.group("den") or 1)), sign * int(m.group("coeff") or 1)))
    return Divisor(terms)
