"""HPMatrix from numbers, for tests that state a matrix in numbers.

Each entry is read by mpmathify at precision_bits + precision._GUARD (an int
or an mpf exactly, anything else rounded), and the matrix becomes exact
integers N over one binary exponent e: the least exponent of a nonzero
entry's mantissa, or 0.  N 2^e is then the read matrix bit for bit.
"""

from mpmath import mp

from zetalab.precision import _GUARD, HPMatrix


def from_numbers(entries, precision_bits):
    with mp.workprec(precision_bits + _GUARD):
        parts = [[mp.mpmathify(x)._mpf_[:3] for x in r] for r in entries]
    e = min((exp for r in parts for _, man, exp in r if man), default=0)
    return HPMatrix([[(-man if sign else man) << (exp - e) if man else 0 for sign, man, exp in r]
                     for r in parts], e, precision_bits)
