"""Even Gauss-Hermite test functions on the real line.

The basis is the L^2-orthonormal Hermite family phi_j adapted to the Fourier
transform F(xi)(y) = integral xi(x) exp(-2 pi i x y) dx, i.e. phi_j built on
exp(-pi x^2) so that F phi_j = (-i)^j phi_j.  An EvenGaussHermite is a real
combination of even-index phi_{2m}(x/a)/sqrt(a); its Fourier transform is the
closed form with alternating signs and reciprocal scale: the test function
of Tate's archimedean check (semilocal.tate_arch_check).
"""

from __future__ import annotations

from mpmath import mp, mpf

from zetalab.immutable import Immutable
from zetalab.precision import _num, _working_bits

# Working bits above precision_bits for every method: a value must come within
# 2^-precision_bits of exact, relatively, and the recurrence and the sum lose
# far fewer than 16 bits.  Kept apart from precision._GUARD, the Weil solver's.
_GUARD = 16


def _hermite_phi(nmax: int, x):
    """[phi_0(x), ..., phi_nmax(x)] by the stable orthonormal recurrence.

    phi_j(x) = (2 pi)^(1/4) psi_j(sqrt(2 pi) x) with psi_j the unit-variance
    Hermite functions, at the caller's working precision.
    """
    t = mp.sqrt(2 * mp.pi) * x
    w = mp.exp(-t * t / 2)
    out = [mp.power(2 * mp.pi, mpf(1) / 4) / mp.power(mp.pi, mpf(1) / 4) * w]
    for j in range(nmax):  # at j = 0 the second term is sqrt(0) phi_0 = 0
        out.append(mp.sqrt(mpf(2) / (j + 1)) * t * out[j] - mp.sqrt(mpf(j) / (j + 1)) * out[j - 1])
    return out


class EvenGaussHermite(Immutable):
    """Real combination sum_m c_m phi_{2m}(x/a)/sqrt(a); even by construction.
    The scale a must be finite and positive and every c_m finite, else
    ValueError."""

    __slots__ = ("scale", "coeffs")

    def __init__(self, scale, coeffs):
        coeffs = tuple(coeffs)
        if not (scale > 0 and mp.isfinite(scale)):
            raise ValueError(f"scale must be finite and positive, not {scale}")
        if not all(mp.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x, precision_bits: int):
        """f(x), computed _GUARD bits above precision_bits; f(+-inf) = 0 and
        a NaN x raises ValueError."""
        with mp.workprec(_working_bits(precision_bits, _GUARD)):
            a, x = _num(self.scale), _num(x)
            if mp.isnan(x):
                raise ValueError(f"x = {x} is not a number")
            if mp.isinf(x):  # the Gaussian's limit; the recurrence would give inf * 0
                return mpf(0)
            phis = _hermite_phi(2 * self.order, x / a)
            return mp.fsum(
                _num(c) * phis[2 * m] for m, c in enumerate(self.coeffs)
            ) / mp.sqrt(a)

    def fourier(self, precision_bits: int) -> "EvenGaussHermite":
        """Closed-form transform: coefficients pick up (-1)^m, scale inverts;
        computed _GUARD bits above precision_bits."""
        with mp.workprec(_working_bits(precision_bits, _GUARD)):
            inv = 1 / _num(self.scale)
            coeffs = [(-1) ** m * _num(c) for m, c in enumerate(self.coeffs)]
        return EvenGaussHermite(inv, coeffs)

    def decay_radius(self, precision_bits: int):
        """r with |f(x)| below 2^-(precision_bits) outside [-r, r] (Gaussian
        tail, polynomial factors absorbed by the slack term), formed _GUARD
        bits above precision_bits."""
        with mp.workprec(_working_bits(precision_bits, _GUARD)):
            a = _num(self.scale)
            slack = 4 * (self.order + 2)
            return a * mp.sqrt((precision_bits + slack) * mp.log(2) / mp.pi)

    def __repr__(self):
        return f"EvenGaussHermite(scale={self.scale}, order={self.order})"
