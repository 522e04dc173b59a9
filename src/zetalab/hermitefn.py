"""Even Gauss-Hermite test functions on the real line.

The basis is the L^2-orthonormal Hermite family phi_j adapted to the Fourier
transform F(xi)(y) = integral xi(x) exp(-2 pi i x y) dx, i.e. phi_j built on
exp(-pi x^2) so that F phi_j = (-i)^j phi_j.  An EvenGaussHermite is a real
combination of even-index phi_{2m}(x/a)/sqrt(a); its Fourier transform is the
closed form with alternating signs and reciprocal scale, so membership in the
codimension-2 space {f(0) = 0, f^(0) = 0} is two linear constraints on the
coefficients.
"""

from __future__ import annotations

from mpmath import mp, mpf

from zetalab.immutable import Immutable
from zetalab.precision import _GUARD


def hermite_phi(nmax: int, x):
    """[phi_0(x), ..., phi_nmax(x)] by the stable orthonormal recurrence.

    phi_j(x) = (2 pi)^(1/4) psi_j(sqrt(2 pi) x) with psi_j the unit-variance
    Hermite functions; works for mpf or float input.
    """
    t = mp.sqrt(2 * mp.pi) * x
    w = mp.exp(-t * t / 2)
    out = [mp.power(2 * mp.pi, mpf(1) / 4) / mp.power(mp.pi, mpf(1) / 4) * w]
    if nmax >= 1:
        out.append(mp.sqrt(2) * t * out[0])
    for j in range(1, nmax):
        out.append(
            mp.sqrt(mpf(2) / (j + 1)) * t * out[j]
            - mp.sqrt(mpf(j) / (j + 1)) * out[j - 1]
        )
    return out


def hermite_phi_zero(j: int):
    """phi_j(0) in closed form: 0 for odd j, alternating ratio for even j."""
    if j % 2:
        return mpf(0)
    m = j // 2
    # phi_{2m}(0) = (2 pi)^(1/4) pi^(-1/4) (-1)^m sqrt((2m)!)/(2^m m!)
    val = mp.power(2 * mp.pi, mpf(1) / 4) / mp.power(mp.pi, mpf(1) / 4)
    val *= (-1) ** m * mp.sqrt(mp.factorial(2 * m)) / (2**m * mp.factorial(m))
    return val


class EvenGaussHermite(Immutable):
    """Real combination sum_m c_m phi_{2m}(x/a)/sqrt(a); even by construction."""

    __slots__ = ("scale", "coeffs")

    def __init__(self, scale, coeffs):
        if not (scale > 0):
            raise ValueError("scale must be positive")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "coeffs", list(coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x):
        a = mp.mpmathify(self.scale)
        phis = hermite_phi(2 * self.order, mp.mpmathify(x) / a)
        return mp.fsum(
            mp.mpmathify(c) * phis[2 * m] for m, c in enumerate(self.coeffs)
        ) / mp.sqrt(a)

    def __call__(self, x):
        return self.evaluate(x)

    def fourier(self) -> "EvenGaussHermite":
        """Closed-form transform: coefficients pick up (-1)^m, scale inverts."""
        inv = 1 / mp.mpmathify(self.scale)
        return EvenGaussHermite(inv, [(-1) ** m * mp.mpmathify(c) for m, c in enumerate(self.coeffs)])

    def value_at_zero(self):
        a = mp.mpmathify(self.scale)
        return mp.fsum(
            mp.mpmathify(c) * hermite_phi_zero(2 * m) for m, c in enumerate(self.coeffs)
        ) / mp.sqrt(a)

    def fourier_at_zero(self):
        return self.fourier().value_at_zero()

    def norm_sq(self):
        return mp.fsum(abs(mp.mpmathify(c)) ** 2 for c in self.coeffs)

    def decay_radius(self, precision_bits: int):
        """|f(x)| is below 2^-(precision_bits) outside [-r, r] (Gaussian tail,
        polynomial factors absorbed by the slack term)."""
        a = mp.mpmathify(self.scale)
        slack = 4 * (self.order + 2)
        return a * mp.sqrt((precision_bits + slack) * mp.log(2) / mp.pi)

    def project_even_schwartz_zero(self, precision_bits: int) -> "EvenGaussHermite":
        """Orthogonal projection onto {f(0) = 0, f^(0) = 0} in coefficient
        space (the basis is orthonormal, so this is the L^2 projection),
        computed _GUARD bits above precision_bits.

        With u_m = phi_2m(0), f(0) sqrt(a) = sum_m c_m u_m and f^(0)/sqrt(a)
        = sum_m (-1)^m c_m u_m, so the two constraints are equivalently
        e.c = 0 and o.c = 0 for the even-m and odd-m halves e, o of u.  Their
        supports are disjoint, so they are orthogonal, and the projection
        removes c's component along each nonzero half.  Every u_m is nonzero,
        so a half is zero only when it is empty: o at order 0, where f^(0) =
        f(0) a and the space is one constraint.
        """
        with mp.workprec(precision_bits + _GUARD):
            c = [mp.mpmathify(x) for x in self.coeffs]
            u = [hermite_phi_zero(2 * m) for m in range(len(c))]
            for half in (slice(0, None, 2), slice(1, None, 2)):
                if u[half]:
                    k = mp.fdot(u[half], c[half]) / mp.fdot(u[half], u[half])
                    c[half] = [x - k * y for x, y in zip(c[half], u[half])]
        return EvenGaussHermite(self.scale, c)

    def __repr__(self):
        return f"EvenGaussHermite(scale={self.scale}, order={self.order})"
