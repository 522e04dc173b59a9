"""Test functions on the multiplicative half-line, supported in [1/lambda, lambda].

LogBandFunction is a finite series over the orthonormal log-Fourier basis
psi_k(u) = (2L)^(-1/2) exp(i pi k log(u)/L) on [lambda^-1, lambda], L = log
lambda, extended by zero.  Its Mellin transform along vertical lines is an
entire closed form, sin(sL) times a rational function of s, which is what
makes explicit-formula sums over thousands of zeros cheap: the zero sum
(mellin_pair_sum) costs one sine and K divisions per zero, done on Python
integers in fixed point, 32 bits above the working precision, with the
rounding bound stated there.

Coefficients may be ints, Fractions, floats or mpmath numbers; they are
converted under the ambient mpmath precision at evaluation time, so the same
object can be used at any working precision.  The exact convolution f * g~ of
two band functions is not kept here: nothing in the package evaluates it, and
the tests build it as their own oracle for the closed forms.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_mul, mpf_sin, round_nearest, to_fixed

from zetalab.immutable import Immutable

# Guard bits of mellin_pair_sum's fixed-point pass over the working precision:
# its accumulated rounding is about N K max|g| units of the last guard bit,
# some 31 bits at N = 10^4 zeros up to |g| = 10^4 with K = 5.
_PAIR_GUARD = 32


def _num(v):
    if isinstance(v, Fraction):
        return mpf(v.numerator) / v.denominator
    return mp.mpmathify(v)


def band_frame(lam2):
    """L = log(lambda), alpha = pi/L and c0 = (2L)^(-1/2) of the band
    [1/lambda, lambda], lambda^2 = lam2, under the ambient precision."""
    L = mp.log(_num(lam2)) / 2
    return L, mp.pi / L, 1 / mp.sqrt(2 * L)


def _sinc(z, L):
    """sin(zL)/z, by its Taylor form L (1 - (zL)^2/6) once |zL| < 2^(-prec/2)
    (the dropped term is below 2^(-2 prec) relative)."""
    zL = z * L
    if abs(zL) < mpf(2) ** (-mp.prec // 2):
        return L * (1 - zL * zL / 6)
    return mp.sin(zL) / z


def _real_pair_sum(e, L, alpha, ordinates, P):
    """The fixed-point pass of LogBandFunction.mellin_pair_sum for real e:
    sum over g of (f^(g) + f^(-g))/(4 c0), exact as an mpf; runs at P bits."""
    K = len(e) - 1

    def fixed(x):
        return to_fixed(x._mpf_, P)

    # G floors toward -inf, so |G| <= near catches every |g| <= alpha K + 1
    near = fixed(alpha * K + 1) + 1
    E0 = fixed(e[0]) << P
    pairs = [(fixed((-1) ** k * e[k]) << P, fixed((alpha * k) ** 2)) for k in range(1, K + 1) if e[k]]
    Lm = L._mpf_
    acc = 0
    for g in ordinates:
        if type(g) is not mpf:
            g = mpf(g)
        G = to_fixed(g._mpf_, P)
        if -near <= G <= near:
            t = e[0] * _sinc(g, L) + mp.fsum(
                e[k] * (_sinc(g - alpha * k, L) + _sinc(g + alpha * k, L)) / 2
                for k in range(1, K + 1))
            acc += fixed(t)
            continue
        G2 = G * G >> P
        S = to_fixed(mpf_sin(mpf_mul(g._mpf_, Lm, P), P, round_nearest), P)
        q = 0
        for C, Bk in pairs:
            q += C // (G2 - Bk)
        acc += S * (E0 // G + (G * q >> P)) >> P
    return mp.make_mpf(from_man_exp(acc, -P))


class LogBandFunction(Immutable):
    """Finite log-Fourier series on [lambda^-1, lambda], zero outside.

    lam2 is lambda^2, stored exactly (so e.g. lambda = sqrt(11) is exact at
    every precision); coeffs maps k in -K..K to the psi_k coefficient.
    """

    __slots__ = ("lam2", "coeffs")

    def __init__(self, lam2, coeffs: Mapping[int, object]):
        if not (lam2 > 1 and mp.isfinite(_num(lam2))):
            raise ValueError(f"lambda^2 must be finite and exceed 1, got {lam2}")
        if not all(mp.isfinite(_num(v)) for v in coeffs.values()):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "lam2", lam2)
        keys = map(operator.index, coeffs)  # every key, so 1.5 raises TypeError
        object.__setattr__(self, "coeffs", {k: v for k, v in zip(keys, coeffs.values()) if v != 0})

    @classmethod
    def cosine_power(cls, lam2, q: int, modulation: int = 0) -> "LogBandFunction":
        """(1 + cos(pi t / L))^q [* cos(modulation * pi t / L)] in t = log u.

        Exact Fraction coefficients; vanishes to order 2q at the endpoints,
        so the Mellin transform decays like s^-(2q+1): the workhorse family
        of smooth real even test functions.
        """
        if q < 1:
            raise ValueError("q must be >= 1")
        base = {-1: Fraction(1, 2), 0: Fraction(1), 1: Fraction(1, 2)}
        acc = {0: Fraction(1)}
        for _ in range(q):
            nxt: dict[int, Fraction] = {}
            for ka, va in acc.items():
                for kb, vb in base.items():
                    nxt[ka + kb] = nxt.get(ka + kb, Fraction(0)) + va * vb
            acc = nxt
        if modulation:
            mod = {-modulation: Fraction(1, 2), modulation: Fraction(1, 2)}
            nxt = {}
            for ka, va in acc.items():
                for kb, vb in mod.items():
                    nxt[ka + kb] = nxt.get(ka + kb, Fraction(0)) + va * vb
            acc = nxt
        return cls(lam2, acc)

    # -- geometry under the ambient precision --------------------------------

    def log_halfwidth(self):
        return mp.log(_num(self.lam2)) / 2

    @property
    def half_width_index(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def even_coefficients(self) -> list:
        """e_0 = v_0 and e_k = v_k + v_-k for k = 1..K: the coefficients of
        f(e^t) + f(e^-t) = 2 c0 sum_k e_k cos(alpha k t), all that the zero
        sum f^(g) + f^(-g) and the archimedean term W_R(f) see of f."""
        v = {k: _num(x) for k, x in self.coeffs.items()}
        K = self.half_width_index
        return [v.get(0, mpf(0))] + [v.get(k, 0) + v.get(-k, 0) for k in range(1, K + 1)]

    # -- values ----------------------------------------------------------------

    def evaluate_log(self, t):
        """Value at u = e^t; zero outside the support band.  Pairing k with -k,

            f(e^t) = c0 [v_0 + sum_{k>=1} (e_k cos(alpha k t) + i o_k sin(alpha k t))],

        e_k = v_k + v_-k, o_k = v_k - v_-k; the sine term is left out where
        o_k = 0, so real symmetric coefficients give an mpf."""
        L, alpha, c0 = band_frame(self.lam2)
        if abs(t) > L:
            return mpf(0)
        v = {k: _num(x) for k, x in self.coeffs.items()}
        acc = [v.get(0, mpf(0))]
        for k in range(1, self.half_width_index + 1):
            cos, sin = mp.cos_sin(alpha * k * t)
            vp, vm = v.get(k, 0), v.get(-k, 0)
            acc.append((vp + vm) * cos)
            if vp != vm:
                acc.append(1j * (vp - vm) * sin)
        return c0 * mp.fsum(acc)

    def evaluate(self, x):
        if x <= 0:
            raise ValueError("defined on the positive half-line")
        return self.evaluate_log(mp.log(x))

    def value_at_one(self):
        L, alpha, c0 = band_frame(self.lam2)
        return c0 * mp.fsum(_num(v) for v in self.coeffs.values())

    def evaluate_log_minus_center(self, t):
        """f(e^t) - f(1), computed without cancellation for small t.

        No package code calls it; it stays while the benchmark's span map
        names it, as deleting it is a benchmark change."""
        L, alpha, c0 = band_frame(self.lam2)
        if abs(t) > L:
            return -self.value_at_one()
        acc = []
        for k, v in self.coeffs.items():
            half = alpha * k * t / 2
            acc.append(_num(v) * 2j * mp.sin(half) * mp.expj(half))
        return c0 * mp.fsum(acc)

    # -- Mellin transform -------------------------------------------------------

    def mellin(self, s):
        """f^(s) = integral f(x) x^(-is) d*x; entire in s, closed form."""
        L, alpha, c0 = band_frame(self.lam2)
        return 2 * c0 * mp.fsum(_num(v) * _sinc(alpha * k - s, L) for k, v in self.coeffs.items())

    def mellin_pair_sum(self, ordinates):
        """Sum of f^(g) + f^(-g) over the real ordinates g, one sine per g.

        Since alpha L = pi, sin((alpha k - s) L) = (-1)^(k+1) sin(sL), so

            f^(s) = 2 c0 sin(sL) sum_k (-1)^k v_k/(s - alpha k),

        and f^(-s) is the same sum with v_k replaced by v_-k.  Hence

            f^(g) + f^(-g) = 2 c0 sin(gL) sum_k d_k/(g - alpha k),
            d_k = (-1)^k (v_k + v_-k).

        d is even in k (the odd part of the coefficients cancels), so pairing
        k with -k leaves, with e_k from even_coefficients and c_k = (-1)^k e_k,

            f^(g) + f^(-g) = 4 c0 sin(gL) [e_0/g + g sum_{k>=1} c_k/(g^2 - alpha^2 k^2)]:

        one sine and K divisions per ordinate; the identity is exact, so
        there is no tail.  At g = alpha k, sin(gL) and g - alpha k both
        vanish, and near it their quotient loses about
        log2(alpha k/|g - alpha k|) bits.  So an ordinate with
        |g| <= alpha K + 1 is summed term by term as mellin does, Taylor
        branch included, with S(z) = sin(zL)/z:

            f^(g) + f^(-g) = 4 c0 [e_0 S(g) + sum_{k>=1} e_k (S(g - alpha k) + S(g + alpha k))/2].

        Every other ordinate is at least 1 from the grid, where
        g^2 - alpha^2 k^2 >= 2 alpha K + 1 (up to rounding): no quotient is
        ill-conditioned, and the pair form runs in fixed point on Python
        integers.  With P = mp.prec + 32, a real x is held as
        X = to_fixed(x, P) = floor(x 2^P): truncated, not rounded.  L, alpha,
        c0 and the e_k are computed at P bits and converted once per call.
        Per ordinate, with G = X(g), G2 = G G >> P and B_k = X(alpha^2 k^2),

            term = (E_0 << P) // G + (G sum_k (C_k << P) // (G2 - B_k) >> P),

        the sine is mpf_sin of g L at P bits, and S term >> P is added to one
        integer.  A term-by-term ordinate is summed in mpf at P bits and added
        to the same integer, so the sum over ordinates is exact and is rounded
        to mp.prec once, at the end.  Complex coefficients run as two real
        passes, the sum over Re v plus i times the sum over Im v.

        Rounding.  Write u = 2^-P, V = sum_k |v_k|, and let mpmath's log,
        sin and pi be within one unit in the last place.  Then

            |returned - exact| <= 2^-prec |returned| + 4 c0 u sum_g beta(g),

            beta(g) = K (|g| + 1) + V (3 L |g| + 15 alpha K + 30) + 4   (pair form),
            beta(g) = V L (4 pi K + L + 20) + 1                       (term by term),

        prec = mp.prec; the first term is the final rounding.  In the pair
        form |g|/(g^2 - alpha^2 k^2) <= 1 and
        |g|^3/(g^2 - alpha^2 k^2)^2 <= alpha K + 1.  Each floored quotient is
        off by at most one unit and G multiplies it: K |g|.  A denominator is
        off by at most 2|g| + 2 + 11 alpha^2 k^2 <= 15 g^2 units, which moves
        the rational part by at most 15 (alpha K + 1) V units.  g L is off by
        3 L |g| units (L's own error and the product's rounding), and the
        rational part, at most V, multiplies the sine's error.  Truncations,
        the e_k's conversion and the scaling by 4 c0 add a few units and a
        few V.  A term-by-term ordinate has |S| <= L and |S'| <= L^2/2, and
        each z = g -+ alpha k is off by at most 7 alpha K + 1 units.  With
        complex coefficients each part obeys the bound of its own pass.
        For cosine_power(5, 4, 1) over the 10^4 bundled zeros,
        sum_g beta(g) is about 2^31, which makes the second term 1.5 times
        the first.  Both are far below the former statement's
        len(ordinates) 2^-prec times the sum of the terms' sizes.
        """
        P = mp.prec + _PAIR_GUARD
        with mp.workprec(P):
            L, alpha, c0 = band_frame(self.lam2)
            e = self.even_coefficients()
            if any(mp.im(x) for x in e):
                ordinates = list(ordinates)
                total = mp.mpc(_real_pair_sum([mp.re(x) for x in e], L, alpha, ordinates, P),
                               _real_pair_sum([mp.im(x) for x in e], L, alpha, ordinates, P))
            else:
                total = _real_pair_sum([mp.re(x) for x in e], L, alpha, ordinates, P)
            total = 4 * c0 * total
        return +total

    def __repr__(self):
        return f"LogBandFunction(lam2={self.lam2}, K={self.half_width_index})"
