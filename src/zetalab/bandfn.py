"""Test functions on the multiplicative half-line, supported in [1/lambda, lambda].

LogBandFunction is a finite series over the orthonormal log-Fourier basis
psi_k(u) = (2L)^(-1/2) exp(i pi k log(u)/L) on [lambda^-1, lambda], L = log
lambda, extended by zero.  Its Mellin transform along vertical lines is an
entire closed form, sin(sL) times a rational function of s, which is what
makes explicit-formula sums over thousands of zeros cheap: the zero sum
(mellin_pair_sum) costs one sine per zero and K divisions per zero and
nonzero part (real, imaginary) of the coefficients, on Python integers in
fixed point, 32 bits above the working precision, with the rounding bound
stated there.  The sine is table-driven (_fixed_sin): a reduction by pi/2,
three lookups in tables of cos and sin at steps 2^-10, 2^-20 and 2^-30,
built once per precision (_sine_tables), and a short Taylor tail, all 32
bits above the pass.

Coefficients may be ints, Fractions, floats or mpmath numbers.  Each method
that computes takes precision_bits and converts them under
mp.workprec(precision_bits), a Fraction rounded once, to nearest
(precision._num), so its value depends on its arguments alone; lambda^2 is
read exactly (_exact).  The exact convolution f * g~ of two band
functions is not kept here: nothing in the package evaluates it, and the
tests build it as their own oracle for the closed forms.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import comb, factorial
from types import MappingProxyType

from mpmath import mp, mpf
from mpmath.libmp import to_fixed, to_rational

from zetalab.immutable import Immutable
from zetalab.precision import _num, _to_mpf, _working_bits

# Guard bits of mellin_pair_sum's fixed-point pass over the working precision:
# its accumulated rounding is about N K max|g| units of the last guard bit,
# some 31 bits at N = 10^4 zeros up to |g| = 10^4 with K = 5.
_PAIR_GUARD = 32
# Guard bits of the pass's fixed-point sine over its P bits: g L, its
# reduction by pi/2, the table lookups and the Taylor tail run at
# W = P + 32 bits, so that sin(g L) lands on P bits within about one unit.
_SINE_GUARD = 32
# The sine tables are built this many bits above W, then rounded to W.
_TABLE_GUARD = 16


def _exact(x) -> Fraction:
    """x as a Fraction, without rounding: an int, Fraction, float, mpf or a
    decimal string ("1.2" is 6/5); ValueError unless it is a finite number."""
    if isinstance(x, mpf):  # a non-finite one goes on as a float, which Fraction refuses
        x = Fraction(*to_rational(x._mpf_)) if mp.isfinite(x) else float(x)
    try:
        return Fraction(x)
    except (ValueError, OverflowError):
        raise ValueError(f"{x!r} is not a finite number") from None


def _band_frame(lam2):
    """L = log(lambda), alpha = pi/L and c0 = (2L)^(-1/2) of the band
    [1/lambda, lambda], lambda^2 = lam2, at the caller's working precision."""
    L = mp.log(_num(lam2)) / 2
    return L, mp.pi / L, 1 / mp.sqrt(2 * L)


def _sinc(z, L):
    """sin(zL)/z, by its Taylor form L (1 - (zL)^2/6) once |zL| < 2^(-prec/2)
    (the dropped term is below 2^(-2 prec) relative)."""
    zL = z * L
    if abs(zL) < mpf(2) ** (-mp.prec // 2):
        return L * (1 - zL * zL / 6)
    return mp.sin(zL) / z


def _pair_terms(e, L, alpha, s):
    """e_0 S(s) + sum_k e_k (S(s - alpha k) + S(s + alpha k))/2, S(z) = sin(zL)/z:
    (f^(s) + f^(-s))/(4 c0) term by term, which does not cancel at s = +-alpha k."""
    return e[0] * _sinc(s, L) + mp.fsum(
        e[k] * (_sinc(s - alpha * k, L) + _sinc(s + alpha * k, L)) / 2 for k in range(1, len(e)))


@cache
def _sine_tables(W):
    """The tables of _fixed_sin at W bits, as integers X = round(x 2^W): pi/2;
    (cos, sin) of j 2^-10 for j <= 1608 (1608 2^-10 < pi/2 < 1609 2^-10), and
    of j 2^-20 and j 2^-30 for j < 1024; and the Taylor coefficients
    ((-1)^k/(2k)!, (-1)^k/(2k+1)!), highest k first, for every k whose
    t^(2k)/(2k)! can reach half a unit at |t| < 2^-30 (k <= 5 at W = 368).

    Each level is one mp.cos_sin of its step at V = W + 16 bits, truncated
    to fixed point, and j - 1 fixed-point rotations by it: (c_j, s_j) =
    (c c_(j-1) - s s_(j-1), s c_(j-1) + c s_(j-1)), each floored.  In the
    Euclidean norm, (c, s) is within 2 sqrt2 units of 2^-V (mpmath's one
    unit in the last place and the truncation) and the floors add sqrt2, so
    a step adds at most 3 sqrt2 units, and the rotation's norm, 1 + 2^-V
    2 sqrt2, does not compound over 1608 steps: the first level stays under
    7,000 < 2^13 units of 2^-V, 2^-3 of a unit of 2^-W.  pi at V bits is
    within one unit in its last place, so pi/2 within two units of 2^-V; a
    coefficient is exact before its rounding; and the rounding to W adds
    half a unit: pi/2 is within 1/2 + 2^-15 units of 2^-W and every other
    entry within 1/2 + 1/8."""
    V = W + _TABLE_GUARD
    half = 1 << (_TABLE_GUARD - 1)
    with mp.workprec(V):
        pio2 = (to_fixed(mp.pi._mpf_, V - 1) + half) >> _TABLE_GUARD
        levels = []
        for step, count in ((10, 1609), (20, 1024), (30, 1024)):
            c, s = (to_fixed(x._mpf_, V) for x in mp.cos_sin(mpf(2) ** -step))
            cj, sj, level = 1 << V, 0, []
            for _ in range(count):
                level.append(((cj + half) >> _TABLE_GUARD, (sj + half) >> _TABLE_GUARD))
                cj, sj = (c * cj - s * sj) >> V, (s * cj + c * sj) >> V
            levels.append(level)

    def coefficient(k, n):  # (-1)^k 2^W/n!, rounded
        return (-1) ** k * (((1 << (W + 1)) // factorial(n) + 1) >> 1)

    taylor, k = [], 0
    while 1 << (W + 1) >= factorial(2 * k) << (60 * k):
        taylor.append((coefficient(k, 2 * k), coefficient(k, 2 * k + 1)))
        k += 1
    return pio2, *levels, taylor[::-1]


def _fixed_sin(theta, W):
    """sin(theta 2^-W) 2^W for an integer theta, on Python integers at W
    bits (Tang's table-driven method, ACM TOMS 15(2), 1989).

    q, r = divmod(theta, pi/2 at W bits), so 0 <= r < pi/2.  The top 30
    fractional bits of r pick a = j1 2^-10 + j2 2^-20 + j3 2^-30 from the
    three levels of _sine_tables, and t = r - a, 0 <= t < 2^-30, is left to
    the Taylor series of cos t and sin t/t in t^2, by Horner's rule.  Two
    rotations compose (cos a, sin a) from the levels; a third, of which only
    one coordinate is formed, gives sin r = sin a cos t + cos a sin t for
    even q and cos r = cos a cos t - sin a sin t for odd q, and q's second
    bit gives the sign.

    Error, in units of 2^-W, from the table bounds of _sine_tables.  r is
    off from the exact theta - q pi/2 by at most |q| (1/2 + 2^-15), and so,
    sin being 1-Lipschitz, is the result.  A Horner step adds half a unit
    (its coefficient), one (its floor) and one (the floored t^2 times a
    partial sum of at most 1), while the earlier steps' errors are scaled
    by t^2 < 2^-60; with the dropped tail, under half a unit, cos t is
    within 3 and sin t within 1 + 2^-27 (t times a sum within 3, floored):
    3.2 in Euclidean norm.  A table entry is within 0.89 in norm, and a
    rotation adds its two factors' errors in norm and sqrt2 for its floors
    (one for the last, single coordinate): 3.2, 5.5, then 5.5 + 3.2 + 1.
    Hence

        |_fixed_sin(theta, W) - 2^W sin(theta 2^-W)| <= |q| (1/2 + 2^-15) + 10."""
    pio2, level1, level2, level3, taylor = _sine_tables(W)
    q, r = divmod(theta, pio2)
    c1, s1 = level1[r >> (W - 10)]
    c2, s2 = level2[(r >> (W - 20)) & 1023]
    c3, s3 = level3[(r >> (W - 30)) & 1023]
    t = r & ((1 << (W - 30)) - 1)
    t2 = t * t >> W
    ct = st = 0
    for a, b in taylor:
        ct = a + (ct * t2 >> W)
        st = b + (st * t2 >> W)
    st = st * t >> W
    c, s = (c1 * c2 - s1 * s2) >> W, (s1 * c2 + c1 * s2) >> W
    c, s = (c * c3 - s * s3) >> W, (s * c3 + c * s3) >> W
    v = (c * ct - s * st) >> W if q & 1 else (s * ct + c * st) >> W
    return -v if q & 2 else v


def _pair_sum(e, L, alpha, ordinates, P, L_sine):
    """The fixed-point pass of LogBandFunction.mellin_pair_sum: sum over g of
    (f^(g) + f^(-g))/(4 c0), exact, an mpf for real e and else an mpc; runs
    at P bits, its sine (_fixed_sin) at P + _SINE_GUARD bits, once per
    ordinate, with L_sine = L there.  ValueError for a non-finite ordinate."""
    K = len(e) - 1
    W = P + _SINE_GUARD

    def fixed(x):
        return to_fixed(x._mpf_, P)

    # G floors toward -inf, so |G| <= near catches every |g| <= alpha K + 1
    near = fixed(alpha * K + 1) + 1
    parts = [mp.re(x) for x in e], [mp.im(x) for x in e]
    live = [(i, fixed(v[0]) << P, [(fixed((-1) ** k * v[k]) << P, fixed((alpha * k) ** 2))
                                   for k in range(1, K + 1) if v[k]])
            for i, v in enumerate(parts) if any(v)]
    _, Lman, Lexp, _ = L_sine._mpf_  # L_sine = Lman 2^Lexp exactly
    acc = [0, 0]
    for g in ordinates:
        if type(g) is not mpf:
            g = mpf(g)
        GW = to_fixed(g._mpf_, W)
        G = GW >> _SINE_GUARD  # floor of a floor: to_fixed(g, P)
        if -near <= G <= near:
            # to_fixed maps inf and nan to 0, so every non-finite g lands here
            if not mp.isfinite(g):
                raise ValueError(f"ordinate {g} is not finite")
            t = _pair_terms(e, L, alpha, g)
            acc[0] += fixed(mp.re(t))
            acc[1] += fixed(mp.im(t))
            continue
        G2 = G * G >> P
        S = _fixed_sin(GW * Lman >> -Lexp, W) >> _SINE_GUARD
        for i, E0, pairs in live:
            q = 0
            for C, Bk in pairs:
                q += C // (G2 - Bk)
            acc[i] += S * (E0 // G + (G * q >> P)) >> P
    re, im = (_to_mpf(a, -P) for a in acc)
    return mp.mpc(re, im) if any(parts[1]) else re


class LogBandFunction(Immutable):
    """Finite log-Fourier series on [lambda^-1, lambda], zero outside.

    lam2 is lambda^2, stored exactly (so e.g. lambda = sqrt(11) is exact at
    every precision); coeffs maps k in -K..K to the psi_k coefficient.
    """

    __slots__ = ("lam2", "coeffs")

    def __init__(self, lam2, coeffs: Mapping[int, object]):
        if not isinstance(coeffs, Mapping):
            raise TypeError(f"coeffs must map k to its coefficient, not {type(coeffs).__name__}")
        if not _exact(lam2) > 1:
            raise ValueError(f"lambda^2 must be finite and exceed 1, got {lam2}")
        if not all(mp.isfinite(_num(v)) for v in coeffs.values()):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "lam2", lam2)
        keys = map(operator.index, coeffs)  # every key, so 1.5 raises TypeError
        coeffs = MappingProxyType({k: v for k, v in zip(keys, coeffs.values()) if v != 0})
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def cosine_power(cls, lam2, q: int, modulation: int = 0) -> "LogBandFunction":
        """(1 + cos(pi t / L))^q [* cos(modulation * pi t / L)] in t = log u.

        Exact Fraction coefficients; vanishes to order 2q at the endpoints,
        so the Mellin transform decays like s^-(2q+1): the workhorse family
        of smooth real even test functions.  As 1 + cos x = (e^(ix/2) +
        e^(-ix/2))^2/2, the coefficient at k is C(2q, q + k)/2^q, and the
        modulation m averages it over the shifts k -+ m.
        """
        if q < 1:
            raise ValueError("q must be >= 1")

        def a(k):
            return Fraction(comb(2 * q, q + k) if abs(k) <= q else 0, 2**q)

        K = q + abs(modulation)
        return cls(lam2, {k: (a(k - modulation) + a(k + modulation)) / 2 for k in range(-K, K + 1)})

    @property
    def half_width_index(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def _even_coefficients(self) -> list:
        """e_0 = v_0 and e_k = v_k + v_-k for k = 1..K: the coefficients of
        f(e^t) + f(e^-t) = 2 c0 sum_k e_k cos(alpha k t), all that the zero
        sum f^(g) + f^(-g), the archimedean term W_R(f) and the finite
        places sum_p W_p(f) see of f."""
        v = {k: _num(x) for k, x in self.coeffs.items()}
        K = self.half_width_index
        return [v.get(0, mpf(0))] + [v.get(k, 0) + v.get(-k, 0) for k in range(1, K + 1)]

    # -- f(e^t) - f(1) ---------------------------------------------------------
    # The package reads f only through its band and its coefficients and keeps
    # no point evaluator; the tests' one is tests/band_value.py.

    def evaluate_log_minus_center(self, t, precision_bits: int):
        """f(e^t) - f(1), computed without cancellation for small t; a NaN t
        raises ValueError.

        No package code calls it; it stays while the benchmark's span map
        names it, as deleting it is a benchmark change."""
        with mp.workprec(_working_bits(precision_bits)):
            t = _num(t)
            if mp.isnan(t):
                raise ValueError(f"t = {t} is not a number")
            L, alpha, c0 = _band_frame(self.lam2)
            if abs(t) > L:  # f(1) = c0 sum_k v_k
                return -c0 * mp.fsum(_num(v) for v in self.coeffs.values())
            acc = []
            for k, v in self.coeffs.items():
                half = alpha * k * t / 2
                acc.append(_num(v) * 2j * mp.sin(half) * mp.expj(half))
            return c0 * mp.fsum(acc)

    # -- Mellin transform -------------------------------------------------------

    def mellin(self, s, precision_bits: int):
        """f^(s) = integral f(x) x^(-is) d*x; entire in s, closed form; a
        non-finite s raises ValueError."""
        with mp.workprec(_working_bits(precision_bits)):
            s = _num(s)
            if not mp.isfinite(s):
                raise ValueError(f"s = {s} is not finite")
            L, alpha, c0 = _band_frame(self.lam2)
            return 2 * c0 * mp.fsum(_num(v) * _sinc(alpha * k - s, L) for k, v in self.coeffs.items())

    def mellin_pair_sum(self, ordinates, precision_bits: int):
        """Sum of f^(g) + f^(-g) over the real ordinates g, one sine per g;
        ValueError if an ordinate is not finite.

        Since alpha L = pi, sin((alpha k - s) L) = (-1)^(k+1) sin(sL), so

            f^(s) = 2 c0 sin(sL) sum_k (-1)^k v_k/(s - alpha k),

        and f^(-s) is the same sum with v_k replaced by v_-k.  Hence

            f^(g) + f^(-g) = 2 c0 sin(gL) sum_k d_k/(g - alpha k),
            d_k = (-1)^k (v_k + v_-k).

        d is even in k (the odd part of the coefficients cancels), so pairing
        k with -k leaves, with e_k from _even_coefficients and c_k = (-1)^k e_k,

            f^(g) + f^(-g) = 4 c0 sin(gL) [e_0/g + g sum_{k>=1} c_k/(g^2 - alpha^2 k^2)]:

        one sine and K divisions per ordinate; the identity is exact, so
        there is no tail.  At g = alpha k, sin(gL) and g - alpha k both
        vanish, and near it their quotient loses about
        log2(alpha k/|g - alpha k|) bits.  So an ordinate with
        |g| <= alpha K + 1 is summed term by term (_pair_terms) as mellin
        does, Taylor branch included, with S(z) = sin(zL)/z:

            f^(g) + f^(-g) = 4 c0 [e_0 S(g) + sum_{k>=1} e_k (S(g - alpha k) + S(g + alpha k))/2].

        Every other ordinate is at least 1 from the grid, where
        g^2 - alpha^2 k^2 >= 2 alpha K + 1 (up to rounding): no quotient is
        ill-conditioned, and the pair form runs in fixed point on Python
        integers.  With P = precision_bits + 32, a real x is held as
        X = to_fixed(x, P) = floor(x 2^P): truncated, not rounded.  L, alpha,
        c0 and the e_k are computed at P bits and converted once per call.
        Per ordinate, with G = X(g), G2 = G G >> P and B_k = X(alpha^2 k^2),

            term = (E_0 << P) // G + (G sum_k (C_k << P) // (G2 - B_k) >> P),

        S = _fixed_sin(Theta, W) >> 32 is sin(g L) at P bits, and S term >> P
        is added to one integer.  The sine runs on integers at W = P + 32
        bits: Theta = floor(g L 2^W) is to_fixed(g, W) m >> -x, where
        L_W = m 2^x is L computed at W bits once per call, and
        to_fixed(g, W) >> 32 is G.  A term-by-term ordinate is summed in mpf
        at P bits and added to the same integer, so the sum over ordinates is
        exact and is rounded to precision_bits once, at the end.  The real
        and imaginary parts of the e_k each have their own E_0, C_k and
        integer and read the one S; a part that is all zero is skipped.

        Rounding.  Write u = 2^-P, V = sum_k |v_k|, and let mpmath's log,
        sin, cos and pi be within one unit in the last place.  Then

            |returned - exact| <= 2^-prec |returned| + 4 c0 u sum_g beta(g),

            beta(g) = K (|g| + 1) + V (3 L |g| + 15 alpha K + 30) + 4   (pair form),
            beta(g) = V L (4 pi K + L + 20) + 1                       (term by term),

        prec = precision_bits; the first term is the final rounding.  In the pair
        form |g|/(g^2 - alpha^2 k^2) <= 1 and
        |g|^3/(g^2 - alpha^2 k^2)^2 <= alpha K + 1.  Each floored quotient is
        off by at most one unit and G multiplies it: K |g|.  A denominator is
        off by at most 2|g| + 2 + 11 alpha^2 k^2 <= 15 g^2 units, which moves
        the rational part by at most 15 (alpha K + 1) V units.  The rational
        part, at most V, multiplies the sine's error, at most 3 L |g| + 2
        units: in units of 2^-W, Theta is off from g L 2^W by at most
        2 L |g| (L_W's relative error 2^(1-W)) + L (the truncated g times L)
        + 1 (the floor), and _fixed_sin adds |q| (1/2 + 2^-15) + 10, where
        |q| <= |Theta|/(pi/2 at W bits) + 1 <= 0.64 L |g| + 1; the sine at W
        bits is thus within 2.4 L |g| + L + 12 units of 2^-W, and the final
        shift floors once, so S is within 1 + 2^-32 (2.4 L |g| + L + 12)
        units: beta's 3 L |g| V has room to spare.  Truncations, the e_k's
        conversion and the scaling by 4 c0 add a few units and a few V.  A
        term-by-term ordinate has |S| <= L and |S'| <= L^2/2, and each
        z = g -+ alpha k is off by at most 7 alpha K + 1 units.  With complex
        coefficients each part obeys beta with its own V, of Re v or of Im v.
        For cosine_power(5, 4, 1) over the 10^4 bundled zeros,
        sum_g beta(g) is about 2^31, which makes the second term 1.5 times
        the first.
        """
        P = _working_bits(precision_bits, _PAIR_GUARD)
        with mp.workprec(P):
            L, alpha, c0 = _band_frame(self.lam2)
            e = self._even_coefficients()
            with mp.workprec(P + _SINE_GUARD):
                L_sine = _band_frame(self.lam2)[0]
            total = 4 * c0 * _pair_sum(e, L, alpha, ordinates, P, L_sine)
        with mp.workprec(precision_bits):
            return +total

    def __repr__(self):
        return f"LogBandFunction(lam2={self.lam2}, K={self.half_width_index})"
