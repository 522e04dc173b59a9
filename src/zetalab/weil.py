"""Explicit-formula functionals and the truncated Weil quadratic form.

The explicit formula pairs the zero side

    f^(i/2) + f^(-i/2) - sum_{zeros} f^(s)

with the prime/archimedean side W_R(f) + sum_p W_p(f).  For a band function
f (bandfn.LogBandFunction, supported in [lambda^-1, lambda]) every term is a
closed form: the zero sum costs one sine per zero
(LogBandFunction.mellin_pair_sum), W_R(f) is one integer pass for K+1 digamma
values and a geometric series (_psi_pass), and the prime side is one finite
sum over the prime powers in the band, the edge p^m = lambda at half weight
(_prime_powers), so the explicit formula runs no quadrature.  Each term
reads f only through its band and _even_coefficients; w_arch, w_prime and
the explicit formula take a LogBandFunction only, and nothing in this
module integrates numerically.  The same finiteness makes the quadratic form

    QW(f, g) = sum_{zeros} conj(f^) g^

computable without any zero table: QW(f, g) = h^(i/2) + h^(-i/2) - W_R(h)
- sum_p W_p(h) with h = f * g~, whose prime sum runs over the prime powers
of its band [lambda^-2, lambda^2].

weil_gram assembles the Gram matrix of QW over the orthonormal log-Fourier
basis.  In that basis everything collapses: pole and prime terms are closed
forms, and the archimedean part of every entry is a combination of the 2K+1
one-dimensional integrals I(m), J(k) below, digamma values and geometric
series from the same pass, so the assembly runs no quadrature.

QW commutes with the reflection x -> 1/x, which maps psi_k to psi_-k, and
psi_-k^(i/2) = conj psi_k^(i/2), so over the real basis every entry is real
and the Gram is block diagonal: an even block over [const, cos_1..cos_K] and
an odd block over [sin_1..sin_K] (weil_gram_complex, the Gram over
psi_-K..psi_K, is a view of them).  The pole functionals split the same way,
(f^(i/2) + f^(-i/2))/2 acting on the even block and (f^(i/2) - f^(-i/2))/2
on the odd one, so the Weil-positivity subspace f^(+-i/2) = 0 is one
constraint per block, projected out by one Householder reflector.

The Gram runs on integers from lambda^2 to the certificate, in precision's
fixed-point idiom: _parity_blocks rounds its O(K) scalars and the digamma
pass (_psi_pass) once to p = precision_bits + _GUARD fractional bits, the
pole functionals also to 2p bits for the reflector, and forms every entry by
integer products and rounded divisions; _project_out and HPMatrix keep them.
The certificate adds the Gram's own error to the eigensolver's residual,
exactly, and each part reads only what it bounds: _gram_entry_error counts
the entries' error in units of 2^-p, a closed form of L, and
_projection_error the reflector's in units of each projected block's 2^e,
from its dimension alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from itertools import count
from math import ceil, isqrt, lgamma, log, log2, pi, sqrt

from mpmath import mp, mpf

from zetalab.bandfn import LogBandFunction, _band_frame, _exact
from zetalab.precision import (HPMatrix, _div, _fixed, _reflect, _to_mpf, _top_exponent, _working_bits,
                              jacobi_eigensystem)
from zetalab.zerotable import ZeroTable

# Working bits above precision_bits for every weil evaluation.
# They buy the Weil Gram its certificate: at the benchmark's settings the
# entry count (_gram_entry_error, 17 to 20 units of 2^-(bits+48)) times the
# block dimension is 24.2 to 24.9 bits, and the reflector's count
# (_projection_error, with the pole functionals at 2 (bits+48) bits) 30.5 to
# 30.8 bits, below the eigensolver's residual, 2^-(bits+14.3) to
# 2^-(bits+16.0), so the certified bits are the solver's.
_GUARD = 48


def is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


def _prime_powers(lam2):
    """(p, t, w) for each prime power p^m of the band [1/lambda, lambda],
    lambda^2 = lam2: t = log p^m and w = log p p^(-m/2) for p^(2m) < lam2,
    and w/2 for p^(2m) = lam2, where f is cut off and counts at the mean of
    its one-sided values, as psi_0 does in von Mangoldt's formula.  The
    comparison is exact (_exact), and the edge's t is _band_frame's L.
    """
    q = _exact(lam2)
    out = []
    for p in filter(is_prime, range(2, isqrt(int(q)) + 1)):
        logp, m = mp.log(p), 1
        while p ** (2 * m) <= q:
            w = logp * mp.power(p, -mpf(m) / 2)
            out.append((p, m * logp, w) if p ** (2 * m) < q else (p, _band_frame(lam2)[0], w / 2))
            m += 1
    return out


def w_prime(f, precision_bits: int):
    """sum_p W_p(f), the sum of (log p) p^(-m/2) (f(p^m) + f(p^-m)) over the
    prime powers of f's band, from one _prime_powers(f.lam2), the edge p^m =
    lambda at half weight.  f(e^t) + f(e^-t) = 2 c0 sum_k e_k cos(alpha k t),
    e = f._even_coefficients(), so a real f gives an mpf.  f must be a
    LogBandFunction, else TypeError."""
    if not isinstance(f, LogBandFunction):
        raise TypeError(f"w_prime takes a LogBandFunction, not {type(f).__name__}")
    with mp.workprec(_working_bits(precision_bits, _GUARD)):
        _, alpha, c0 = _band_frame(f.lam2)
        e = f._even_coefficients()
        return mp.fsum(w * (2 * c0 * mp.fsum(x * mp.cos(alpha * k * t) for k, x in enumerate(e)))
                       for _, t, w in _prime_powers(f.lam2))


@cache
def _stirling(s, j):
    """round(2^s B_2j/(2j)) and round(2^s B_2j), the j-th Stirling coefficients
    of psi and psi' at s fractional bits: they depend on (s, j) alone, so each
    is formed once."""
    n, d = mp.bernfrac(2 * j)
    return _div(n << s, 2 * j * d), _div(n << s, d)


# The count grows like p/(4 log2 x) as the band narrows: 36,346 at lambda^2 = 1.001, 64 bits.
_MAX_SERIES_TERMS = 2**14  # most terms of a _psi_pass series, 25 times the most a test needs


def _psi_pass(ys, p, x, term_bound):
    """For each y in ys, w = 1/4 + iy: psi(w), psi'(w) and the series
    S_i = sum_{n<M} g_n (w+n)^-i, i = 1, 2, g_n = x^-(4n+1), as integer
    pairs (real, imaginary) at p fractional bits, from one pass on integers
    at s = p + G fractional bits and one mp.log: psi and psi' within 2^-p,
    S_i within 2^-p (1 + sum_n g_n)/2.  The g_n fall by x^-4, so the terms
    n >= M of any sum_n g_n t_n, |t_n| <= term_bound(a_n) nonincreasing (a_n
    = 2n + 1/2), sum to at most g_M term_bound(a_M)/(1 - x^-4), and M is the
    first index where that < 2^-p.

    With z = w + N, psi(w) = psi(z) - sum_{j<N} 1/(w+j), psi'(w) = psi'(z) +
    sum_{j<N} 1/(w+j)^2, psi(z) = log z - 1/(2z) - sum_{0<j<J} B_2j/(2j z^2j)
    + R and psi'(z) = 1/z + 1/(2z^2) + sum_{0<j<J} B_2j/z^(2j+1) + R', both
    sums by Horner's rule in u = 1/z^2 from the tail.  Remainder, as in DLMF
    5.11(ii): psi(z) = log z - 1/(2z) - int_0^inf f(t) e^(-zt) dt (Re z > 0,
    DLMF 5.9.13), f(t) = 1/(e^t - 1) - 1/t + 1/2 = sum_k 2t/(t^2 + a_k^2) with
    a_k = 2 pi k.  Past J - 1 terms in t^2/a_k^2, f leaves +-t^(2J-1) sum_k
    2 a_k^-2J/(1 + t^2/a_k^2), and sum_k 2 a_k^-2J = |B_2J|/(2J)! <= 4 (2 pi)^-2J;
    on the ray t = r e^(-i ph z), |1 + t^2/a_k^2| >= m = 1 if |Im z| <= Re z,
    else sin(2 |ph z|) = 2 Re z |Im z|/|z|^2.  So |R| <= |B_2J|/(2J m |z|^2J)
    and |R'| <= |B_2J|/(m |z|^(2J+1)).  N is the least with |z| >= p/6 and J
    the least for which that bound on |B_2J| puts both below 2^-(p+2), which
    J near pi |z|/2 does (about 2^(-7.7 |z|)/m).  Rounding, in units of 2^-s:
    1/(w+j) = (X - iY) q 2^-2s with q = floor(2^4s/(X^2 + Y^2)), one
    division, is within 1 and its square within 7; log z, 1/z, u, their
    halves and the Horner sums within 2 (|u| <= 36/p^2 damps earlier
    roundings).  y itself is rounded to s bits, which moves psi by at most
    psi'(1/4)/2 < 9 units, psi' by |psi''(1/4)|/2 < 65 and (w+n)^-i by 8i^3
    per unit weight.  So psi and psi' are within 7N + 71 < 2^(G-1) units,
    S_1, S_2, formed exactly from g_n good to about 2s bits, within 10 and
    72 units per unit weight, less than 2^G/7 as 2^G > 512; rounding to p
    bits adds half a unit of 2^-p.
    """
    R = p / 6
    s = p + (14 * ceil(R) + 160).bit_length()
    h, h2 = 1 << (s - 1), 1 << (2 * s - 1)

    def mul(a, b):  # a b 2^-s, rounded, for integer pairs standing for complex numbers
        return (a[0] * b[0] - a[1] * b[1] + h) >> s, (a[0] * b[1] + a[1] * b[0] + h) >> s

    gs = []
    with mp.workprec(2 * s):
        ratio, g = x**-4, 1 / x
        while g * term_bound(2 * len(gs) + mpf(1) / 2) / (1 - ratio) >= mpf(2) ** -p:
            if len(gs) == _MAX_SERIES_TERMS:
                raise ValueError(f"the band is too narrow: its series needs over {len(gs)} terms")
            gs.append(_fixed(g, 2 * s))
            g *= ratio
    for y in ys:
        Y, yf = _fixed(y, s), abs(float(y))
        N = ceil(sqrt(max(R * R - yf * yf, 0)) - 0.25)
        terms = []  # 1/(w+j) and 1/(w+j)^2, j = 0..max(N, M - 1)
        for j in range(max(N + 1, len(gs))):
            X = (4 * j + 1) << (s - 2)
            q = (1 << 4 * s) // (X * X + Y * Y)
            r = ((X * q + h2) >> 2 * s, (h2 - Y * q) >> 2 * s)
            terms.append((*r, *mul(r, r)))
        cols = list(zip(*terms))
        sh = [sum(col[:N]) for col in cols]  # summed over j < N, and weighted at 2^-3s:
        wt = [sum(map(operator.mul, gs, col)) for col in cols]
        rz, u = terms[N][:2], terms[N][2:]  # 1/z and u
        lz = log2((N + 0.25) ** 2 + yf * yf) / 2  # log2 |z|, and log2 m:
        lm = 0 if yf <= N + 0.25 else log2((2 * N + 0.5) * yf) - 2 * lz
        J = next(k for k in count(1) if lgamma(2 * k + 1) / log(2) - 2 * k * (lz + log2(2 * pi))
                 - lm - min(log2(2 * k), lz) <= -p - 4)
        a = c = (0, 0)
        for j in range(J - 1, 0, -1):
            sa, sc = _stirling(s, j)
            a, c = mul((a[0] + sa, a[1]), u), mul((c[0] + sc, c[1]), u)
        c = mul(rz, c)
        with mp.workprec(s + 8):
            lg = mp.log(mp.mpc(N + 0.25, y))
        psi = [_fixed(v, s) - _div(b, 2) - e - f for v, b, e, f in zip((lg.real, lg.imag), rz, a, sh)]
        dpsi = [b + _div(v, 2) + e + f for b, v, e, f in zip(rz, u, c, sh[2:])]
        yield [tuple(_fixed(v, -e) for v in pair)
               for pair, e in ((psi, s - p), (dpsi, s - p), (wt[:2], 3 * s - p), (wt[2:], 3 * s - p))]


def w_arch(f: LogBandFunction, precision_bits: int):
    """W_R(f) = (log 4pi + gamma) f(1) + the archimedean principal-value
    integral, for a LogBandFunction f (any other input raises TypeError), in
    closed form with no quadrature:

        W_R(f) = c0 sum_{k>=0} e_k [log pi - Re psi(w) - (-1)^k sum_n lambda^(-a_n) Re 1/(w+n)],

    with w = 1/4 + i alpha k/2, e_k = f._even_coefficients(), a_n = 2n + 1/2
    (Re 1/(w+n) = 2 a_n/(a_n^2 + alpha^2 k^2)) and lambda = e^L.  For
    one basis function, f(e^t) + f(e^-t) = 2 c0 cos(beta t) on |t| <= L with
    beta = alpha k, and W_R is (log 4pi + gamma) f(1) + int_0^inf [f(e^t) +
    f(e^-t) - 2 f(1) e^(-t/2)] e^(t/2)/(2 sinh t) dt.  Over [0, inf) that is
    the digamma value log pi - Re psi(1/4 + i beta/2); the part beyond L is
    subtracted with e^(t/2)/sinh t = 2 sum_n e^(-a_n t) and e^(i beta L) =
    (-1)^k, which gives the series, while the constant's share beyond L,
    int_L^inf dt/sinh t = 2 artanh(1/lambda), cancels exactly against the
    -f(1) log coth(L/2) = -2 f(1) artanh(1/lambda) of the truncated support.
    Tail: |Re 1/(w+n)| <= 2/a_n, so one fixed-point _psi_pass with x =
    lambda^(1/2) gives its K+1 digamma values and series within
    2^-(precision_bits + _GUARD) times 1 + sum_n g_n, and W_R(f) is within
    c0 sum_k |e_k| times twice that, plus rounding.
    """
    if not isinstance(f, LogBandFunction):
        raise TypeError(f"w_arch takes a LogBandFunction, not {type(f).__name__}")
    p = _working_bits(precision_bits, _GUARD)
    with mp.workprec(p):
        L, alpha, _ = _band_frame(f.lam2)
        e = f._even_coefficients()
        ks = [k for k in range(len(e)) if e[k]]
        log_pi, acc = mp.log(mp.pi), mpf(0)
        psis = _psi_pass([alpha * k / 2 for k in ks], p, mp.exp(L / 2), lambda a: 2 / a)
        for k, (psi, _, series, _) in zip(ks, psis):
            acc += e[k] * (log_pi - _to_mpf(psi[0] + (-series[0] if k % 2 else series[0]), -p))
        return acc / mp.sqrt(2 * L)


@dataclass
class ExplicitFormulaCheck:
    lhs: object
    rhs: object
    residual: object
    zeros_used: int


def explicit_formula_residual(f, zeros: ZeroTable, precision_bits: int) -> ExplicitFormulaCheck:
    """lhs = f^(i/2) + f^(-i/2) - sum over the ZeroTable's zeros (both signs);
    rhs = W_R(f) + sum_p W_p(f) (w_arch, w_prime); residual = lhs - rhs.
    f must be a LogBandFunction: its zero sum costs one sine per zero
    (LogBandFunction.mellin_pair_sum), and every term reads it only through
    its band and _even_coefficients, so a real f gives three mpf."""
    if not isinstance(f, LogBandFunction):
        raise TypeError(f"the explicit formula takes a LogBandFunction, not {type(f).__name__}")
    if not isinstance(zeros, ZeroTable):
        raise TypeError(f"the explicit formula takes a ZeroTable, not {type(zeros).__name__}")
    work = _working_bits(precision_bits, _GUARD)
    with mp.workprec(work):
        # f^(i/2) + f^(-i/2) = 2 Pe(even part), whose cos_k coordinate is e_k/sqrt2
        e = f._even_coefficients()
        Pe, _ = _pole_functionals(len(e) - 1, *_band_frame(f.lam2))
        pole = 2 * (Pe[0] * e[0] + mp.fdot(Pe[1:], e[1:]) / mp.sqrt(2))
        rhs = w_arch(f, precision_bits) + w_prime(f, precision_bits)
        lhs = pole - f.mellin_pair_sum(zeros.ordinates, work)
        return ExplicitFormulaCheck(+lhs, +rhs, +(lhs - rhs), len(zeros))


# -- Gram matrix of the truncated Weil form ------------------------------------


def _pole_functionals(K, L, alpha, c0):
    """The pole functionals on the parity blocks: Pe over [const, cos_1..cos_K]
    is f -> (f^(i/2) + f^(-i/2))/2 and Po over [sin_1..sin_K] is
    f -> (f^(i/2) - f^(-i/2))/2.

    psi_k^(i/2) = 2 c0 sin((alpha k - i/2) L)/(alpha k - i/2) = -2i c0 (-1)^k
    sinh(L/2)/(alpha k - i/2) and psi_k^(-i/2) = psi_-k^(i/2), so with
    cos_k = (psi_k + psi_-k)/sqrt2 and sin_k = (psi_k - psi_-k)/(i sqrt2)

        Pe_0 = 4 c0 sinh(L/2),
        Pe_k = sqrt2 c0 (-1)^k sinh(L/2)/(alpha^2 k^2 + 1/4),
        Po_k = -2 sqrt2 c0 (-1)^k sinh(L/2) alpha k/(alpha^2 k^2 + 1/4).
    """
    sh = mp.sinh(L / 2)
    e = mp.sqrt(2) * c0 * sh
    Pe, Po = [4 * c0 * sh], []
    for k in range(1, K + 1):
        ek = (-e if k % 2 else e) / ((alpha * k) ** 2 + mpf(1) / 4)
        Pe.append(ek)
        Po.append(-2 * alpha * k * ek)
    return Pe, Po


def _arch_integrals(K, L, alpha, c2, precision_bits):
    """I(m) = int_0^2L sin(alpha m t) e^(t/2)/sinh t dt  (odd in m) and
    J(k) = int_0^2L [c2 (2L-t) cos(alpha k t) - e^(-t/2)] e^(t/2)/sinh t dt
    for m = 0..K and k = 0..K, in closed form (c2 = 1/(2L), alpha = pi/L),
    as two lists of integers at p = precision_bits + _GUARD fractional bits.

    Expand e^(t/2)/sinh t = 2 sum_{n>=0} e^(-a_n t) with a_n = 2n + 1/2.  On
    T = 2L, e^(i beta T) = 1 for beta = alpha k, so with w = 1/4 + i beta/2
    (a_n + i beta = 2 (w + n)) and lambda = e^L, term by term,

        I = Im psi(w) + sum_n lambda^-(4n+1) Im 1/(w+n),
        J = psi(1/2) - Re psi(w) - (c2/2) Re [psi'(w) - sum_n lambda^-(4n+1) (w+n)^-2]
            + 2 artanh(lambda^-2).

    Tail: |Im 1/(w+n)| <= 1/a_n and (c2/2) |(w+n)^-2| <= 2 c2/a_n^2, so one
    _psi_pass with x = lambda stops both series within 2^-p and gives them,
    psi(w) and psi'(w) within its own bounds; c2/2 and the constant are
    taken at 2p bits, and the product with c2/2 is rounded once.
    """
    p = precision_bits + _GUARD
    lam = mp.exp(L)
    const = _fixed(-mp.euler - 2 * mp.log(2) + 2 * mp.atanh(lam**-2), p)  # psi(1/2) + 2 artanh(lambda^-2)
    half_c2 = _fixed(c2 / 2, 2 * p)
    I, J = [], []
    for psi, dpsi, s1, s2 in _psi_pass([alpha * k / 2 for k in range(K + 1)], p, lam,
                                       lambda a: max(1, 2 * c2 / a) / a):
        I.append(psi[1] + s1[1])
        J.append(const - psi[0] - _fixed(half_c2 * (dpsi[0] - s2[0]), -2 * p))
    return I, J


def _check_gram_args(lam2, half_width, precision_bits):
    """(K, precision_bits), each read once by operator.index and returned as
    an int for the caller to pass on.  Both must pass it (3.0 is refused),
    else TypeError; K nonnegative, precision_bits at least 8 and lam2, read
    exactly, finite and above 1, else ValueError, as each fails deep in it."""
    bits, K = _working_bits(precision_bits), operator.index(half_width)
    if K < 0:
        raise ValueError(f"half_width must be a nonnegative integer, got {half_width!r}")
    if not _exact(lam2) > 1:
        raise ValueError(f"lam2 must be a finite number above 1, got {lam2}")
    return K, bits


def _parity_blocks(lam2, K, precision_bits):
    """The even block over [const, cos_1..cos_K] and the odd block over
    [sin_1..sin_K] of QW's Gram, as lists of rows of integers at p =
    precision_bits + _GUARD fractional bits, and the pole functionals (Pe,
    Po) as integers at 2p fractional bits, for _project_out's reflector.

    Entry (j, k) of the Gram over psi_-K..psi_K is QW(psi_j, psi_k) = h^(i/2)
    + h^(-i/2) - W_R(h) - sum_p W_p(h) with h = psi_k * psi_j~.  With r =
    c2/alpha = 1/(2 pi), sigma = (-1)^(j+k) and the weights w at t = log p^m
    of _prime_powers(lam2^2), h's band [lambda^-2, lambda^2] (p^m = lam2 at
    half weight),

        D(m) = I(m) + 2 sum w sin(alpha m t)                       (odd in m),
        T(m) = log 4pi + gamma + log tanh L + J(m) + 2 c2 sum w (2L - t) cos(alpha m t),

    its archimedean and prime part is T(k) on the diagonal and r sigma
    (D(k) - D(j))/(j - k) off it, and its pole part psi_k^(i/2)
    conj(psi_j^(-i/2)) + psi_k^(-i/2) conj(psi_j^(i/2)).  In the real basis
    the pole part is 2 Pe_j Pe_k on the even block and -2 Po_j Po_k on the
    odd one, and with a = (D(k) - D(j))/(j - k), b = (D(k) + D(j))/(j + k),
    a - b = 2 (k D(k) - j D(j))/(j^2 - k^2) and a + b = 2 (j D(k) - k
    D(j))/(j^2 - k^2) for j != k >= 1:

        even[0][0] = 2 Pe_0^2 - T(0),
        even[0][k] = 2 Pe_0 Pe_k + sqrt2 r (-1)^k D(k)/k,
        even[j][k] = 2 Pe_j Pe_k - r sigma (a - b),
        odd[j][k]  = -2 Po_j Po_k - r sigma (a + b),
        even[k][k] = 2 Pe_k^2 - T(k) + r D(k)/k,
        odd[k][k]  = -2 Po_k^2 - T(k) - r D(k)/k.

    Every term is real and the cos-sin cross block is 0 term by term, as QW
    commutes with x -> 1/x, which maps psi_k to psi_-k.  Each entry is formed
    once and mirrored, so both blocks are exactly symmetric.

    Fixed point, at p = precision_bits + _GUARD bits: the O(K) scalars are
    mpfs at 2p bits rounded once, I and J come from _arch_integrals, and the
    prime sums run at q = p + g bits, 2^g >= 2^8 (K + 1)(#prime powers + 1),
    each step (c, s) -> (c c_1 - s s_1, s c_1 + c s_1) rounded, so the error
    grows linearly in the order.  An entry is integer products, each rounded
    once, and at most one rounded division; _gram_entry_error counts units.
    """
    p = precision_bits + _GUARD
    with mp.workprec(2 * p):
        L, alpha, c0 = _band_frame(lam2)
        c2 = c0 * c0
        mpf_poles = _pole_functionals(K, L, alpha, c0)
        (Pe, Po), poles = ([[_fixed(x, s) for x in v] for v in mpf_poles] for s in (p, 2 * p))
        I, J = _arch_integrals(K, L, alpha, c2, precision_bits)
        pp = _prime_powers(_exact(lam2) ** 2)  # h = psi_k * psi_j~ lives on [lambda^-2, lambda^2]
        q = p + ((K + 1) * (len(pp) + 1)).bit_length() + 8
        rotations = [(*(_fixed(x, q) for x in mp.cos_sin(alpha * t)), _fixed(2 * w, q),
                      _fixed(w * (2 * L - t) / L, q)) for _, t, w in pp]
        arch_const = _fixed(mp.log(4 * mp.pi) + mp.euler + mp.log(mp.tanh(L)), p)
        r, rt2 = _fixed(1 / (2 * mp.pi), 2 * p), _fixed(mp.sqrt(2), 2 * p)
    Ds, Ts, hq = [0] * (K + 1), [0] * (K + 1), 1 << (q - 1)
    for c1, s1, w2, v in rotations:
        c, s = 1 << q, 0
        for m in range(K + 1):
            Ds[m] += w2 * s
            Ts[m] += v * c
            c, s = (c * c1 - s * s1 + hq) >> q, (s * c1 + c * s1 + hq) >> q
    T = [arch_const + j + _fixed(x, p - 2 * q) for j, x in zip(J, Ts)]
    D = [_fixed(r * (i + _fixed(x, p - 2 * q)), -2 * p) for i, x in zip(I, Ds)]  # r D(m)
    half = 1 << (p - 1)
    even, odd = [[0] * (K + 1) for _ in range(K + 1)], [[0] * K for _ in range(K)]
    even[0][0] = (2 * Pe[0] * Pe[0] + half >> p) - T[0]
    for k in range(1, K + 1):
        dk, rdk = _div(D[k], k), _div(rt2 * D[k], k << 2 * p)
        even[0][k] = even[k][0] = (2 * Pe[0] * Pe[k] + half >> p) + (-rdk if k % 2 else rdk)
        even[k][k] = (2 * Pe[k] * Pe[k] + half >> p) - T[k] + dk
        odd[k - 1][k - 1] = -(2 * Po[k - 1] * Po[k - 1] + half >> p) - T[k] - dk
        for j in range(1, k):  # sigma r (a - b) and sigma r (a + b), D being r D
            n, sigma = k * k - j * j, (-1) ** (j + k)
            a_b = _div(2 * sigma * (j * D[j] - k * D[k]), n)
            ab = _div(2 * sigma * (k * D[j] - j * D[k]), n)
            even[j][k] = even[k][j] = (2 * Pe[j] * Pe[k] + half >> p) - a_b
            odd[j - 1][k - 1] = odd[k - 1][j - 1] = -(2 * Po[j - 1] * Po[k - 1] + half >> p) - ab
    return (even, odd), poles


def weil_gram_complex(lam2, half_width: int, precision_bits: int):
    """Gram of QW over psi_-K..psi_K (list of rows), read off the parity
    blocks E (even) and O (odd) of weil_gram.

    Since psi_+-k = (cos_k +- i sin_k)/sqrt2 for k >= 1,

        G(j, k) = w_j w_k E[|j|][|k|] + [j, k != 0] sgn(j) sgn(k) O[|j|-1][|k|-1]/2,

    with w_0 = 1 and w_k = 1/sqrt2 otherwise: every entry is real, and G is
    symmetric with G(j, k) = G(-j, -k).

    Only tests read it; it stays while the benchmark's span map names it, as
    deleting it is a benchmark change.
    """
    K, bits = _check_gram_args(lam2, half_width, precision_bits)
    even, odd = weil_gram(lam2, K, bits)
    with mp.workprec(bits + _GUARD):
        rt2 = mp.sqrt(2)

        def entry(j, k):
            e = even[abs(j), abs(k)]
            if j and k:
                o = odd[abs(j) - 1, abs(k) - 1]
                return (e + o if (j > 0) == (k > 0) else e - o) / 2
            return e / rt2 if j or k else e

        return [[entry(j, k) for k in range(-K, K + 1)] for j in range(-K, K + 1)]


def _project_out(rows, c, p):
    """Compress the symmetric matrix A = rows 2^-p, integer rows, onto the
    orthocomplement of c = C 2^-2p, the integer vector C, by one Householder
    reflector, in fixed point: integer rows and their exponent e.

    A is rounded to N units of 2^e, e = k - p - 8 with 2^k > max|A_ij|, and
    C to the integer vector x = round(C 2^(p+8-kc)), 2^kc > max|C_i|, so |x|
    >= 2^(p+7).  precision._reflect gives H N H, rounded, for an exactly
    orthogonal H with H x = -a e_0 + r; the columns 1..n-1 of H are an
    orthonormal basis of the complement of H e_0, and the compression is
    H N H without row and column 0, in the same units 2^e.  So the returned
    exponent says both how A was rounded and how large it was: every |A_ij|
    < 2^(e+p+8).  _projection_error bounds the rounding from e and n alone,
    on the premise |c| >= 2^(12-p), checked here on C before the reflection
    (ArithmeticError when it fails).
    """
    if not rows:
        return [], -p
    if sum(x * x for x in c) < 1 << 2 * p + 24:
        raise ArithmeticError(f"the pole functional's norm is below 2^{12 - p}, the bound's premise")
    k, kc = _top_exponent(rows) - p, _top_exponent([c])
    out, _ = _reflect([[_fixed(x, 8 - k) for x in r] for r in rows],
                      [_fixed(x, p + 8 - kc) for x in c])
    return [r[1:] for r in out[1:]], k - p - 8


def _gram_entry_error(lam2, precision_bits):
    """Bound on |stored - exact| for every entry of either parity block: the
    integer count

        ceil(4 P_max + 19/2 + 3 c2/4 + c2 G/4 + G/12)

    of units of 2^-p, p = precision_bits + _GUARD, with c2 = 1/(2L), G =
    1/(lambda - lambda^-3) >= sum_n lambda^-(4n+1) and P_max = sqrt(32 c2)
    sinh(L/2), a closed form of L alone.  |Pe_0| = 4 c0 sinh(L/2), and
    |Pe_k| <= 4 sqrt2 c0 sinh(L/2) and |Po_k| <= 2 sqrt2 c0 sinh(L/2) as
    alpha^2 k^2 + 1/4 >= max(1/4, alpha k), so every pole functional has
    |P| <= P_max.

    In units of 2^-p: each scalar rounded from a 2p-bit mpf is within 1 (half
    for the rounding, less than half for the mpf while the rounded scalars'
    own magnitudes, at most P_max for a pole functional, c2/2 and 4 + |log
    tanh L| for the constants of T and J, are below 2^(p-20), as are K alpha
    and (K + 1)^2 (#prime powers + 1)).  _psi_pass gives psi and psi' within
    1 and S_1, S_2 within (1 + G)/2, and each series tail is below 1.  So:
      - I = Im psi + Im S_1 is within 5/2 + G/2;
      - a prime sum within 1/2 + 1/64: (c_m, s_m) is within 3m/2 + 1 units
        of 2^-q (1/sqrt2 from (c_1, s_1) and 1/sqrt2 of rounding per step,
        1 for alpha t's own error), and its weights (2w, w (2L - t)/L <= 2w
        <= 4/e) over m <= K and every prime power keep that below 2^(q-p-6);
      - r D within 1 + (7/2 + G/2)/(2 pi) <= 2 + G/12;
      - T within 6 + 3 c2/4 + c2 G/4: the constants 1 + 1, Re psi 1, the
        product (c2/2)(psi' - S_2) within (c2/2)(3/2 + G/2) + 1, the tail 1
        and the prime sum 1;
      - a pole product round(2 P_j P_k) within 4 P_max + 1.
    An off-diagonal entry adds one division, within 1/2, of numerators whose
    errors |j^2 - k^2| >= j + k damps to 2 (2 + G/12); even[0][k] adds sqrt2
    (2 + G/12) + 1; a diagonal one comes to the count's sum.  The diagonal is
    the largest: where c2 < 1/3, lambda > e^(3/2) and G < 1/4.  The sum is
    formed at p bits, far inside the slack of its terms, and rounded up.
    """
    p = precision_bits + _GUARD
    with mp.workprec(p):
        L = _band_frame(lam2)[0]
        c2, lam = 1 / (2 * L), mp.exp(L)
        G, P_max = 1 / (lam - lam**-3), mp.sqrt(32 * c2) * mp.sinh(L / 2)
        units = 4 * P_max + mpf(19) / 2 + 3 * c2 / 4 + c2 * G / 4 + G / 12
        return _to_mpf(int(mp.ceil(units)), -p)


def _projection_error(blocks):
    """Bound on how far the eigenvalues of each projected block N 2^e =
    _project_out(A, c, p), as weil_gram returns it, lie from those of the
    exact compression of the stored block A onto the complement of the exact
    pole functional c*: the integer count ceil(n (36 ceil(sqrt n) + 69)/16)
    of units 2^e, with n the dimension of A, one more than the projected
    block's; 2-norms throughout.  Returned is the larger of the two blocks'
    bounds, an exact mpf: the merged, sorted spectrum moves by no more than
    its blocks' do.  An empty projected block has no eigenvalue to move.

    The angle theta between H e_0 and c*, in units of eta = 2^-(p+8), adds
    three angles, each at most 1.05 times its sine as every sine is below
    1/2:
      - c* to c: c is rounded to 2p fractional bits (_parity_blocks) from an
        mpf within 2^7 (1 + L) 2^-2p of c*, relatively (fewer than 2^4
        roundings at 2p bits, each within 4 2^-2p, and L's error with factor
        at most 1 + L/2), so |c - c*| <= sqrt(n) 2^(-2p-1) + 2^7 (1 + L)
        2^-2p |c*|; with the premise |c| >= 2^(12-p) (_project_out checks
        it) and 1 + L < 2^(p-21), the sine is below (sqrt(n) + 1)/32;
      - c to x: each entry of x is within 1/2 of C's multiple and |x| >=
        2^(p+7), so the sine is below sqrt(n);
      - x to H e_0: a H e_0 = H r - x with ||r|| <= 1/sqrt2
        (precision._reflect), so the sine is below sqrt2.
    So theta <= (9 sqrt(n) + 13)/8.  A rotation U in the plane of H e_0 and
    c*, ||U - I|| = 2 sin(theta/2) <= theta, maps one complement onto the
    other, so the compression by H's columns 1..n-1 and the exact one have
    eigenvalues within ||U^T A U - A|| <= 2 theta ||A||, and ||A|| <=
    ||A||_F < n 2^(e+p+8) as every |A_ij| < 2^(e+p+8): (9 sqrt(n) + 13)/4 n
    units.  The compression is exact up to its two roundings: A to N, within
    n/2 units, and H N H, entries within 9/16 units, 9n/16 in 2-norm.  The
    sum is n (36 sqrt(n) + 69)/16 units.
    """
    bounds = [_to_mpf(-(-n * (36 * (isqrt(n - 1) + 1) + 69) // 16), b.exponent)
              for b in blocks if (n := b.dim + 1) > 1]
    return max(bounds, default=_to_mpf(0, 0))


def weil_gram(
    lam2, half_width: int, precision_bits: int, project_poles: bool = False
) -> tuple[HPMatrix, HPMatrix]:
    """Gram matrix of the truncated Weil form as its (even, odd) parity
    blocks in the real log-Fourier basis: even over [const, cos_1..cos_K],
    odd over [sin_1..sin_K].  With project_poles=True each block is first
    compressed onto the kernel of its pole functional, which together cut out
    the codimension-2 subspace f^(+-i/2) = 0."""
    K, bits = _check_gram_args(lam2, half_width, precision_bits)
    p = bits + _GUARD
    blocks, poles = _parity_blocks(lam2, K, bits)
    if project_poles:
        return tuple(HPMatrix(*_project_out(b, c, p), bits) for b, c in zip(blocks, poles))
    return tuple(HPMatrix(b, -p, bits) for b in blocks)


@dataclass
class GramSpectrum:
    eigenvalues: list
    residuals: list
    smallest_positive: object


def weil_gram_spectrum(
    lam2, half_width: int, precision_bits: int, project_poles: bool = False
) -> GramSpectrum:
    """Assemble the Gram's parity blocks and solve each with
    precision.jacobi_eigensystem, which certifies every eigenvalue without
    eigenvectors; the spectrum is their union, ascending.

    Every eigenvalue carries one residual: the larger of the two blocks'
    eigensolver residuals (each an exact mpf that bounds its block's
    eigenvalues in sorted order, and the larger one bounds the merged, sorted
    spectrum the same way) plus the Gram's own error.  Each stored entry is
    within e = _gram_entry_error of its exact value, a closed form of L; by
    Weyl's inequality the sorted eigenvalues then move by at most ||E||_2 <=
    n e, with n = K + 1 the larger block's dimension.  Projection compresses
    E to a principal submatrix of H E H (_project_out's reflector H, exactly
    orthogonal), whose 2-norm is no larger, and adds its own rounding,
    _projection_error, read from each projected block's dimension and
    exponent.  Each term is an integer times a power of two, and their sum
    is formed exactly; at the benchmark's settings the second is 24 to 25
    bits below the first, the third 30.5 to 30.8.

    The spectrum is the truncation's, not the band's.  Unprojected, the
    blocks at K are the leading principal submatrices of those at K + 1, bit
    for bit, so the spectra interlace (Cauchy) within the two residuals:
    lambda_i(K + 1) <= lambda_i(K) <= lambda_(i+1)(K + 1).  Projected or not,
    the form at K is the one at K + 1 on a subspace, so lambda_min does not
    increase with K, and each value bounds every larger truncation's
    lambda_min from above.
    """
    K, bits = _check_gram_args(lam2, half_width, precision_bits)
    blocks = weil_gram(lam2, K, bits, project_poles)
    eigenvalues, residual = [], mpf(0)
    for block in blocks:
        res = jacobi_eigensystem(block)
        eigenvalues.extend(res.eigenvalues)
        residual = max(residual, res.residual)
    entries = mp.fmul(K + 1, _gram_entry_error(lam2, bits), exact=True)
    residual = mp.fadd(residual, entries, exact=True)
    if project_poles:
        residual = mp.fadd(residual, _projection_error(blocks), exact=True)
    eigenvalues.sort()
    smallest_pos = next((lam for lam in eigenvalues if lam > residual), None)
    return GramSpectrum(eigenvalues, [residual] * len(eigenvalues), smallest_pos)
