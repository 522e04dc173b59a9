"""Explicit-formula functionals and the truncated Weil quadratic form.

The explicit formula pairs the zero side

    f^(i/2) + f^(-i/2) - sum_{zeros} f^(s)

with the prime/archimedean side W_R(f) + sum_p W_p(f).  For a band function
f (bandfn.LogBandFunction, supported in [lambda^-1, lambda]) every term is a
closed form: the zero sum costs one sine per zero
(LogBandFunction.mellin_pair_sum), W_R(f) is one integer pass for K+1 digamma
values and a geometric series (_psi_pass), and the prime side is a finite
sum over prime powers below lambda, so the explicit formula runs no
quadrature.  w_arch and the explicit formula take a LogBandFunction only;
nothing in this module integrates numerically.  The same finiteness makes
the quadratic form

    QW(f, g) = sum_{zeros} conj(f^) g^

computable without any zero table: QW(f, g) = h^(i/2) + h^(-i/2) - W_R(h)
- sum_p W_p(h) with h = f * g~, whose prime sum runs over prime powers below
lambda^2.

weil_gram assembles the Gram matrix of QW over the orthonormal log-Fourier
basis.  In that basis everything collapses: pole and prime terms are closed
forms, and the archimedean part of every entry is a combination of the 2K+1
one-dimensional integrals I(m), J(k) below, digamma values and geometric
series from the same pass, so the assembly runs no quadrature.

QW commutes with the reflection x -> 1/x, which maps psi_k to psi_-k, and
psi_-k^(i/2) = conj psi_k^(i/2), so over the real basis every entry is real
and the Gram is block diagonal: an even block over [const, cos_1..cos_K] and
an odd block over [sin_1..sin_K].  _parity_blocks forms the two blocks
directly, in real arithmetic (weil_gram_complex, the Gram over psi_-K..psi_K,
is a view of them).  The pole functionals split the same way,
(f^(i/2) + f^(-i/2))/2 acting on the even block and (f^(i/2) - f^(-i/2))/2
on the odd one, so the Weil-positivity subspace f^(+-i/2) = 0 is one
constraint per block, projected out by one Householder reflector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count
from math import ceil, lgamma, log, log2, pi, sqrt

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, to_rational

from zetalab.bandfn import LogBandFunction, band_frame
from zetalab.precision import HPMatrix, _fixed, _reflect, jacobi_eigensystem
from zetalab.zerotable import ZeroTable

# Working bits above precision_bits for every weil (and semilocal) evaluation.
# They buy the Weil Gram its certificate: its entries are formed from terms up
# to about lambda in size, and with 48 bits the entry-error bound
# (_gram_entry_error, about 2^-(bits+33) at the benchmark's settings) times the
# block dimension, and the reflector's rounding (_projection_error, about
# 2^-(bits+27)) when the poles are projected, stay 11.2 to 13.8 bits below
# the eigensolver's residual, which is between 2^-(bits+14.3) and
# 2^-(bits+16.2) there, so the certified bits are the solver's.
_GUARD = 48


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if is_prime(p)]


def w_prime(p: int, f, precision_bits: int = 256):
    """(log p) sum_m p^(-m/2) (f(p^m) + f(p^-m)); exact finite truncation.

    Terms with p^m outside the support band vanish identically, so no tail
    estimate is involved.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    with mp.workprec(precision_bits + _GUARD):
        logp = mp.log(p)
        S = f.log_halfwidth()
        acc = mpf(0)
        m = 1
        while m * logp <= S:
            t = m * logp
            acc += mp.power(p, -mpf(m) / 2) * (f.evaluate_log(t) + f.evaluate_log(-t))
            m += 1
        return +(logp * acc)


_bernfrac = cache(mp.bernfrac)  # exact B_n, the same at every precision


def _psi_pass(ys, p, x=None, term_bound=None):
    """For each y in ys, w = 1/4 + iy: psi(w), psi'(w) and the series
    S_i = sum_{n<M} g_n (w+n)^-i, i = 1, 2, g_n = x^-(4n+1) (none if x is
    None), as exact mpc from one pass on integers at s = p + G fractional
    bits and one mp.log: psi and psi' within 2^-p of their values at y taken
    to s bits (exact for y = 0 or a p-bit y >= 1), S_i within 2^-p sum_n g_n.
    The g_n fall by x^-4, so the terms n >= M of any sum_n g_n t_n, |t_n| <=
    term_bound(a_n) nonincreasing (a_n = 2n + 1/2), sum to at most g_M
    term_bound(a_M)/(1 - x^-4), and M is the first index where that < 2^-p.

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
    1/(w+j) is within 1 and its square within 7; log z, 1/z, u, their halves
    and the Horner sums within 2 (|u| <= 36/p^2 damps earlier roundings).  So
    psi and psi' are within 7N + 6 < 2^(G-1) units, and S_1, S_2, formed
    exactly from g_n good to about 2s bits, within 2 and 8 units per unit
    weight.
    """
    R = p / 6
    s = p + (14 * ceil(R) + 12).bit_length()
    h = 1 << (s - 1)

    def div(a, b):  # round(a/b) for b > 0
        return (2 * a + b) // (2 * b)

    def mul(a, b):  # a b 2^-s, rounded, for integer pairs standing for complex numbers
        return (a[0] * b[0] - a[1] * b[1] + h) >> s, (a[0] * b[1] + a[1] * b[0] + h) >> s

    gs = []
    with mp.workprec(2 * s):
        ratio, g = (x**-4, 1 / x) if x else (0, 0)
        while g and g * term_bound(2 * len(gs) + mpf(1) / 2) / (1 - ratio) >= mpf(2) ** -p:
            gs.append(_fixed(g, 2 * s))
            g *= ratio
    for y in ys:
        Y, yf = _fixed(y, s), abs(float(y))
        N = ceil(sqrt(max(R * R - yf * yf, 0)) - 0.25)
        sh = wt = [0] * 4  # 1/(w+j), 1/(w+j)^2 summed over j < N, and weighted at 2^-3s
        for j in range(max(N + 1, len(gs))):
            X = (4 * j + 1) << (s - 2)
            r = (div(X << 2 * s, X * X + Y * Y), div(-Y << 2 * s, X * X + Y * Y))
            terms = (*r, *mul(r, r))
            if j < N:
                sh = [a + b for a, b in zip(sh, terms)]
            elif j == N:
                rz, u = r, terms[2:]  # 1/z and u
            if j < len(gs):
                wt = [a + gs[j] * b for a, b in zip(wt, terms)]
        lz = log2((N + 0.25) ** 2 + yf * yf) / 2  # log2 |z|, and log2 m:
        lm = 0 if yf <= N + 0.25 else log2((2 * N + 0.5) * yf) - 2 * lz
        J = next(k for k in count(1) if lgamma(2 * k + 1) / log(2) - 2 * k * (lz + log2(2 * pi))
                 - lm - min(log2(2 * k), lz) <= -p - 4)
        a = c = (0, 0)
        for j in range(J - 1, 0, -1):  # coefficients round(2^s B_2j/(2j)) and round(2^s B_2j)
            n, d = _bernfrac(2 * j)
            a, c = mul((a[0] + div(n << s, 2 * j * d), a[1]), u), mul((c[0] + div(n << s, d), c[1]), u)
        c = mul(rz, c)
        with mp.workprec(s + 8):
            lg = mp.log(mp.mpc(N + 0.25, y))
        psi = [_fixed(v, s) - div(b, 2) - e - f for v, b, e, f in zip((lg.real, lg.imag), rz, a, sh)]
        dpsi = [b + div(v, 2) + e + f for b, v, e, f in zip(rz, u, c, sh[2:])]
        yield [mp.make_mpc((from_man_exp(v[0], e), from_man_exp(v[1], e)))
               for v, e in ((psi, -s), (dpsi, -s), (wt[:2], -3 * s), (wt[2:], -3 * s))]


def _w_arch_band(f: LogBandFunction, precision_bits):
    """W_R(f) for a band function, in closed form:

        W_R(f) = c0 sum_{k>=0} e_k [log pi - Re psi(w) - (-1)^k sum_n lambda^(-a_n) Re 1/(w+n)],

    with w = 1/4 + i alpha k/2, e_k = f.even_coefficients(), a_n = 2n + 1/2
    (Re 1/(w+n) = 2 a_n/(a_n^2 + alpha^2 k^2)) and lambda = e^L.  For
    one basis function, f(e^t) + f(e^-t) = 2 c0 cos(beta t) on |t| <= L with
    beta = alpha k, and W_R is (log 4pi + gamma) f(1) + int_0^inf [f(e^t) +
    f(e^-t) - 2 f(1) e^(-t/2)] e^(t/2)/(2 sinh t) dt.  Over [0, inf) that is
    the digamma value log pi - Re psi(1/4 + i beta/2); the part beyond L is
    subtracted with e^(t/2)/sinh t = 2 sum_n e^(-a_n t) and e^(i beta L) =
    (-1)^k, which gives the series, while the constant's share beyond L,
    int_L^inf dt/sinh t = 2 artanh(1/lambda), cancels exactly against the
    -f(1) log coth(L/2) = -2 f(1) artanh(1/lambda) of the truncated support.
    Tail: |Re 1/(w+n)| <= 2/a_n, so one _psi_pass with x = lambda^(1/2)
    gives every psi(w) and series within 2^-(precision_bits + _GUARD), and
    W_R(f) is within c0 sum_k |e_k| times twice that, plus rounding.
    """
    L = f.log_halfwidth()
    alpha = mp.pi / L
    e = f.even_coefficients()
    ks = [k for k in range(len(e)) if e[k]]
    log_pi = mp.log(mp.pi)
    acc = mpf(0)
    psis = _psi_pass([alpha * k / 2 for k in ks], precision_bits + _GUARD, mp.exp(L / 2),
                     lambda a: 2 / a)
    for k, (psi, _, series, _) in zip(ks, psis):
        acc += e[k] * (log_pi - mp.re(psi) - (-1) ** k * mp.re(series))
    return acc / mp.sqrt(2 * L)


def w_arch(f: LogBandFunction, precision_bits: int = 256):
    """W_R(f) = (log 4pi + gamma) f(1) + the archimedean principal-value
    integral, for a LogBandFunction f, in the closed form of _w_arch_band:
    one fixed-point _psi_pass gives its K+1 digamma values and geometric
    series, with no quadrature.  Any other input raises TypeError."""
    if not isinstance(f, LogBandFunction):
        raise TypeError(f"w_arch takes a LogBandFunction, not {type(f).__name__}")
    with mp.workprec(precision_bits + _GUARD):
        return +_w_arch_band(f, precision_bits)


@dataclass
class ExplicitFormulaCheck:
    lhs: object
    rhs: object
    residual: object
    zeros_used: int


def explicit_formula_residual(
    f, zeros: ZeroTable, precision_bits: int = 256
) -> ExplicitFormulaCheck:
    """lhs = f^(i/2) + f^(-i/2) - sum over table zeros (both signs);
    rhs = W_R(f) + sum_p W_p(f); residual = lhs - rhs.  f must be a
    LogBandFunction: its zero sum costs one sine per zero
    (LogBandFunction.mellin_pair_sum) and its W_R is a closed form."""
    if not isinstance(f, LogBandFunction):
        raise TypeError(f"the explicit formula takes a LogBandFunction, not {type(f).__name__}")
    with mp.workprec(precision_bits + _GUARD):
        # f^(i/2) + f^(-i/2) = 2 Pe(even part), whose cos_k coordinate is e_k/sqrt2
        e = f.even_coefficients()
        Pe, _ = _pole_functionals(len(e) - 1, *band_frame(f.lam2))
        pole = 2 * (Pe[0] * e[0] + mp.fdot(Pe[1:], e[1:]) / mp.sqrt(2))
        rhs = w_arch(f, precision_bits)
        S = f.log_halfwidth()
        for p in primes_up_to(int(mp.exp(S)) + 1):
            if mp.log(p) <= S:
                rhs += w_prime(p, f, precision_bits)
        lhs = pole - f.mellin_pair_sum(zeros.ordinates)
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
    for m = 0..K and k = 0..K, in closed form (c2 = 1/(2L), alpha = pi/L).

    Expand e^(t/2)/sinh t = 2 sum_{n>=0} e^(-a_n t) with a_n = 2n + 1/2.  On
    T = 2L, e^(i beta T) = 1 for beta = alpha k, so with w = 1/4 + i beta/2
    (a_n + i beta = 2 (w + n)) and lambda = e^L, term by term,

        I = Im psi(w) + sum_n lambda^-(4n+1) Im 1/(w+n),
        J = psi(1/2) - Re psi(w) - (c2/2) Re [psi'(w) - sum_n lambda^-(4n+1) (w+n)^-2]
            + 2 artanh(lambda^-2).

    Tail: |Im 1/(w+n)| <= 1/a_n and (c2/2) |(w+n)^-2| <= 2 c2/a_n^2, so one
    _psi_pass with x = lambda stops both series within 2^-p, p = precision_bits
    + _GUARD, and gives them, psi(w) and psi'(w) within 2^-p more: N shift
    terms, the least with |w + N| >= p/6; J Stirling terms, the least with
    remainder bound 4 (2J)! (2 pi |z|)^-2J max(1/(2J), 1/|z|)/m below
    2^-(p+2); and 2^G > 14 ceil(p/6) + 12 guard bits.
    """
    lam = mp.exp(L)
    const = -mp.euler - 2 * mp.log(2) + 2 * mp.atanh(lam**-2)  # psi(1/2) + 2 artanh(lambda^-2)
    I, J = {}, {}
    psis = _psi_pass([alpha * k / 2 for k in range(K + 1)], precision_bits + _GUARD, lam,
                     lambda a: max(1, 2 * c2 / a) / a)
    for k, (psi, dpsi, s1, s2) in enumerate(psis):
        I[k] = mp.im(psi) + mp.im(s1)
        J[k] = const - mp.re(psi) - c2 / 2 * (mp.re(dpsi) - mp.re(s2))
    return I, J


def _prime_powers(lam2):
    """(t, weight) for prime powers p^m strictly inside the double band."""
    out = []
    limit = int(mp.floor(lam2)) + 1
    for p in primes_up_to(limit):
        logp = mp.log(p)
        m = 1
        while True:
            t = m * logp
            if not (mp.power(p, m) < lam2):
                break
            out.append((t, logp * mp.power(p, -mpf(m) / 2)))
            m += 1
    return out


def _check_gram_args(lam2, half_width):
    """The band must be nondegenerate (finite lam2 > 1) and K a nonnegative
    integer (operator.index, so 3.0 is refused); anything else would fail
    deep inside the assembly."""
    x = mp.mpmathify(lam2)
    if not (isinstance(x, mpf) and mp.isfinite(x) and x > 1):
        raise ValueError(f"lam2 must be a finite number above 1, got {lam2}")
    if not hasattr(half_width, "__index__") or operator.index(half_width) < 0:
        raise ValueError(f"half_width must be a nonnegative integer, got {half_width!r}")


def _parity_blocks(lam2, K, precision_bits):
    """The even block over [const, cos_1..cos_K] and the odd block over
    [sin_1..sin_K] of QW's Gram, as lists of rows, and the pole functionals
    (Pe, Po); run under workprec(precision_bits + _GUARD).

    Entry (j, k) of the Gram over psi_-K..psi_K is QW(psi_j, psi_k) = h^(i/2)
    + h^(-i/2) - W_R(h) - sum_p W_p(h) with h = psi_k * psi_j~.  With r =
    c2/alpha, sigma = (-1)^(j+k), the prime-power weights w at t = log p^m,

        D(m) = I(m) + 2 sum w sin(alpha m t)                       (odd in m),
        T(m) = log 4pi + gamma + log tanh L + J(m) + 2 c2 sum w (2L - t) cos(alpha m t),

    its archimedean and prime part is T(k) on the diagonal and r sigma
    (D(k) - D(j))/(j - k) off it, and its pole part psi_k^(i/2)
    conj(psi_j^(-i/2)) + psi_k^(-i/2) conj(psi_j^(i/2)).  In the real basis
    the pole part is 2 Pe_j Pe_k on the even block and -2 Po_j Po_k on the
    odd one, and with a = (D(k) - D(j))/(j - k), b = (D(k) + D(j))/(j + k)
    for j != k >= 1:

        even[0][0] = 2 Pe_0^2 - T(0),
        even[0][k] = 2 Pe_0 Pe_k + sqrt2 r (-1)^k D(k)/k,
        even[j][k] = 2 Pe_j Pe_k - r sigma (a - b),
        odd[j][k]  = -2 Po_j Po_k - r sigma (a + b),
        even[k][k] = 2 Pe_k^2 - T(k) + r D(k)/k,
        odd[k][k]  = -2 Po_k^2 - T(k) - r D(k)/k.

    Every term is real and the cos-sin cross block is 0 term by term, as QW
    commutes with x -> 1/x, which maps psi_k to psi_-k.  Each entry is formed
    once and mirrored, so both blocks are exactly symmetric.
    """
    L, alpha, c0 = band_frame(lam2)
    c2 = c0 * c0
    r = c2 / alpha
    Pe, Po = _pole_functionals(K, L, alpha, c0)
    I, J = _arch_integrals(K, L, alpha, c2, precision_bits)
    pp = _prime_powers(mp.mpmathify(lam2))
    arch_const = mp.log(4 * mp.pi) + mp.euler + mp.log(mp.tanh(L))
    cs = [[mp.cos_sin(alpha * m * t) for t, _ in pp] for m in range(K + 1)]
    tw = [w * (2 * L - t) for t, w in pp]
    D = [I[m] + 2 * mp.fsum(w * s for (_, w), (_, s) in zip(pp, row)) for m, row in enumerate(cs)]
    T = [arch_const + J[m] + 2 * c2 * mp.fsum(v * c for v, (c, _) in zip(tw, row))
         for m, row in enumerate(cs)]
    even = [[None] * (K + 1) for _ in range(K + 1)]
    odd = [[None] * K for _ in range(K)]
    even[0][0] = 2 * Pe[0] ** 2 - T[0]
    for k in range(1, K + 1):
        q = r * D[k] / k
        even[0][k] = even[k][0] = 2 * Pe[0] * Pe[k] + mp.sqrt(2) * (-q if k % 2 else q)
        even[k][k] = 2 * Pe[k] ** 2 - T[k] + q
        odd[k - 1][k - 1] = -2 * Po[k - 1] ** 2 - T[k] - q
        for j in range(1, k):
            s = -r if (j + k) % 2 else r
            a = (D[k] - D[j]) / (j - k)
            b = (D[k] + D[j]) / (j + k)
            even[j][k] = even[k][j] = 2 * Pe[j] * Pe[k] - s * (a - b)
            odd[j - 1][k - 1] = odd[k - 1][j - 1] = -2 * Po[j - 1] * Po[k - 1] - s * (a + b)
    return (even, odd), (Pe, Po)


def weil_gram_complex(lam2, half_width: int, precision_bits: int):
    """Gram of QW over psi_-K..psi_K (list of rows), read off the parity
    blocks E (even) and O (odd) of _parity_blocks.

    Since psi_+-k = (cos_k +- i sin_k)/sqrt2 for k >= 1,

        G(j, k) = w_j w_k E[|j|][|k|] + [j, k != 0] sgn(j) sgn(k) O[|j|-1][|k|-1]/2,

    with w_0 = 1 and w_k = 1/sqrt2 otherwise: every entry is real, and G is
    symmetric with G(j, k) = G(-j, -k).

    Only tests read it; it stays while the benchmark's span map names it, as
    deleting it is a benchmark change.
    """
    _check_gram_args(lam2, half_width)
    K = half_width
    with mp.workprec(precision_bits + _GUARD):
        (even, odd), _ = _parity_blocks(lam2, K, precision_bits)
        rt2 = mp.sqrt(2)

        def entry(j, k):
            e = even[abs(j)][abs(k)]
            if j and k:
                o = odd[abs(j) - 1][abs(k) - 1]
                return (e + o if (j > 0) == (k > 0) else e - o) / 2
            return e / rt2 if j or k else e

        return [[entry(j, k) for k in range(-K, K + 1)] for j in range(-K, K + 1)]


def _project_out(rows, c, p):
    """Compress the symmetric matrix A onto the orthocomplement of the
    vector c by one Householder reflector, in fixed point.

    A is rounded to N units of 2^(k-p-8), 2^k > max|A_ij|, and c to the
    integer vector x = round(c 2^(p+8-kc)), 2^kc > max|c_i|, so |x| >=
    2^(p+7).  precision._reflect gives H N H, rounded, for an exactly
    orthogonal H with H x = -a e_0 + r; the columns 1..n-1 of H are an
    orthonormal basis of the complement of H e_0, and the compression is
    H N H without row and column 0, returned as exact mpfs.
    _projection_error bounds the rounding.
    """
    if not rows:
        return []
    k = max((x.exp + x.bc for r in rows for x in r if x), default=0)
    kc = max(x.exp + x.bc for x in c if x)
    out, _ = _reflect([[_fixed(x, p + 8 - k) for x in r] for r in rows],
                      [_fixed(x, p + 8 - kc) for x in c])
    return [[mpf((x, k - p - 8), prec=0) for x in r[1:]] for r in out[1:]]


def _gram_scale(lam2, K, precision_bits):
    """S, with every entry of either parity block formed at p = precision_bits
    + _GUARD bits from terms whose absolute values add up to at most 2S.  S is
    the sum of these bounds:
      - pole: 32 c2 sinh(L/2)^2.  |Pe_0| = 4 c0 sinh(L/2), and |Pe_k| <=
        4 sqrt2 c0 sinh(L/2) and |Po_k| <= 2 sqrt2 c0 sinh(L/2) since
        alpha^2 k^2 + 1/4 >= max(1/4, alpha k); so 2 |P_j P_k| <= 2 (32 c2
        sinh(L/2)^2);
      - prime: 2W, with W the sum of the prime-power weights; T's prime sum
        is at most 2 c2 (2L) W = 2W, and so is D's;
      - arch: log 4pi + gamma, psi(1/2) and Im psi(w) are each below 4 in
        absolute value (|Im psi(1/4 + iy)| <= 2 + pi/2); log tanh L enters
        twice, in T and as J's 2 artanh(lambda^-2); |Re psi(w)| is at most
        max(-psi(1/4), |Re psi(w_K)|), as Re psi(1/4 + iy) increases with y;
        (c2/2)|psi'(w)| <= (c2/2) psi'(1/4) < 9 c2; and the two series of
        _arch_integrals sum to less than (2 + 32 c2)/(lambda - lambda^-3).
    T enters an entry with weight at most 1, and D with weight below 1/2:
    r = c2/alpha = 1/(2 pi), and r (|a| + |b|) <= (1 + 1/3) r (|D(j)| +
    |D(k)|) for j != k >= 1, sqrt2 r |D(k)|/k and r |D(k)|/k are smaller.  So
    the terms of T and D add up to at most S - 32 c2 sinh(L/2)^2 + W, and
    with the pole terms an entry's add up to at most 2S.
    """
    with mp.workprec(precision_bits + _GUARD):
        L = band_frame(lam2)[0]
        lam, c2 = mp.exp(L), 1 / (2 * L)
        weights = mp.fsum(w for _, w in _prime_powers(mp.mpmathify(lam2)))
        psi_top = abs(mp.re(next(_psi_pass([mp.pi * K / (2 * L)], precision_bits + _GUARD))[0]))
        psi_quarter = -mp.euler - mp.pi / 2 - 3 * mp.log(2)
        return (32 * c2 * mp.sinh(L / 2) ** 2 + 2 * weights + 12 - 2 * mp.log(mp.tanh(L))
                + max(-psi_quarter, psi_top) + 9 * c2 + (2 + 32 * c2) / (lam - lam**-3))


def _gram_entry_error(S, precision_bits):
    """Bound on |stored - exact| for every entry of either parity block,
    given S = _gram_scale(lam2, K, precision_bits).

    Rounding: every product, quotient, sum and elementary-function value is
    within 4 units of 2^-p of itself, p = precision_bits + _GUARD, and every
    _psi_pass value within 4 units of 2^-p of what _gram_scale charges for
    it (psi, psi' within 2^-p, charged at least 4 and 9 c2 for (c2/2) psi';
    the series within 2^-p sum_n lambda^-(4n+1), charged at least twice
    that); no chain from an input to an entry has more than 2^7 such steps,
    and the absolute values along any sum add up to at most 2S, so the
    rounding of an entry is below 2^10 2^-p S.  The series tails of I and J
    add less than 2^-p each (weight at most 1), so each block entry is within
    2^-p (2 + 2^10 S) of exact.
    """
    with mp.workprec(precision_bits + _GUARD):
        return mpf(2) ** -(precision_bits + _GUARD) * (2 + 2**10 * S)


def _projection_error(lam2, K, precision_bits, S):
    """Bound on how far the eigenvalues of _project_out(A, c, p), p =
    precision_bits + _GUARD (eps = 2^-p), lie from those of the exact
    compression of the stored block A onto the complement of the exact pole
    functional; 2-norms, with n = K + 1 at least the block's dimension.

    The stored c: each entry of _pole_functionals is a chain of fewer than
    2^4 roundings, each within 4 eps; L's error reaches alpha = pi/L with
    factor 1 and sinh(L/2) with factor (L/2) coth(L/2) <= 1 + L/2, so every
    entry is within 2^7 (1 + L) eps of exact, relatively, and so is the angle
    theta between c and its exact value (up to 1%).  A rotation U in their
    plane, ||U - I|| = 2 sin(theta/2) <= theta, maps one complement onto the
    other, so the two compressions have eigenvalues within
    ||U^T A U - A|| <= 2 theta ||A||.

    The reflector, for the stored c (precision._reflect's lemma): rounding c
    to x, each entry within 2^-(p+8) of max|c_i| <= |c|, turns it by an angle
    below sqrt(n) 2^-8 eps, and H e_0 = (H r - x)/a with |a| >= 2^(p+7) and
    ||r|| <= 1/sqrt2 lies within an angle 2^-(p+7) = eps/128 of x; both
    add to theta.  The compression by H's orthonormal columns 1..n-1 is
    then exact up to its two roundings: A to N, within n/2 units of
    2^(k-p-8), and H N H, entries within 9/16 units, 9n/16 in 2-norm.  With
    2^(k-1) <= max|A_ij| <= 2S a unit is at most S eps/64, so the two come
    to at most (17/16) n S eps/64 < n S eps/32.

    Together, with ||A|| <= ||A||_F <= 2 n S (every entry of A is at most 2S,
    S = _gram_scale(lam2, K, precision_bits)), the bound is 4 n S theta +
    n S eps/32 <= n S eps (518 (1 + L) + sqrt(n)/64 + 1/16), below
    2^10 (2 + L) n S eps for every n below 2^33.
    """
    with mp.workprec(precision_bits + _GUARD):
        L = band_frame(lam2)[0]
        return mpf(2) ** -(precision_bits + _GUARD) * 2**10 * (2 + L) * (K + 1) * S


def weil_gram(
    lam2, half_width: int, precision_bits: int, project_poles: bool = False
) -> tuple[HPMatrix, HPMatrix]:
    """Gram matrix of the truncated Weil form as its (even, odd) parity
    blocks in the real log-Fourier basis: even over [const, cos_1..cos_K],
    odd over [sin_1..sin_K].  With project_poles=True each block is first
    compressed onto the kernel of its pole functional, which together cut out
    the codimension-2 subspace f^(+-i/2) = 0."""
    _check_gram_args(lam2, half_width)
    with mp.workprec(precision_bits + _GUARD):
        blocks, poles = _parity_blocks(lam2, half_width, precision_bits)
        if project_poles:
            blocks = [_project_out(b, c, precision_bits + _GUARD) for b, c in zip(blocks, poles)]
    return tuple(HPMatrix(b, precision_bits) for b in blocks)


def _round_up(x, bits):
    """An mpf of about `bits` bits at least the Fraction x >= 0."""
    s = bits + x.denominator.bit_length() - x.numerator.bit_length()
    return mpf((ceil(x * Fraction(2) ** s), -s), prec=0)


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
    within e = _gram_entry_error of its exact value; by Weyl's inequality
    the sorted eigenvalues then move by at most ||E||_2 <= n e, with n = K + 1
    the larger block's dimension.  Projection compresses E to a principal
    submatrix of H E H (_project_out's reflector H, exactly orthogonal),
    whose 2-norm is no larger, and adds its own rounding, _projection_error.
    Both bounds scale with the same _gram_scale, formed once here.  The
    three terms are added exactly and the sum rounded up once; at the
    benchmark's settings the last two are 11.2 to 13.8 bits below the first.
    """
    eigenvalues = []
    residual = mpf(0)
    for block in weil_gram(lam2, half_width, precision_bits, project_poles):
        res = jacobi_eigensystem(block)
        eigenvalues.extend(res.eigenvalues)
        residual = max(residual, res.residual)
    S = _gram_scale(lam2, half_width, precision_bits)
    parts = [(1, residual), (half_width + 1, _gram_entry_error(S, precision_bits))]
    if project_poles:
        parts.append((1, _projection_error(lam2, half_width, precision_bits, S)))
    residual = _round_up(sum(m * Fraction(*to_rational(x._mpf_)) for m, x in parts),
                         precision_bits + _GUARD)
    eigenvalues.sort()
    smallest_pos = next((lam for lam in eigenvalues if lam > residual), None)
    return GramSpectrum(eigenvalues, [residual] * len(eigenvalues), smallest_pos)
