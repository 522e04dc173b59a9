"""Explicit-formula functionals and the truncated Weil quadratic form.

The explicit formula pairs the zero side

    f^(i/2) + f^(-i/2) - sum_{zeros} f^(s)

with the prime/archimedean side W_R(f) + sum_p W_p(f).  For a band function
f (bandfn.LogBandFunction, supported in [lambda^-1, lambda]) every term is a
closed form: the zero sum costs one sine per zero
(LogBandFunction.mellin_pair_sum), W_R(f) is K+1 digamma values plus one
geometric series, and the prime side is a finite sum over prime powers below
lambda, so the explicit formula runs no quadrature.  w_arch and the explicit
formula take a LogBandFunction only; nothing in this module integrates
numerically.  The same finiteness makes the quadratic form

    QW(f, g) = sum_{zeros} conj(f^) g^

computable without any zero table: QW(f, g) = h^(i/2) + h^(-i/2) - W_R(h)
- sum_p W_p(h) with h = f * g~, whose prime sum runs over prime powers below
lambda^2.

weil_gram assembles the Gram matrix of QW over the orthonormal log-Fourier
basis.  In that basis everything collapses: pole and prime terms are closed
forms, and the archimedean part of every entry is a combination of the 2K+1
one-dimensional integrals I(m), J(k) below, each a digamma value plus a
geometric series, so the assembly runs no quadrature.

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

from dataclasses import dataclass
from itertools import islice

from mpmath import mp, mpf

from zetalab.bandfn import LogBandFunction, band_frame
from zetalab.precision import HPMatrix, jacobi_eigensystem
from zetalab.zerotable import ZeroTable

# Working bits above precision_bits for every weil (and semilocal) evaluation.
# They buy the Weil Gram its certificate: its entries are formed from terms up
# to about lambda in size, and with 48 bits the entry-error bound
# (_gram_entry_error, about 2^-(bits+33) at the benchmark's settings) times the
# block dimension stays about 20 bits below the eigensolver's residual, which
# is near 2^-(bits+6) there, so the certified bits are the solver's.
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


def mellin_hat(f, s, precision_bits: int = 256):
    """f^(s) = integral_0^infty f(x) x^(-is) d*x (closed form for band functions)."""
    with mp.workprec(precision_bits + _GUARD):
        return +f.mellin(mp.mpmathify(s))


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


def _decay_series(x, term_bound, tol):
    """The pairs (a_n, x^(-2 a_n)), a_n = 2n + 1/2, n < N, of a series

        sum_{n>=0} x^(-2 a_n) t_n,   |t_n| <= term_bound(a_n),

    as e^(t/2)/sinh t = 2 sum_n e^(-a_n t) produces it from an integral
    beyond T, with x = e^(T/2) > 1 and term_bound nonincreasing.  The weights
    fall by x^-4 per term, so the terms n >= N sum to at most
    x^(-2 a_N) term_bound(a_N)/(1 - x^-4); N is the first index where that
    tail bound is below tol.
    """
    ratio = x**-4
    terms = []
    a, g = mpf(1) / 2, 1 / x
    while g * term_bound(a) / (1 - ratio) >= tol:
        terms.append((a, g))
        a, g = a + 2, g * ratio
    return terms


def _w_arch_band(f: LogBandFunction, precision_bits):
    """W_R(f) for a band function, in closed form:

        W_R(f) = c0 sum_{k>=0} e_k [log pi - Re psi(1/4 + i alpha k/2)
                 - 2 (-1)^k sum_n lambda^(-a_n) a_n/(a_n^2 + alpha^2 k^2)],

    with e_k = f.even_coefficients(), a_n = 2n + 1/2 and lambda = e^L.  For
    one basis function, f(e^t) + f(e^-t) = 2 c0 cos(beta t) on |t| <= L with
    beta = alpha k, and W_R is (log 4pi + gamma) f(1) + int_0^inf [f(e^t) +
    f(e^-t) - 2 f(1) e^(-t/2)] e^(t/2)/(2 sinh t) dt.  Over [0, inf) that is
    the digamma value log pi - Re psi(1/4 + i beta/2); the part beyond L is
    subtracted with e^(t/2)/sinh t = 2 sum_n e^(-a_n t) and e^(i beta L) =
    (-1)^k, which gives the series, while the constant's share beyond L,
    int_L^inf dt/sinh t = 2 artanh(1/lambda), cancels exactly against the
    -f(1) log coth(L/2) = -2 f(1) artanh(1/lambda) of the truncated support.
    Tail: |2 a/(a^2 + beta^2)| <= 2/a and the weights fall by lambda^-2, so
    _decay_series stops each basis value within 2^-(precision_bits + _GUARD)
    of its series; W_R(f) is then within c0 sum_k |e_k| times that, plus
    rounding.
    """
    L = f.log_halfwidth()
    alpha = mp.pi / L
    terms = _decay_series(mp.exp(L / 2), lambda a: 2 / a, mpf(2) ** -(precision_bits + _GUARD))
    log_pi = mp.log(mp.pi)
    acc = mpf(0)
    for k, e in enumerate(f.even_coefficients()):
        if not e:
            continue
        b2 = (alpha * k) ** 2
        series = 2 * mp.fsum(g * a / (a * a + b2) for a, g in terms)
        psi = mp.digamma(mp.mpc(mpf(1) / 4, alpha * k / 2))
        acc += e * (log_pi - mp.re(psi) - (-1) ** k * series)
    return acc / mp.sqrt(2 * L)


def w_arch(f: LogBandFunction, precision_bits: int = 256):
    """W_R(f) = (log 4pi + gamma) f(1) + the archimedean principal-value
    integral, for a LogBandFunction f, in the closed form of _w_arch_band:
    K+1 digamma values and one geometric series, no quadrature.  Any other
    input raises TypeError."""
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
    rhs = W_R(f) + sum_p W_p(f); residual = lhs - rhs."""
    profile = explicit_formula_profile(f, zeros, [len(zeros)], precision_bits)
    return profile[0]


def explicit_formula_profile(
    f, zeros: ZeroTable, table_sizes, precision_bits: int = 256
) -> list[ExplicitFormulaCheck]:
    """Explicit-formula checks at several nested table prefixes, reusing the
    partial zero sums (table_sizes must be nonempty, increasing and within
    the table).  f must be a LogBandFunction: its zero sum costs one sine per
    zero (LogBandFunction.mellin_pair_sum) and its W_R is a closed form."""
    if not isinstance(f, LogBandFunction):
        raise TypeError(f"the explicit formula takes a LogBandFunction, not {type(f).__name__}")
    sizes = list(table_sizes)
    if not sizes or sizes != sorted(sizes) or sizes[0] < 0 or sizes[-1] > len(zeros):
        raise ValueError("table_sizes must be nonempty, increasing and within the table")
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
        out = []
        zsum = mpf(0)
        done = 0
        for size in sizes:
            zsum += f.mellin_pair_sum(islice(zeros.ordinates, done, size))
            done = size
            lhs = pole - zsum
            out.append(ExplicitFormulaCheck(+lhs, +rhs, +(lhs - rhs), size))
        return out


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
    and lambda = e^L, term by term (the digamma series of w),

        I = Im psi(w) - 2 sum_n lambda^-(4n+1) beta/(a_n^2 + beta^2),
        J = psi(1/2) - Re psi(w) - (c2/2) Re psi'(w)
            + 2 c2 sum_n lambda^-(4n+1) Re (a_n - i beta)^-2 + 2 artanh(lambda^-2).

    Tail: |beta/(a^2 + beta^2)| <= 1/(2a) and |(a - i beta)^-2| <= 1/a^2, and
    lambda^-(4n+1) falls by lambda^-4 per term, so the terms n >= N sum to at
    most lambda^-(4N+1)/(a_N (1 - lambda^-4)) in I and 2 c2 lambda^-(4N+1)/
    (a_N^2 (1 - lambda^-4)) in J.  The series stop at the first N where both
    are below 2^-(precision_bits + _GUARD): every I(m), J(k) is off by less
    than that plus rounding.
    """
    lam = mp.exp(L)
    # (a_n, lambda^-(4n+1)) with x = lambda, T = 2L
    terms = _decay_series(lam, lambda a: max(1, 2 * c2 / a) / a, mpf(2) ** -(precision_bits + _GUARD))
    const = mp.digamma(mpf(1) / 2) + 2 * mp.atanh(lam**-2)
    I, J = {}, {}
    for k in range(K + 1):
        b = alpha * k
        w = mp.mpc(mpf(1) / 4, b / 2)
        psi = mp.digamma(w)
        I[k] = mp.im(psi) - 2 * mp.fsum(g * b / (a * a + b * b) for a, g in terms)
        J[k] = (const - mp.re(psi) - c2 / 2 * mp.re(mp.psi(1, w))
                + 2 * c2 * mp.fsum(g * (a * a - b * b) / (a * a + b * b) ** 2 for a, g in terms))
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
    integer; anything else would fail deep inside the assembly."""
    x = mp.mpmathify(lam2)
    if not (isinstance(x, mpf) and mp.isfinite(x) and x > 1):
        raise ValueError(f"lam2 must be a finite number above 1, got {lam2}")
    if not (half_width >= 0 and half_width == int(half_width)):
        raise ValueError(f"half_width must be a nonnegative integer, got {half_width}")


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
    D = [I[m] + 2 * mp.fsum(w * mp.sin(alpha * m * t) for t, w in pp) for m in range(K + 1)]
    T = [arch_const + J[m] + 2 * c2 * mp.fsum(w * (2 * L - t) * mp.cos(alpha * m * t) for t, w in pp)
         for m in range(K + 1)]
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


def pole_constraint_vectors(lam2, half_width: int, precision_bits: int):
    """Coordinates of the even and odd pole functionals on the parity blocks.

    even (length K+1, over [const, cos_1..cos_K]) is f -> (f^(i/2) + f^(-i/2))/2
    and odd (length K, over [sin_1..sin_K]) is f -> (f^(i/2) - f^(-i/2))/2,
    in the closed form of _pole_functionals.  The codimension-2 subspace they
    cut out, one constraint per block, is where Weil positivity lives.
    """
    _check_gram_args(lam2, half_width)
    with mp.workprec(precision_bits + _GUARD):
        return _pole_functionals(half_width, *band_frame(lam2))


def _project_out(rows, c):
    """Compress the symmetric matrix A onto the orthocomplement of the
    vector c by one Householder reflector.

    With u = c + sgn(c_0) |c| e_0 and tau = 2/(u.u) = 1/(|c| (|c| + |c_0|)),
    H = I - tau u u^T is symmetric and orthogonal with H c = -sgn(c_0) |c| e_0,
    so its columns 1..n-1 are an orthonormal basis of the complement and the
    compression is H A H without row and column 0.  With p = tau A u and
    w = p - (tau/2)(u.p) u, H A H = A - u w^T - w u^T.
    """
    n = len(rows)
    if n == 0:
        return []
    nrm = mp.sqrt(mp.fsum(x * x for x in c))
    u = list(c)
    u[0] += nrm if c[0] >= 0 else -nrm
    tau = 1 / (nrm * (nrm + abs(c[0])))
    p = [tau * mp.fdot(row, u) for row in rows]
    h = tau / 2 * mp.fdot(u, p)
    w = [x - h * y for x, y in zip(p, u)]
    # the upper triangle, mirrored: the compression is exactly symmetric
    out = [[None] * (n - 1) for _ in range(n - 1)]
    for a in range(1, n):
        for b in range(a, n):
            out[a - 1][b - 1] = out[b - 1][a - 1] = rows[a][b] - u[a] * w[b] - w[a] * u[b]
    return out


def _gram_entry_error(lam2, K, precision_bits):
    """Bound on |stored - exact| for every entry of either parity block.

    Each entry of _parity_blocks is formed at p = precision_bits + _GUARD
    bits from terms whose absolute values add up to at most 2S, where S is
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
    Rounding: every product, quotient, sum and special-function value is
    within 4 units of 2^-p of itself, no chain from an input to an entry has
    more than 2^7 such steps, and the absolute values along any sum add up to
    at most 2S, so the rounding of an entry is below 2^10 2^-p S.  The series
    tails of I and J add less than 2^-p each (weight at most 1), so each
    block entry is within 2^-p (2 + 2^10 S) of exact.
    """
    with mp.workprec(precision_bits + _GUARD):
        L = band_frame(lam2)[0]
        lam, c2 = mp.exp(L), 1 / (2 * L)
        weights = mp.fsum(w for _, w in _prime_powers(mp.mpmathify(lam2)))
        psi_top = abs(mp.re(mp.digamma(mp.mpc(mpf(1) / 4, mp.pi * K / (2 * L)))))
        S = (32 * c2 * mp.sinh(L / 2) ** 2 + 2 * weights + 12 - 2 * mp.log(mp.tanh(L))
             + max(-mp.digamma(mpf(1) / 4), psi_top) + 9 * c2 + (2 + 32 * c2) / (lam - lam**-3))
        return mpf(2) ** -(precision_bits + _GUARD) * (2 + 2**10 * S)


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
            blocks = [_project_out(b, c) for b, c in zip(blocks, poles)]
    return tuple(HPMatrix(b, precision_bits) for b in blocks)


@dataclass
class GramSpectrum:
    eigenvalues: list
    residuals: list
    smallest_positive: object
    precision_bits: int


def weil_gram_spectrum(
    lam2, half_width: int, precision_bits: int, project_poles: bool = False
) -> GramSpectrum:
    """Assemble the Gram's parity blocks and solve each with
    precision.jacobi_eigensystem; the spectrum is their union, ascending.

    Every eigenvalue carries one residual: the larger of the two blocks'
    eigensolver residuals (each bounds its block's eigenvalues in sorted
    order, and the larger one bounds the merged, sorted spectrum the same
    way) plus the Gram's own error.  Each stored entry is within
    e = _gram_entry_error of its exact value; by Weyl's inequality
    the sorted eigenvalues then move by at most ||E||_2 <= n e, with n = K + 1
    the larger block's dimension.  Projection compresses E to a principal
    submatrix of H E H (_project_out's reflector H), whose 2-norm is no
    larger.  The rounding of the projection itself is not in the bound.
    """
    eigenvalues = []
    residual = mpf(0)
    for block in weil_gram(lam2, half_width, precision_bits, project_poles):
        res = jacobi_eigensystem(block)
        eigenvalues.extend(res.eigenvalues)
        residual = max(residual, res.max_residual())
    with mp.workprec(precision_bits + _GUARD):
        residual += (half_width + 1) * _gram_entry_error(lam2, half_width, precision_bits)
    eigenvalues.sort()
    smallest_pos = next((lam for lam in eigenvalues if lam > residual), None)
    return GramSpectrum(
        eigenvalues, [residual] * len(eigenvalues), smallest_pos, precision_bits
    )
