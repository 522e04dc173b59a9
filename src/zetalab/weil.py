"""Explicit-formula functionals and the truncated Weil quadratic form.

The explicit formula pairs the zero side

    f^(i/2) + f^(-i/2) - sum_{zeros} f^(s)

with the prime/archimedean side W_R(f) + sum_p W_p(f).  For a band function
f (bandfn.LogBandFunction, supported in [lambda^-1, lambda]) every term is a
closed form: the zero sum costs one sine per zero
(LogBandFunction.mellin_pair_sum), W_R(f) is K+1 digamma values plus one
geometric series, and the prime side is a finite sum over prime powers below
lambda, so the explicit formula runs no quadrature.  The same finiteness
makes the quadratic form

    QW(f, g) = sum_{zeros} conj(f^) g^

computable without any zero table: QW(f, g) = h^(i/2) + h^(-i/2) - W_R(h)
- sum_p W_p(h) with h = f * g~, whose prime sum runs over prime powers below
lambda^2.

weil_gram assembles the Gram matrix of QW over the orthonormal log-Fourier
basis.  In that basis everything collapses: pole and prime terms are closed
forms, and the archimedean part of every entry is a combination of the 2K+1
one-dimensional integrals I(m), J(k) below, each a digamma value plus a
geometric series, so the assembly runs no quadrature.

QW commutes with the reflection x -> 1/x, which maps psi_k to psi_-k, so in
the real basis the Gram is block diagonal: an even block over [const,
cos_1..cos_K] and an odd block over [sin_1..sin_K].  The pole functionals
split the same way, (f^(i/2) + f^(-i/2))/2 acting on the even block and
(f^(i/2) - f^(-i/2))/2 on the odd one, so the Weil-positivity subspace
f^(+-i/2) = 0 is one constraint per block.  Every Gram is assembled,
projected and solved as these two blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from mpmath import mp, mpf

from zetalab.bandfn import LogBandFunction
from zetalab.precision import HPMatrix, jacobi_eigensystem, orthonormalize
from zetalab.zerotable import ZeroTable

# Working bits above precision_bits for every weil (and semilocal) evaluation.
# They buy the Weil Gram its certificate: its entries are formed from terms up
# to about lambda in size, and with 48 bits the entry-error bound
# (_gram_entry_error, about 2^-(bits+33) at the benchmark's settings) times the
# block dimension stays about 20 bits below the eigensolver's residual, which
# is near 2^-(bits+6) there, so the certified bits are the solver's.
_GUARD = 48


class QuadratureError(ArithmeticError):
    pass


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


def _quad_checked(integrand, interval, precision_bits):
    # w_arch's quadratures.  The rule runs 80 bits above precision_bits, 32
    # above the caller's _GUARD: tanh-sinh estimates its error from the gap
    # between successive levels, which certifies the 2^-(bits+8) tolerance
    # only once the rule has converged well past it.
    with mp.workprec(precision_bits + 80):
        val, err = mp.quad(integrand, interval, error=True)
    tol = mpf(2) ** (-precision_bits - 8) * (1 + abs(val))
    if err > tol:
        raise QuadratureError(
            f"quadrature error estimate {mp.nstr(err, 5)} exceeds tolerance "
            f"{mp.nstr(tol, 5)} at {precision_bits} bits"
        )
    return +val


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


def w_arch(f, precision_bits: int = 256, breakpoints=()):
    """(log 4pi + gamma) f(1) + the archimedean principal-value integral.

    Three routes, by input:
      - a LogBandFunction takes the closed form of _w_arch_band (K+1 digamma
        values and one geometric series, no quadrature);
      - any other band function (duck-typed: anything with log_halfwidth,
        value_at_one and evaluate_log_minus_center, such as the tests' exact
        convolution f * g~) is integrated over its support with the exact
        cancellation-free integrand, plus a closed-form tail beyond it;
      - a plain callable f(x) is integrated over [0, inf) in log coordinates
        with local precision boosts near the removable singularity at x = 1.
        Known kinks of f (in log coordinates) can be passed as breakpoints so
        the quadrature splits there.
    The two quadrature routes are the tests' independent oracle for the
    closed form.
    """
    with mp.workprec(precision_bits + _GUARD):
        if isinstance(f, LogBandFunction):
            return +_w_arch_band(f, precision_bits)
        if hasattr(f, "evaluate_log_minus_center"):
            S = f.log_halfwidth()
            f1 = f.value_at_one()

            def integrand(t):
                if t == 0:
                    return f1 / 2
                n = (
                    f.evaluate_log_minus_center(t)
                    + f.evaluate_log_minus_center(-t)
                    - 2 * f1 * mp.expm1(-t / 2)
                )
                return n * mp.exp(t / 2) / (2 * mp.sinh(t))

            tail = -f1 * mp.log(mp.coth(S / 2))
            core = _quad_checked(integrand, [0, S], precision_bits)
            head = (mp.log(4 * mp.pi) + mp.euler) * f1
            return +(head + core + tail)

        f1 = mp.mpmathify(f(mpf(1)))

        def integrand(t):
            if t == 0:
                return f1 / 2
            boost = 16 + max(0, int(-mp.log(abs(t), 2)))
            with mp.workprec(mp.prec + boost):
                x = mp.exp(t)
                n = f(x) + f(1 / x) - 2 * mp.exp(-t / 2) * f1
                val = n * mp.exp(t / 2) / (2 * mp.sinh(t))
            return +val

        interval = [0] + sorted(mp.mpmathify(b) for b in breakpoints) + [mp.inf]
        core = _quad_checked(integrand, interval, precision_bits)
        return +((mp.log(4 * mp.pi) + mp.euler) * f1 + core)


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
        pole = f.mellin(mp.mpc(0, 0.5)) + f.mellin(mp.mpc(0, -0.5))
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


def _psi_hat_poles(K, L, alpha, c0):
    """psi_k^(i/2) for k = -K..K: 2 c0 sin((alpha k - i/2) L)/(alpha k - i/2).

    psi_k^(-i/2) is psi_-k^(i/2), so this one table serves both poles."""
    sh = mp.sinh(L / 2)
    a = {}
    for k in range(-K, K + 1):
        sgn = -1 if k % 2 else 1
        a[k] = 2 * c0 * (-sgn * 1j * sh) / (alpha * k - 0.5j)
    return a


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


def weil_gram_complex(lam2, half_width: int, precision_bits: int):
    """Gram of QW over psi_-K..psi_K as a raw complex matrix (list of rows).

    Entry (j, k) is QW(psi_j, psi_k) = h^(i/2) + h^(-i/2) - W_R(h) - sum_p
    W_p(h) with h = psi_k * psi_j~, all reduced to closed forms plus the
    shared I/J integrals.
    """
    _check_gram_args(lam2, half_width)
    K = half_width
    with mp.workprec(precision_bits + _GUARD):
        L = mp.log(mp.mpmathify(lam2)) / 2
        alpha = mp.pi / L
        c0 = 1 / mp.sqrt(2 * L)
        c2 = c0 * c0
        A = _psi_hat_poles(K, L, alpha, c0)
        I, J = _arch_integrals(K, L, alpha, c2, precision_bits)
        pp = _prime_powers(mp.mpmathify(lam2))
        arch_const = mp.log(4 * mp.pi) + mp.euler + mp.log(mp.tanh(L))

        # prime sums collapse to tabulated combinations: for j != k the value
        # is 2 c2 (-1)^(j-k) (Spr[k] - Spr[j])/(alpha (j-k)) with
        # Spr[m] = sum_pp w sin(alpha m t); the diagonal needs the cos table
        Spr = {}
        diag_prime = {}
        for m in range(-K, K + 1):
            Spr[m] = mp.fsum(w * mp.sin(alpha * m * t) for t, w in pp) if pp else mpf(0)
        for m in range(-K, K + 1):
            diag_prime[m] = (
                mp.fsum(w * 2 * c2 * (2 * L - t) * mp.cos(alpha * m * t) for t, w in pp)
                if pp
                else mpf(0)
            )

        def isgn(m):
            return I[m] if m >= 0 else -I[-m]

        size = 2 * K + 1
        G = [[None] * size for _ in range(size)]
        Ac = {k: mp.conj(A[k]) for k in A}
        for j in range(-K, K + 1):
            for k in range(-K, K + 1):
                pole = A[k] * Ac[-j] + A[-k] * Ac[j]
                if j == k:
                    arch = arch_const + J[abs(k)]
                    prime = diag_prime[k]
                else:
                    sgn = -1 if (j - k) % 2 else 1
                    d = alpha * (j - k)
                    arch = c2 * sgn * (isgn(k) - isgn(j)) / d
                    prime = 2 * c2 * sgn * (Spr[k] - Spr[j]) / d
                G[j + K][k + K] = pole - arch - prime
        return G


def _real_basis_gram(G, K, precision_bits):
    """The two parity blocks of the complex Gram in the real basis: even over
    [const, cos_1..cos_K], odd over [sin_1..sin_K].

    The cos-sin cross block vanishes because G(j, k) = G(-j, -k) (psi_-k is
    the reflection of psi_k and QW commutes with x -> 1/x); that symmetry and
    the reality of both blocks are checked, not assumed."""
    rt2 = mp.sqrt(2)

    def g(j, k):
        return G[j + K][k + K]

    even = [[None] * (K + 1) for _ in range(K + 1)]
    odd = [[None] * K for _ in range(K)]
    even[0][0] = g(0, 0)
    for k in range(1, K + 1):
        even[0][k] = (g(0, k) + g(0, -k)) / rt2
        even[k][0] = (g(k, 0) + g(-k, 0)) / rt2
        for j in range(1, K + 1):
            even[j][k] = (g(j, k) + g(j, -k) + g(-j, k) + g(-j, -k)) / 2
            odd[j - 1][k - 1] = (g(j, k) - g(j, -k) - g(-j, k) + g(-j, -k)) / 2
    scale = max(abs(x) for block in (even, odd) for r in block for x in r)
    tol = scale * mpf(2) ** (-(precision_bits // 2))
    skew = max(abs(g(j, k) - g(-j, -k)) for j in range(-K, K + 1) for k in range(-K, K + 1))
    if skew > tol:
        raise ArithmeticError(f"Gram breaks the reflection symmetry by {mp.nstr(skew, 5)}")
    imag = max(abs(mp.im(x)) for block in (even, odd) for r in block for x in r)
    if imag > tol:
        raise ArithmeticError(
            f"real-basis Gram has imaginary residue {mp.nstr(imag, 5)}; insufficient precision"
        )
    return [[[mp.re(x) for x in r] for r in block] for block in (even, odd)]


def pole_constraint_vectors(lam2, half_width: int, precision_bits: int):
    """Coordinates of the even and odd pole functionals on the parity blocks.

    even (length K+1, over [const, cos_1..cos_K]) is f -> (f^(i/2) + f^(-i/2))/2
    and odd (length K, over [sin_1..sin_K]) is f -> (f^(i/2) - f^(-i/2))/2.
    Both are real on real test functions; the codimension-2 subspace they cut
    out, one constraint per block, is where Weil positivity lives.
    """
    _check_gram_args(lam2, half_width)
    K = half_width
    with mp.workprec(precision_bits + _GUARD):
        L = mp.log(mp.mpmathify(lam2)) / 2
        alpha = mp.pi / L
        c0 = 1 / mp.sqrt(2 * L)
        A = _psi_hat_poles(K, L, alpha, c0)
        rt2 = mp.sqrt(2)
        even = [A[0]] + [(A[k] + A[-k]) / rt2 for k in range(1, K + 1)]
        odd = [(A[k] - A[-k]) / (rt2 * 1j) for k in range(1, K + 1)]
        tol = mpf(2) ** (-(precision_bits // 2)) * (1 + max(abs(v) for v in even + odd))
        if any(abs(mp.im(v)) > tol for v in even + odd):
            raise ArithmeticError("pole constraint vector is not real")
        return [mp.re(v) for v in even], [mp.re(v) for v in odd]


def _project_out(rows, constraint, precision_bits):
    """Compress the symmetric matrix onto the orthocomplement of the given
    row vector."""
    n = len(rows)
    basis = orthonormalize([constraint], mpf(2) ** (-precision_bits // 2))
    # complete to an orthonormal basis of the complement via MGS on identity;
    # the 1/4 floor keeps well-conditioned directions only
    identity = ([mpf(1) if j == i else mpf(0) for j in range(n)] for i in range(n))
    comp = orthonormalize(identity, mpf(1) / 4, basis)
    if len(comp) != n - len(basis):
        raise ArithmeticError("projection basis completion failed")
    av = [[mp.fsum(rows[i][j] * c[j] for j in range(n)) for c in comp] for i in range(n)]
    # the upper triangle, mirrored: the compression is exactly symmetric
    m = len(comp)
    out = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            out[a][b] = out[b][a] = mp.fsum(comp[a][i] * av[i][b] for i in range(n))
    return out


def _gram_entry_error(lam2, K, precision_bits):
    """Bound on |stored - exact| for every entry of either parity block.

    Each complex entry pole - arch - prime is formed at p = precision_bits +
    _GUARD bits from terms whose absolute values add up to at most S, the sum
    of these bounds:
      - pole: 2 max|A_k|^2 <= 32 c2 sinh(L/2)^2, since |A_k| <= 4 c0 sinh(L/2);
      - prime: 2W, with W the sum of the prime-power weights;
      - arch: log 4pi + gamma, psi(1/2) and Im psi(w) are each below 4 in
        absolute value (|Im psi(1/4 + iy)| <= 2 + pi/2); log tanh L enters
        twice, in arch_const and as J's 2 artanh(lambda^-2); |Re psi(w)| is at
        most max(-psi(1/4), |Re psi(w_K)|), as Re psi(1/4 + iy) increases
        with y; (c2/2)|psi'(w)| <= (c2/2) psi'(1/4) < 9 c2; and the two series
        of _arch_integrals sum to less than (2 + 32 c2)/(lambda - lambda^-3).
    Rounding: every product, quotient, sum and special-function value is
    within 4 units of 2^-p of itself, no chain from an input to an entry has
    more than 2^7 such steps, and the absolute values along any sum add up to
    at most S, so the rounding of a complex entry is below 2^9 2^-p S.  The
    series tails of I and J add less than 2^-p (weight at most 1).  The real
    basis combines complex entries with weights whose absolute values sum to
    at most 2, so each block entry is within 2^-p (2 + 2^10 S) of exact.
    """
    with mp.workprec(precision_bits + _GUARD):
        L = mp.log(mp.mpmathify(lam2)) / 2
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
    G = weil_gram_complex(lam2, half_width, precision_bits)
    with mp.workprec(precision_bits + _GUARD):
        blocks = _real_basis_gram(G, half_width, precision_bits)
        if project_poles:
            cons = pole_constraint_vectors(lam2, half_width, precision_bits)
            blocks = [_project_out(b, c, precision_bits) for b, c in zip(blocks, cons)]
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
    the larger block's dimension.  Projection compresses E to Q^T E Q, whose
    2-norm is no larger.  The rounding of the projection itself is not in the
    bound.
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
