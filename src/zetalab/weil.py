"""Explicit-formula functionals and the truncated Weil quadratic form.

The explicit formula pairs the zero side

    f^(i/2) + f^(-i/2) - sum_{zeros} f^(s)

with the prime/archimedean side W_R(f) + sum_p W_p(f).  For test functions
supported in [lambda^-1, lambda] the prime side is a finite sum over prime
powers below lambda^2, which is what makes the quadratic form

    QW(f, g) = sum_{zeros} conj(f^) g^

computable without any zero table: QW(f, g) = h^(i/2) + h^(-i/2) - W_R(h)
- sum_p W_p(h) with h = f * g~.

weil_gram assembles the Gram matrix of QW over the orthonormal log-Fourier
basis.  In that basis everything collapses: pole and prime terms are closed
forms, and the archimedean part of every entry is a combination of the 2K+2
one-dimensional integrals I(m), J(k) below, so the assembly needs O(K)
quadratures rather than O(K^2).

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

from mpmath import mp, mpf

from zetalab.precision import HPMatrix, jacobi_eigensystem, orthonormalize
from zetalab.zerotable import ZeroTable

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
    # run with headroom: tanh-sinh error estimates are conservative, so the
    # rule must over-converge for the certificate below to be meaningful
    with mp.workprec(precision_bits + 80):
        val, err = mp.quad(integrand, interval, error=True)
    tol = mpf(2) ** (-precision_bits - 8) * (1 + abs(val))
    if err > tol:
        raise QuadratureError(
            f"quadrature error estimate {mp.nstr(err, 5)} exceeds tolerance "
            f"{mp.nstr(tol, 5)} at {precision_bits} bits"
        )
    return +val


def w_arch(f, precision_bits: int = 256, breakpoints=()):
    """(log 4pi + gamma) f(1) + the archimedean principal-value integral.

    Band functions (anything with evaluate_log_minus_center) use the exact
    cancellation-free integrand plus a closed-form tail beyond the support;
    a plain callable f(x) is integrated over [0, inf) in log coordinates
    with local precision boosts near the removable singularity at x = 1.
    Known kinks of a callable f (in log coordinates) can be passed as
    breakpoints so the quadrature splits there.
    """
    with mp.workprec(precision_bits + _GUARD):
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
    partial zero sums (table_sizes must be increasing)."""
    sizes = list(table_sizes)
    if sizes != sorted(sizes) or sizes[-1] > len(zeros):
        raise ValueError("table_sizes must be increasing and within the table")
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
            zsum += mp.fsum(
                f.mellin(g) + f.mellin(-g) for g in zeros.ordinates[done:size]
            )
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
    for m = 1..K and k = 0..K.

    Both numerators vanish at t = 0 (c2 2L = 1), so the integrands are smooth
    on [0, 2L] and every order is one certified tanh-sinh quadrature."""
    T = 2 * L
    I = {0: mpf(0)}
    J = {}
    for m in range(1, K + 1):
        am = alpha * m

        def integrand(t, am=am):
            if t == 0:
                return am
            return mp.sin(am * t) * mp.exp(t / 2) / mp.sinh(t)

        I[m] = _quad_checked(integrand, [0, T], precision_bits)
    lim0 = mpf(0.5) - c2
    for k in range(0, K + 1):
        ak = alpha * k

        def integrand(t, ak=ak, lim0=lim0):
            if t == 0:
                return lim0
            # c2(2L-t)cos - e^(-t/2), written cancellation-free
            n = -2 * mp.sin(ak * t / 2) ** 2 - c2 * t * mp.cos(ak * t) - mp.expm1(-t / 2)
            return n * mp.exp(t / 2) / mp.sinh(t)

        J[k] = _quad_checked(integrand, [0, T], precision_bits)
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


def weil_gram_complex(lam2, half_width: int, precision_bits: int):
    """Gram of QW over psi_-K..psi_K as a raw complex matrix (list of rows).

    Entry (j, k) is QW(psi_j, psi_k) = h^(i/2) + h^(-i/2) - W_R(h) - sum_p
    W_p(h) with h = psi_k * psi_j~, all reduced to closed forms plus the
    shared I/J integrals.
    """
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
    return [
        [mp.fsum(comp[a][i] * av[i][b] for i in range(n)) for b in range(len(comp))]
        for a in range(len(comp))
    ]


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
    """Assemble the Gram's parity blocks and solve each by Jacobi; the
    spectrum is their union, ascending, each eigenvalue with its block's
    residual."""
    pairs = []
    for block in weil_gram(lam2, half_width, precision_bits, project_poles):
        res = jacobi_eigensystem(block, want_vectors=False)
        pairs.extend(zip(res.eigenvalues, res.residuals))
    pairs.sort(key=lambda e: e[0])
    smallest_pos = next((lam for lam, r in pairs if lam > r), None)
    return GramSpectrum(
        [e[0] for e in pairs], [e[1] for e in pairs], smallest_pos, precision_bits
    )
