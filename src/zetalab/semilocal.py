"""Local factors at the archimedean place and semilocal identities.

The functional-equation unitary on the critical line is the unimodular ratio
u(s) = zeta(1/2-is)/zeta(1/2+is) = gamma_R(1/2+is)/gamma_R(1/2-is) with
gamma_R(z) = pi^(-z/2) Gamma(z/2).  Tate's archimedean functional equation,
the adelic lift of finite orbit sums to the averaging map
E(f)(x) = x^(1/2) sum_{n>0} f(nx), evaluated here pointwise, and the
trace-formula form of the archimedean explicit-formula distribution are all
checked numerically here at arbitrary precision.
"""

from __future__ import annotations

from mpmath import mp, mpf

from zetalab.bandfn import LogBandFunction
from zetalab.weil import _GUARD, is_prime, w_arch


class QuadratureError(ArithmeticError):
    """A quadrature's error estimate exceeds the tolerance its check states."""


def gamma_factor(z, precision_bits: int = 256):
    """gamma_R(z) = pi^(-z/2) Gamma(z/2); poles at z in {0, -2, -4, ...}."""
    with mp.workprec(precision_bits + _GUARD):
        z = mp.mpmathify(z)
        half = z / 2
        if mp.im(half) == 0 and mp.re(half) <= 0 and half == mp.floor(half):
            raise ZeroDivisionError(f"gamma factor pole at z = {z}")
        return +(mp.power(mp.pi, -half) * mp.gamma(half))


def u_arch(s, precision_bits: int = 256):
    """u(s) = gamma_R(1/2+is)/gamma_R(1/2-is); modulus 1 for real s."""
    with mp.workprec(precision_bits + _GUARD):
        s = mp.mpmathify(s)
        return +(gamma_factor(0.5 + 1j * s, precision_bits)
                 / gamma_factor(0.5 - 1j * s, precision_bits))


def zeta_ratio(s, precision_bits: int = 256):
    """zeta(1/2-is)/zeta(1/2+is): the other face of the same unitary."""
    with mp.workprec(precision_bits + _GUARD):
        s = mp.mpmathify(s)
        return +(mp.zeta(0.5 - 1j * s) / mp.zeta(0.5 + 1j * s))


# -- Tate's archimedean functional equation -------------------------------------


def tate_arch_check(f, s, precision_bits: int = 256):
    """Both sides of the local functional equation at the real place for the
    character x -> |x|^(is):

        int F(f)(x) |x|^(-is) |x|^(1/2) d*x
            = rho(s) * int f(x) |x|^(is) |x|^(1/2) d*x

    with rho(s) = gamma_R(1/2-is)/gamma_R(1/2+is) (the reciprocal of u_arch:
    that is the orientation Tate's equation itself forces, cf. the self-dual
    Gaussian).  Returns (lhs, rhs, residual).

    Each side is one raw mp.quad over the half-line whose error estimate must
    stay below 2^-(precision_bits // 2) (else QuadratureError).  Doubled for
    the two half-lines, each side is certified to 2^(1 - precision_bits // 2)
    and, for real s where |rho(s)| = 1, the residual to twice that: about
    half the working bits, not 2^-precision_bits.  A 2^-(bits+8) tolerance
    would refuse here:
    x^(is) oscillates without end at x = 0, and tanh-sinh's estimate there
    stays far above that (at 128 bits, 1.0e-33 against 1.6e-41).
    """
    with mp.workprec(precision_bits + _GUARD):
        s = mp.mpmathify(s)
        fhat = f.fourier()
        radius = max(f.decay_radius(precision_bits + 32),
                     fhat.decay_radius(precision_bits + 32))

        def mellin_like(g, sign):
            def integrand(x):
                return g.evaluate(x) * mp.power(x, sign * 1j * s) * mp.sqrt(x) / x

            val, err = mp.quad(integrand, [0, 1, radius], error=True)
            if err > mpf(2) ** (-precision_bits // 2):
                raise QuadratureError(f"tate integral did not converge: err={err}")
            return 2 * val  # even functions: both half-lines

        lhs = mellin_like(fhat, -1)
        rho = gamma_factor(0.5 - 1j * s, precision_bits) / gamma_factor(
            0.5 + 1j * s, precision_bits
        )
        rhs = rho * mellin_like(f, +1)
        return +lhs, +rhs, +(lhs - rhs)


# -- the adelic lift of Prop-type orbit sums -------------------------------------


def _gamma_orbit_integers(mu: float) -> list[int]:
    """Positive integers n <= mu whose prime factors are all < mu (the
    integer points of the S-unit group orbit intersected with [-mu, mu]).

    A prime factor of n <= mu is at most mu, and equals mu only for n = mu
    prime, so that is the one integer dropped."""
    top = int(mp.floor(mu))
    out = list(range(1, top + 1))
    if top == mu and is_prime(top):
        out.pop()
    return out


def map_E(f, x, support_radius, precision_bits: int = 53):
    """x^(1/2) sum_{n>=1} f(n x) for f vanishing beyond support_radius, so
    the sum stops at n = support_radius / x; computed with guard bits."""
    if x <= 0:
        raise ValueError("x must be positive")
    with mp.workprec(precision_bits + _GUARD):
        x = mp.mpmathify(x)
        nmax = int(mp.floor(support_radius / x))
        if nmax < 1:
            return mpf(0)
        return mp.sqrt(x) * mp.fsum(f(n * x) for n in range(1, nmax + 1))


def semilocal_lift_check(f, mu, u, precision_bits: int = 256):
    """lhs = u^(1/2) * sum over the orbit integers Y of f(g u) versus
    rhs = 2 E(f)(u), valid for u > 1/lambda with lambda = sqrt(mu).

    f must be even with support (numerically) inside [-lambda, lambda]."""
    with mp.workprec(precision_bits + _GUARD):
        mu = mp.mpmathify(mu)
        u = mp.mpmathify(u)
        lam = mp.sqrt(mu)
        if not (u > 1 / lam):
            raise ValueError("the lift identity is only asserted for u > 1/lambda")
        ys = _gamma_orbit_integers(mu)
        lhs = mp.sqrt(u) * mp.fsum(2 * f.evaluate(n * u) for n in ys)
        rhs = 2 * map_E(f.evaluate, u, lam, precision_bits)
        return +lhs, +rhs


# -- the archimedean trace-formula cross-check ------------------------------------


def arch_phase_derivative(s, precision_bits: int = 256):
    """theta'(s) for u_arch = e^(i theta): -log pi + Re psi(1/4 + is/2)."""
    with mp.workprec(precision_bits + _GUARD):
        z = 0.25 + 0.5j * mp.mpmathify(s)
        return +(-mp.log(mp.pi) + mp.re(mp.digamma(z)))


def trace_side_integral(f, precision_bits: int = 256):
    """-(1/2pi) integral f^(s) theta'(s) ds over the line, for a real even
    band function (so f^ is real even and the integrand decays)."""
    with mp.workprec(precision_bits + _GUARD):
        L = f.log_halfwidth()

        def integrand(s):
            return f.mellin(s) * arch_phase_derivative(s, precision_bits)

        # split a smooth head from the oscillatory tail (f^ oscillates at
        # frequency L; quadosc handles the tail against the slow digamma)
        a = 8 * mp.pi / L
        head, err = mp.quad(integrand, [0, a], error=True)
        if err > mpf(2) ** (-precision_bits // 2) * (1 + abs(head)):
            raise QuadratureError(f"trace-side head integral: err={err}")
        tail = mp.quadosc(integrand, [a, mp.inf], period=2 * mp.pi / L)
        return +(-(head + tail) / mp.pi)


def arch_trace_check(f: LogBandFunction, precision_bits: int = 256):
    """w_inf = W_R(f) against the trace side; returns the triple
    (w_inf, trace_side, residual).  f must be a LogBandFunction (else
    TypeError, raised before any quadrature starts)."""
    if not isinstance(f, LogBandFunction):
        raise TypeError(f"arch_trace_check takes a LogBandFunction, not {type(f).__name__}")
    with mp.workprec(precision_bits + _GUARD):
        w_inf = w_arch(f, precision_bits)
        trace = trace_side_integral(f, precision_bits)
        return +w_inf, +trace, +(w_inf - trace)
