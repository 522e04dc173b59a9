"""Local factors at the archimedean place and semilocal identities.

The functional-equation unitary on the critical line is the unimodular ratio
u(s) = zeta(1/2-is)/zeta(1/2+is) = gamma_R(1/2+is)/gamma_R(1/2-is) with
gamma_R(z) = pi^(-z/2) Gamma(z/2).  Tate's archimedean functional equation
and the trace-formula form of the archimedean explicit-formula distribution
are both checked numerically here at arbitrary precision.

This module computes at one precision, precision_bits + _GUARD, and asks
that precision of what it integrates; hermitefn adds its own guard on
top, so Tate's Hermite sums run at precision_bits + 64.  Every numerical
integral in the package is one quad_checked, refused with QuadratureError
unless its value and error estimate are finite and the estimate is at most
2^-(precision_bits + 8) (1 + |value|).  No integrand is left oscillating
without decay: Tate's check takes the x^(is) singularity at x = 0 out in
closed form, and the trace side rotates its oscillatory tail onto rays where
the Mellin transform decays like e^(-yL).
"""

from __future__ import annotations

from mpmath import mp, mpf

from zetalab.bandfn import LogBandFunction, _band_frame, _pair_terms
from zetalab.hermitefn import EvenGaussHermite
from zetalab.precision import _num, _working_bits
from zetalab.weil import w_arch

# Working bits above precision_bits for all of this module.  At 128 bits, +32
# and +40 accept test_semilocal.py's raw x^(is - 1/2) integrand; +48 refuses it.
_GUARD = 48


class QuadratureError(ArithmeticError):
    """A quadrature's error estimate exceeds the tolerance its check states."""


def quad_checked(integrand, interval, precision_bits):
    """mp.quad of integrand over interval (a list of breakpoints), the
    package's one quadrature: QuadratureError unless the value and the error
    estimate are finite and the estimate is at most 2^-(precision_bits+8)
    (1 + |value|).

    The rule, the integrand, the check and the value run at one precision,
    precision_bits + _GUARD, so mp.quad stops at its eps/8 there,
    2^-(precision_bits+50): tanh-sinh's estimate, from the differences of
    successive levels, certifies the tolerance only once the rule has
    converged well past it.  The premise is an integrand bounded on the
    closed interval: the differences cannot see mass beyond the outermost
    nodes, so at a singular end the check can certify falsely (the raw
    x^(is - 1/2) of tests/test_semilocal.py passes at 96 to 126 bits).
    Tate's (g - g(0)) x^(b-1) is O(x^(3/2)), the trace side's head is smooth
    on [0, a], and its ray decays like e^(-yL).
    """
    with mp.workprec(_working_bits(precision_bits, _GUARD)):
        val, err = mp.quad(integrand, interval, error=True)
        tol = mpf(2) ** (-precision_bits - 8) * (1 + abs(val))
        if not (mp.isfinite(val) and mp.isfinite(err) and err <= tol):
            raise QuadratureError(f"quadrature value {mp.nstr(val, 5)}, error estimate {mp.nstr(err, 5)}: "
                                  f"not within tolerance {mp.nstr(tol, 5)} at {precision_bits} bits")
        return +val


def gamma_factor(z, precision_bits: int):
    """gamma_R(z) = pi^(-z/2) Gamma(z/2); poles at z in {0, -2, -4, ...}
    (ZeroDivisionError), and ValueError for a z that is not finite."""
    with mp.workprec(_working_bits(precision_bits, _GUARD)):
        z = _num(z)
        if not mp.isfinite(z):
            raise ValueError(f"z = {z} is not finite")
        half = z / 2
        if mp.im(half) == 0 and mp.re(half) <= 0 and half == mp.floor(half):
            raise ZeroDivisionError(f"gamma factor pole at z = {z}")
        return +(mp.power(mp.pi, -half) * mp.gamma(half))


# -- Tate's archimedean functional equation -------------------------------------


def tate_arch_check(f, s, precision_bits: int):
    """Both sides of the local functional equation at the real place for the
    character x -> |x|^(is):

        int F(f)(x) |x|^(-is) |x|^(1/2) d*x
            = rho(s) * int f(x) |x|^(is) |x|^(1/2) d*x

    with rho(s) = gamma_R(1/2-is)/gamma_R(1/2+is) (the reciprocal of u(s):
    that is the orientation Tate's equation itself forces, cf. the self-dual
    Gaussian).  Returns (lhs, rhs, residual).

    Each side is twice (f is even) int_0^R g(x) x^(b-1) dx, b = 1/2 +- is,
    with R the larger decay radius of f and F(f), where |g| < 2^-(bits+32).
    x^(b-1) is unbounded at x = 0, against quad_checked's premise, so
    g(0) x^(b-1) is integrated in closed form, g(0) R^b/b, and quad_checked
    takes the rest, (g(x) - g(0)) x^(b-1) = O(x^(3/2)), g(0) from the
    integrand's own g.evaluate.  Each side is within 2^-(precision_bits + 7)
    (1 + |its integral|) plus the Gaussian tail beyond R (else QuadratureError);
    for real s, where |rho(s)| = 1, the residual is within the sum of the two
    sides' bounds.  f must be an EvenGaussHermite, else TypeError, and s
    finite, else ValueError, both before any quadrature starts.
    """
    if not isinstance(f, EvenGaussHermite):
        raise TypeError(f"tate_arch_check takes an EvenGaussHermite, not {type(f).__name__}")
    work = _working_bits(precision_bits, _GUARD)  # the working precision, and the one asked of f
    with mp.workprec(work):
        s = _num(s)
        if not mp.isfinite(s):
            raise ValueError(f"s = {s} is not finite")
        fhat = f.fourier(work)
        radius = max(g.decay_radius(precision_bits + 32) for g in (f, fhat))

        def mellin_like(g, sign):
            b = 0.5 + sign * 1j * s
            g0 = g.evaluate(0, work)
            val = quad_checked(lambda x: (g.evaluate(x, work) - g0) * mp.power(x, b - 1),
                               [0, 1, radius], precision_bits)
            return 2 * (val + g0 * mp.power(radius, b) / b)  # even functions: both half-lines

        lhs = mellin_like(fhat, -1)
        rho = gamma_factor(0.5 - 1j * s, precision_bits) / gamma_factor(0.5 + 1j * s, precision_bits)
        rhs = rho * mellin_like(f, +1)
        return +lhs, +rhs, +(lhs - rhs)


# -- the archimedean trace-formula cross-check ------------------------------------


def _theta_prime(s):
    """theta'(s) = -log pi + (psi(1/4 + is/2) + psi(1/4 - is/2))/2, the
    derivative of the phase of u(s) = e^(i theta) on the line, continued to
    complex s; by reflection and duplication it is -log 2pi + psi(1/2 - is)
    - (pi/2) cot(pi (1/4 + is/2)): one digamma, at the caller's precision."""
    return (mp.digamma(0.5 - 1j * s) - mp.pi / 2 * mp.cot(mp.pi * (0.25 + 0.5j * s))
            - mp.log(2 * mp.pi))


def trace_side_integral(f, precision_bits: int):
    """-(1/2pi) integral f^(s) theta'(s) ds over the line for a band function
    f, read only through its even coefficients e_k = v_k + v_-k, as W_R
    reads it: real, odd-part and complex coefficients all work.  f must be a
    LogBandFunction, else TypeError.

    theta' is even, so the integral is -(1/pi) int_0^inf h theta' ds with
    h(s) = (f^(s) + f^(-s))/2 = 2 c0 sin(sL) R(s), R(s) = e_0/s + s sum_k
    (-1)^k e_k/(s^2 - alpha^2 k^2) (mellin_pair_sum's pair form).  With
    a = alpha (K+1):
      - the head int_0^a runs on the line, h in the term-by-term sinc form,
        which does not cancel at the removable poles s = alpha k;
      - the tail int_a^inf is rotated onto the rays s = a +- iy, y >= 0:
        R's poles 0, +-alpha k lie left of a, and those of theta', at
        s = +-i(2n + 1/2), on the imaginary axis.  Each exponential of
        sin(sL) closes in the half-plane where it decays, and e^(+-iaL) =
        (-1)^(K+1) since alpha L = pi, so the tail is

            (-1)^(K+1) c0 int_0^inf e^(-yL) [g(a+iy) + g(a-iy)] dy,  g = R theta',

        which decays instead of oscillating.  theta'(a - iy) = conj
        theta'(a + iy), so a node costs one digamma (_theta_prime) and two
        R.  One bracket serves every band: when every e_k is real, R(a - iy)
        = conj R(a + iy) in mpc arithmetic too, so the bracket is exactly
        2 Re(R theta')(a + iy), and the result is returned as an mpf.
    The head and the ray (split at 4^j/L, j = 0..5) are one quad_checked
    each, within 2^-(precision_bits + 8) (1 + |piece|) else QuadratureError;
    the result is within c0/pi times twice the head's bound plus the ray's.
    """
    if not isinstance(f, LogBandFunction):
        raise TypeError(f"trace_side_integral takes a LogBandFunction, not {type(f).__name__}")
    with mp.workprec(_working_bits(precision_bits, _GUARD)):
        L, alpha, c0 = _band_frame(f.lam2)
        e = f._even_coefficients()
        K = len(e) - 1
        a = alpha * (K + 1)

        def head(s):
            return _pair_terms(e, L, alpha, s) * mp.re(_theta_prime(s))

        def R(s):
            s2 = s * s
            return e[0] / s + s * mp.fsum((-1) ** k * e[k] / (s2 - (alpha * k) ** 2)
                                          for k in range(1, K + 1))

        def tail(y):
            s = mp.mpc(a, y)
            theta = _theta_prime(s)
            return mp.exp(-y * L) * (R(s) * theta + R(mp.conj(s)) * mp.conj(theta))

        rays = [0] + [mpf(4) ** j / L for j in range(6)] + [mp.inf]
        total = -(2 * c0 * quad_checked(head, [0, a], precision_bits) + (
            (-1) ** (K + 1) * c0 * quad_checked(tail, rays, precision_bits))) / mp.pi
        return total if any(mp.im(x) for x in e) else mp.re(total)  # a real band's is an mpf


def arch_trace_check(f: LogBandFunction, precision_bits: int):
    """w_inf = W_R(f) in closed form (weil.w_arch) against the trace side
    (trace_side_integral, two checked quadratures); returns the triple
    (w_inf, trace_side, residual).  The residual is within the trace side's
    quadrature bound, c0 2^-(precision_bits + 8) (3 + 2 |head| + |ray|) / pi
    <= c0 2^-(precision_bits + 6) (1 + |head| + |ray|) / pi, plus w_arch's
    error and the roundings, at the 2^-(precision_bits + _GUARD) level.  f
    must be a LogBandFunction (else TypeError, raised before any quadrature
    starts)."""
    if not isinstance(f, LogBandFunction):
        raise TypeError(f"arch_trace_check takes a LogBandFunction, not {type(f).__name__}")
    with mp.workprec(_working_bits(precision_bits, _GUARD)):
        w_inf = w_arch(f, precision_bits)
        trace = trace_side_integral(f, precision_bits)
        return +w_inf, +trace, +(w_inf - trace)
