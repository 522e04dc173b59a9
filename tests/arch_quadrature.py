"""W_R(f) by certified quadrature, the tests' independent oracle for the
closed forms of zetalab.weil.

weil.w_arch evaluates W_R(f) = (log 4pi + gamma) f(1) + the archimedean
principal-value integral in closed form for a LogBandFunction, and
weil._arch_integrals does the same for the Weil Gram's one-dimensional
integrals.  The routes here integrate the defining integrands with tanh-sinh
instead, under semilocal.quad_checked's error-estimate check, so agreement
checks the closed forms.
"""

from __future__ import annotations

from mpmath import mp, mpf

from zetalab.semilocal import _GUARD, quad_checked


def w_arch_quadrature(f, precision_bits: int = 256, breakpoints=()):
    """(log 4pi + gamma) f(1) + the archimedean principal-value integral.

    Two routes, by input:
      - a band function that computes at the ambient precision (duck-typed:
        anything with log_halfwidth, value_at_one and
        evaluate_log_minus_center, such as the exact convolution f * g~ of
        convolved_band) is integrated over its support with the exact
        cancellation-free integrand, plus a closed-form tail beyond it;
      - a plain callable f(x) is integrated over [0, inf) in log coordinates
        with local precision boosts near the removable singularity at x = 1.
        Known kinks of f (in log coordinates) can be passed as breakpoints so
        the quadrature splits there.
    """
    with mp.workprec(precision_bits + _GUARD):
        if hasattr(f, "log_halfwidth"):
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
            core = quad_checked(integrand, [0, S], precision_bits)
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
        core = quad_checked(integrand, interval, precision_bits)
        return +((mp.log(4 * mp.pi) + mp.euler) * f1 + core)
