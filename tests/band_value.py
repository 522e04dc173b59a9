"""Point values of a LogBandFunction, the tests' oracle for its closed forms.

The package reads a band function only through its band and its
coefficients (the Mellin transform, W_R and the finite places all see the
even coefficients alone), so it has no point evaluator; the tests check
those closed forms against quadratures and sums of these values.
"""

from mpmath import mp, mpf

from zetalab.bandfn import _band_frame
from zetalab.precision import _num, _working_bits


def evaluate_log(f, t, precision_bits):
    """f(e^t) under mp.workprec(precision_bits); zero outside the support
    band.  Pairing k with -k,

        f(e^t) = c0 [v_0 + sum_{k>=1} (e_k cos(alpha k t) + i o_k sin(alpha k t))],

    e_k = v_k + v_-k, o_k = v_k - v_-k; the sine term is left out where
    o_k = 0, so real symmetric coefficients give an mpf.  t = +-inf lies
    outside the band; a NaN t raises ValueError."""
    with mp.workprec(_working_bits(precision_bits)):
        t = _num(t)
        if mp.isnan(t):
            raise ValueError(f"t = {t} is not a number")
        L, alpha, c0 = _band_frame(f.lam2)
        if abs(t) > L:
            return mpf(0)
        v = {k: _num(x) for k, x in f.coeffs.items()}
        acc = [v.get(0, mpf(0))]
        for k in range(1, f.half_width_index + 1):
            cos, sin = mp.cos_sin(alpha * k * t)
            vp, vm = v.get(k, 0), v.get(-k, 0)
            acc.append((vp + vm) * cos)
            if vp != vm:
                acc.append(1j * (vp - vm) * sin)
        return c0 * mp.fsum(acc)
