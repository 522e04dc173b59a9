from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from zetalab.bandfn import LogBandFunction
from zetalab.hermitefn import EvenGaussHermite
from zetalab.semilocal import (
    QuadratureError,
    _theta_prime,
    arch_trace_check,
    gamma_factor,
    quad_checked,
    tate_arch_check,
)

GAUSS_HERMITE = EvenGaussHermite(mpf("1.3"), [1, mpf("0.5"), mpf(-2) / 3, mpf("0.25")])


def u_arch(s, precision_bits):
    """u(s) = gamma_R(1/2+is)/gamma_R(1/2-is), modulus 1 for real s: the
    functional-equation unitary on the critical line, from mpmath's gamma."""
    return gamma_factor(0.5 + 1j * s, precision_bits) / gamma_factor(0.5 - 1j * s, precision_bits)


@pytest.mark.parametrize("s", ["0.7", "3.7", "-11/3"])
def test_theta_prime_is_the_phase_derivative(s):
    # theta' (one digamma, by reflection and duplication) against d/ds arg
    # u(s) = Im u'(s)/u(s), u from two gamma values, differentiated by mp.diff;
    # u is asked for 512 bits, as mp.diff's differences cancel most of them
    with mp.workprec(128):
        s = Fraction(s)
        s = mpf(s.numerator) / s.denominator
        phase = mp.im(mp.diff(lambda x: u_arch(x, 512), s) / u_arch(s, 512))
        assert abs(_theta_prime(s) - phase) < mpf(2) ** -100


def test_tate_functional_equation():
    bits = 96
    lhs, rhs, residual = tate_arch_check(GAUSS_HERMITE, mpf("0.7"), bits)
    # each side is certified to 2^-(bits+7) (1 + |side|) by quad_checked
    assert abs(lhs) > mpf("0.1")
    assert abs(residual) < mpf(2) ** -(bits - 8)


def test_quadrature_refuses_an_unconverged_estimate():
    # the raw x^(is) integrand, without tate_arch_check's closed-form g(0)
    # term: tanh-sinh's estimate stalls near 1e-29 at 128 bits, above the
    # 2^-136 (1 + |value|) tolerance.  The integrand is unbounded at 0, so
    # it breaks quad_checked's premise: at 96 to 126 bits the estimate
    # reaches 1e-44 to 1e-53 while the true error is 4e-29 to 4e-25, and
    # the call certifies falsely.  At 128 bits the refusal guards the rule's
    # margin: with the rule at bits + 32 or bits + 40 this call is accepted.
    bits, s = 128, mpf("0.7")
    with mp.workprec(bits):
        radius = GAUSS_HERMITE.decay_radius(bits + 32)
    with pytest.raises(QuadratureError):
        # f at the rule's bits + 48: evaluate adds its 16 guard bits
        quad_checked(lambda x: GAUSS_HERMITE.evaluate(x, bits + 32)
                     * mp.power(x, 1j * s - mpf(1) / 2),
                     [0, 1, radius], bits)
    # a converged call returns the same bits under any ambient precision
    gauss = []
    for ambient in (30, 2000):
        with mp.workprec(ambient):
            gauss.append(quad_checked(lambda x: mp.exp(-x * x), [0, 1], 64))
    assert gauss[0]._mpf_ == gauss[1]._mpf_


@pytest.mark.parametrize(
    "integrand",
    [lambda x: mp.nan, lambda x: mp.nan if x == mpf(1) / 2 else 1, lambda x: mp.inf, lambda x: mp.ninf],
    ids=["nan", "nan-at-one-node", "inf", "minus-inf"],
)
def test_quadrature_refuses_non_finite_values(integrand):
    # a NaN or infinite value or estimate makes the tolerance NaN or
    # infinite, which no comparison with the estimate catches; the midpoint
    # is a tanh-sinh node
    with pytest.raises(QuadratureError):
        quad_checked(integrand, [0, 1], 64)


@pytest.mark.parametrize("point", [mp.nan, mp.inf, mp.ninf, float("inf")],
                         ids=["nan", "inf", "minus-inf", "float-inf"])
def test_non_finite_point_fails_fast(point, monkeypatch):
    # refused with ValueError before any quadrature starts
    from zetalab import semilocal

    monkeypatch.setattr(semilocal, "quad_checked", lambda *args: pytest.fail("a quadrature ran"))
    with pytest.raises(ValueError):
        tate_arch_check(GAUSS_HERMITE, point, 64)
    with pytest.raises(ValueError):
        gamma_factor(point, 64)


@pytest.mark.parametrize(
    "coeffs, bits",
    [
        (LogBandFunction.cosine_power(4, 3, 2).coeffs, 128),
        # an odd part and complex coefficients: f^ is neither even nor real
        ({0: mpc(1, 0.5), 1: Fraction(1, 3), -1: mpc(-0.25, 2), 2: 1j, -3: Fraction(2, 7)}, 64),
    ],
    ids=["cosine-power-128", "complex-odd-64"],
)
def test_arch_trace_matches_closed_form(coeffs, bits):
    # W_R(f) in closed form against -(1/2pi) int f^ theta', head on the line
    # and the tail on the rays a +- iy.  arch_trace_check's bound is
    # c0 2^-(bits+6) (1 + |head| + |ray|) / pi with c0 = 0.849 at lambda^2 = 4;
    # |head| + |ray| is 1.20 for cosine-power-128 and 4.36 for complex-odd-64,
    # so the bound is 2^-(bits+6.75) and 2^-(bits+5.46): 2^-(bits+4) leaves
    # room for w_arch's error, at the 2^-(bits+48) level.  The residuals are
    # 1.0e-53 and 7.7e-34.
    w_inf, trace, residual = arch_trace_check(LogBandFunction(4, coeffs), bits)
    assert abs(w_inf) > mpf("0.1")
    assert abs(residual) <= mpf(2) ** -(bits + 4)
    if all(mp.im(v) == 0 for v in coeffs.values()):
        # a real band: both sides and the residual are real, not mpc
        assert [type(x) for x in (w_inf, trace, residual)] == [mpf] * 3
