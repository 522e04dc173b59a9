"""One precision contract for the numeric half: every public function and
method of bandfn, weil, semilocal, hermitefn, precision and zerotable is a
function of its arguments alone.  Those that compute take precision_bits and
work under their own mp.workprec; the rest are exact.  So on exact inputs
(ints, Fractions, dyadic mpfs) each returns the same bits under an ambient
mpmath precision of 30 and of 2000.  scaling is float64 throughout, and
cyclotomy and witt are exact; they are not listed."""

import ast
from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from zetalab import precision, semilocal, weil, zerotable
from zetalab.bandfn import LogBandFunction
from zetalab.hermitefn import EvenGaussHermite

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zetalab"
MODULES = ("bandfn", "weil", "semilocal", "hermitefn", "precision", "zerotable")


def public_names():
    """module.function and module.Class.method for every public name, by AST,
    each mapped to its ast.arguments."""
    names = {}
    for module in MODULES:
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names[f"{module}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names.update((f"{module}.{node.name}.{m.name}", m) for m in node.body
                             if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    return {name: f.args for name, f in names.items()}


def defaulted(args):
    """The names of the parameters in args that have a default."""
    return [a.arg for a in args.args[len(args.args) - len(args.defaults):]] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


# The bands and the Gauss-Hermite function are those of the Tier-1 checks:
# an odd part and complex coefficients, and a real even band.
BAND = LogBandFunction(4, {0: mpc(1, 0.5), 1: Fraction(1, 3), -1: mpc(-0.25, 2), 2: 1j, -3: Fraction(2, 7)})
BUMP = LogBandFunction.cosine_power(5, 4, 1)
GAUSS_HERMITE = EvenGaussHermite(mpf(5) / 4, [1, mpf(1) / 2, mpf(-3) / 4, mpf(1) / 4])
ORDINATES = [14, mpf(43) / 2, 25, mpf(1) / 4, 3]  # the last two near the grid: term by term
TEXT = "# two ordinates\n14.134725141734693790457251983562470270784\n21.022039638771554992628479593896902777334\n"

CALLS = {
    "bandfn.LogBandFunction.cosine_power": lambda: LogBandFunction.cosine_power(7, 3, 2),
    "bandfn.LogBandFunction.half_width_index": lambda: BAND.half_width_index,
    "bandfn.LogBandFunction.evaluate_log_minus_center": lambda: [
        BAND.evaluate_log_minus_center(t, 64) for t in (Fraction(-1, 5), mpf(2) ** -40, 2)],
    "bandfn.LogBandFunction.mellin": lambda: [BAND.mellin(s, 64) for s in (Fraction(3, 2), mpc(2, -0.5))],
    "bandfn.LogBandFunction.mellin_pair_sum": lambda: [
        f.mellin_pair_sum(ORDINATES, 64) for f in (BAND, BUMP)],
    "weil.is_prime": lambda: [weil.is_prime(n) for n in (1, 2, 91, 97)],
    "weil.w_prime": lambda: [weil.w_prime(f, 64) for f in (BAND, BUMP)],
    "weil.w_arch": lambda: [weil.w_arch(BAND, 64), weil.w_arch(BUMP, 64)],
    "weil.explicit_formula_residual": lambda: weil.explicit_formula_residual(
        BUMP, zerotable.bundled_zero_table().truncated(100), 64),
    "weil.weil_gram_complex": lambda: weil.weil_gram_complex(5, 3, 64),
    "weil.weil_gram": lambda: [weil.weil_gram(5, 4, 64, project) for project in (False, True)],
    "weil.weil_gram_spectrum": lambda: [weil.weil_gram_spectrum(5, 4, 64),
                                        weil.weil_gram_spectrum("1.2", 4, 64, True)],
    "semilocal.quad_checked": lambda: semilocal.quad_checked(lambda x: mp.exp(-x * x), [0, 1], 64),
    "semilocal.gamma_factor": lambda: [semilocal.gamma_factor(z, 64) for z in (Fraction(1, 3), 0.5 + 1.75j)],
    "semilocal.tate_arch_check": lambda: semilocal.tate_arch_check(GAUSS_HERMITE, mpf(3) / 4, 64),
    # arch_trace_check runs trace_side_integral at 64 bits; alone it runs at 16, to save time
    "semilocal.trace_side_integral": lambda: semilocal.trace_side_integral(BAND, 16),
    "semilocal.arch_trace_check": lambda: semilocal.arch_trace_check(BAND, 64),
    "hermitefn.EvenGaussHermite.order": lambda: GAUSS_HERMITE.order,
    "hermitefn.EvenGaussHermite.evaluate": lambda: GAUSS_HERMITE.evaluate(mpf(3) / 8, 64),
    "hermitefn.EvenGaussHermite.fourier": lambda: GAUSS_HERMITE.fourier(64),
    "hermitefn.EvenGaussHermite.decay_radius": lambda: GAUSS_HERMITE.decay_radius(64),
    "precision.jacobi_eigensystem": lambda: precision.jacobi_eigensystem(
        precision.HPMatrix([[7, 3, -1], [3, 5, 2], [-1, 2, 4]], -3, 64)),
    "zerotable.ZeroTable.float_ordinates": lambda: zerotable.parse_zero_table(TEXT).float_ordinates(),
    "zerotable.ZeroTable.truncated": lambda: zerotable.parse_zero_table(TEXT).truncated(1),
    "zerotable.parse_zero_table": lambda: zerotable.parse_zero_table(TEXT),
    "zerotable.bundled_zero_table": lambda: zerotable.bundled_zero_table().ordinates[::1000],
}


# Every public name that takes precision_bits, called at b bits: each must
# refuse a b that is no integer (TypeError) or is below 8 (ValueError)
AT_BITS = {
    "bandfn.LogBandFunction.evaluate_log_minus_center": lambda b: BAND.evaluate_log_minus_center(0, b),
    "bandfn.LogBandFunction.mellin": lambda b: BAND.mellin(1, b),
    "bandfn.LogBandFunction.mellin_pair_sum": lambda b: BAND.mellin_pair_sum(ORDINATES, b),
    "weil.w_prime": lambda b: weil.w_prime(BUMP, b),
    "weil.w_arch": lambda b: weil.w_arch(BAND, b),
    "weil.explicit_formula_residual": lambda b: weil.explicit_formula_residual(
        BUMP, zerotable.bundled_zero_table().truncated(100), b),
    "weil.weil_gram_complex": lambda b: weil.weil_gram_complex(5, 3, b),
    "weil.weil_gram": lambda b: weil.weil_gram(5, 4, b),
    "weil.weil_gram_spectrum": lambda b: weil.weil_gram_spectrum(5, 4, b),
    "semilocal.quad_checked": lambda b: semilocal.quad_checked(lambda x: mp.exp(-x * x), [0, 1], b),
    "semilocal.gamma_factor": lambda b: semilocal.gamma_factor(0.5, b),
    "semilocal.tate_arch_check": lambda b: semilocal.tate_arch_check(GAUSS_HERMITE, mpf(3) / 4, b),
    "semilocal.trace_side_integral": lambda b: semilocal.trace_side_integral(BAND, b),
    "semilocal.arch_trace_check": lambda b: semilocal.arch_trace_check(BAND, b),
    "hermitefn.EvenGaussHermite.evaluate": lambda b: GAUSS_HERMITE.evaluate(mpf(3) / 8, b),
    "hermitefn.EvenGaussHermite.fourier": lambda b: GAUSS_HERMITE.fourier(b),
    "hermitefn.EvenGaussHermite.decay_radius": lambda b: GAUSS_HERMITE.decay_radius(b),
}


def bits(x):
    """x with every mpf and mpc replaced by its exact tuple, recursively."""
    if isinstance(x, mpf):
        return "mpf", x._mpf_
    if isinstance(x, mpc):
        return "mpc", x._mpc_
    if isinstance(x, np.ndarray):
        return "array", x.dtype.str, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(map(bits, x))
    if isinstance(x, Mapping):
        return tuple(sorted((k, bits(v)) for k, v in x.items()))
    if is_dataclass(x):
        return type(x).__name__, tuple(bits(getattr(x, f.name)) for f in fields(x))
    if hasattr(type(x), "__slots__"):  # the package's Immutable values
        return type(x).__name__, tuple(bits(getattr(x, s)) for s in type(x).__slots__ if s[0] != "_")
    assert isinstance(x, (int, Fraction, str)), type(x)
    return x


PUBLIC = public_names()


@pytest.mark.parametrize("name", sorted(set(PUBLIC) | set(CALLS)))
def test_result_ignores_the_ambient_precision(name):
    # a public name with no call here, or a call for a name that is gone, fails
    assert name in PUBLIC, f"{name} is not a public name"
    assert name in CALLS, f"{name} has no call in this test"
    results = []
    for ambient in (30, 2000):
        with mp.workprec(ambient):
            results.append(bits(CALLS[name]()))
    assert results[0] == results[1]


TAKES_BITS = {name for name, args in PUBLIC.items()
              if "precision_bits" in [a.arg for a in args.args + args.kwonlyargs]}


def test_precision_bits_is_never_defaulted():
    # every caller states its precision: no public name falls back on one
    assert sorted(name for name in TAKES_BITS if "precision_bits" in defaulted(PUBLIC[name])) == []


@pytest.mark.parametrize("name", sorted(TAKES_BITS | set(AT_BITS)))
def test_bad_precision_fails_fast(name):
    # a name that takes precision_bits with no call here, or a call for a
    # name that does not take it, fails
    assert name in TAKES_BITS, f"{name} is not a public name that takes precision_bits"
    assert name in AT_BITS, f"{name} has no call in this test"
    for bad in (0, -1):
        with pytest.raises(ValueError, match="precision_bits"):
            AT_BITS[name](bad)
    with pytest.raises(TypeError):
        AT_BITS[name](64.5)


@pytest.mark.parametrize("name", sorted(AT_BITS))
def test_numpy_precision_bits_is_read_as_its_int(name):
    # an index is read once and passed on as an int: a numpy integer gives the
    # int's bits, and bits() refuses any numpy scalar that leaks into a result
    assert bits(AT_BITS[name](np.int64(24))) == bits(AT_BITS[name](24))
