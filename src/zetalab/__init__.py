"""zetalab: exact BC-system/Witt-ring arithmetic and high-precision spectral
checks around the Riemann-Weil explicit formula.

The exact side works in the group ring Z[Q/Z] (roots of unity with integer
coefficients) and in the monoid of column-monomial matrices over abstract
roots of unity, where the universal eigenvalue invariant tau lives.  The
numeric side evaluates explicit-formula functionals, the truncated Weil
quadratic form and its minuscule eigenvalues, prolate-projected Dirac spectra
against zeta-zero ordinates, and the archimedean local identities, all at
user-selected binary precision.
"""

from zetalab.cyclotomy import Divisor, Root, divisor_mul, rho_tilde, sigma
from zetalab.witt import (
    DivisorMatrix,
    MonoidMatrix,
    compose,
    fourier_pair,
    frobenius,
    smash,
    tau,
    verschiebung,
    wedge,
)

__all__ = [
    "Root",
    "Divisor",
    "sigma",
    "rho_tilde",
    "divisor_mul",
    "MonoidMatrix",
    "DivisorMatrix",
    "compose",
    "tau",
    "frobenius",
    "verschiebung",
    "wedge",
    "smash",
    "fourier_pair",
]

__version__ = "0.1.0"
