"""The exact multiplicative convolution f * g~ of two LogBandFunctions, an
independent oracle for the closed forms in zetalab.

g~(x) = conj(g(1/x)).  The convolution of two finite log-Fourier series on
[lambda^-1, lambda] is not another such series: it is a piecewise structure
(trigonometric polynomial plus t * trigonometric polynomial on each side of
t = 0) supported in [lambda^-2, lambda^2].  ConvolvedBandFunction stores that
exact form; its Mellin transform factorizes through the inputs.  It exposes
evaluate_log_minus_center, so arch_quadrature.w_arch_quadrature integrates
it, which is how the tests check the closed-form archimedean terms.  The
piece table is built once per working precision and kept.
"""

from __future__ import annotations

from mpmath import mp, mpf

from zetalab.bandfn import LogBandFunction, _num
from zetalab.immutable import Immutable


class ConvolvedBandFunction(Immutable):
    """Exact form of f * g~ for two LogBandFunctions on the same band.

    On each side of t = 0 the value is sum_m (p_m + t q_m) e^(i alpha m t),
    with alpha the input band's frequency step; support is |t| <= 2L.
    """

    __slots__ = ("lam2", "f", "g", "_pieces_at")

    def __init__(self, f: LogBandFunction, g: LogBandFunction):
        if f.lam2 != g.lam2:
            raise ValueError("convolution inputs must share the support band")
        object.__setattr__(self, "lam2", f.lam2)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_pieces_at", {})

    def log_halfwidth(self):
        return mp.log(_num(self.lam2))  # 2L of the inputs

    def _pieces(self):
        """The pieces under the ambient precision, built once per precision."""
        pieces = self._pieces_at.get(mp.prec)
        if pieces is None:
            pieces = self._pieces_at[mp.prec] = self._build_pieces()
        return pieces

    def _build_pieces(self):
        """Coefficient arrays (p_pos, q_pos, p_neg, q_neg) as dicts over m,
        with alpha and L: O(K^2) mpmath sums."""
        L = self.f.log_halfwidth()
        alpha = mp.pi / L
        c2 = 1 / (2 * L)
        a = {k: _num(v) for k, v in self.f.coeffs.items()}
        bbar = {k: mp.conj(_num(v)) for k, v in self.g.coeffs.items()}
        ks = sorted(set(a) | set(bbar))
        p_pos: dict[int, object] = {}
        q_pos: dict[int, object] = {}
        p_neg: dict[int, object] = {}
        q_neg: dict[int, object] = {}
        for m in ks:
            am = a.get(m, 0)
            bm = bbar.get(m, 0)
            diag = am * bm if (am and bm) else 0
            cross = mpf(0)
            if am:
                terms = [
                    am * bbar[j] * (-1) ** ((j - m) % 2) / (1j * alpha * (j - m))
                    for j in bbar
                    if j != m
                ]
                if terms:
                    cross += mp.fsum(terms)
            if bm:
                terms = [
                    a[k] * bm * (-1) ** ((m - k) % 2) / (1j * alpha * (m - k))
                    for k in a
                    if k != m
                ]
                if terms:
                    cross -= mp.fsum(terms)
            base = 2 * L * diag
            p_pos[m] = c2 * (base + cross)
            p_neg[m] = c2 * (base - cross)
            q_pos[m] = -c2 * diag
            q_neg[m] = c2 * diag
        return p_pos, q_pos, p_neg, q_neg, alpha, L

    def evaluate_log(self, t):
        p_pos, q_pos, p_neg, q_neg, alpha, L = self._pieces()
        if abs(t) > 2 * L:
            return mpf(0)
        p, q = (p_pos, q_pos) if t >= 0 else (p_neg, q_neg)
        return mp.fsum((p[m] + t * q[m]) * mp.expj(alpha * m * t) for m in p)

    def evaluate(self, x):
        if x <= 0:
            raise ValueError("defined on the positive half-line")
        return self.evaluate_log(mp.log(x))

    def value_at_one(self):
        p_pos, _, _, _, _, _ = self._pieces()
        return mp.fsum(p_pos.values())

    def evaluate_log_minus_center(self, t):
        p_pos, q_pos, p_neg, q_neg, alpha, L = self._pieces()
        if abs(t) > 2 * L:
            return -self.value_at_one()
        p, q = (p_pos, q_pos) if t >= 0 else (p_neg, q_neg)
        acc = []
        for m in p:
            half = alpha * m * t / 2
            acc.append(p[m] * 2j * mp.sin(half) * mp.expj(half) + t * q[m] * mp.expj(2 * half))
        return mp.fsum(acc)

    def mellin(self, s):
        """(f * g~)^(s) = f^(s) * conj(g^(conj(s))): Hermitian pairing form."""
        return self.f.mellin(s) * mp.conj(self.g.mellin(mp.conj(s)))

    def __repr__(self):
        return f"ConvolvedBandFunction(lam2={self.lam2})"


def star_convolve(f: LogBandFunction, g: LogBandFunction) -> ConvolvedBandFunction:
    """Multiplicative convolution f * g~ with g~(x) = conj(g(1/x))."""
    return ConvolvedBandFunction(f, g)
