"""Test functions on the multiplicative half-line, supported in [1/lambda, lambda].

LogBandFunction is a finite series over the orthonormal log-Fourier basis
psi_k(u) = (2L)^(-1/2) exp(i pi k log(u)/L) on [lambda^-1, lambda], L = log
lambda, extended by zero.  Its Mellin transform along vertical lines is an
entire closed form, sin(sL) times a rational function of s, which is what
makes explicit-formula sums over thousands of zeros cheap: the zero sum
(mellin_pair_sum) costs one sine per zero.

The multiplicative convolution f * g~ (g~(x) = conj(g(1/x))) of two such
series is not another finite log-Fourier series: it is a piecewise structure
(trigonometric polynomial plus t * trigonometric polynomial on each side of
t = 0) supported in [lambda^-2, lambda^2].  ConvolvedBandFunction stores that
exact form; its Mellin transform factorizes through the inputs.

Coefficients may be ints, Fractions, floats or mpmath numbers; they are
converted under the ambient mpmath precision at evaluation time, so the same
object can be used at any working precision.  ConvolvedBandFunction builds its
piece table once per precision and keeps it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from mpmath import mp, mpf

from zetalab.immutable import Immutable


def _num(v):
    if isinstance(v, Fraction):
        return mpf(v.numerator) / v.denominator
    return mp.mpmathify(v)


def _sinc(z, L):
    """sin(zL)/z, by its Taylor form L (1 - (zL)^2/6) once |zL| < 2^(-prec/2)
    (the dropped term is below 2^(-2 prec) relative)."""
    zL = z * L
    if abs(zL) < mpf(2) ** (-mp.prec // 2):
        return L * (1 - zL * zL / 6)
    return mp.sin(zL) / z


class LogBandFunction(Immutable):
    """Finite log-Fourier series on [lambda^-1, lambda], zero outside.

    lam2 is lambda^2, stored exactly (so e.g. lambda = sqrt(11) is exact at
    every precision); coeffs maps k in -K..K to the psi_k coefficient.
    """

    __slots__ = ("lam2", "coeffs")

    def __init__(self, lam2, coeffs: Mapping[int, object]):
        if not (lam2 > 1):
            raise ValueError("lambda must exceed 1")
        object.__setattr__(self, "lam2", lam2)
        object.__setattr__(self, "coeffs", {int(k): v for k, v in coeffs.items() if v != 0})

    @classmethod
    def cosine_power(cls, lam2, q: int, modulation: int = 0) -> "LogBandFunction":
        """(1 + cos(pi t / L))^q [* cos(modulation * pi t / L)] in t = log u.

        Exact Fraction coefficients; vanishes to order 2q at the endpoints,
        so the Mellin transform decays like s^-(2q+1): the workhorse family
        of smooth real even test functions.
        """
        if q < 1:
            raise ValueError("q must be >= 1")
        base = {-1: Fraction(1, 2), 0: Fraction(1), 1: Fraction(1, 2)}
        acc = {0: Fraction(1)}
        for _ in range(q):
            nxt: dict[int, Fraction] = {}
            for ka, va in acc.items():
                for kb, vb in base.items():
                    nxt[ka + kb] = nxt.get(ka + kb, Fraction(0)) + va * vb
            acc = nxt
        if modulation:
            mod = {-modulation: Fraction(1, 2), modulation: Fraction(1, 2)}
            nxt = {}
            for ka, va in acc.items():
                for kb, vb in mod.items():
                    nxt[ka + kb] = nxt.get(ka + kb, Fraction(0)) + va * vb
            acc = nxt
        return cls(lam2, acc)

    # -- geometry under the ambient precision --------------------------------

    def log_halfwidth(self):
        return mp.log(_num(self.lam2)) / 2

    def _frame(self):
        L = self.log_halfwidth()
        return L, mp.pi / L, 1 / mp.sqrt(2 * L)

    @property
    def half_width_index(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def is_real(self) -> bool:
        return all(
            mp.mpmathify(self.coeffs.get(-k, 0)) == mp.conj(_num(v))
            for k, v in self.coeffs.items()
        )

    def star(self) -> "LogBandFunction":
        """f~(x) = conj(f(1/x)); in this basis the coefficients conjugate."""
        return LogBandFunction(self.lam2, {k: mp.conj(_num(v)) for k, v in self.coeffs.items()})

    def even_coefficients(self) -> list:
        """e_0 = v_0 and e_k = v_k + v_-k for k = 1..K: the coefficients of
        f(e^t) + f(e^-t) = 2 c0 sum_k e_k cos(alpha k t), all that the zero
        sum f^(g) + f^(-g) and the archimedean term W_R(f) see of f."""
        v = {k: _num(x) for k, x in self.coeffs.items()}
        K = self.half_width_index
        return [v.get(0, mpf(0))] + [v.get(k, 0) + v.get(-k, 0) for k in range(1, K + 1)]

    def norm_sq(self):
        """L^2(d*x) norm squared (the basis is orthonormal)."""
        return mp.fsum(abs(_num(v)) ** 2 for v in self.coeffs.values())

    # -- values ----------------------------------------------------------------

    def evaluate_log(self, t):
        """Value at u = e^t; zero outside the support band."""
        L, alpha, c0 = self._frame()
        if abs(t) > L:
            return mpf(0)
        return c0 * mp.fsum(_num(v) * mp.expj(alpha * k * t) for k, v in self.coeffs.items())

    def evaluate(self, x):
        if x <= 0:
            raise ValueError("defined on the positive half-line")
        return self.evaluate_log(mp.log(x))

    def value_at_one(self):
        L, alpha, c0 = self._frame()
        return c0 * mp.fsum(_num(v) for v in self.coeffs.values())

    def evaluate_log_minus_center(self, t):
        """f(e^t) - f(1), computed without cancellation for small t."""
        L, alpha, c0 = self._frame()
        if abs(t) > L:
            return -self.value_at_one()
        acc = []
        for k, v in self.coeffs.items():
            half = alpha * k * t / 2
            acc.append(_num(v) * 2j * mp.sin(half) * mp.expj(half))
        return c0 * mp.fsum(acc)

    # -- Mellin transform -------------------------------------------------------

    def mellin(self, s):
        """f^(s) = integral f(x) x^(-is) d*x; entire in s, closed form."""
        L, alpha, c0 = self._frame()
        return 2 * c0 * mp.fsum(_num(v) * _sinc(alpha * k - s, L) for k, v in self.coeffs.items())

    def mellin_pair_sum(self, ordinates):
        """Sum of f^(g) + f^(-g) over the real ordinates g, one sine per g.

        Since alpha L = pi, sin((alpha k - s) L) = (-1)^(k+1) sin(sL), so

            f^(s) = 2 c0 sin(sL) sum_k (-1)^k v_k/(s - alpha k),

        and f^(-s) is the same sum with v_k replaced by v_-k.  Hence

            f^(g) + f^(-g) = 2 c0 sin(gL) sum_k d_k/(g - alpha k),
            d_k = (-1)^k (v_k + v_-k).

        d is even in k (the odd part of the coefficients cancels), so pairing
        k with -k leaves, with e_k from even_coefficients,

            f^(g) + f^(-g) = 4 c0 sin(gL) [e_0/g + g sum_{k>=1} (-1)^k e_k/(g^2 - alpha^2 k^2)]:

        one sine and K divisions per ordinate; the identity is exact, so
        there is no tail.  At g = alpha k, sin(gL) and g - alpha k both
        vanish, and near it their quotient loses about
        log2(alpha k/|g - alpha k|) bits.  So an ordinate with
        |g| <= alpha K + 1 is summed term by term as mellin does, Taylor
        branch included, with S(z) = sin(zL)/z:

            f^(g) + f^(-g) = 4 c0 [e_0 S(g) + sum_{k>=1} e_k (S(g - alpha k) + S(g + alpha k))/2].

        Every other ordinate is at least 1 from the grid, where the pair form
        loses at most log2(alpha K + 1) bits.  The sum is accumulated one
        ordinate at a time under the ambient precision, building no list;
        its rounding is at most len(ordinates) 2^-prec times the sum of the
        terms' sizes.
        """
        L, alpha, c0 = self._frame()
        e = self.even_coefficients()
        K = len(e) - 1
        pairs = [((-1) ** k * e[k], (alpha * k) ** 2) for k in range(1, K + 1) if e[k]]
        edge = alpha * K + 1
        acc = mpf(0)
        for g in ordinates:
            if abs(g) <= edge:
                acc += e[0] * _sinc(g, L) + mp.fsum(
                    e[k] * (_sinc(g - alpha * k, L) + _sinc(g + alpha * k, L)) / 2
                    for k in range(1, K + 1))
            else:
                g2 = g * g
                acc += mp.sin(g * L) * (e[0] / g + g * sum(c / (g2 - b) for c, b in pairs))
        return 4 * c0 * acc

    def __repr__(self):
        return f"LogBandFunction(lam2={self.lam2}, K={self.half_width_index})"


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
