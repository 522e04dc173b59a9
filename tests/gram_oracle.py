"""The Weil Gram's parity blocks assembled in mpf arithmetic: the oracle for
weil._parity_blocks, which assembles them on integers.

It forms the same entries in mpf arithmetic at the ambient precision: a
cos_sin table over every order and prime power, the prime sums by fsum, and
an mpf entry loop.  I(m) and J(k) come from weil._arch_integrals, read as
mpfs.  oracle_scale is the magnitude its own error count scales with.
"""

import ast
from pathlib import Path

from mpmath import mp, mpf

from zetalab.bandfn import _band_frame, _exact
from zetalab.weil import _GUARD, _arch_integrals, _pole_functionals, _prime_powers

# The benchmark's Weil grid, (lam2, K, bits, project_poles): the literal in
# perfbench/workloads.py, read without importing the bench.
_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
[WEIL_GRID] = [ast.literal_eval(node.value) for node in ast.parse(_WORKLOADS.read_text()).body
               if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WEIL_GRID" for t in node.targets)]


def mpf_parity_blocks(lam2, K, precision_bits):
    """The even and odd blocks of weil._parity_blocks as mpf rows, formed in
    mpf arithmetic at the ambient precision, the formulas of its docstring
    term by term."""
    L, alpha, c0 = _band_frame(lam2)
    c2 = c0 * c0
    r = c2 / alpha
    Pe, Po = _pole_functionals(K, L, alpha, c0)
    p = precision_bits + _GUARD
    I, J = ([mpf((x, -p), prec=0) for x in v]
            for v in _arch_integrals(K, L, alpha, c2, precision_bits))
    pp = _prime_powers(_exact(lam2) ** 2)
    arch_const = mp.log(4 * mp.pi) + mp.euler + mp.log(mp.tanh(L))
    cs = [[mp.cos_sin(alpha * m * t) for _, t, _ in pp] for m in range(K + 1)]
    tw = [w * (2 * L - t) for _, t, w in pp]
    D = [I[m] + 2 * mp.fsum(w * s for (_, _, w), (_, s) in zip(pp, row)) for m, row in enumerate(cs)]
    T = [arch_const + J[m] + 2 * c2 * mp.fsum(v * c for v, (c, _) in zip(tw, row))
         for m, row in enumerate(cs)]
    even = [[None] * (K + 1) for _ in range(K + 1)]
    odd = [[None] * K for _ in range(K)]
    even[0][0] = 2 * Pe[0] ** 2 - T[0]
    for k in range(1, K + 1):
        q = r * D[k] / k
        even[0][k] = even[k][0] = 2 * Pe[0] * Pe[k] + mp.sqrt(2) * (-q if k % 2 else q)
        even[k][k] = 2 * Pe[k] ** 2 - T[k] + q
        odd[k - 1][k - 1] = -2 * Po[k - 1] ** 2 - T[k] - q
        for j in range(1, k):
            s = -r if (j + k) % 2 else r
            a = (D[k] - D[j]) / (j - k)
            b = (D[k] + D[j]) / (j + k)
            even[j][k] = even[k][j] = 2 * Pe[j] * Pe[k] - s * (a - b)
            odd[j - 1][k - 1] = odd[k - 1][j - 1] = -2 * Po[j - 1] * Po[k - 1] - s * (a + b)
    return even, odd


def oracle_scale(lam2, K, precision_bits):
    """S, a magnitude with every entry's terms adding up to at most 2S in
    absolute value, for the hand count of mpf_parity_blocks' own error.  S
    is the sum of:
      - pole: 32 c2 sinh(L/2)^2, as every pole functional has P^2 <= 32 c2
        sinh(L/2)^2 (weil._gram_entry_error), so 2 |P_j P_k| <= 2 (32 c2
        sinh(L/2)^2);
      - prime: 2W, with W the sum of the weights of the prime powers of h's
        band, the edge's half weight included; T's prime sum is at most
        2 c2 (2L) W = 2W, and so is D's;
      - arch: log 4pi + gamma, psi(1/2) and Im psi(w) are each below 4 in
        absolute value; log tanh L enters twice, in T and as J's
        2 artanh(lambda^-2); |Re psi(w)| is at most max(-psi(1/4), |Re
        psi(w_K)|), as Re psi(1/4 + iy) increases with y; (c2/2)|psi'(w)| <=
        (c2/2) psi'(1/4) < 9 c2; and the two series of _arch_integrals sum to
        less than (2 + 32 c2)/(lambda - lambda^-3).
    T enters an entry with weight at most 1 and D with weight below 1/2, so
    the terms of T and D add up to at most S - 32 c2 sinh(L/2)^2 + W.
    """
    with mp.workprec(precision_bits + _GUARD):
        L = _band_frame(lam2)[0]
        lam, c2 = mp.exp(L), 1 / (2 * L)
        weights = mp.fsum(w for _, _, w in _prime_powers(_exact(lam2) ** 2))
        psi_top = abs(mp.digamma(mp.mpc(mpf(1) / 4, mp.pi * K / (2 * L))).real)
        psi_quarter = -mp.euler - mp.pi / 2 - 3 * mp.log(2)
        return (32 * c2 * mp.sinh(L / 2) ** 2 + 2 * weights + 12 - 2 * mp.log(mp.tanh(L))
                + max(-psi_quarter, psi_top) + 9 * c2 + (2 + 32 * c2) / (lam - lam**-3))
