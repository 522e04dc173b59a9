"""The benchmark's four workloads: seeded inputs, the calls, and their checks.

A workload is a fixed mix of operations, one *round*.  The seed draws the
inputs of every round (which test function, which fake ordinate, which random
matrix, in which order) but never the number or kind of operations in it, so
two seeds load the same layers equally.  Each operation is one call (or, for
`exact_tau`, the calls on both sides of one identity) into the public API of
`zetalab`; its output is checked against a stored reference or an exact
identity, and a failed check is counted, never skipped.

Every call goes through a module attribute (`weil.explicit_formula_residual`,
not a name bound at import time here), so the span recorder in `spans.py`
sees it when a traced run patches that attribute.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# explicit_formula: f = LogBandFunction.cosine_power(lam2, q, modulation) has
# 2(q + modulation) + 1 log-Fourier terms and the Mellin side costs one sine
# per term per zero, so an operation's time follows q + modulation.  Every
# split below has q + modulation = 5 (11 terms), so each round costs the same
# while the seed still draws lam2, q and modulation.
EXPLICIT_LAM2 = (4, 5, 7, 11)
EXPLICIT_SPLITS = ((3, 2), (4, 1), (5, 0))
EXPLICIT_BITS = 256
EXPLICIT_MAX_RESIDUAL = 1e-8
# Agreement with the stored reference (bits) below which an operation fails.
EXPLICIT_MIN_BITS = 200

# weil_spectrum: (lam2, K, bits, project_poles), all of which certify today.
# The first three solve the two parity blocks, the next two the full projected
# matrix; (3, 12, 192) integrates every order directly, with no contour.
WEIL_GRID = (
    (5, 24, 128, False),
    (7, 20, 160, False),
    (11, 24, 192, False),
    (5, 16, 128, True),
    (11, 20, 192, True),
    (3, 12, 192, False),
)
# Certified bits -log2(residual / |lambda_min|) below which an operation fails.
WEIL_MIN_BITS = 32

# dirac_resonant: the zeta-cycle protocol of Connes-Consani (arXiv:2106.01715).
DIRAC_ZEROS = 31
DIRAC_M = 4
DIRAC_K = 2
DIRAC_BASIS = 301
# Error gates for the first three zeros, two decades above the errors seen on
# the commit that defined this benchmark (1.2e-13, 1.3e-10, 2.2e-7).
DIRAC_TRUE_ERROR_GATE = (1e-11, 1e-8, 1e-5)
# A fake ordinate is drawn from the middle half of the gap between two
# consecutive zeros, so the null model never sits next to a true zero.
DIRAC_FAKE_WINDOW = (0.25, 0.75)
# The first three zeros must beat every fake by at least this many decades.
DIRAC_MIN_NULL_GAP = 1.0

# exact_tau: random column-monomial matrices.
TAU_DIM = (20, 40)
TAU_MAX_DEN = 12
TAU_FILL = 0.85
TAU_POWER = (2, 5)
FOURIER_DIM = (8, 24)


@dataclass(frozen=True)
class Op:
    """One operation: its kind and the inputs the program receives."""

    kind: str
    params: tuple


@dataclass
class Outcome:
    """A checked operation.  `ok` is False if it raised or failed its check."""

    ok: bool
    bits: float | None = None  # certified bits, where the check defines them
    error: float | None = None  # dirac: min |eigenvalue - ordinate|
    detail: str = ""


@dataclass
class Context:
    """What set-up leaves for the operations: modules, zeros, references."""

    zl: object
    zeros: object
    references: dict


class Modules:
    """The zetalab modules, reached by attribute so patches are seen."""

    def __init__(self):
        from zetalab import bandfn, cyclotomy, precision, scaling, weil, witt, zerotable

        self.bandfn = bandfn
        self.cyclotomy = cyclotomy
        self.precision = precision
        self.scaling = scaling
        self.weil = weil
        self.witt = witt
        self.zerotable = zerotable


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def explicit_key(lam2, q, modulation) -> str:
    return f"lam2={lam2},q={q},mod={modulation}"


def weil_key(lam2, K, bits, project) -> str:
    return f"lam2={lam2},K={K},bits={bits},proj={int(project)}"


# -- rounds -------------------------------------------------------------------


def explicit_round(rng: random.Random) -> list[Op]:
    lam2 = rng.choice(EXPLICIT_LAM2)
    q, modulation = rng.choice(EXPLICIT_SPLITS)
    return [Op("explicit", (lam2, q, modulation))]


def weil_round(rng: random.Random) -> list[Op]:
    grid = list(WEIL_GRID)
    rng.shuffle(grid)
    return [Op("weil", setting) for setting in grid]


def dirac_round(rng: random.Random, ordinates: list[float]) -> list[Op]:
    ops = [Op("dirac_true", (i + 1, ordinates[i])) for i in range(DIRAC_ZEROS)]
    lo, hi = DIRAC_FAKE_WINDOW
    for i in range(DIRAC_ZEROS - 1):
        a, b = ordinates[i], ordinates[i + 1]
        ops.append(Op("dirac_fake", (i + 1, a + (b - a) * rng.uniform(lo, hi))))
    rng.shuffle(ops)
    return ops


def random_monoid_cols(rng: random.Random, n: int) -> tuple:
    """Column map j -> (row, (num, den)) of a random column-monomial matrix."""
    cols = []
    for j in range(1, n + 1):
        if rng.random() < TAU_FILL:
            den = rng.randint(1, TAU_MAX_DEN)
            cols.append((j, rng.randint(1, n), rng.randrange(den), den))
    return (n, tuple(cols))


def tau_round(rng: random.Random) -> list[Op]:
    # tau(smash) runs twice: with six checks the median fell in the gap
    # between the sub-millisecond tau checks and smash (2 ms), where it moved
    # by tens of percent between runs; with seven it falls inside smash.
    kinds = ("tau_smash", "tau_smash", "tau_wedge", "tau_frobenius", "tau_verschiebung")
    ops = [Op(kind, (rng.getrandbits(64),)) for kind in kinds]
    ops += [Op("fourier_delta", (rng.randint(*FOURIER_DIM),)),
            Op("fourier_cyclic", (rng.randint(*FOURIER_DIM),))]
    rng.shuffle(ops)
    return ops


def prepare(op: Op):
    """The inputs an operation hands to the program, built before it is timed.

    A tau operation carries only the seed of its random matrices, so a run
    does not hold every matrix it drew and peak_rss_mb does not grow with the
    number of operations."""
    if not op.kind.startswith("tau_"):
        return op.params
    rng = random.Random(op.params[0])

    def mat():
        return random_monoid_cols(rng, rng.randint(*TAU_DIM))

    if op.kind in ("tau_smash", "tau_wedge"):
        return mat(), mat()
    return rng.randint(*TAU_POWER), mat()


# -- checks ---------------------------------------------------------------------


def agreement_bits(value, reference, cap: float) -> float:
    """-log2 of the relative distance of value to reference, at most cap."""
    from mpmath import mp

    diff = abs(value - reference)
    if diff == 0:
        return float(cap)
    scale = abs(reference) or mp.mpf(1)
    return min(float(cap), float(-mp.log(diff / scale, 2)))


def check_explicit(lhs, rhs, residual, ref: dict, bits: int) -> Outcome:
    """Residual below EXPLICIT_MAX_RESIDUAL and lhs, rhs both agreeing with the
    stored higher-precision reference to at least EXPLICIT_MIN_BITS."""
    from mpmath import mp, mpmathify

    with mp.workprec(bits + 64):
        got = [mpmathify(x) for x in (lhs, rhs, residual)]
        want = [mpmathify(ref[k]) for k in ("lhs", "rhs")]
        if not all(mp.isfinite(x) for x in got):
            return Outcome(False, detail="non-finite output")
        if abs(got[2] - (got[0] - got[1])) > mp.mpf(2) ** (-bits + 8) * (1 + abs(got[0])):
            return Outcome(False, detail="residual is not lhs - rhs")
        agree = min(agreement_bits(g, w, bits) for g, w in zip(got[:2], want))
    if not abs(got[2]) < EXPLICIT_MAX_RESIDUAL:
        return Outcome(False, agree, detail=f"|residual| {float(abs(got[2])):.3e} too large")
    if agree < EXPLICIT_MIN_BITS:
        return Outcome(False, agree, detail=f"only {agree:.1f} bits agree with the reference")
    return Outcome(True, agree)


def check_weil(lam_min, residual, ref: dict, bits: int) -> Outcome:
    """The certificate must accept lambda_min (residual < |lambda_min|, with
    at least WEIL_MIN_BITS to spare) and lambda_min must match the reference
    within both certified residuals plus the input rounding at `bits`."""
    from mpmath import mp, mpmathify

    with mp.workprec(bits + 64):
        lam = mpmathify(lam_min)
        r = mpmathify(residual)
        if not (mp.isfinite(lam) and mp.isfinite(r)) or r < 0:
            return Outcome(False, detail="non-finite output")
        if not r < abs(lam):
            return Outcome(False, detail="certificate refuses lambda_min")
        certified = float(-mp.log(r / abs(lam), 2))
        tol = r + mpmathify(ref["residual"]) + mp.mpf(2) ** (16 - bits)
        if abs(lam - mpmathify(ref["lambda_min"])) > tol:
            return Outcome(False, certified, detail="lambda_min disagrees with the reference")
    if certified < WEIL_MIN_BITS:
        return Outcome(False, certified, detail=f"only {certified:.1f} certified bits")
    return Outcome(True, certified)


def check_dirac(eigenvalues, ordinate: float, gate: float | None) -> Outcome:
    """A full real spectrum whose kernel holds the k prolate directions; for a
    gated true zero, an eigenvalue within the gate of the ordinate."""
    import numpy as np

    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.shape != (DIRAC_BASIS,) or not np.all(np.isfinite(eigs)):
        return Outcome(False, detail="spectrum has the wrong size or is not finite")
    if np.any(np.diff(eigs) < 0):
        return Outcome(False, detail="spectrum is not ascending")
    if np.count_nonzero(np.abs(eigs) < 1e-8) < DIRAC_K:
        return Outcome(False, detail="compressed operator lost its prolate kernel")
    err = float(np.min(np.abs(eigs - ordinate)))
    if gate is not None and not err <= gate:
        return Outcome(False, error=err, detail=f"error {err:.3e} above gate {gate:.0e}")
    return Outcome(True, error=err)


def null_gap_decades(outcomes: list[tuple[Op, Outcome]]) -> float | None:
    """min over the first three zeros of log10(smallest fake error / its error)."""
    true_errs = [o.error for op, o in outcomes if op.kind == "dirac_true" and op.params[0] <= 3]
    fake_errs = [o.error for op, o in outcomes if op.kind == "dirac_fake"]
    if not true_errs or not fake_errs or None in true_errs or None in fake_errs:
        return None
    return math.log10(min(fake_errs) / max(max(true_errs), 1e-300))


# -- execution --------------------------------------------------------------------


def _monoid(zl, spec):
    n, cols = spec
    Root = zl.cyclotomy.Root
    return zl.witt.MonoidMatrix(n, {j: (i, Root(num, den)) for j, i, num, den in cols})


def execute(ctx: Context, op: Op, inputs):
    """Run one operation on its prepared inputs and return the raw output
    (timed by the caller)."""
    zl = ctx.zl
    if op.kind == "explicit":
        lam2, q, modulation = inputs
        f = zl.bandfn.LogBandFunction.cosine_power(lam2, q, modulation)
        return zl.weil.explicit_formula_residual(f, ctx.zeros, EXPLICIT_BITS)
    if op.kind == "weil":
        lam2, K, bits, project = inputs
        return zl.weil.weil_gram_spectrum(lam2, K, bits, project)
    if op.kind in ("dirac_true", "dirac_fake"):
        lam = zl.scaling.resonant_lambda(DIRAC_M, inputs[1])
        return zl.scaling.dirac_spectrum(lam, DIRAC_K, DIRAC_BASIS, ctx.zeros)
    witt = zl.witt
    cyc = zl.cyclotomy
    if op.kind == "tau_smash":
        a, b = (_monoid(zl, s) for s in inputs)
        return witt.tau(witt.smash(a, b)), cyc.divisor_mul(witt.tau(a), witt.tau(b))
    if op.kind == "tau_wedge":
        a, b = (_monoid(zl, s) for s in inputs)
        return witt.tau(witt.wedge(a, b)), witt.tau(a) + witt.tau(b)
    if op.kind == "tau_frobenius":
        n, spec = inputs
        t = _monoid(zl, spec)
        return witt.tau(witt.frobenius(n, t)), cyc.sigma(n, witt.tau(t))
    if op.kind == "tau_verschiebung":
        n, spec = inputs
        t = _monoid(zl, spec)
        return witt.tau(witt.verschiebung(n, t)), cyc.rho_tilde(n, witt.tau(t))
    if op.kind == "fourier_delta":
        V, _, C, D = witt.fourier_pair(inputs[0])
        return D @ V, V @ C
    if op.kind == "fourier_cyclic":
        _, W, C, D = witt.fourier_pair(inputs[0])
        return C @ W, W @ D
    raise ValueError(f"unknown operation kind {op.kind!r}")


def check(ctx: Context, op: Op, out) -> Outcome:
    if op.kind == "explicit":
        ref = ctx.references["explicit"][explicit_key(*op.params)]
        return check_explicit(out.lhs, out.rhs, out.residual, ref, EXPLICIT_BITS)
    if op.kind == "weil":
        ref = ctx.references["weil"][weil_key(*op.params)]
        if len(out.eigenvalues) != 2 * op.params[1] + 1 - (2 if op.params[3] else 0):
            return Outcome(False, detail="wrong number of eigenvalues")
        return check_weil(out.eigenvalues[0], out.residuals[0], ref, op.params[2])
    if op.kind in ("dirac_true", "dirac_fake"):
        index, ordinate = op.params
        gate = None
        if op.kind == "dirac_true" and index <= len(DIRAC_TRUE_ERROR_GATE):
            gate = DIRAC_TRUE_ERROR_GATE[index - 1]
        return check_dirac(out.eigenvalues, ordinate, gate)
    left, right = out
    if left != right:
        return Outcome(False, detail="exact identity fails")
    return Outcome(True)


@dataclass(frozen=True)
class Workload:
    name: str
    new_round: object  # (rng, ctx) -> list[Op]
    warmup: object  # ctx -> None; one call on an input outside the timed set


def _warm_explicit(ctx):
    # lam2 = 3 lies outside EXPLICIT_LAM2; a 200-zero prefix builds the same
    # quadrature and constant caches as a full operation at a fraction of its cost.
    f = ctx.zl.bandfn.LogBandFunction.cosine_power(3, 2, 0)
    ctx.zl.weil.explicit_formula_residual(f, ctx.zeros.truncated(200), EXPLICIT_BITS)


def _warm_weil(ctx):
    for bits in sorted({s[2] for s in WEIL_GRID}):
        ctx.zl.weil.weil_gram_spectrum(2, 4, bits)


def _warm_dirac(ctx):
    lam = ctx.zl.scaling.resonant_lambda(DIRAC_M, 12.5)  # below the first zero
    ctx.zl.scaling.dirac_spectrum(lam, DIRAC_K, DIRAC_BASIS, ctx.zeros)


def _warm_tau(ctx):
    # seed -1 and n = 5 lie outside what tau_round draws
    for op in (Op("tau_smash", (-1,)), Op("fourier_delta", (5,))):
        execute(ctx, op, prepare(op))


def _dirac_ordinates(ctx) -> list[float]:
    return [float(g) for g in ctx.zeros.ordinates[:DIRAC_ZEROS]]


WORKLOADS = {
    "explicit_formula": Workload(
        "explicit_formula", lambda rng, ctx: explicit_round(rng), _warm_explicit
    ),
    "weil_spectrum": Workload("weil_spectrum", lambda rng, ctx: weil_round(rng), _warm_weil),
    "dirac_resonant": Workload(
        "dirac_resonant", lambda rng, ctx: dirac_round(rng, _dirac_ordinates(ctx)), _warm_dirac
    ),
    "exact_tau": Workload("exact_tau", lambda rng, ctx: tau_round(rng), _warm_tau),
}
