"""Recompute perfbench/references.json at higher precision than the workloads.

explicit_formula references run explicit_formula_residual over the bundled
10^4 zeros at EXPLICIT_REF_BITS; weil_spectrum references run
weil_gram_spectrum at the workload's precision plus WEIL_EXTRA_BITS.  Run
from the repository root (takes a few minutes):

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from mpmath import mp  # noqa: E402
from zetalab import bandfn, weil, zerotable  # noqa: E402

EXPLICIT_REF_BITS = 384
WEIL_EXTRA_BITS = 64
EXPLICIT_DIGITS = 100
WEIL_DIGITS = 50


def main() -> None:
    zeros = zerotable.bundled_zero_table()
    out = {"explicit": {}, "weil": {}}
    out["explicit_precision_bits"] = EXPLICIT_REF_BITS
    out["weil_extra_bits"] = WEIL_EXTRA_BITS
    for lam2 in wl.EXPLICIT_LAM2:
        for q, modulation in wl.EXPLICIT_SPLITS:
            t0 = time.perf_counter()
            f = bandfn.LogBandFunction.cosine_power(lam2, q, modulation)
            chk = weil.explicit_formula_residual(f, zeros, EXPLICIT_REF_BITS)
            out["explicit"][wl.explicit_key(lam2, q, modulation)] = {
                k: mp.nstr(mp.re(getattr(chk, k)), EXPLICIT_DIGITS) for k in ("lhs", "rhs", "residual")
            }
            print(f"explicit {lam2} {q} {modulation}: {time.perf_counter() - t0:.1f} s", flush=True)
    for lam2, K, bits, project in wl.WEIL_GRID:
        t0 = time.perf_counter()
        spec = weil.weil_gram_spectrum(lam2, K, bits + WEIL_EXTRA_BITS, project)
        out["weil"][wl.weil_key(lam2, K, bits, project)] = {
            "lambda_min": mp.nstr(spec.eigenvalues[0], WEIL_DIGITS),
            "residual": mp.nstr(spec.residuals[0], 5),
        }
        print(f"weil {lam2} {K} {bits} {project}: {time.perf_counter() - t0:.1f} s", flush=True)
    wl.REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
