#!/usr/bin/env python3
"""Print a SHA-256 digest of the exact_tau workload's outputs over seeded rounds.

Run it from the root of two checkouts and compare the lines: equal digests
mean both trees computed the same divisors and matrices, entry by entry and
term by term, for every operation drawn.  The operations are the benchmark's
own (perfbench/workloads.py: tau_round, prepare, execute, check).

    python3 scripts/exact_tau_digest.py [--seeds 1 2] [--rounds 90]
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def canonical(value) -> str:
    """repr of a Divisor, or of a DivisorMatrix's rows (its own repr shows only n)."""
    return repr(getattr(value, "rows", value))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--rounds", type=int, default=90)
    args = parser.parse_args()
    ctx = workloads.Context(workloads.Modules(), None, {})
    digest, ops, failed = hashlib.sha256(), 0, 0
    for seed in args.seeds:
        rng = random.Random(seed)
        for _ in range(args.rounds):
            for op in workloads.tau_round(rng):
                out = workloads.execute(ctx, op, workloads.prepare(op))
                failed += not workloads.check(ctx, op, out).ok
                for side in out:
                    digest.update(canonical(side).encode())
                ops += 1
    print(f"{digest.hexdigest()}  ops={ops} failed={failed}")


if __name__ == "__main__":
    main()
