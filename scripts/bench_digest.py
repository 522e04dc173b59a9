#!/usr/bin/env python3
"""Print one SHA-256 digest per output field of a benchmark workload's seeded rounds.

Run it from the root of two checkouts and compare the lines: equal digests
mean both trees returned the same values, bit for bit, in that field of
every operation drawn.  The rounds, inputs and checks are the benchmark's
own (perfbench/workloads.py: WORKLOADS, prepare, execute, check), reached by
import only.  The fields are those of each output: lhs, rhs, residual and
zeros_used of the explicit formula; eigenvalues, residuals and
smallest_positive of the Weil spectrum; the Dirac spectrum's eigenvalues and
zero_errors as float64 bytes; the left and right sides of each tau identity.

With --table it digests the bundled zero table that every workload's set-up
parses instead: its exact mpf tuples, its float_ordinates() bytes and its
entry count.

    python3 scripts/bench_digest.py --workload weil_spectrum [--seeds 1 2] [--rounds 10]
    python3 scripts/bench_digest.py --table
"""

import argparse
import dataclasses
import hashlib
import random
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def fields(out) -> dict:
    """An output's fields by name; a tau operation's output is its two sides."""
    if dataclasses.is_dataclass(out):
        return {f.name: getattr(out, f.name) for f in dataclasses.fields(out)}
    left, right = out
    return {"left": left, "right": right}


def canonical(value) -> bytes:
    """Exact bytes of a value: an mpf's (sign, mantissa, exponent, bitcount),
    an mpc's pair of them (its repr shows only the ambient precision), an
    array's float64 buffer, a DivisorMatrix's rows (its repr shows only n),
    a list item by item, anything else its repr."""
    if hasattr(value, "_mpf_"):
        return repr(value._mpf_).encode()
    if hasattr(value, "_mpc_"):
        return repr(value._mpc_).encode()
    if hasattr(value, "tobytes"):
        return value.tobytes()
    if isinstance(value, list):
        return b"[" + b",".join(map(canonical, value)) + b"]"
    return repr(getattr(value, "rows", value)).encode()


def print_table_digests(table) -> None:
    """The bundled table's exact (sign, mantissa, exponent, bitcount) tuples,
    its float64 view and its length."""
    exact = hashlib.sha256(b"".join(canonical(g) + b"\n" for g in table))
    print(f"{exact.hexdigest()}  ordinates")
    print(f"{hashlib.sha256(canonical(table.float_ordinates())).hexdigest()}  float_ordinates")
    print(f"entries={len(table)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    target.add_argument("--table", action="store_true", help="digest the bundled zero table")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args()
    zl = workloads.Modules()
    if args.table:
        print_table_digests(zl.zerotable.bundled_zero_table())
        return
    ctx = workloads.Context(zl, zl.zerotable.bundled_zero_table(), workloads.load_references())
    workload = workloads.WORKLOADS[args.workload]
    digests, ops, failed = defaultdict(hashlib.sha256), 0, 0
    for seed in args.seeds:
        rng = random.Random(seed)
        for _ in range(args.rounds):
            for op in workload.new_round(rng, ctx):
                out = workloads.execute(ctx, op, workloads.prepare(op))
                failed += not workloads.check(ctx, op, out).ok
                for name, value in fields(out).items():
                    digests[name].update(canonical(value) + b"\n")
                ops += 1
    for name, digest in digests.items():
        print(f"{digest.hexdigest()}  {name}")
    print(f"ops={ops} failed={failed}")


if __name__ == "__main__":
    main()
