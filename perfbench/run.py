"""zetalab benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload explicit_formula --seed 1 --seconds 22 --trace 0

Run from the repository root; zetalab is imported from ./src.  The run sets
up (import, parse the bundled zero table, one warm-up call on an input
outside the timed set), then runs whole rounds of the workload's operation mix
(see workloads.py), each operation starting when the previous one returned,
until another round would overrun --seconds.  At least one round runs.  Every
output is checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with no wrapper
installed; times are in reference seconds (see clock.py), the wall-clock
figures are in the run record.  --trace 1 runs the same rounds untraced, then
replays the same operations with the span wrappers of spans.py installed, and
reports the per-layer metrics (per operation of the replay; set-up layers per
set-up), the tracing overhead and the share of operation time no layer span
covers.

The next-to-last line of standard output is the run record (inputs, checks,
environment); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import os

# One process generates the load, on one thread: pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import Calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is repeated in this many fresh processes besides this one; setup_s is
# the median over all of them
SETUP_PROBES = 2
# no run may come near the 180 s limit, whatever --seconds says
HARD_STOP_S = 120.0
PROBE_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def import_program():
    if not (SRC / "zetalab" / "__init__.py").is_file():
        raise BenchError("src/zetalab not found: run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# -- set-up ---------------------------------------------------------------------


def setup(wl, workload, recorder=None):
    """Import, parse the bundled table, warm up.  Returns (context, wall
    seconds, reference seconds); see clock.py for the latter."""
    t0 = time.perf_counter()
    zl = wl.Modules()
    if recorder is not None:
        recorder.install()
    zeros = zl.zerotable.bundled_zero_table()
    ctx = wl.Context(zl, zeros, wl.load_references())
    workload.warmup(ctx)
    wall = time.perf_counter() - t0
    return ctx, wall, wall * Calibration().snapshot()


def setup_probe(name: str) -> tuple[float, float]:
    """Set-up (wall, reference) seconds of a fresh process (--setup-probe)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["wall_s"], probe["setup_s"]


# -- the closed loop ------------------------------------------------------------


@dataclass
class Timed:
    """One checked operation: when it started, the wall seconds of the call
    and of call plus check."""

    op: object
    outcome: object
    start: float
    latency: float
    busy: float


def run_ops(wl, ctx, ops, recorder=None) -> list[Timed]:
    """Call and check each operation in turn."""
    done = []
    for op in ops:
        inputs = wl.prepare(op)
        span = recorder.open("bench.op") if recorder is not None else None
        t0 = time.perf_counter()
        try:
            out = wl.execute(ctx, op, inputs)
        except Exception as exc:  # a raising operation is a failed operation
            outcome = wl.Outcome(False, detail=f"raised {type(exc).__name__}: {exc}")
        else:
            outcome = None
        latency = time.perf_counter() - t0
        if span is not None:
            recorder.close(span)
        if outcome is None:
            try:
                outcome = wl.check(ctx, op, out)
            except Exception as exc:
                outcome = wl.Outcome(False, detail=f"check raised {type(exc).__name__}: {exc}")
        done.append(Timed(op, outcome, t0, latency, time.perf_counter() - t0))
    return done


def closed_loop(wl, workload, ctx, seed: int, seconds: float):
    """Whole rounds until the next would overrun `seconds`.  Returns
    (timed operations, rounds)."""
    rng = random.Random(f"{workload.name}/{seed}")
    timed = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        timed += run_ops(wl, ctx, workload.new_round(rng, ctx))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds > min(seconds, HARD_STOP_S):
            return timed, rounds


def scaled(timed: list[Timed], cal: Calibration, field: str) -> list[float]:
    return [cal.scaled(t.start, t.start + getattr(t, field)) for t in timed]


# -- metrics --------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 operations beyond it, as
    (value, percentile).  With 10 or fewer operations there is none, and the
    slowest operation is reported as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def accuracy(wl, ops, outcomes) -> dict:
    """Failures, certified bits and the dirac null gap, for the run record."""
    pairs = list(zip(ops, outcomes))
    bits = [o.bits for o in outcomes if o.bits is not None]
    acc = {
        "failed": sum(not o.ok for o in outcomes),
        "certified_bits": min(bits) if bits else None,
        "failures": [f"operation {i} ({op.kind}): {o.detail}"
                     for i, (op, o) in enumerate(pairs) if not o.ok][:10],
    }
    if any(op.kind == "dirac_true" for op in ops):
        gap = wl.null_gap_decades(pairs)
        acc["null_gap_decades"] = gap
        if gap is None or gap < wl.DIRAC_MIN_NULL_GAP:
            gated = sum(op.kind == "dirac_true" and op.params[0] <= 3 for op in ops)
            acc["failed"] += gated
            acc["failures"].append(f"null gap {gap} below {wl.DIRAC_MIN_NULL_GAP} decades")
    acc["fail_ratio"] = acc["failed"] / max(len(ops), 1)
    return acc


def environment() -> dict:
    import mpmath
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zetalab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "numpy": np.__version__,
        "numpy_blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "load_threads": threading.active_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(spec, recorder, setup_end: int, pass_start: int, n_ops: int,
                  untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics named <module>.<callable>.<stat>: per operation of the
    traced replay, except layers seen only in set-up, which are per set-up."""
    setup_stats = recorder.stats(0, setup_end)
    pass_stats = recorder.stats(pass_start)
    op = pass_stats.get("bench.op", {"self_s": 0.0, "total_s": 0.0})
    values = {
        "trace.overhead_share": traced_s / untraced_s - 1.0,
        "trace.uncovered_share": op["self_s"] / op["total_s"] if op["total_s"] else 0.0,
    }
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name in values:
            continue
        span, _, stat = name.rpartition(".")
        if span in pass_stats or span not in setup_stats:
            stats, per = pass_stats, max(n_ops, 1)
        else:
            stats, per = setup_stats, 1
        if stat in ("calls", "self_s"):
            value = stats.get(span, {}).get(stat, 0)
        else:
            value = recorder.counters.get(name, 0)
        values[name] = value / per
    return values


def predicted_zeros(layers: dict, workload: str, pass_stats: dict) -> list[str]:
    """Spans predicted absent on this workload that were seen anyway."""
    seen = []
    for rule in layers["predicted_zeros"]:
        if workload not in rule["workloads"]:
            continue
        for span, st in pass_stats.items():
            if span.startswith(rule["spans"]) and st["calls"]:
                seen.append(f"{span} ({st['calls']} calls)")
    return seen


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
        wl = import_program()
        if args.workload not in wl.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
        workload = wl.WORKLOADS[args.workload]
        if args.setup_probe:
            _, wall_s, setup_s = setup(wl, workload)
            print(json.dumps({"wall_s": wall_s, "setup_s": setup_s}))
            return 0
        if args.trace:
            return traced_run(spec, wl, workload, args)
        return untraced_run(spec, wl, workload, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _record(spec, args, extra: dict) -> dict:
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": args.workload,
        "why": why.get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
        "environment": environment(),
    }


def _emit(record: dict, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def untraced_run(spec, wl, workload, args) -> int:
    ctx, wall_s, setup_s = setup(wl, workload)
    with Calibration() as cal:
        timed, rounds = closed_loop(wl, workload, ctx, args.seed, args.seconds)
    rss = peak_rss_mb()
    setups = [(wall_s, setup_s)] + [setup_probe(workload.name) for _ in range(SETUP_PROBES)]
    ops = [t.op for t in timed]
    acc = accuracy(wl, ops, [t.outcome for t in timed])
    lat = scaled(timed, cal, "latency")
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "throughput_ops_s": len(timed) / sum(scaled(timed, cal, "busy")),
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": rss,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError("end_to_end metrics in BENCHMARK.json and run.py differ")
    wall_lat = [t.latency for t in timed]
    record = _record(spec, args, {
        "operations": len(timed),
        "mix": dict(Counter(op.kind for op in ops)),
        "rounds": rounds,
        # not an end-to-end metric: with 10 or fewer operations a run has no
        # percentile with 10 beyond it, and the slowest single call is noise
        "latency_tail_s": tail_s,
        "latency_tail_percentile": tail_pct,
        "wall": {
            "setup_s": statistics.median(w for w, _ in setups),
            "throughput_ops_s": len(timed) / sum(t.busy for t in timed),
            "latency_p50_s": statistics.median(wall_lat),
            "latency_tail_s": tail(wall_lat)[0],
        },
        "setup_samples_s": [s for _, s in setups],
        "calibration": cal.summary(),
        **acc,
    })
    _emit(record, len(timed), acc["failed"], metrics, units)
    return 0


def traced_run(spec, wl, workload, args) -> int:
    from spans import SpanRecorder

    layers = json.loads((HERE / "layers.json").read_text())
    recorder = SpanRecorder()
    try:
        ctx, _, setup_s = setup(wl, workload, recorder)
    finally:
        recorder.uninstall()
    setup_end = len(recorder.start)
    timed, rounds = closed_loop(wl, workload, ctx, args.seed, args.seconds)
    ops = [t.op for t in timed]
    untraced_s = sum(t.latency for t in timed)
    pass_start = len(recorder.start)
    recorder.counters.clear()  # counts from set-up and warm-up are not the workload's
    recorder.install()
    try:
        replayed = run_ops(wl, ctx, ops, recorder)
    finally:
        recorder.uninstall()
    traced_s = sum(t.latency for t in replayed)
    values = layer_metrics(spec, recorder, setup_end, pass_start, len(ops), untraced_s, traced_s)
    pass_stats = recorder.stats(pass_start)
    unexpected = predicted_zeros(layers, workload.name, pass_stats)
    acc = accuracy(wl, ops + ops, [t.outcome for t in timed + replayed])
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{args.seed}.npz"
    recorder.dump(spans_path)
    record = _record(spec, args, {
        "operations": len(ops),
        "rounds": rounds,
        "setup_s": setup_s,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(recorder.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layers": pass_stats,
        "predicted_zeros_hold": not unexpected,
        "predicted_zero_violations": unexpected,
        **acc,
    })
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _emit(record, 2 * len(ops), acc["failed"], values, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
