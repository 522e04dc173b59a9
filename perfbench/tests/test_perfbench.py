"""Self-tests of the benchmark: seeded inputs, output checks, the recorder,
and the contract of BENCHMARK.json.  Run from the repository root with

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from mpmath import mp, mpf  # noqa: E402


@pytest.fixture(scope="module")
def ctx():
    modules = wl.Modules()
    return wl.Context(modules, modules.zerotable.bundled_zero_table(), wl.load_references())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_changes_inputs_not_mix(name, ctx):
    new_round = wl.WORKLOADS[name].new_round
    a = new_round(random.Random(f"{name}/1"), ctx)
    b = new_round(random.Random(f"{name}/2"), ctx)
    assert a != b
    assert Counter(op.kind for op in a) == Counter(op.kind for op in b)
    assert new_round(random.Random(f"{name}/1"), ctx) == a


def test_every_drawn_input_has_a_reference(ctx):
    for lam2 in wl.EXPLICIT_LAM2:
        for q, modulation in wl.EXPLICIT_SPLITS:
            assert wl.explicit_key(lam2, q, modulation) in ctx.references["explicit"]
    for setting in wl.WEIL_GRID:
        assert wl.weil_key(*setting) in ctx.references["weil"]


def _weil_ref(ctx, setting):
    return ctx.references["weil"][wl.weil_key(*setting)]


def test_weil_check_accepts_reference_and_rejects_perturbation(ctx):
    setting = (11, 24, 192, False)
    ref = _weil_ref(ctx, setting)
    bits = setting[2]
    with mp.workprec(bits + 64):
        lam = mp.mpf(ref["lambda_min"])
        resid = mpf(2) ** -180
        ok = wl.check_weil(lam, resid, ref, bits)
        assert ok.ok and ok.bits > wl.WEIL_MIN_BITS
        assert not wl.check_weil(lam * (1 + mpf(10) ** -6), resid, ref, bits).ok
        # a residual as large as the eigenvalue: the certificate refuses it
        assert not wl.check_weil(lam, 2 * lam, ref, bits).ok
        # certified, but with too few bits to spare
        assert not wl.check_weil(lam, lam * mpf(2) ** -10, ref, bits).ok


def test_explicit_check_accepts_reference_and_rejects_perturbation(ctx):
    ref = ctx.references["explicit"][wl.explicit_key(7, 4, 1)]
    bits = wl.EXPLICIT_BITS
    with mp.workprec(bits + 64):
        lhs, rhs = mpf(ref["lhs"]), mpf(ref["rhs"])
        ok = wl.check_explicit(lhs, rhs, lhs - rhs, ref, bits)
        assert ok.ok and ok.bits >= wl.EXPLICIT_MIN_BITS
        bad = lhs * (1 + mpf(10) ** -40)
        assert not wl.check_explicit(bad, rhs, bad - rhs, ref, bits).ok
        # a residual that is not lhs - rhs
        assert not wl.check_explicit(lhs, rhs, lhs - rhs + mpf(10) ** -20, ref, bits).ok
        # lhs and rhs that agree with nothing: residual too large
        far = rhs + 1
        assert not wl.check_explicit(far, rhs, far - rhs, ref, bits).ok


def test_dirac_check():
    import numpy as np

    eigs = np.linspace(-150.0, 150.0, wl.DIRAC_BASIS)
    eigs[wl.DIRAC_BASIS // 2 - 1 : wl.DIRAC_BASIS // 2 + 1] = 0.0
    gamma = float(eigs[200]) + 1e-12
    assert wl.check_dirac(eigs, gamma, 1e-11).ok
    assert not wl.check_dirac(eigs, gamma + 1e-6, 1e-11).ok
    assert wl.check_dirac(eigs, gamma + 1e-6, None).ok
    assert not wl.check_dirac(eigs[:-1], gamma, None).ok
    shifted = eigs + 1.0  # no kernel left
    assert not wl.check_dirac(shifted, gamma + 1.0, None).ok


def test_null_gap():
    ops = [wl.Op("dirac_true", (1, 14.1)), wl.Op("dirac_true", (3, 25.0)),
           wl.Op("dirac_fake", (1, 17.0)), wl.Op("dirac_true", (5, 33.0))]
    outs = [wl.Outcome(True, error=1e-13), wl.Outcome(True, error=1e-7),
            wl.Outcome(True, error=1e-3), wl.Outcome(True, error=1.0)]
    assert wl.null_gap_decades(list(zip(ops, outs))) == pytest.approx(4.0)


def test_tail():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    xs = [float(i) for i in range(1, 101)]
    value, pct = run.tail(xs)
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(90.0)


def test_calibration_scale():
    cal = clock.Calibration()
    # the host ran at half speed around [10, 12]; one sample fell inside
    cal.at = [9.5, 11.0, 12.5]
    cal.secs = [2 * clock.CAL_REF_S] * 3
    assert cal.scaled(10.0, 12.0) == pytest.approx((2.0 - 2 * clock.CAL_REF_S) / 2)
    # far from every sample: the nearest ones are used
    assert cal.scaled(20.0, 21.0) == pytest.approx(0.5)
    with cal:
        pass
    assert len(cal.secs) == 5 and cal.secs[-1] > 0
    assert 0 < cal.snapshot() < 100


def test_exact_identities_pass(ctx):
    rng = random.Random(7)
    for op in wl.tau_round(rng):
        assert wl.check(ctx, op, wl.execute(ctx, op, wl.prepare(op))).ok, op.kind


def test_recorder_self_time_and_uninstall():
    from zetalab import cyclotomy, witt

    before = (witt.tau, witt.rho_tilde, cyclotomy.rho_tilde, witt.DivisorMatrix.__matmul__)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert witt.tau is not before[0]
        # rho_tilde is patched both where it is defined and where witt bound it
        assert witt.rho_tilde is cyclotomy.rho_tilde is not before[1]
        t = witt.MonoidMatrix(3, {1: (2, cyclotomy.Root(1, 3)), 2: (1, cyclotomy.Root(0)),
                                  3: (3, cyclotomy.Root(1, 2))})
        witt.tau(t)
    finally:
        rec.uninstall()
    assert (witt.tau, witt.rho_tilde, cyclotomy.rho_tilde,
            witt.DivisorMatrix.__matmul__) == before
    stats = rec.stats()
    assert stats["witt.tau"]["calls"] == 1
    assert stats["cyclotomy.rho_tilde"]["calls"] == 2
    child = stats["cyclotomy.rho_tilde"]["total_s"]
    assert stats["witt.tau"]["self_s"] == pytest.approx(stats["witt.tau"]["total_s"] - child)


def test_layer_map_matches_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert sorted(names) == sorted(layers["per_layer"])
    span_names = {t[2] for t in spans.TARGETS}
    for name in names:
        if not name.startswith("trace."):
            assert name.rpartition(".")[0] in span_names, name
    workload_names = {w["name"] for w in spec["workloads"]}
    assert workload_names == set(wl.WORKLOADS)
    for rule in layers["predicted_zeros"]:
        assert set(rule["workloads"]) <= workload_names
        assert any(s.startswith(rule["spans"]) for s in span_names)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_tau", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
