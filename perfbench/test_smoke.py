"""Smoke checks of the benchmark's own code, so it stays runnable.

Run from the repository root (about 30 s):

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from acfront import core, flow, phase, sim, wave  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    return line


def _units(metrics: dict) -> dict:
    return {k: v["unit"] for k, v in metrics.items()}


def test_tracer_rebinds_aliases_and_restores():
    original = wave.phi_inverse
    write = sim.SnapshotWriter.__dict__["write"]
    with tracing.Tracer() as tracer:
        assert phase.phi_inverse is wave.phi_inverse is not original
        seq = core.PhaseSequence(np.arange(8.0), boundary_j="reflect")
        flow.heat_solve(seq, 1.0)
    assert phase.phi_inverse is wave.phi_inverse is original
    assert sim.SnapshotWriter.__dict__["write"] is write
    # the reflecting solve recurses once into the periodic one
    assert [s[1] for s in tracer.spans] == ["flow.heat_solve"] * 2
    inner, outer = tracer.spans
    assert inner[4] == outer[0] and outer[4] is None
    assert tracing.outermost(tracer.spans)["flow.heat_solve"][0] == 1


def test_self_time_subtracts_direct_children():
    spans = [(0, "a.x", 0.0, 10.0, None), (1, "b.y", 1.0, 4.0, 0), (2, "b.y", 2.0, 3.0, 1)]
    assert tracing.self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}
    assert tracing.outermost(spans) == {"a.x": (1, 10.0), "b.y": (1, 3.0)}


def test_counts_repeat_exactly():
    w = wave.solve_wave(core.BistableNonlinearity(a=0.3))
    cfg = sim.SimConfig(w.f, t_end=2.0, width=32, height=8)
    i = np.arange(cfg.i_offset, cfg.i_offset + cfg.width, dtype=float)[:, None]
    u0 = core.LatticeField(w.phi_at(i) * np.ones((1, 8)), i_offset=cfg.i_offset)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            for _, u in sim.run(u0, cfg):
                phase.extract(u, w)
        m = tracing.layer_metrics(tracer.spans, tracer.counters, 1.0, 1.0)
        counts.append({k: v for k, (v, unit) in m.items() if unit == "count"})
    n_steps = int(np.ceil(cfg.t_end / cfg.dt - 1e-9))
    assert counts[0] == counts[1]
    assert counts[0]["sim.site_steps"] == n_steps * 32 * 8
    assert counts[0]["wave.phi_inverse_calls"] == 8 * counts[0]["phase.extract_calls"]


def test_reference_slices_interleave_and_are_subtracted():
    def job():
        s = 0
        for i in range(2_000_000):
            s += i
        return s

    before = signal.getsignal(signal.SIGALRM)
    ref = reference.Reference(tuple(reference.PARTS), period=0.02)
    t0 = time.perf_counter()
    total, work, ref_s = ref.measure(job)
    wall = time.perf_counter() - t0
    assert total == sum(range(2_000_000))
    assert signal.getsignal(signal.SIGALRM) is before
    # the slices ran during the job as well as after it
    assert len(ref.slices) >= 2 and math.isclose(ref_s, statistics.mean(ref.slices))
    assert 0.0 < work < wall - ref.spent + 1e-3


def test_layer_metric_names_match_benchmark():
    m = tracing.layer_metrics([], Counter(), 1.0, 1.0)
    assert _units({k: {"unit": u} for k, (_, u) in m.items()}) == {
        p["name"]: p["unit"] for p in SPEC["per_layer"]}


def test_flows_end_to_end_and_traced():
    line = _result(_run("--workload", "flows", "--seed", "7", "--seconds", "1", "--trace", "0"))
    assert _units(line["metrics"]) == {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    line = _result(_run("--workload", "flows", "--seed", "7", "--seconds", "1", "--trace", "1"))
    assert _units(line["metrics"]) == {p["name"]: p["unit"] for p in SPEC["per_layer"]}


def test_fails_without_package_sources():
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = _run("--workload", "flows", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare)
