"""acfront benchmark: one seeded, checked workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload {experiments,simulate,flows} \\
        --seed N --seconds S --trace {0,1}

The workload is repeated, whole iterations at a time, for as long as another
iteration of the mean length should end within ``--seconds`` (at least one
iteration).  Every operation's output is checked; an operation that raises
or fails a check is counted in ``failed`` and makes the command exit 1.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
``SETUP_SAMPLES`` fresh interpreters, each timing ``import acfront`` and the
wave, adjoint, d and corrector solves, spread between the iterations),
``run_ref`` (median over iterations of the iteration's wall time divided by
the mean time of the reference slices run during it, see ``reference.py``),
``peak_rss_mb`` (of this process, which sets up as the CLI does and runs
the workload) and ``check_ratio_max`` (largest value/tolerance over the
checks).  The plain median iteration time is printed and kept in the result
file as ``run_s``; it is not a gated metric because the host's speed drifts
between runs by more than a useful bound.  ``--trace 1`` runs one traced
set-up plus iteration, without reference slices, and reports the per-layer
metrics of ``tracing.py``, among them the traced iteration time
(``trace.run_s_traced``, to set against ``run_s``) and the tracing overhead
estimated as spans times the measured cost of one span.  An untraced
iteration is not repeated in the traced run: on ``experiments`` the two
together would come close to the 180 s a run may take.

The last line of standard output is the result as one JSON object.  The full
result (machine facts, samples, every check) and, when traced, the spans are
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("experiments", "simulate", "flows"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _setup_sample() -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _iterate(fn, w, seed: int, workdir: str, seconds: float, ref):
    """Whole iterations, at least one, while another of the mean length
    still ends within ``seconds`` of measured time, each measured by
    ``ref``.  The ``SETUP_SAMPLES`` set-up probes run between iterations,
    spread over the run so they see the same host as the iterations; their
    time is not counted.  Returns (work times, mean reference slice times,
    ops, set-up samples)."""
    works, refs, ops, setups = [], [], [], []
    measured = 0.0
    while True:
        while len(setups) < SETUP_SAMPLES * min(1.0, measured / seconds):
            setups.append(_setup_sample())
        t0 = time.perf_counter()
        got, work, ref_s = ref.measure(fn, w, seed, workdir)
        measured += time.perf_counter() - t0
        ops.extend(got)
        works.append(work)
        refs.append(ref_s)
        if measured + measured / len(works) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_sample())
    return works, refs, ops, setups


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "acfront" / "__init__.py").is_file():
        print(f"no acfront sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    import machine
    threads = machine.cap_blas_threads()  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import acfront
    if not Path(acfront.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"acfront imported from {acfront.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / "tmp"
    workdir.mkdir(exist_ok=True)
    fn = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "machine": machine.facts(ROOT, threads),
                    "computed_step_bytes": workloads.computed_step_bytes(args.workload)}

    if args.trace == 0:
        # solved in this process, as the CLI does: the set-up's dense SVDs
        # leave the allocator in the state the workload then runs in
        w = workloads.prepare_wave()
        times, refs, ops, setups = _iterate(
            fn, w, args.seed, str(workdir), args.seconds,
            reference.Reference(workloads.REFERENCE[args.workload]))
        ratios = [c.ratio for op in ops for c in op.checks if c.ratio is not None]
        result.update(setup_samples=setups, iteration_s=times, reference_slice_s=refs,
                      run_s=statistics.median(times))
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "run_ref": (statistics.median(t / r for t, r in zip(times, refs)), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB"),
            "check_ratio_max": (max(ratios), "ratio"),
        }
    else:
        span_cost = tracing.span_cost()
        tracer = tracing.Tracer()
        with tracer:
            w = workloads.prepare_wave()
            t0 = time.perf_counter()
            ops = fn(w, args.seed, str(workdir))
            times = [time.perf_counter() - t0]
        result.update(iteration_s=times, span_cost_s=span_cost)
        metrics = tracing.layer_metrics(tracer.spans, tracer.counters, times[0], span_cost)
        spans_path = OUT / f"{tag}-spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent"], "spans": tracer.spans}))
        result["spans_file"] = spans_path.name

    failed = sum(op.failed for op in ops)
    result["ops"] = [{"name": op.name, "failed": op.failed, "error": op.error,
                      "checks": [vars(c) for c in op.checks]} for op in ops]
    line = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    result["result"] = line
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1))

    print(f"machine: {json.dumps(result['machine'])}")
    for f in result["computed_step_bytes"]:
        print(f"computed bytes per lattice step ({f['width']}x{f['height']}): "
              f"{f['min_bytes_per_step']} vs cache bytes {result['machine']['cache_bytes']}")
    if args.trace == 0:
        print(f"{args.workload}: {len(times)} iteration(s), median wall time "
              f"{result['run_s']:.4g} s without reference slices, median slice "
              f"{statistics.median(refs) * 1e3:.4g} ms; setup_s median of "
              f"{SETUP_SAMPLES} fresh interpreters")
    else:
        print(f"{args.workload}: one traced set-up and iteration, {len(tracer.spans)} spans")
    for op in ops:
        worst = max((c.ratio for c in op.checks if c.ratio is not None), default=None)
        status = "FAIL" if op.failed else "pass"
        print(f"  {op.name}: {status}" + (f" (max ratio {worst:.4g})" if worst is not None else ""))
        if op.error:
            print("    " + op.error.strip().replace("\n", "\n    "))
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
