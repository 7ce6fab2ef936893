"""Span tracing of acfront's public layer functions, from outside the package.

``Tracer.install`` rebinds module and class attributes of ``acfront`` to
timing wrappers and ``Tracer.restore`` puts the originals back.  A function
imported by name into another module (``phase.phi_inverse`` is
``wave.phi_inverse``) is rebound everywhere it is bound, so calls made inside
the package are seen too.  Spans are ``(id, name, start, end, parent)``
tuples kept in memory; counters are filled by per-target hooks that look at
a call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``getattr(import_module(owner), attr)``, or a
    method when ``cls`` names a class of that module."""

    owner: str
    attr: str
    name: str
    cls: Optional[str] = None
    count: Optional[Callable[[tuple, object], dict]] = None


def _site_steps(args, result) -> dict:
    return {"sim.site_steps": int(args[0].values.size)}


def _snapshots(args, result) -> dict:
    return {"sim.snapshots": len(result)}


def _phase_rows(args, result) -> dict:
    return {"phase.undefined_rows": int((~result.defined_mask).sum()),
            "phase.clamped_rows": int(result.clamped_mask.sum())}


TARGETS = (
    Target("acfront.wave", "solve_wave", "wave.solve_wave"),
    Target("acfront.wave", "adjoint_solve", "wave.adjoint_solve"),
    Target("acfront.wave", "compute_d", "wave.compute_d"),
    Target("acfront.wave", "solve_r", "wave.solve_r"),
    Target("acfront.wave", "c_theta", "wave.c_theta"),
    Target("acfront.wave", "phi_inverse", "wave.phi_inverse"),
    Target("acfront.sim", "run", "sim.run", count=_snapshots),
    Target("acfront.sim", "step", "sim.step", count=_site_steps),
    Target("acfront.sim", "write", "sim.write", cls="SnapshotWriter"),
    Target("acfront.sim", "read_snapshots", "sim.read"),
    Target("acfront.sim", "verify_supersub", "sim.verify_supersub"),
    Target("acfront.sim", "search_planar_constants", "sim.search_planar_constants"),
    Target("acfront.phase", "extract", "phase.extract", count=_phase_rows),
    Target("acfront.phase", "front_error", "phase.front_error"),
    Target("acfront.phase", "flatness", "phase.flatness"),
    Target("acfront.flow", "heat_solve", "flow.heat_solve"),
    Target("acfront.flow", "v_solve", "flow.v_solve"),
    Target("acfront.flow", "mcf_solve", "flow.mcf_solve"),
    Target("acfront.flow", "decay_report", "flow.decay_report"),
    Target("acfront.harness", "run_experiment", "harness.run_experiment"),
    Target("acfront.harness", "make_initial", "harness.make_initial"),
    Target("acfront.harness", "splitmix64_uniform", "harness.splitmix64_uniform"),
)

LAYERS = ("wave", "sim", "phase", "flow", "harness")


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple[int, str, float, float, Optional[int]]] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        spans, stack, ids, counters = self.spans, self._stack, self._ids, self.counters
        name, count = target.name, target.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if count is not None:
                counters.update(count(args, result))
            return result

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer is already installed")
        owners = [importlib.import_module(t.owner) for t in self.targets]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "acfront" or n.startswith("acfront."))]
        for target, owner in zip(self.targets, owners):
            if target.cls is not None:
                cls = getattr(owner, target.cls)
                original = cls.__dict__[target.attr]
                self._rebind(cls, target.attr, self._wrap(original, target))
                continue
            original = getattr(owner, target.attr)
            wrapper = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid] for sid, _, start, end, _ in spans}


def outermost(spans) -> dict[str, tuple[int, float]]:
    """Name -> (calls, inclusive seconds) over spans with no ancestor of the
    same name, so a recursive call is counted and timed once."""
    by_id = {s[0]: s for s in spans}
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, name, start, end, parent in spans:
        p = parent
        while p is not None and by_id[p][1] != name:
            p = by_id[p][4]
        if p is None:
            out[name][0] += 1
            out[name][1] += end - start
    return {k: (v[0], v[1]) for k, v in out.items()}


def span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a direct call, measured on a no-op."""
    def noop():
        return None

    tracer = Tracer(targets=())
    wrapped = tracer._wrap(noop, Target("", "", "calibrate.noop"))
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def layer_metrics(spans, counters, run_s_traced: float, cost_per_span: float) -> dict:
    """The per-layer metrics of one traced run, as ``name -> (value, unit)``.

    ``<fn>_s`` and ``<fn>_calls`` cover calls not nested in a call of the
    same function; ``<layer>.self_s`` sums span time not covered by child
    spans; ``trace.overhead_s`` is the span count times the cost of one span.
    A layer the workload does not call reads 0.
    """
    calls = outermost(spans)
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for sid, name, *_ in spans:
        layer_self[name.split(".", 1)[0]] += selfs[sid]

    def seconds(name: str) -> float:
        return calls.get(name, (0, 0.0))[1]

    def ncalls(name: str) -> int:
        return calls.get(name, (0, 0.0))[0]

    step_s = sum(end - start for _, name, start, end, _ in spans if name == "sim.step")
    site_steps = counters["sim.site_steps"]
    extract_calls = ncalls("phase.extract")
    m = {
        "wave.solve_wave_s": (seconds("wave.solve_wave"), "s"),
        "wave.adjoint_solve_s": (seconds("wave.adjoint_solve"), "s"),
        "wave.solve_r_s": (seconds("wave.solve_r"), "s"),
        "wave.c_theta_s": (seconds("wave.c_theta"), "s"),
        "wave.phi_inverse_calls": (ncalls("wave.phi_inverse"), "count"),
        "sim.run_s": (seconds("sim.run"), "s"),
        "sim.site_steps": (site_steps, "count"),
        "sim.ns_per_site_step": (1e9 * step_s / site_steps if site_steps else 0.0, "ns"),
        "sim.snapshots": (counters["sim.snapshots"], "count"),
        "sim.write_s": (seconds("sim.write"), "s"),
        "sim.read_s": (seconds("sim.read"), "s"),
        "sim.verify_supersub_s": (seconds("sim.verify_supersub"), "s"),
        "sim.search_planar_constants_s": (seconds("sim.search_planar_constants"), "s"),
        "phase.extract_s": (seconds("phase.extract"), "s"),
        "phase.extract_calls": (extract_calls, "count"),
        "phase.extract_ms_per_snapshot": (
            1e3 * seconds("phase.extract") / extract_calls if extract_calls else 0.0, "ms"),
        "phase.front_error_s": (seconds("phase.front_error"), "s"),
        "phase.flatness_s": (seconds("phase.flatness"), "s"),
        "phase.undefined_rows": (counters["phase.undefined_rows"], "count"),
        "phase.clamped_rows": (counters["phase.clamped_rows"], "count"),
        "flow.heat_solve_s": (seconds("flow.heat_solve"), "s"),
        "flow.heat_solve_calls": (ncalls("flow.heat_solve"), "count"),
        "flow.v_solve_s": (seconds("flow.v_solve"), "s"),
        "flow.mcf_solve_s": (seconds("flow.mcf_solve"), "s"),
        "flow.decay_report_s": (seconds("flow.decay_report"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.run_s_traced"] = (run_s_traced, "s")
    m["trace.overhead_s"] = (len(spans) * cost_per_span, "s")
    return m
