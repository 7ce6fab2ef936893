"""The benchmark's three workloads, each one iteration of seeded, checked work.

Every workload takes a prepared a=0.3 wave (with ``d`` and ``r``), the
workload seed and a scratch directory inside the checkout, and returns the
operations it attempted.  An operation fails when it raises or when one of
its checks does; a check carries ``value / tolerance`` where the criterion
has a tolerance.  Inputs come from ``harness.splitmix64_uniform`` streams.

All package functions are looked up as module attributes at call time, so
the tracer's rebinding sees them.
"""

from __future__ import annotations

import dataclasses
import tempfile
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from acfront import core, flow, harness, phase, sim, wave

# One of the four default pipelines, 9-12 s on a 2-core host, so a run holds
# two or three iterations and reports their median.  All four take 57-70 s
# and could be measured only once per run within the benchmark's time
# budget; single samples spread past the run_s bound on that host.  thm22
# calls every phase function (extract, front error, flatness); the flows
# of thm23 and step_kappa are exercised by the `flows` workload.
EXPERIMENTS = ("thm22",)
SEEDED_V0 = {"kind": "random_l1", "amp": 0.1, "decay": 4.0}


@dataclass
class Check:
    name: str
    passed: bool
    ratio: Optional[float] = None


@dataclass
class Op:
    name: str
    checks: list[Check] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(c.passed for c in self.checks)

    def below(self, name: str, value: float, tolerance: float, *, inclusive=False) -> None:
        value = float(value)
        ok = value <= tolerance if inclusive else value < tolerance
        self.checks.append(Check(name, bool(ok), value / tolerance))

    def holds(self, name: str, ok: bool) -> None:
        self.checks.append(Check(name, bool(ok)))


def _attempt(ops: list[Op], name: str, body: Callable[[Op], None]) -> None:
    op = Op(name)
    try:
        body(op)
    except Exception:  # an operation that raises counts as failed; keep going
        op.error = traceback.format_exc(limit=3)
    ops.append(op)


def prepare_wave() -> wave.WaveProfile:
    """The set-up every CLI ``experiment`` call pays: wave, adjoint, d, r."""
    w = wave.solve_wave(core.BistableNonlinearity(a=0.3))
    wave.adjoint_solve(w)
    wave.compute_d(w)
    wave.solve_r(w)
    return w


def experiments(w: wave.WaveProfile, seed: int, workdir: str) -> list[Op]:
    """Default pipelines to their verdicts, v0 seeded, sizes and tolerances kept."""
    ops: list[Op] = []
    for name in EXPERIMENTS:
        def body(op: Op, name=name) -> None:
            spec = harness.default_spec(name)
            spec.seed = seed
            spec.v0 = dict(SEEDED_V0)
            report = harness.run_experiment(spec, w)
            for key, v in report.verdicts.items():
                op.checks.append(Check(key, bool(v["pass"]), v["value"] / v["tolerance"]))
        _attempt(ops, name, body)
    return ops


SIM_SIZE = 256
SIM_T_END = 200.0
SIM_RECORD_T = 10.0
SPEED_REL_TOL = 1e-3  # the c01 bound on the tracked front speed


def simulate(w: wave.WaveProfile, seed: int, workdir: str) -> list[Op]:
    """One 256x256 periodic run to t=200, recorded to disk every 10 time
    units, read back, and checked against the wave speed."""
    def body(op: Op) -> None:
        # make_initial takes its generators from a spec; the name only
        # satisfies the spec's validation
        spec = harness.ExperimentSpec(
            name="thm22", width=SIM_SIZE, height=SIM_SIZE, t_end=SIM_T_END, seed=seed,
            kappa={"kind": "periodic", "P": 8, "amplitude": 1.0, "offset": 0.0},
            v0=dict(SEEDED_V0))
        u0 = harness.make_initial(spec, w)
        cfg = sim.SimConfig(w.f, t_end=SIM_T_END, width=SIM_SIZE, height=SIM_SIZE)
        cfg.record_every = int(round(SIM_RECORD_T / cfg.dt))
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            writer = sim.SnapshotWriter(tmp)
            in_memory = sim.run(u0, cfg, writer=writer)
            snaps = sim.read_snapshots(writer.index_path)
        op.holds("snapshots_read_back", len(snaps) == len(in_memory) and all(
            t == tm and np.array_equal(u.values, um.values)
            for (t, u), (tm, um) in zip(snaps, in_memory)))
        (t1, u1), (t2, u2) = snaps[-2:]
        g1 = phase.extract(u1, w)
        g2 = phase.extract(u2, w)
        op.holds("rows_defined", g1.all_defined and g2.all_defined)
        speed = (np.mean(g2.gamma.values) - np.mean(g1.gamma.values)) / (t2 - t1)
        op.below("speed_rel_err", abs(speed - w.c) / abs(w.c), SPEED_REL_TOL)

    ops: list[Op] = []
    _attempt(ops, "simulate", body)
    return ops


FLOW_P = 512
FLOW_TIMES = np.linspace(0.0, 200.0, 51)
TRANSLATION = 1234.5
HEAT_P = 2048
HEAT_TIMES = np.geomspace(10.0, 1000.0, 13)
# The CLI adds +-0.5 noise; there the fitted slopes move 0.01-0.24 of their
# tolerance with the seed and would set this workload's check_ratio_max.  At
# +-0.05 they stay below the seed-independent c02 ratio (0.064) on 40 seeds.
HEAT_NOISE = 0.05
SUPERSUB_TIMES = np.linspace(0.0, 50.0, 26)
TRACKING_TOL = 0.1  # thm23's default `tracking` tolerance


def flows(w: wave.WaveProfile, seed: int, workdir: str) -> list[Op]:
    """Reduced flows and certification, each checked against the acceptance
    criterion it mirrors (c02, c03, c04, c06; the curvature flow against the
    thm23 tracking tolerance)."""
    # a fresh tilted-wave cache, so every iteration solves c_theta as a new
    # process would
    w = dataclasses.replace(w, _c_theta_cache={})
    heat_seed, phase_seed = harness.splitmix64(seed, 2)
    params = flow.FlowParams(c=w.c, d=w.d)
    ops: list[Op] = []

    def decay(op: Op) -> None:  # c03, on the CLI `heat --report decay` layout
        jj = np.arange(HEAT_P)
        noise = HEAT_NOISE * (2.0 * harness.splitmix64_uniform(heat_seed, HEAT_P) - 1.0)
        h0 = core.PhaseSequence(np.where(jj < HEAT_P // 2, 0.0, 4.0) + noise,
                                boundary_j="reflect")
        rep = flow.decay_report(h0, HEAT_TIMES)
        op.below("slope_first", abs(rep["slope_first"] + 0.5), 0.1, inclusive=True)
        op.below("slope_second", abs(rep["slope_second"] + 1.0), 0.1, inclusive=True)
        op.holds("monotone_bound", rep["monotone_bound_holds"])

    # a flat dyadic phase with V0[0] = 0, so translating it is exact
    vals = 0.02 * (2.0 * harness.splitmix64_uniform(phase_seed, FLOW_P) - 1.0)
    vals = np.round(vals * 1024.0) / 1024.0
    vals[0] = 0.0
    V0 = core.PhaseSequence(vals)
    shared: dict = {}

    def cole_hopf(op: Op) -> None:  # c04
        traj = flow.v_solve(V0, params, t_grid=FLOW_TIMES)
        shared["v"] = traj
        moved = flow.v_solve(core.PhaseSequence(vals + TRANSLATION), params,
                             t_grid=FLOW_TIMES)
        op.holds("translation_exact", np.array_equal(moved.values, traj.values + TRANSLATION))
        fine = flow.FlowParams(c=w.c, d=w.d, dt=1e-3)
        exact = flow.v_solve(V0, fine, t_grid=[0.0, 1.0, 2.0])
        euler = flow.v_solve(V0, fine, t_grid=[0.0, 1.0, 2.0], method="euler")
        op.below("transform_vs_euler", np.max(np.abs(exact.values - euler.values)), 1e-4)

    def curvature(op: Op) -> None:  # thm23's mcf_vs_v criterion
        mcf = flow.mcf_solve(V0, params, t_grid=FLOW_TIMES)
        if "v" not in shared:
            raise RuntimeError("no Cole-Hopf trajectory to compare with")
        op.below("mcf_vs_v", np.max(np.abs(mcf.values - shared["v"].values)),
                 TRACKING_TOL)

    cfg = sim.SimConfig(w.f, t_end=50.0)

    def planar(op: Op) -> None:  # c06
        start = sim.SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=1.0, C=1.0)
        mu, C, rep = sim.search_planar_constants(w, start, cfg, SUPERSUB_TIMES)
        op.holds("planar_search", rep["verdict"] == "pass" and mu > 0.0 and C >= 1.0)
        _residual_check(op, rep)

    def curved(op: Op) -> None:  # c06
        j = np.arange(64)
        spec = sim.SuperSubSpec(kind="curved",
                                V0=core.PhaseSequence(np.sin(2.0 * np.pi * j / 64.0)))
        rep = sim.verify_supersub(spec, w, cfg, SUPERSUB_TIMES, width=128)
        op.holds("curved_pass", rep["verdict"] == "pass")
        _residual_check(op, rep)

    def tilted(op: Op) -> None:  # c02
        for eps in (0.05, 0.1):
            cpp = (wave.c_theta(w, eps) + wave.c_theta(w, -eps) - 2.0 * w.c) / eps ** 2
            d_fd = 0.5 * w.c + 0.5 * cpp
            op.below(f"d_identity_eps={eps}", abs(w.d - d_fd) / abs(w.d), 1e-2)
        slope = (wave.c_theta(w, 0.05) - wave.c_theta(w, -0.05)) / 0.1
        op.below("odd_derivative", abs(slope), 1e-3)

    for name, body in (("decay_report", decay), ("v_solve", cole_hopf),
                       ("mcf_solve", curvature), ("supersub_planar", planar),
                       ("supersub_curved", curved), ("c_theta", tilted)):
        _attempt(ops, name, body)
    return ops


def _residual_check(op: Op, rep: dict) -> None:
    """Worst residual of the wrong sign, against the verification tolerance."""
    worst = max(-rep["min_residual_super"], rep["max_residual_sub"])
    op.below("residual", worst, rep["tol"], inclusive=True)


WORKLOADS = {"experiments": experiments, "simulate": simulate, "flows": flows}

# The parts of reference.kernel like each workload's hot path: phi_inverse's
# spline bisection (~90% of a pipeline), sim.step's 256x256 stencil (~99% of
# simulate), and for flows all four, as its time is spread over heat_solve's
# roll loop, the Cole-Hopf and curvature flows and dense solves.
REFERENCE = {"experiments": ("small", "spline"), "simulate": ("stencil",),
             "flows": ("python", "small", "spline", "stencil")}

# Computed, not measured: one lattice step reads the field once and writes
# it once, so this is the least traffic a step can cause.
LATTICE_FIELDS = {"experiments": [(256, 64)],
                  "simulate": [(SIM_SIZE, SIM_SIZE)], "flows": []}


def computed_step_bytes(workload: str) -> list[dict]:
    return [{"width": wd, "height": ht, "field_bytes": 8 * wd * ht,
             "min_bytes_per_step": 2 * 8 * wd * ht}
            for wd, ht in LATTICE_FIELDS[workload]]
