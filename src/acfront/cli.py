"""Command-line interface.

Exit codes: 0 success / verdict pass, 1 verdict fail, 2 usage or input
error, 3 numerical failure (divergence, pinning, overflow and kin).
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Optional

import numpy as np

from . import flow, harness, phase, sim
from .core import BOUNDARY_J, BistableNonlinearity, PhaseSequence
from .errors import AcFrontError, NumericalError, VerificationFailed
from .wave import load_wave, mfde_residual, solve_r, solve_wave


def _solved_wave(a: float, L: float, h: float):
    w = solve_wave(BistableNonlinearity(a=a), L=L, h=h)
    solve_r(w)
    return w


def _cmd_wave(args) -> int:
    from .wave import save_wave

    w = _solved_wave(args.a, args.L, args.h)
    res = float(np.max(np.abs(mfde_residual(w))))
    print(f"a={args.a:g} c={w.c:.12g} d={w.d:.12g} sup-residual={res:.3e}")
    if args.out:
        save_wave(w, args.out)
        print(f"profile written to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = harness.parse_config(fh.read())
    spec = harness.spec_from_config(cfg)
    w = solve_wave(BistableNonlinearity(a=spec.a), L=spec.L, h=spec.h)
    sim_cfg = spec.sim_config(w.f)
    writer = sim.SnapshotWriter(args.out)
    for t, u in sim.snapshots(harness.make_initial(spec, w), sim_cfg):
        writer.write(u, t)
    print(f"{writer.count} snapshots written to {args.out} "
          f"(index {writer.index_path})")
    return 0


def _cmd_phase(args) -> int:
    t, u = sim.load_snapshot(args.snapshot)
    w = load_wave(args.wave)
    g = phase.extract(u, w)
    defined = int(np.count_nonzero(g.defined_mask))
    print(f"t={t:g} defined_rows={defined}/{u.height}")
    if defined >= 2:
        print(f"flatness={phase.flatness(g):.6g}")
    if g.all_defined:
        print(f"front_error={phase.front_error(u, w, g):.6g}")
    if args.out:
        phase.phase_series_to_csv([(t, g)], args.out)
        print(f"phase written to {args.out}")
    return 0


def _cmd_heat(args) -> int:
    if args.report == "bessel":
        report = flow.bessel_bounds_report([1.0, 5.0, 20.0, 100.0])
        ok = (report["all_order_monotone"] and report["single_sign_change"]
              and report["max_telescope_error"] < 1e-10)
        print(f"order_monotone={report['all_order_monotone']} "
              f"single_sign_change={report['single_sign_change']} "
              f"telescope_error={report['max_telescope_error']:.3e}")
    else:
        height = 2048
        noise = 0.5 * (2.0 * harness.splitmix64_uniform(2, height) - 1.0)
        h0 = PhaseSequence(np.repeat([0.0, 4.0], height // 2) + noise,
                           boundary_j="reflect")
        report = flow.decay_report(h0, np.geomspace(10.0, 1000.0, 13))
        ok = (abs(report["slope_first"] + 0.5) <= 0.1
              and abs(report["slope_second"] + 1.0) <= 0.1
              and report["monotone_bound_holds"])
        print(f"slope_first={report['slope_first']:.3f} "
              f"slope_second={report['slope_second']:.3f} "
              f"monotone_bound={report['monotone_bound_holds']}")
    if args.out:
        flow.report_to_ndjson(report, args.out)
        print(f"report written to {args.out}")
    return 0 if ok else 1


def _read_gamma_csv(path: str) -> tuple[np.ndarray, Optional[str]]:
    """The ``gamma`` column of a CSV with a header row, the layout
    ``acfront phase --out`` writes, and the one policy of its ``boundary_j``
    column (``None`` without one); every row must hold a phase and all rows
    one time ``t``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        reader.fieldnames = [h.strip().lower() for h in reader.fieldnames or []]
        rows = list(reader)
    if "gamma" not in reader.fieldnames:
        raise ValueError(f"{path}: no header row with a gamma column")
    cells = [(r["gamma"] or "").strip() for r in rows]
    if "" in cells:
        raise ValueError(f"{path}: gamma is blank (phase undefined) on data row "
                         f"{cells.index('') + 1}")
    times = {(r.get("t") or "").strip() for r in rows}
    if len(times) > 1:
        raise ValueError(f"{path}: rows of {len(times)} times t; keep one time's rows")
    boundary_j = None
    if "boundary_j" in reader.fieldnames:
        policies = sorted({(r["boundary_j"] or "").strip() for r in rows})
        if len(policies) > 1:
            raise ValueError(f"{path}: rows of {len(policies)} boundary_j policies "
                             f"{policies}; keep one")
        boundary_j = policies[0] if policies else None
    return np.array([float(c) for c in cells]), boundary_j


def _cmd_mcf(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    gamma, recorded = _read_gamma_csv(args.init)
    if args.boundary and recorded and args.boundary != recorded:
        raise ValueError(f"--boundary {args.boundary} contradicts the boundary_j "
                         f"column of {args.init} ({recorded})")
    gamma0 = PhaseSequence(gamma, boundary_j=args.boundary or recorded or "periodic")
    if args.wave:
        w = load_wave(args.wave)
        c, d = w.c, w.d
        if d is None:
            print("wave file lacks d; pass --c/--d explicitly", file=sys.stderr)
            return 2
    elif args.c is not None and args.d is not None:
        c, d = args.c, args.d
    else:
        print("mcf needs either --wave or both --c and --d", file=sys.stderr)
        return 2
    params = flow.FlowParams(c=c, d=d)
    with np.errstate(invalid="ignore"):  # mcf_solve rejects a non-finite --t-end
        t_grid = np.linspace(0.0, args.t_end, args.samples)
    traj = flow.mcf_solve(gamma0, params, t_grid=t_grid, delta=args.delta)
    flow.trajectory_to_csv(traj, args.out)
    print(f"trajectory ({len(traj)} times) written to {args.out}")
    return 0


def _cmd_verify_subsuper(args) -> int:
    if args.t_samples < 1:
        raise ValueError(f"--t-samples must be >= 1, got {args.t_samples}")
    w = _solved_wave(args.a, 20.0, 0.0625)
    cfg = sim.SimConfig(w.f, t_end=args.t_end, height=64)
    t_grid = np.linspace(0.0, args.t_end, args.t_samples)
    if args.kind == "planar":
        seed_spec = sim.SuperSubSpec(kind="planar", q0=args.q0, q1=args.q1,
                                     mu=1.0, C=1.0)
        try:
            mu, C, report = sim.search_planar_constants(w, seed_spec, cfg, t_grid)
        except VerificationFailed as exc:
            print(f"verdict=fail ({exc})")
            return 1
        print(f"verdict=pass mu={mu:g} C={C:g} "
              f"min_super={report['min_residual_super']:.3e} "
              f"max_sub={report['max_residual_sub']:.3e}")
        return 0
    P = 64
    j = np.arange(P)
    V0 = PhaseSequence(args.v_amplitude * np.sin(2.0 * np.pi * j / P))
    spec = sim.SuperSubSpec(kind="curved", V0=V0)
    report = sim.verify_supersub(spec, w, cfg, t_grid, width=128)
    print(f"verdict={report['verdict']} "
          f"min_super={report['min_residual_super']:.3e} "
          f"max_sub={report['max_residual_sub']:.3e} "
          f"site_super={report['site_super']} site_sub={report['site_sub']}")
    return 0 if report["verdict"] == "pass" else 1


def _cmd_experiment(args) -> int:
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = harness.parse_config(fh.read())
    spec = harness.spec_from_config(cfg, name=args.name)
    report = harness.run_experiment(spec)
    for key, v in report.verdicts.items():
        print(f"{key}: value={v['value']:.6g} tolerance={v['tolerance']:g} "
              f"{'pass' if v['pass'] else 'FAIL'}")
    if report.mu_hat is not None:
        print(f"mu_hat={report.mu_hat:.6g} mu_pred={report.mu_pred:.6g}")
    if args.out:
        report.to_ndjson(args.out)
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acfront",
        description="travelling fronts of the lattice Allen-Cahn equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wave", help="solve the travelling-wave profile")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--L", type=float, default=20.0)
    p.add_argument("--h", type=float, default=0.0625)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_wave)

    p = sub.add_parser("simulate", help="run a simulation from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="acfront_snapshots")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("phase", help="extract the phase of a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--wave", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("heat", help="heat-kernel diagnostic reports")
    p.add_argument("--report", choices=["decay", "bessel"], required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_heat)

    p = sub.add_parser("mcf", help="run the discrete curvature flow")
    p.add_argument("--init", required=True, help="CSV with a gamma column")
    p.add_argument("--wave", default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--t-end", type=float, default=50.0)
    p.add_argument("--samples", type=int, default=51)
    p.add_argument("--boundary", choices=BOUNDARY_J, default=None,
                   help="j-boundary policy; default the CSV's boundary_j column, "
                   "else periodic")
    p.add_argument("--delta", type=float, default=0.1,
                   help="flatness guard for the curvature-flow regime")
    p.add_argument("--out", default="mcf_trajectory.csv")
    p.set_defaults(func=_cmd_mcf)

    p = sub.add_parser("verify-subsuper", help="verify a super/sub-solution pair")
    p.add_argument("--kind", choices=["planar", "curved"], required=True)
    p.add_argument("--a", type=float, default=0.3)
    p.add_argument("--q0", type=float, default=0.1)
    p.add_argument("--q1", type=float, default=0.1)
    p.add_argument("--t-end", type=float, default=50.0)
    p.add_argument("--t-samples", type=int, default=26)
    p.add_argument("--v-amplitude", type=float, default=1.0)
    p.set_defaults(func=_cmd_verify_subsuper)

    p = sub.add_parser("experiment", help="run a named experiment pipeline")
    short = {name: alias for alias, name in harness._ALIASES.items()}
    p.add_argument("name", choices=[short.get(n, n) for n in harness._EXPERIMENTS])
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except AcFrontError as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
