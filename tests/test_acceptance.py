"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test covers one criterion, prints a single PASS/FAIL line, and fails
with the list of violated sub-checks.  Oracles used here are local to this
file so the gate stays independent of the unit-test modules.
"""

import time

import numpy as np
import pytest
from mpmath import mp

from acfront.core import BistableNonlinearity, LatticeField, PhaseSequence, d_plus
from acfront.errors import VerificationFailed
from acfront.flow import (FlowParams, bessel_bounds_report, decay_report,
                          heat_kernel, heat_solve, mcf_solve, v_solve)
from acfront.harness import (default_spec, run_thm22, run_thm23, run_thm24,
                             splitmix64_uniform)
from acfront.phase import extract
from acfront.sim import (SimConfig, SuperSubSpec, run, search_planar_constants,
                         step, verify_supersub)
from acfront.wave import c_theta, mfde_residual, solve_wave


def _verdict(num, label, checks):
    ok = all(bool(v) for v in checks.values())
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        bad = ", ".join(k for k, v in checks.items() if not v)
        pytest.fail(f"criterion {num} failed: {bad}")


def front_speed_by_tracking(a, n=192, t_end=170.0, dt=0.02, fit_from=20.0):
    """RK4 time stepping of the 1D lattice equation from a step, fitting the
    drift of the half-level crossing by least squares."""

    def rhs(u):
        up = np.append(u[1:], 1.0)
        um = np.append(0.0, u[:-1])
        return up + um - 2.0 * u + u * (1.0 - u) * (u - a)

    u = np.where(np.arange(n) >= n // 2, 1.0, 0.0).astype(float)
    times, pos = [], []
    for k in range(1, int(round(t_end / dt)) + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = k * dt
        if t >= fit_from and k % 50 == 0:
            hit = int(np.where((u[:-1] <= 0.5) & (u[1:] > 0.5))[0][0])
            times.append(t)
            pos.append(hit + (0.5 - u[hit]) / (u[hit + 1] - u[hit]))
    return float(np.polyfit(times, pos, 1)[0])


def scaled_bessel_series(k, t):
    """Power series for e^{-t} I_k(t) at 40 significant digits."""
    mp.dps = 40
    x = mp.mpf(t) / 2
    total = mp.mpf(0)
    floor = mp.mpf(10) ** (-mp.dps - 5)
    for m in range(0, 2000):
        term = x ** (2 * m + k) / (mp.factorial(m) * mp.factorial(m + k))
        total += term
        if m > 4 and term < floor * total:
            break
    return float(total * mp.e ** (-mp.mpf(t)))


def test_c01_wave_solver(wave03):
    checks = {}
    for a in (0.25, 0.3, 0.35):
        t0 = time.perf_counter()
        w = solve_wave(BistableNonlinearity(a=a))
        checks[f"runtime_a={a}"] = time.perf_counter() - t0 < 10.0
        checks[f"residual_a={a}"] = np.max(np.abs(mfde_residual(w))) < 1e-9
        mirror = solve_wave(BistableNonlinearity(a=1.0 - a))
        checks[f"mirror_a={a}"] = abs(w.c + mirror.c) < 1e-6
    tracked = front_speed_by_tracking(0.3)
    checks["tracking_rel"] = abs(tracked - wave03.c) / abs(wave03.c) < 1e-3
    _verdict(1, "wave solver", checks)


def test_c02_d_identity(wave03):
    w = wave03
    checks = {}
    for eps in (0.05, 0.1):
        cpp = (c_theta(w, eps) + c_theta(w, -eps) - 2.0 * w.c) / eps ** 2
        d_fd = 0.5 * w.c + 0.5 * cpp
        checks[f"identity_eps={eps}"] = abs(w.d - d_fd) / abs(w.d) < 1e-2
    slope = (c_theta(w, 0.05) - c_theta(w, -0.05)) / 0.1
    checks["odd_derivative_zero"] = abs(slope) < 1e-3
    _verdict(2, "d-identity", checks)


def test_c03_heat_machinery():
    def kernel_bessel(k, t):
        table = heat_kernel(t / 2.0)  # G_k(t/2) = e^{-t} I_k(t)
        return table.values[table.kmax + k]

    checks = {}
    checks["kernel_mass"] = all(
        abs(heat_kernel(t).mass() - 1.0) < 1e-12
        for t in (0.0, 0.5, 1.0, 5.0, 20.0, 100.0))
    checks["bessel_series"] = all(
        abs(kernel_bessel(k, t) - scaled_bessel_series(k, t))
        <= 1e-13 * max(1.0, abs(scaled_bessel_series(k, t)))
        for t in (1.0, 5.0, 20.0, 100.0) for k in (0, 1, 3, 10))
    rep = bessel_bounds_report([1.0, 5.0, 20.0, 100.0])
    checks["single_sign_change"] = rep["single_sign_change"]
    checks["order_monotone"] = rep["all_order_monotone"]
    n = 2048
    vals = np.where(np.arange(n) < n // 2, 0.0, 4.0)
    vals += 0.5 * (splitmix64_uniform(2, n) - 0.5)
    dec = decay_report(PhaseSequence(vals, boundary_j="reflect"),
                       np.geomspace(10.0, 1000.0, 13))
    checks["slope_first"] = abs(dec["slope_first"] + 0.5) <= 0.1
    checks["slope_second"] = abs(dec["slope_second"] + 1.0) <= 0.1
    monotone = True
    for seed in range(20):
        h0 = PhaseSequence(2.0 * splitmix64_uniform(seed, 32) - 1.0)
        norms = [np.max(np.abs(d_plus(heat_solve(h0, t))))
                 for t in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)]
        monotone = monotone and all(b <= a for a, b in zip(norms, norms[1:]))
    checks["gradient_monotone_exact"] = monotone
    _verdict(3, "heat machinery", checks)


def test_c04_cole_hopf(wave03):
    checks = {}
    p = FlowParams(c=wave03.c, d=wave03.d, dt=1e-3)
    worst = 0.0
    for seed in range(10):
        V0 = PhaseSequence(0.25 * (2.0 * splitmix64_uniform(100 + seed, 32) - 1.0))
        exact = v_solve(V0, p, t_grid=[0.0, 1.0, 2.0])
        euler = v_solve(V0, p, t_grid=[0.0, 1.0, 2.0], method="euler")
        worst = max(worst, float(np.max(np.abs(exact.values - euler.values))))
    checks["transform_vs_euler"] = worst < 1e-4
    pd = FlowParams(c=wave03.c, d=wave03.d)
    vals = np.round((2.0 * splitmix64_uniform(4, 24) - 1.0) * 1024.0) / 1024.0
    vals[0] = 0.0
    base = v_solve(PhaseSequence(vals), pd, t_grid=[0.5, 2.0]).values
    checks["translation_exact"] = all(
        np.array_equal(v_solve(PhaseSequence(vals + s), pd,
                               t_grid=[0.5, 2.0]).values, base + s)
        for s in (3.0, -7.25, 1234.5))
    _verdict(4, "cole-hopf equivalence", checks)


def test_c05_comparison_principles(wave03):
    checks = {}
    cfg = SimConfig(wave03.f, width=16, height=8)
    ordered = True
    for seed in range(20):
        lo = 0.85 * splitmix64_uniform(2 * seed, 16 * 8).reshape(16, 8)
        gap = 0.01 + 0.14 * splitmix64_uniform(2 * seed + 1, 16 * 8).reshape(16, 8)
        u = LatticeField(lo.copy(), i_offset=cfg.i_offset)
        v = LatticeField(lo + gap, i_offset=cfg.i_offset)
        for _ in range(40):
            u = step(u, cfg)
            v = step(v, cfg)
            ordered = ordered and np.min(v.values - u.values) >= 0.0
    checks["lde_pairs_ordered"] = ordered
    pm = FlowParams(c=wave03.c, d=wave03.d)
    ordered = True
    for seed in range(20):
        base = 0.02 * (2.0 * splitmix64_uniform(200 + seed, 24) - 1.0)
        gap = 0.005 + 0.01 * splitmix64_uniform(300 + seed, 24)
        lo = mcf_solve(PhaseSequence(base), pm, t_grid=[0.0, 1.0, 2.0, 5.0])
        hi = mcf_solve(PhaseSequence(base + gap), pm, t_grid=[0.0, 1.0, 2.0, 5.0])
        ordered = ordered and np.min(hi.values - lo.values) >= 0.0
    checks["mcf_pairs_ordered"] = ordered
    _verdict(5, "comparison principles", checks)


def test_c06_supersub_verification(wave03):
    w = wave03
    checks = {}
    cfg = SimConfig(w.f, t_end=50.0)
    t_grid = np.linspace(0.0, 50.0, 26)
    seed = SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=1.0, C=1.0)
    mu, C, report = search_planar_constants(w, seed, cfg, t_grid)
    checks["planar_search"] = report["verdict"] == "pass" and mu > 0.0 and C >= 1.0
    j = np.arange(64)
    curved = SuperSubSpec(kind="curved",
                          V0=PhaseSequence(np.sin(2.0 * np.pi * j / 64.0)))
    rep = verify_supersub(curved, w, cfg, t_grid, width=128)
    checks["curved_pass"] = rep["verdict"] == "pass"
    degenerate = SuperSubSpec(kind="curved",
                              V0=PhaseSequence(np.sin(2.0 * np.pi * j / 64.0)),
                              M=1e-12)
    try:
        verify_supersub(degenerate, w, cfg, [0.0, 1.0], width=128)
        checks["degenerate_offset_rejected"] = False
    except VerificationFailed:
        checks["degenerate_offset_rejected"] = True
    _verdict(6, "super/sub-solutions", checks)


def test_c07_front_error_pipeline(wave03):
    spec = default_spec("thm22")
    assert (spec.width, spec.height, spec.t_end) == (256, 64, 150.0)
    assert spec.kappa["amplitude"] == 2.0
    t0 = time.perf_counter()
    report = run_thm22(spec, wave03)
    runtime = time.perf_counter() - t0
    checks = {
        "front_error": report.verdicts["front_error_final"]["value"] < 0.02,
        "passed": report.passed,
        "runtime": runtime < 120.0,
    }
    _verdict(7, "front convergence pipeline", checks)


def test_c08_tracking_pipeline(wave03):
    spec = default_spec("thm23")
    assert (spec.tau, spec.t_end) == (60.0, 200.0)
    report = run_thm23(spec, wave03)
    checks = {
        "tracking_sup": report.verdicts["tracking_sup"]["value"] < 0.1,
        "handoff_flatness": report.verdicts["handoff_flatness"]["value"] < 0.1,
        "passed": report.passed,
    }
    _verdict(8, "interface tracking pipeline", checks)


def test_c09_average_phase_pipeline(wave03):
    spec = default_spec("thm24")
    assert spec.kappa["P"] == 8
    report = run_thm24(spec, wave03)
    checks = {
        "mu_stable": report.verdicts["mu_stable"]["value"] < 0.01,
        "final_profile_error": report.verdicts["final_profile_error"]["value"] < 0.02,
        "mu_vs_prediction": abs(report.mu_hat - report.mu_pred) < 0.05,
        "passed": report.passed,
    }
    _verdict(9, "average phase pipeline", checks)


def test_c10_trapping(wave03):
    w = wave03
    theta = 0.5
    kappa = 0.2 * (2.0 * splitmix64_uniform(11, 64) - 1.0)
    cfg = SimConfig(w.f, t_end=150.0)
    ii = np.arange(cfg.i_offset, cfg.i_offset + cfg.width, dtype=float)
    u0 = LatticeField(w.phi_at(ii[:, None] - kappa[None, :]),
                      i_offset=cfg.i_offset)
    snaps = run(u0, cfg)
    lo_margin = hi_margin = np.inf
    for t, u in snaps:
        x = ii[:, None] - w.c * t
        lo_margin = min(lo_margin, np.min(u.values - w.phi_at(x - theta)))
        hi_margin = min(hi_margin, np.min(w.phi_at(x + theta) - u.values))
    g = extract(snaps[-1][1], w)
    checks = {
        "sandwiched_below": lo_margin >= -1e-12,
        "sandwiched_above": hi_margin >= -1e-12,
        "phase_defined": g.all_defined,
        "phase_flat": np.max(g.gamma.values) - np.min(g.gamma.values) < 0.05,
    }
    _verdict(10, "trapping", checks)
