"""Monotone scheme, snapshot format, and super/sub-solution machinery."""

import csv
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acfront.core import BistableNonlinearity, LatticeField, PhaseSequence, discrete_laplacian
from acfront.errors import NonFinite, VerificationFailed
from acfront.harness import splitmix64_uniform
from acfront.sim import (SimConfig, SuperSubSpec, build_curved_supersub,
                         build_planar_supersub, export_col_csv, export_row_csv,
                         load_snapshot, read_snapshots, residual_J, run,
                         save_snapshot, search_planar_constants, step,
                         verify_supersub, SnapshotWriter)

F03 = BistableNonlinearity(a=0.3)


def test_config_defaults_satisfy_monotonicity_bound():
    cfg = SimConfig(F03)
    sup = F03.dg_sup()
    assert cfg.dt == pytest.approx(0.2 / (4.0 + sup), abs=1e-15)
    assert cfg.dt * (4.0 + sup) <= 1.0
    assert cfg.record_every * cfg.dt == pytest.approx(1.0, abs=0.02)
    assert cfg.i_offset == -cfg.width // 2


def test_config_rejects_unstable_step():
    with pytest.raises(ValueError):
        SimConfig(F03, dt=0.2)


def test_step_is_explicit_euler_update():
    cfg = SimConfig(F03, width=8, height=4)
    rng = np.random.default_rng(0)
    u = LatticeField(rng.uniform(size=(8, 4)), i_offset=cfg.i_offset)
    out = step(u, cfg)
    want = u.values + cfg.dt * (discrete_laplacian(u) + F03(u.values))
    assert np.array_equal(out.values, want)
    assert out.i_offset == u.i_offset


@pytest.mark.filterwarnings("ignore:overflow")
def test_step_raises_on_blowup():
    cfg = SimConfig(F03, width=4, height=2)
    u = LatticeField(np.full((4, 2), 1e160), i_offset=0)
    with pytest.raises(NonFinite):
        step(u, cfg)


def test_run_records_requested_times():
    cfg = SimConfig(F03, t_end=0.5, record_every=10, width=8, height=4)
    u0 = cfg.blank_field(0.25)
    snaps = run(u0, cfg)
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
    want = [0.0] + [k * cfg.dt for k in range(1, n_steps + 1)
                    if k % 10 == 0 or k == n_steps]
    assert [t for t, _ in snaps] == want
    # the initial snapshot is a copy, not an alias
    assert snaps[0][1].values is not u0.values


def test_run_observers_see_every_snapshot():
    cfg = SimConfig(F03, t_end=0.2, record_every=5, width=8, height=4)
    seen = []
    run(cfg.blank_field(0.4), cfg, observers=[lambda t, u: seen.append(t)])
    assert seen == [t for t, _ in run(cfg.blank_field(0.4), cfg)]


def test_ordered_data_stays_ordered():
    cfg = SimConfig(F03, t_end=2.0, width=16, height=8)
    for seed in range(3):
        lo = 0.9 * splitmix64_uniform(2 * seed, 16 * 8).reshape(16, 8)
        gap = 0.1 * splitmix64_uniform(2 * seed + 1, 16 * 8).reshape(16, 8)
        u = LatticeField(lo.copy(), i_offset=cfg.i_offset)
        v = LatticeField(lo + gap, i_offset=cfg.i_offset)
        for _ in range(60):
            u = step(u, cfg)
            v = step(v, cfg)
            assert np.min(v.values - u.values) >= 0.0


@settings(max_examples=200)
@given(data=st.data(), boundary_j=st.sampled_from(["periodic", "reflect"]))
def test_step_comparison_principle(data, boundary_j):
    """``u <= v`` gives ``step(u) <= step(v)`` for any window and values in
    [-0.5, 1.5], where ``dt (4 + |g'|) <= 1`` still holds.  Values lie on a
    2^-20 grid so that every strict gap is far above binary64 rounding: the
    scheme is monotone in exact arithmetic, and at gaps of one ulp rounding
    alone can reverse the order by ~1e-17."""
    width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 8))
    grid = hnp.arrays(np.int64, (width, height),
                      elements=st.integers(-2 ** 19, 3 * 2 ** 19))
    a, b = data.draw(grid), data.draw(grid)
    cfg = SimConfig(F03, width=width, height=height, boundary_j=boundary_j)
    u, v = (LatticeField(x / 2.0 ** 20, i_offset=cfg.i_offset, boundary_j=boundary_j)
            for x in (np.minimum(a, b), np.maximum(a, b)))
    assert np.all(step(u, cfg).values <= step(v, cfg).values)


def test_residual_vanishes_on_scheme_pairs():
    cfg = SimConfig(F03, width=16, height=8)
    u0 = LatticeField(splitmix64_uniform(5, 16 * 8).reshape(16, 8),
                      i_offset=cfg.i_offset)
    u1 = step(u0, cfg)
    J = residual_J((0.0, u0), (cfg.dt, u1), cfg)
    assert np.max(np.abs(J.values)) < 1e-13


def test_residual_halves_with_sample_interval_on_exact_wave(wave03):
    # planar wave pairs: J is pure forward-difference error, first order in dt
    w = wave03
    cfg = SimConfig(w.f, width=64, height=4)
    i = (np.arange(64) - 32).astype(float)[:, None]
    ones = np.ones((1, 4))

    def field_at(t):
        return LatticeField(w.phi_at(i - w.c * t) * ones, i_offset=-32)

    sups = []
    for dt in (0.02, 0.01):
        J = residual_J((0.0, field_at(0.0)), (dt, field_at(dt)), cfg)
        sups.append(np.max(np.abs(J.values[1:-1, :])))
    ratio = sups[0] / sups[1]
    assert 1.8 < ratio < 2.2


def test_residual_rejects_unordered_pair():
    cfg = SimConfig(F03, width=4, height=2)
    u = cfg.blank_field(0.3)
    with pytest.raises(ValueError):
        residual_J((1.0, u), (1.0, u), cfg)


def test_snapshot_round_trip_and_header(tmp_path):
    vals = splitmix64_uniform(9, 12 * 5).reshape(12, 5)
    u = LatticeField(vals, i_offset=-6, boundary_j="reflect")
    path = tmp_path / "snap.bin"
    save_snapshot(u, 2.5, str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"ACF1"
    assert len(raw) == 64 + 12 * 5 * 8
    t, back = load_snapshot(str(path), boundary_j="reflect")
    assert t == 2.5
    assert back.i_offset == -6
    assert np.array_equal(back.values, vals)


def test_snapshot_magic_check(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNK" + b"\0" * 200)
    with pytest.raises(ValueError):
        load_snapshot(str(path))


def test_snapshot_writer_index_and_read_back(tmp_path):
    cfg = SimConfig(F03, t_end=0.1, record_every=2, width=8, height=4,
                    boundary_j="reflect")
    writer = SnapshotWriter(str(tmp_path / "out"))
    snaps = run(cfg.blank_field(0.5), cfg, writer=writer)
    index = writer.index_path
    with open(index) as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == len(snaps)
    assert records[0]["file"] == "snap_000000.bin"
    assert all(r["boundary_j"] == "reflect" for r in records)
    back = read_snapshots(index)
    assert [t for t, _ in back] == [t for t, _ in snaps]
    for (_, a), (_, b) in zip(back, snaps):
        assert np.array_equal(a.values, b.values)
        assert a.boundary_j == "reflect"


def test_csv_exports(tmp_path):
    u = LatticeField(np.arange(12.0).reshape(4, 3), i_offset=-2)
    rpath = tmp_path / "row.csv"
    export_row_csv(u, 1, str(rpath))
    with open(rpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "value"]
    assert [int(r[0]) for r in rows[1:]] == [-2, -1, 0, 1]
    assert [float(r[1]) for r in rows[1:]] == u.values[:, 1].tolist()

    cpath = tmp_path / "col.csv"
    export_col_csv(u, 0, str(cpath))
    with open(cpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [float(r[1]) for r in rows[1:]] == u.values[2, :].tolist()


# ---------------------------------------------------------------------------
# super/sub-solutions

MU_REF = 10.0 ** -2.25
C_BIG = 10.0 ** 2.5


def planar_residual_oracle(w, spec, t, xi, sign, q):
    """Test-side re-derivation of the planar residual from the closed form."""
    mu, C = spec.mu, spec.C
    decay = math.exp(-mu * t)
    arg = xi + sign * C * q * (1.0 - decay)
    u = w.phi_at(arg) + sign * q * decay
    udot = w.phi_at(arg, 1) * (sign * C * q * mu * decay - w.c) \
        - sign * mu * q * decay
    lap = w.phi_at(arg + 1.0) + w.phi_at(arg - 1.0) - 2.0 * w.phi_at(arg)
    return udot - lap - w.f(u)


def test_planar_pair_certified_with_frozen_constants(wave03):
    w = wave03
    cfg = SimConfig(w.f)
    spec = SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=MU_REF, C=C_BIG)
    t_grid = np.linspace(0.0, 50.0, 26)
    report = verify_supersub(spec, w, cfg, t_grid)
    assert report["verdict"] == "pass"
    assert report["min_residual_super"] > 0.0
    assert report["max_residual_sub"] < 0.0


def test_planar_search_returns_certified_pair(wave03):
    w = wave03
    cfg = SimConfig(w.f)
    seed = SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=1.0, C=1.0)
    mu, C, report = search_planar_constants(w, seed, cfg, np.linspace(0.0, 50.0, 26))
    assert report["verdict"] == "pass"
    assert mu == pytest.approx(MU_REF, rel=1e-12)
    assert C == pytest.approx(C_BIG, rel=1e-12)


def test_planar_residual_matches_time_difference_oracle(wave03):
    w = wave03
    spec = SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=MU_REF, C=C_BIG)
    width, height = 64, 4
    delta = 1e-3
    for t in (1.0, 10.0):
        fields = {s: build_planar_supersub(w, spec, t + s * delta,
                                           width=width, height=height)
                  for s in (-1, 0, 1)}
        for which, sign, q in ((0, +1.0, spec.q0), (1, -1.0, spec.q1)):
            mid = fields[0][which]
            fd_dot = (fields[1][which].values - fields[-1][which].values) / (2 * delta)
            fd_J = fd_dot - discrete_laplacian(mid) - w.f(mid.values)
            xi = mid.lattice_i().astype(float) - w.c * t
            want = planar_residual_oracle(w, spec, t, xi, sign, q)[:, None]
            # i-edge rows see window ghosts instead of the construction tails
            assert np.max(np.abs(fd_J[1:-1, :] - want[1:-1, :])) < 1e-6


def test_planar_verify_agrees_with_oracle_extremes(wave03):
    w = wave03
    cfg = SimConfig(w.f)
    spec = SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=MU_REF, C=C_BIG)
    t_grid = [0.0, 5.0, 25.0, 50.0]
    report = verify_supersub(spec, w, cfg, t_grid, width=128)
    mins, maxs = [], []
    for t in t_grid:
        xi = np.arange(128, dtype=float) - 64 - w.c * t
        mins.append(np.min(planar_residual_oracle(w, spec, t, xi, +1.0, spec.q0)))
        maxs.append(np.max(planar_residual_oracle(w, spec, t, xi, -1.0, spec.q1)))
    assert report["min_residual_super"] == pytest.approx(min(mins), rel=1e-9)
    assert report["max_residual_sub"] == pytest.approx(max(maxs), rel=1e-9)


def test_planar_bad_constants_fail_with_site(wave03):
    w = wave03
    cfg = SimConfig(w.f)
    spec = SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=1.0, C=1.0)
    report = verify_supersub(spec, w, cfg, [0.0, 10.0])
    assert report["verdict"] == "fail"
    with pytest.raises(VerificationFailed) as err:
        verify_supersub(spec, w, cfg, [0.0, 10.0], raise_on_fail=True)
    assert err.value.site is not None
    assert err.value.value is not None


def curved_spec(height=64):
    j = np.arange(height)
    return SuperSubSpec(kind="curved",
                        V0=PhaseSequence(np.sin(2.0 * np.pi * j / height)))


# frozen verify_supersub reports: (min J[u+], max J[u-], site_super, site_sub, verdict)
FROZEN_REPORTS = {
    "planar_fail": (-0.10938497113144746, 0.10794966919472256,
                    (-1, 0, 0.0), (0, 0, 0.0), "fail"),
    "planar_pass": (0.0019923660758787674, -0.003972943097132711,
                    (-22, 0, 48.0), (-6, 0, 46.0), "pass"),
    "curved_periodic": (0.0007531711199552377, -0.0007740347359166331,
                        (-37, 38, 50.0), (-31, 5, 50.0), "pass"),
    "curved_reflect": (0.0007531514706290358, -0.0007740344922397713,
                       (-36, 17, 50.0), (-31, 27, 50.0), "pass"),
    "curved_small_C_eps": (-0.007042124197559722, 0.007043017860226888,
                           (-5, 40, 14.0), (-4, 29, 14.0), "fail"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_REPORTS))
def test_verify_supersub_reports_frozen(wave03, case):
    w = wave03
    cfg = SimConfig(w.f)
    t_grid = np.linspace(0.0, 50.0, 26)
    if case == "planar_fail":
        spec = SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=1.0, C=1.0)
        report = verify_supersub(spec, w, cfg, [0.0, 10.0])
    elif case == "planar_pass":
        spec = SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=MU_REF, C=C_BIG)
        report = verify_supersub(spec, w, cfg, t_grid)
    else:
        spec = curved_spec()
        if case == "curved_reflect":
            spec.V0 = PhaseSequence(spec.V0.values, boundary_j="reflect")
        elif case == "curved_small_C_eps":
            spec.C_eps = 0.01
        report = verify_supersub(spec, w, cfg, t_grid, width=128)
    lo, hi, site_super, site_sub, verdict = FROZEN_REPORTS[case]
    assert report["verdict"] == verdict
    assert report["tol"] == 1e-6
    assert report["min_residual_super"] == pytest.approx(lo, rel=1e-9)
    assert report["max_residual_sub"] == pytest.approx(hi, rel=1e-9)
    assert report["site_super"] == site_super
    assert report["site_sub"] == site_sub


def test_curved_pair_certified_with_default_constants(wave03):
    w = wave03
    cfg = SimConfig(w.f)
    report = verify_supersub(curved_spec(), w, cfg, np.linspace(0.0, 50.0, 26),
                             width=128)
    assert report["verdict"] == "pass"


def test_curved_fields_ordered_and_fd_residual_signs(wave03):
    w = wave03
    spec = curved_spec(height=32)
    delta = 1e-3
    for t in (0.5, 5.0, 30.0):
        up_m, um_m = build_curved_supersub(w, spec, t - delta, width=96)
        up_0, um_0 = build_curved_supersub(w, spec, t, width=96)
        up_p, um_p = build_curved_supersub(w, spec, t + delta, width=96)
        assert up_m.i_offset == up_0.i_offset == up_p.i_offset
        assert np.all(up_0.values >= um_0.values)
        fd_super = (up_p.values - up_m.values) / (2 * delta) \
            - discrete_laplacian(up_0) - w.f(up_0.values)
        fd_sub = (um_p.values - um_m.values) / (2 * delta) \
            - discrete_laplacian(um_0) - w.f(um_0.values)
        assert np.min(fd_super[1:-1, :]) > -2e-5
        assert np.max(fd_sub[1:-1, :]) < 2e-5


def test_curved_no_offset_rejected_at_margin(wave03):
    w = wave03
    cfg = SimConfig(w.f)
    spec = curved_spec()
    spec.M = 1e-12
    spec.nu = 1e-15
    with pytest.raises(VerificationFailed):
        verify_supersub(spec, w, cfg, [0.0, 1.0], width=128)


def test_offset_profile_shape():
    spec = SuperSubSpec(kind="planar", mu=0.1, C=2.0)
    knee = spec.delta ** (-2.0 / 3.0)
    assert spec.p_of(0.0) == spec.p_of(0.5 * knee)
    assert spec.p_of(2.0 * knee) < spec.p_of(knee)
    # q is the C_eps-weighted integral of p
    for t in (0.5, knee / 2, 3 * knee):
        eps = 1e-6
        fd = (spec.q_of(t + eps) - spec.q_of(t - eps)) / (2 * eps)
        assert fd == pytest.approx(spec.q_dot(t), rel=1e-4)
    assert spec.q_dot(1.0) == spec.C_eps * spec.p_of(1.0)


def test_supersub_spec_validation():
    with pytest.raises(ValueError):
        SuperSubSpec(kind="diagonal")
    with pytest.raises(ValueError):
        SuperSubSpec(kind="planar", mu=-1.0)
    with pytest.raises(ValueError):
        SuperSubSpec(kind="planar", C=0.5)
    with pytest.raises(ValueError):
        SuperSubSpec(kind="curved")
    with pytest.raises(ValueError):
        SuperSubSpec(kind="curved", V0=PhaseSequence(np.zeros(4)), M=-1.0)
    spec = SuperSubSpec(kind="planar", q0=0.4, mu=0.1, C=2.0)
    with pytest.raises(ValueError):
        spec.check_offsets(0.3)
    with pytest.raises(ValueError):
        SuperSubSpec(kind="planar", q1=0.8, mu=0.1, C=2.0).check_offsets(0.3)


def test_build_planar_requires_constants(wave03):
    with pytest.raises(ValueError):
        build_planar_supersub(wave03, SuperSubSpec(kind="planar"), 0.0)
    with pytest.raises(ValueError, match="needs mu and C"):
        verify_supersub(SuperSubSpec(kind="planar"), wave03, SimConfig(wave03.f), [0.0])
