"""Monotone scheme, snapshot format, and super/sub-solution machinery."""

import json
import math
import os
import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acfront.core import (BistableNonlinearity, LatticeField, PhaseSequence, _SSPRK104_REACH,
                          _substep)
from acfront.errors import NonFinite, OutOfRange, VerificationFailed
from acfront.flow import FlowParams, v_solve
from acfront.harness import splitmix64_uniform
from acfront import sim
from acfront.sim import (SimConfig, SuperSubSpec, _curved_pair, _planar_pair, load_snapshot,
                         read_snapshots, run, save_snapshot, search_planar_constants,
                         snapshots, step, verify_supersub, SnapshotWriter)

F03 = BistableNonlinearity(a=0.3)


class SteepCubic:
    """``k`` times the cubic of detuning ``a``: a g steeper than any cubic,
    whose default dt is below the cubic's 1/3.  It has what ``SimConfig`` and
    the step read of a nonlinearity."""

    def __init__(self, a, k):
        self.a, self.k, self._cubic = a, k, BistableNonlinearity(a)

    def __call__(self, u):
        return self.k * self._cubic(u)

    def dg(self, u):
        return self.k * self._cubic.dg(u)

    def dg_sup(self):
        return self.k * self._cubic.dg_sup()

    def _centre_into(self, v, out):
        return np.subtract(self(v), 4.0 * v, out=out)


def discrete_laplacian(u: LatticeField) -> np.ndarray:
    """The whole-window five-point Laplacian, sliced out of the padded field:
    ``((E + W) + N) + S - 4 c``."""
    p = u.padded()
    return p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4.0 * p[1:-1, 1:-1]


def test_config_defaults_satisfy_monotonicity_bound():
    cfg = SimConfig(F03)
    sup = F03.dg_sup()
    assert cfg.dt == 1.0 / math.ceil(math.ceil(4.0 + sup) / 4) == 1.0 / 3.0
    assert cfg.dt / 6.0 * (4.0 + sup) <= 1.0
    assert cfg.record_every * cfg.dt == 1.0
    assert cfg.i_offset == -cfg.width // 2


@settings(max_examples=200)
@given(a=st.floats(0.01, 0.99))
def test_default_dt_is_monotone_and_divides_unit_time(a):
    """The default step keeps its Euler substep inside the monotone bound,
    ``(dt/6) (4 + sup|g'|) <= 1``, and takes a whole number of steps per
    unit time, so recorded times are exact integers."""
    f = BistableNonlinearity(a=a)
    cfg = SimConfig(f)
    assert cfg.dt / 6.0 * (4.0 + f.dg_sup()) <= 1.0
    assert cfg.record_every * cfg.dt == 1.0


def test_run_records_exact_integer_times():
    cfg = SimConfig(F03, t_end=5.0, width=8, height=4)
    u0 = LatticeField(np.full((8, 4), 0.25))
    assert [t for t, _ in run(u0, cfg)] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_steep_nonlinearity_with_n_49_records_exact_integer_times():
    """N = ceil(4 + sup|g'|) = 49 gives dt = 1/13, and 13 steps reach t = 1
    exactly, where a step of 1/49 would record 0.9999999999999999."""
    f = SteepCubic(0.3, 44.5 / F03.dg_sup())
    assert math.ceil(4.0 + f.dg_sup()) == 49 and 49 * (1.0 / 49) != 1.0
    cfg = SimConfig(f, t_end=3.0, width=8, height=4)
    assert (cfg.dt, cfg.record_every) == (1.0 / 13, 13)
    u0 = LatticeField(np.full((8, 4), 0.25))
    assert [t for t, _ in run(u0, cfg)] == [0.0, 1.0, 2.0, 3.0]


def test_config_rejects_unstable_step():
    # (0.6 / 6) * (4 + 7.1) > 1
    with pytest.raises(ValueError, match="monotone-scheme condition"):
        SimConfig(F03, dt=0.6)
    SimConfig(F03, dt=6.0 / 11.1)


@pytest.mark.parametrize("kw, match", [
    ({"dt": -0.01}, "dt"), ({"dt": 0.0}, "dt"), ({"dt": math.nan}, "dt"),
    ({"dt": math.inf}, "dt"), ({"t_end": -1.0}, "t_end"),
    ({"record_every": 0}, "record_every"), ({"record_every": -3}, "record_every"),
    ({"width": 0}, "width must be an integer >= 1"),
    ({"height": -4}, "height must be an integer >= 1"),
    ({"width": 2.5}, "width must be an integer >= 1"),
    ({"width": True}, "width must be an integer >= 1, got True"),
    ({"height": True}, "height must be an integer >= 1, got True"),
    ({"record_every": 2.5}, "record_every must be an integer >= 1, got 2.5"),
    ({"record_every": True}, "record_every must be an integer >= 1, got True"),
    ({"dt": "x"}, "^dt must be a real number, got 'x'$"),
    ({"t_end": "x"}, "^t_end must be a real number, got 'x'$"),
    ({"record_every": 0.5}, "^record_every must be an integer >= 1, got 0.5$"),
])
def test_config_rejects_bad_step_settings(kw, match):
    with pytest.raises(ValueError, match=match):
        SimConfig(F03, **kw)


# largest |step - textbook composition| over the windows below, seeds 0-4:
# 4.4e-16, two ulps at 1
_FUSED_VS_TEXTBOOK = 1e-15


def ssprk104(euler, vals):
    """SSPRK(10,4) in Shu-Osher form over the allocating substep ``euler``."""
    y = vals
    for _ in range(4):
        y = euler(y)
    e5 = euler(y)
    y = (2 / 5) * e5 + (3 / 5) * vals
    for _ in range(4):
        y = euler(y)
    return (3 / 5) * euler(y) + (9 / 25) * e5 + (1 / 25) * vals


def test_step_is_ssprk104_update():
    """Bitwise oracle for the flat-stencil indexing, the stage buffers and the
    fused Euler substep: on every window of width 1-12 and height 1-8, under
    both ``boundary_j`` policies, ``step`` equals the SSPRK(10,4) composition, in
    Shu-Osher form, of forward-Euler updates at ``h = dt / 6`` written as
    ``v + h ((((centre + E) + W) + N) + S)``, with the centre term
    ``v (v ((1 + a) - v) - (a + 4))``.  ``step`` also agrees with the
    textbook composition of ``v + h (Δ⁺v + g(v))`` to
    ``_FUSED_VS_TEXTBOOK``."""
    rng = np.random.default_rng(0)

    def laplacian(vals, boundary_j):
        return discrete_laplacian(LatticeField(vals, boundary_j=boundary_j))

    def fused(f, h, boundary_j):
        def euler(v):
            p = LatticeField(v, boundary_j=boundary_j).padded()
            centre = v * (v * ((1.0 + f.a) - v) - (f.a + 4.0))
            return v + h * ((((centre + p[2:, 1:-1]) + p[:-2, 1:-1]) + p[1:-1, 2:])
                            + p[1:-1, :-2])
        return euler

    for boundary_j in ("periodic", "reflect"):
        for width in range(1, 13):
            for height in range(1, 9):
                vals = rng.uniform(-0.5, 1.5, size=(width, height))
                u = LatticeField(vals, i_offset=-(width // 2), boundary_j=boundary_j)
                cfg = SimConfig(F03, width=width, height=height, boundary_j=boundary_j)
                h = cfg.dt / 6.0
                out = step(u, cfg)
                assert np.array_equal(out.values, ssprk104(fused(F03, h, boundary_j), vals))
                textbook = ssprk104(
                    lambda v: v + h * (laplacian(v, boundary_j) + F03(v)), vals)
                assert np.max(np.abs(out.values - textbook)) <= _FUSED_VS_TEXTBOOK
                assert (out.i_offset, out.boundary_j) == (u.i_offset, boundary_j)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(1, 12), height=st.integers(1, 8),
       boundary_j=st.sampled_from(["periodic", "reflect"]))
def test_lattice_kernel_is_the_textbook_rhs(data, width, height, boundary_j):
    """The one lattice kernel ``sim._lattice_rhs`` writes ``Δ⁺v + g(v)``:
    the sliced Laplacian plus ``g`` to four ulps of the terms' magnitude.
    It only reads its padded input, and ``core._substep`` over it, composed
    by the SSPRK(10,4) oracle, gives ``step``'s bytes."""
    vals = data.draw(hnp.arrays(float, (width, height), elements=st.floats(-0.5, 1.5)))
    u = LatticeField(vals, boundary_j=boundary_j)
    p = u.padded()
    before = p.tobytes()
    out = np.full((width, height + 2), np.nan)
    rhs = sim._lattice_rhs(F03)
    rhs(p, out)
    assert p.tobytes() == before
    got = out[:, 1:-1]
    textbook = discrete_laplacian(u) + F03(vals)
    a, v = F03.a, np.abs(vals)
    scale = (np.abs(p[2:, 1:-1]) + np.abs(p[:-2, 1:-1]) + np.abs(p[1:-1, 2:])
             + np.abs(p[1:-1, :-2]) + v * (v * (1.0 + a + v) + a + 4.0))
    # plus the least normal, for subnormal draws whose eps-scaled bound underflows
    info = np.finfo(float)
    assert np.all(np.abs(got - textbook) <= 4.0 * info.eps * scale + info.tiny)

    cfg = SimConfig(F03, width=width, height=height, boundary_j=boundary_j)
    euler = _substep(rhs, cfg.dt / 6.0)

    def substep(v):
        y = np.empty((width, height + 2))
        euler(LatticeField(v, boundary_j=boundary_j).padded(), y)
        return y[:, 1:-1]

    assert ssprk104(substep, vals).tobytes() == step(u, cfg).values.tobytes()


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
def test_step_is_fourth_order_in_time(boundary_j):
    """Over one unit of time from a front-like field, halving dt cuts the
    error against a dt = 1/96 reference by at least 12x (16x in the limit)."""
    width, height = 16, 6
    i = np.arange(width)[:, None] - width // 2
    j = np.arange(height)[None, :]
    vals = 1.0 / (1.0 + np.exp(-0.8 * (i - np.sin(2.0 * np.pi * j / height))))
    u0 = LatticeField(vals, i_offset=-(width // 2), boundary_j=boundary_j)

    def at_one(n):
        cfg = SimConfig(F03, dt=1.0 / n, t_end=1.0, width=width, height=height,
                        boundary_j=boundary_j)
        return run(u0, cfg)[-1][1].values

    ref = at_one(96)
    err3, err6 = (np.max(np.abs(at_one(n) - ref)) for n in (3, 6))
    assert err3 >= 12.0 * err6 > 0.0


def test_step_and_run_leave_emitted_fields_untouched():
    """``step`` does not write into its input, and every snapshot that
    ``snapshots`` yields, and so every one ``run`` lists, keeps the values it
    had when it was yielded."""
    cfg = SimConfig(F03, t_end=2.0, record_every=3, width=8, height=4)
    u = LatticeField(splitmix64_uniform(7, 8 * 4).reshape(8, 4), i_offset=cfg.i_offset)
    before = u.values.copy()
    step(u, cfg)
    assert np.array_equal(u.values, before)
    snaps, at_emit = [], []
    for t, v in snapshots(u, cfg):
        snaps.append((t, v))
        at_emit.append(v.values.copy())
    assert np.array_equal(u.values, before)
    assert len(snaps) == len(at_emit) > 2
    for (_, v), frozen in zip(snaps, at_emit):
        assert np.array_equal(v.values, frozen)
    listed = run(u, cfg)
    assert len(listed) == len(at_emit)
    for (_, v), frozen in zip(listed, at_emit):
        assert np.array_equal(v.values, frozen)


def test_run_rejects_field_of_another_geometry():
    cfg = SimConfig(F03, t_end=0.1, width=16, height=8, boundary_j="reflect")
    for shape, boundary_j in (((4, 3), "periodic"), ((4, 3), "reflect"),
                              ((16, 8), "periodic"), ((8, 16), "reflect")):
        with pytest.raises(ValueError, match="config is 16x8 reflect"):
            run(LatticeField(np.zeros(shape), boundary_j=boundary_j), cfg)
    # the window position is free
    snaps = run(LatticeField(np.zeros((16, 8)), i_offset=5, boundary_j="reflect"), cfg)
    assert snaps[-1][1].i_offset == 5


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
def test_snapshots_yield_the_records_of_run(boundary_j):
    """``run`` lists what the ``snapshots`` loop yields: the same times and
    bit-identical fields, the last one off the record grid included."""
    cfg = SimConfig(F03, t_end=2.5, record_every=3, width=12, height=6,
                    boundary_j=boundary_j)
    u0 = LatticeField(splitmix64_uniform(5, 12 * 6).reshape(12, 6), i_offset=-3,
                      boundary_j=boundary_j)
    listed = run(u0, cfg)
    streamed = [(t, u.values.copy()) for t, u in snapshots(u0, cfg)]
    assert ([t for t, _ in streamed] == [t for t, _ in listed]
            == [k * cfg.dt for k in (0, 3, 6, 8)])
    for (_, v), (_, u) in zip(streamed, listed):
        assert v.tobytes() == u.values.tobytes()
    assert all(u.i_offset == -3 for _, u in listed)


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
def test_snapshots_step_in_lent_buffers(monkeypatch, boundary_j):
    """Every step of a run works in prefix views of two padded state buffers
    that alternate, one stage buffer and one ``E(y5)`` buffer, so a step
    allocates no array.  The first buffer lent to a step already holds the
    field it steps, ghosts included, and the step leaves it as it was; the
    second takes the result and is the first of the next step.  Each record
    is a fresh compact array that shares memory with no buffer and no other
    record.  Once the right tail settles the prefixes are narrower than the
    window, and the records still equal those of a plain ``step`` loop bit
    for bit."""
    width, height = 48, 6
    cfg = SimConfig(F03, t_end=2.5, record_every=3, width=width, height=height,
                    boundary_j=boundary_j)
    values = np.ones((width, height))
    values[:12] = splitmix64_uniform(6, 12 * height).reshape(12, height)
    u0 = LatticeField(values, i_offset=-3, boundary_j=boundary_j)
    lent, advance = [], sim._advance

    def lending_advance(p0, euler, bj, work=None):
        if work is None:  # a plain ``step``
            return advance(p0, euler, bj)
        state = p0.copy()
        e = p0.shape[0] - 2
        # the padded field, but on a cropped step its last row is the next column
        u = LatticeField(p0[1:-1, 1:-1], boundary_j=bj)
        assert np.array_equal(state[:-1], u.padded()[:-1])
        assert e < width or np.array_equal(state, u.padded())
        out = advance(p0, euler, bj, work)
        assert p0.tobytes() == state.tobytes()
        lent.append((p0, *work))
        return out

    monkeypatch.setattr(sim, "_advance", lending_advance)
    records = list(snapshots(u0, cfg))
    assert len(lent) == 8 and [t for t, _ in records] == [k * cfg.dt for k in (0, 3, 6, 8)]
    prefixes = [w[0].shape[0] - 2 for w in lent]
    assert prefixes[0] == width and min(prefixes) < width
    for e, w in zip(prefixes, lent):
        assert [b.shape for b in w] == [(e + 2, height + 2)] * 3 + [(e, height + 2)]

    def address(a):
        return a.__array_interface__["data"][0]

    first, second, stage, e5 = (address(b) for b in lent[0])
    assert len({first, second, stage, e5}) == 4
    for k, w in enumerate(lent):
        state, out = (first, second) if k % 2 == 0 else (second, first)
        assert [address(b) for b in w] == [state, out, stage, e5]
    buffers = [b.base for b in lent[0]]
    for k, (_, u) in enumerate(records):
        assert u.values.shape == (width, height) and u.values.flags.c_contiguous
        assert u.i_offset == -3 and u.boundary_j == boundary_j
        assert not any(np.shares_memory(u.values, b) for b in buffers)
        assert not any(np.shares_memory(u.values, v.values) for _, v in records[:k])
    u, plain = u0, [u0.values]
    for k in range(1, 9):
        u = step(u, cfg)
        if k in (3, 6, 8):
            plain.append(u.values)
    for (_, u), want in zip(records, plain):
        assert u.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
def test_step_reach_is_the_crop_halo(boundary_j):
    """A one-column change of the input changes the step's output on exactly
    the columns within ``_SSPRK104_REACH = 10`` of it, and on none at 11:
    ten forward-Euler substeps, each reading one column either side.  A
    scheme with more substeps fails here before ``snapshots`` crops on a
    halo that is too narrow."""
    reach = _SSPRK104_REACH
    assert reach == 10
    width, height, col = 4 * reach + 3, 3, 2 * reach + 1
    cfg = SimConfig(F03, width=width, height=height, boundary_j=boundary_j)
    values = 0.5 * splitmix64_uniform(8, width * height).reshape(width, height)
    nudged = values.copy()
    nudged[col] += 0.25
    a, b = (step(LatticeField(v, boundary_j=boundary_j), cfg).values
            for v in (values, nudged))
    changed = np.flatnonzero(np.any(a != b, axis=1))
    assert changed.tolist() == list(range(col - reach, col + reach + 1))


def _halo_poisoning_advance(prefixes):
    """A ``sim._advance`` that records each stepped width and fills with nan
    the output rows the loop must discard: beside a cut edge of the padded
    array it is given (a right edge short of its state buffer's, as on a
    cropped step or a near half, or a left edge past the buffer's start, as
    on a far half), the ``R`` output columns that the fixed ghost row
    reaches, and that row.  The ghost holds the next column of the state, so
    those rows are nearly right, and only the poison shows a prefix one
    column too narrow, a cut in the wrong place or a settled column not
    copied back.  In a forked worker it poisons the far halves alike."""
    advance = sim._advance

    def poisoning_advance(p0, euler, bj, work=None):
        prefixes.append(p0.shape[0] - 2)
        out = advance(p0, euler, bj, work)
        state = p0 if p0.base is None else p0.base  # a plain ``step`` pads afresh
        lo = (p0.__array_interface__["data"][0]
              - state.__array_interface__["data"][0]) // p0.strides[0]
        if lo + p0.shape[0] < state.shape[0]:
            out[-1 - _SSPRK104_REACH:] = np.nan
        if lo > 0:
            out[:_SSPRK104_REACH + 1] = np.nan
        return out
    return poisoning_advance


def test_snapshots_crop_beside_a_pinned_front(monkeypatch):
    """A crop beside a settled front, not a settled plateau at 1.  A steep
    nonlinearity (10x the a = 1/2 cubic) pins a front, relaxed until a step
    leaves it unchanged bit for bit; a disturbance at the left edge then
    unsettles the columns before it.  With the halo of every cropped step
    poisoned, ``snapshots`` crops and yields what a plain ``step`` loop
    makes, byte for byte."""
    width, height = 64, 2
    cfg = SimConfig(SteepCubic(0.5, 10.0), width=width, height=height, record_every=1)
    values = np.zeros((width, height))
    values[50:] = 1.0
    u = LatticeField(values)
    for _ in range(1000):
        v = step(u, cfg)
        if v.values.tobytes() == u.values.tobytes():
            break
        u = v
    assert v.values.tobytes() == u.values.tobytes()
    values = u.values.copy()
    values[:2] = 0.5
    u = LatticeField(values)
    cfg.t_end = 8 * cfg.dt
    prefixes = []
    monkeypatch.setattr(sim, "_advance", _halo_poisoning_advance(prefixes))
    records = list(snapshots(u, cfg))
    assert prefixes[0] == width and min(prefixes) < width
    for _, v in records:
        assert v.values.tobytes() == u.values.tobytes()
        u = step(u, cfg)


_TAIL_VALUES = (1.0, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 1.0 - 3 * 2.0 ** -53,
                1.0 + 2.0 ** -52)


@settings(max_examples=60)
@given(width=st.integers(1, 80), height=st.integers(1, 4),
       boundary_j=st.sampled_from(["periodic", "reflect"]),
       a=st.sampled_from([0.2, 0.4, 0.6, 0.8]), steepness=st.sampled_from([1.0, 4.0]),
       steps=st.integers(1, 30), record_every=st.integers(1, 4), data=st.data())
def test_snapshots_equal_a_full_width_step_loop(width, height, boundary_j, a, steepness,
                                                steps, record_every, data):
    """``snapshots`` yields, byte for byte, what a plain full-width ``step``
    loop makes at the record steps, whatever it crops, with the halo of
    every cropped step poisoned.  The records are compared only once the run
    has ended, and no two share memory, so a loop that writes into a field
    it yielded fails here, at any ``record_every``.  The fields are a noisy
    front left of a right tail of values 0-3 ulp from 1.  With a < 1/2 the
    front moves left and the tail settles; with a > 1/2 it moves right into
    the settled tail."""
    front = data.draw(st.integers(0, width // 2), label="front")
    cfg = SimConfig(BistableNonlinearity(a=a), width=width, height=height,
                    boundary_j=boundary_j, record_every=record_every)
    cfg.t_end = steps * cfg.dt
    i = steepness * (np.arange(front)[:, None] - front + 6)
    noise = data.draw(hnp.arrays(float, (front, height), elements=st.floats(0.0, 0.1)),
                      label="noise")
    tail = data.draw(hnp.arrays(float, (width - front, height),
                                elements=st.sampled_from(_TAIL_VALUES)), label="tail")
    values = np.concatenate([(1.0 - noise) / (1.0 + np.exp(-i)), tail])
    u = LatticeField(values, i_offset=-(width // 2), boundary_j=boundary_j)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_advance", _halo_poisoning_advance([]))
        records = list(snapshots(u, cfg))
    kept = [k for k in range(steps + 1) if k % record_every == 0 or k == steps]
    assert [t for t, _ in records] == [k * cfg.dt for k in kept]
    for n, (_, v) in enumerate(records):
        assert not any(np.shares_memory(v.values, w.values) for _, w in records[:n])
    plain = [u.values]
    for k in range(1, steps + 1):
        u = step(u, cfg)
        if k in kept:
            plain.append(u.values)
    for (_, v), want in zip(records, plain):
        assert v.values.tobytes() == want.tobytes()


needs_fork = pytest.mark.skipif(not sim._can_fork(),
                                reason="needs os.fork, two CPUs and no other thread")


def _recorded_forks(mp) -> list:
    """Patch ``os.fork`` to record the pid of every worker it makes."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@needs_fork
@settings(max_examples=40)
@given(width=st.integers(2 * _SSPRK104_REACH, 90), height=st.integers(1, 4),
       boundary_j=st.sampled_from(["periodic", "reflect"]),
       a=st.sampled_from([0.2, 0.8]), steps=st.integers(1, 12),
       record_every=st.integers(1, 4), data=st.data())
def test_split_steps_equal_a_plain_step_loop(width, height, boundary_j, a, steps,
                                             record_every, data):
    """With every step of ``e >= 2R`` columns split with a forked worker, and
    the discarded halo of each half poisoned (the near half's last ``R``
    columns, the far half's first ``R``, in the worker too), ``snapshots``
    yields byte for byte what a plain ``step`` loop makes, and reaps its one
    worker."""
    front = data.draw(st.integers(0, width // 2), label="front")
    cfg = SimConfig(BistableNonlinearity(a=a), width=width, height=height,
                    boundary_j=boundary_j, record_every=record_every)
    cfg.t_end = steps * cfg.dt
    i = np.arange(front)[:, None] - front + 6
    noise = data.draw(hnp.arrays(float, (front, height), elements=st.floats(0.0, 0.1)),
                      label="noise")
    tail = data.draw(hnp.arrays(float, (width - front, height),
                                elements=st.sampled_from(_TAIL_VALUES)), label="tail")
    values = np.concatenate([(1.0 - noise) / (1.0 + np.exp(-i)), tail])
    u = LatticeField(values, i_offset=-(width // 2), boundary_j=boundary_j)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_SPLIT_MIN_SITES", 0)
        mp.setattr(sim, "_advance", _halo_poisoning_advance([]))
        pids = _recorded_forks(mp)
        records = list(snapshots(u, cfg))
    assert len(pids) == 1
    _assert_reaped(pids)
    kept = [k for k in range(steps + 1) if k % record_every == 0 or k == steps]
    assert [t for t, _ in records] == [k * cfg.dt for k in kept]
    plain = [u.values]
    for k in range(1, steps + 1):
        u = step(u, cfg)
        if k in kept:
            plain.append(u.values)
    for (_, v), want in zip(records, plain):
        assert v.values.tobytes() == want.tobytes()


@needs_fork
def test_split_blowup_in_the_far_half_raises_as_the_serial_step(monkeypatch):
    """An overflow in the worker's half only makes the step run serially, so
    it raises the serial step's :class:`NonFinite` with its overflow
    warnings, and no more of them; the worker is reaped."""
    width, height = 60, 2
    cfg = SimConfig(F03, width=width, height=height)
    values = np.full((width, height), 0.5)
    values[-8:] = 1e160  # beyond the near half's columns [0, 40)
    u = LatticeField(values)
    with pytest.warns(RuntimeWarning, match="overflow") as serial:
        with pytest.raises(NonFinite):
            step(u, cfg)
    monkeypatch.setattr(sim, "_SPLIT_MIN_SITES", 0)
    pids = _recorded_forks(monkeypatch)
    with pytest.warns(RuntimeWarning, match="overflow") as split:
        with pytest.raises(NonFinite, match="simulation step produced non-finite values"):
            list(snapshots(u, cfg))
    assert len(pids) == 1
    _assert_reaped(pids)
    assert [str(w.message) for w in split] == [str(w.message) for w in serial]


@needs_fork
@pytest.mark.parametrize("end", ["exhausted", "closed", "consumer_raised"])
def test_split_worker_does_not_outlive_the_generator(monkeypatch, end):
    """The worker is forked at the first split step and reaped when the
    generator ends: exhausted, closed after two records, or left by an
    exception in the consumer."""
    cfg = SimConfig(F03, t_end=5.0, record_every=1, width=48, height=4)
    u0 = LatticeField(splitmix64_uniform(9, 48 * 4).reshape(48, 4))
    monkeypatch.setattr(sim, "_SPLIT_MIN_SITES", 0)
    pids = _recorded_forks(monkeypatch)
    gen = snapshots(u0, cfg)
    next(gen)
    assert pids == []  # nothing forks before the first step
    next(gen)
    assert len(pids) == 1 and os.waitpid(pids[0], os.WNOHANG) == (0, 0)
    if end == "exhausted":
        list(gen)
    elif end == "closed":
        gen.close()
    else:
        with pytest.raises(KeyError):
            for _ in gen:
                raise KeyError("consumer")
        del gen
    _assert_reaped(pids)


@needs_fork
def test_split_worker_ends_at_the_first_narrow_step(monkeypatch):
    """A run whose live prefix narrows below the threshold reaps its worker
    at that step, while the generator lives on, and steps serially after,
    with the records of a serial run."""
    width, height = 48, 4
    cfg = SimConfig(F03, t_end=6.0, record_every=1, width=width, height=height)
    values = np.ones((width, height))
    values[:12] = splitmix64_uniform(6, 12 * height).reshape(12, height)
    u0 = LatticeField(values)
    want = [u.values.tobytes() for _, u in snapshots(u0, cfg)]
    monkeypatch.setattr(sim, "_SPLIT_MIN_SITES", width * (height + 2))  # the full width
    pids = _recorded_forks(monkeypatch)
    gen = snapshots(u0, cfg)
    got = [next(gen)[1].values.tobytes(), next(gen)[1].values.tobytes()]
    assert len(pids) == 1 and os.waitpid(pids[0], os.WNOHANG) == (0, 0)
    got.append(next(gen)[1].values.tobytes())  # the second step is narrower
    _assert_reaped(pids)
    got.extend(u.values.tobytes() for _, u in gen)
    assert len(pids) == 1 and got == want


@pytest.mark.parametrize("host", ["no_fork", "one_cpu", "other_thread"])
def test_split_steps_serially_where_it_cannot_fork(monkeypatch, host):
    """No worker is forked where ``os.fork`` is absent, where one CPU is in
    the affinity set, or while another Python thread runs, on any Python
    version; the run steps serially, with the same records."""
    cfg = SimConfig(F03, t_end=2.0, record_every=2, width=48, height=4)
    u0 = LatticeField(splitmix64_uniform(9, 48 * 4).reshape(48, 4))
    want = [u.values.tobytes() for _, u in snapshots(u0, cfg)]
    monkeypatch.setattr(sim, "_SPLIT_MIN_SITES", 0)
    if host == "no_fork":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    if host == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if host == "other_thread":
        thread.start()
    try:
        got = [u.values.tobytes() for _, u in snapshots(u0, cfg)]
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
    assert got == want


def test_snapshots_reject_field_of_another_geometry_before_any_step(monkeypatch):
    def no_step(*args, **kw):
        raise AssertionError("the lattice stepped")

    monkeypatch.setattr(sim, "_advance", no_step)
    cfg = SimConfig(F03, t_end=1.0, width=16, height=8, boundary_j="reflect")
    with pytest.raises(ValueError, match="^initial field is 16x8 periodic, config is "
                                         "16x8 reflect$"):
        next(snapshots(LatticeField(np.zeros((16, 8))), cfg))


@pytest.mark.filterwarnings("ignore:overflow")
def test_step_raises_on_blowup():
    cfg = SimConfig(F03, width=4, height=2)
    u = LatticeField(np.full((4, 2), 1e160), i_offset=0)
    with pytest.raises(NonFinite):
        step(u, cfg)


def test_run_records_requested_times():
    cfg = SimConfig(F03, t_end=0.5, record_every=10, width=8, height=4)
    u0 = LatticeField(np.full((8, 4), 0.25))
    snaps = run(u0, cfg)
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
    want = [0.0] + [k * cfg.dt for k in range(1, n_steps + 1)
                    if k % 10 == 0 or k == n_steps]
    assert [t for t, _ in snaps] == want
    # the initial snapshot is a copy, not an alias
    assert snaps[0][1].values is not u0.values


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


_UNIT_VALUES = st.one_of(
    st.floats(0.0, 1.0),  # arbitrary floats, subnormals included
    st.sampled_from([0.0, 1.0]),  # 0/1 masks
    st.integers(1, 64).map(lambda k: 1.0 - k * 2.0 ** -53),  # 1 - O(ulp)
)


@settings(max_examples=200)
@given(data=st.data(), boundary_j=st.sampled_from(["periodic", "reflect"]),
       a=st.floats(0.01, 0.99))
def test_step_keeps_cubic_fields_in_the_unit_interval(data, boundary_j, a):
    """[0, 1] is an invariant region of the monotone scheme for the cubic
    ``g``: ``step`` maps a field with values in [0, 1] into [0, 1] exactly,
    rounding included.  (A table ``g`` vanishes at 1 only to ~1e-9.)"""
    width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 8))
    vals = data.draw(hnp.arrays(np.float64, (width, height), elements=_UNIT_VALUES))
    cfg = SimConfig(BistableNonlinearity(a=a), width=width, height=height,
                    boundary_j=boundary_j)
    out = step(LatticeField(vals, i_offset=cfg.i_offset, boundary_j=boundary_j), cfg)
    assert np.all((out.values >= 0.0) & (out.values <= 1.0))


def test_snapshot_round_trip_and_header(tmp_path):
    vals = splitmix64_uniform(9, 12 * 5).reshape(12, 5)
    u = LatticeField(vals, i_offset=-6, boundary_j="reflect")
    path = tmp_path / "snap.bin"
    save_snapshot(u, 2.5, str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"ACF2"
    assert len(raw) == 64 + 12 * 5 * 8
    t, back = load_snapshot(str(path))
    assert t == 2.5
    assert back.i_offset == -6
    assert back.boundary_j == "reflect"
    assert np.array_equal(back.values, vals)


def test_snapshot_rejects_old_format(tmp_path):
    path = tmp_path / "snap.bin"
    save_snapshot(LatticeField(np.zeros((3, 2))), 1.0, str(path))
    path.write_bytes(b"ACF1" + path.read_bytes()[4:])
    with pytest.raises(ValueError, match="ACF1 snapshot"):
        load_snapshot(str(path))


def test_read_snapshots_takes_only_file_names_from_index(tmp_path):
    cfg = SimConfig(F03, t_end=0.1, record_every=2, width=8, height=4,
                    boundary_j="reflect")
    writer = SnapshotWriter(str(tmp_path / "out"))
    snaps = run(LatticeField(np.full((8, 4), 0.5), i_offset=cfg.i_offset,
                             boundary_j="reflect"), cfg, writer=writer)
    with open(writer.index_path) as fh:
        files = [json.loads(line)["file"] for line in fh]
    with open(writer.index_path, "w") as fh:
        fh.writelines(json.dumps({"file": name}) + "\n" for name in files)
    back = read_snapshots(writer.index_path)
    assert len(back) == len(snaps)
    for (t, a), (s, b) in zip(back, snaps):
        assert (t, a.i_offset, a.boundary_j) == (s, b.i_offset, "reflect")
        assert np.array_equal(a.values, b.values)


def test_snapshot_magic_check(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNK" + b"\0" * 200)
    with pytest.raises(ValueError):
        load_snapshot(str(path))


def test_snapshot_with_truncated_header_is_value_error(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"ACF2" + b"\0" * 20)
    with pytest.raises(ValueError, match="not a snapshot file"):
        load_snapshot(str(path))


def _with_header_geometry(raw: bytes, width: int, height: int) -> bytes:
    return raw[:4] + struct.pack("<qq", width, height) + raw[20:]


@pytest.mark.parametrize("mangle, match", [
    (lambda raw: raw[:-1], "has a body of 32 bytes, the file has 31"),
    (lambda raw: raw + b"\0", "has a body of 32 bytes, the file has 33"),
    (lambda raw: _with_header_geometry(raw, -1, 4), "-1x4 window"),
    (lambda raw: _with_header_geometry(raw, 0, 4), "0x4 window"),
    (lambda raw: _with_header_geometry(raw, 2, 0), "2x0 window"),
], ids=["truncated_body", "trailing_byte", "negative_width", "zero_width", "zero_height"])
def test_snapshot_with_bad_geometry_or_body_is_value_error(tmp_path, mangle, match):
    """A 1x4 snapshot (32-byte body) with its body or header geometry
    damaged: a named ``ValueError``, never numpy's reshape or read error."""
    path = tmp_path / "snap.bin"
    save_snapshot(LatticeField(np.full((1, 4), 0.5)), 1.0, str(path))
    path.write_bytes(mangle(path.read_bytes()))
    with pytest.raises(ValueError, match=match) as info:
        load_snapshot(str(path))
    assert str(path) in str(info.value)


@pytest.mark.parametrize("line", ['{"t": 0.0}', "[1, 2]", '{"file": 3}', "snap_000000.bin"])
def test_read_snapshots_rejects_an_index_line_without_a_file(tmp_path, line):
    """A line that is not a JSON object with a string ``file`` is a
    ``ValueError`` naming the index and the line, not a raw ``KeyError`` or
    ``TypeError``."""
    writer = SnapshotWriter(str(tmp_path / "out"))
    writer.write(LatticeField(np.full((3, 2), 0.5)), 0.0)
    with open(writer.index_path, "a") as fh:
        fh.write("\n" + line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(writer.index_path)} line 3: not a "
                                         "JSON object with a string 'file'$"):
        read_snapshots(writer.index_path)


def test_snapshot_writer_index_and_read_back(tmp_path):
    cfg = SimConfig(F03, t_end=0.1, record_every=2, width=8, height=4,
                    boundary_j="reflect")
    writer = SnapshotWriter(str(tmp_path / "out"))
    snaps = run(LatticeField(np.full((8, 4), 0.5), i_offset=cfg.i_offset,
                             boundary_j="reflect"), cfg, writer=writer)
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
        assert (a.i_offset, a.boundary_j) == (-4, "reflect")


# ---------------------------------------------------------------------------
# super/sub-solutions

MU_REF = 10.0 ** -2.25
C_BIG = 10.0 ** 2.5


def planar_fields(w, spec, t, width, height):
    """The planar pair at time ``t`` as two fields of ``height`` equal rows."""
    i_offset, up, um, _, _ = _planar_pair(w, spec, [t], width)
    return tuple(LatticeField(np.repeat(u[0], height, axis=1), i_offset=i_offset)
                 for u in (up, um))


def curved_fields(w, spec, t, width):
    """The curved pair at time ``t`` on the phase solved exactly from ``spec.V0``."""
    V = spec.V0.replace(v_solve(spec.V0, FlowParams(c=w.c, d=w.d), t_grid=[t]).values[-1])
    i_offset, up, um, _, _ = _curved_pair(w, spec, V, t, width)
    return tuple(LatticeField(u, i_offset=i_offset, boundary_j=V.boundary_j)
                 for u in (up, um))


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


def test_planar_search_reports_its_best_margin_when_the_grid_fails(wave03):
    # offsets near their limits (a and 1 - a) leave no (mu, C) on the grid
    cfg = SimConfig(wave03.f, t_end=50.0, height=64)
    seed = SuperSubSpec(kind="planar", q0=0.29, q1=0.69, mu=1.0, C=1.0)
    with pytest.raises(VerificationFailed,
                       match=r"best margin -4\.762e-03 at mu=0\.01, C=316\.228$") as exc:
        search_planar_constants(wave03, seed, cfg, np.linspace(0.0, 50.0, 26))
    assert exc.value.value == pytest.approx(-4.7616e-3, rel=1e-4)


def test_planar_residual_matches_time_difference_oracle(wave03):
    w = wave03
    spec = SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=MU_REF, C=C_BIG)
    width, height = 64, 4
    delta = 1e-3
    for t in (1.0, 10.0):
        fields = {s: planar_fields(w, spec, t + s * delta, width, height)
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
    assert report["min_residual_super"] < -report["tol"]
    assert report["max_residual_sub"] > report["tol"]
    for key in ("site_super", "site_sub"):
        i, j, t = report[key]
        assert -128 <= i < 128 and j == 0 and t in (0.0, 10.0)


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
    # a curved site may be read up to the mirror j <-> 32 - j (mod 64)
    "curved_periodic": (0.0007531711199552377, -0.0007740347359166331,
                        (-37, 38, 50.0), (-31, 5, 50.0), "pass"),
    "curved_reflect": (0.0007531514706290358, -0.0007740344922397713,
                       (-36, 17, 50.0), (-31, 27, 50.0), "pass"),
    "curved_small_C_eps": (-0.007042124197559722, 0.007043017860226888,
                           (-5, 40, 14.0), (-4, 3, 14.0), "fail"),
}


def _sites_up_to_mirror(case: str, site: tuple) -> tuple:
    """The frozen site, and for a curved case its mirror ``j <-> 32 - j (mod
    64)``.  ``V0 = sin(2 pi j / 64)`` is even about ``j = 16``, so mirror
    sites have residuals equal in exact arithmetic, and rounding picks one
    of them: 2.4e-16 and 2.8e-16 apart at j = 40/56 (super) and 3/29 (sub)
    of curved_small_C_eps, and a change of r by 7.5e-12 flipped both."""
    if not case.startswith("curved"):
        return (site,)
    i, j, t = site
    return site, (i, (32 - j) % 64, t)


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
    assert report["site_super"] in _sites_up_to_mirror(case, site_super)
    assert report["site_sub"] in _sites_up_to_mirror(case, site_sub)


@pytest.mark.parametrize("case", ["planar_pass", "planar_fail", "curved"])
def test_all_times_match_the_worst_single_time_call(wave03, case):
    """One reduction over every time gives the extremes and sites of the
    worst single-time call, ties going to the first time."""
    w = wave03
    cfg = SimConfig(w.f)
    t_grid = np.linspace(0.0, 50.0, 26)
    if case == "curved":
        spec, kw = curved_spec(), {"width": 128}
    else:
        mu, C = (MU_REF, C_BIG) if case == "planar_pass" else (1.0, 1.0)
        spec, kw = SuperSubSpec(kind="planar", q0=0.1, q1=0.1, mu=mu, C=C), {}
    report = verify_supersub(spec, w, cfg, t_grid, **kw)
    singles = [verify_supersub(spec, w, cfg, [t], **kw) for t in t_grid]
    worst_super = min(singles, key=lambda r: r["min_residual_super"])
    worst_sub = max(singles, key=lambda r: r["max_residual_sub"])
    assert report["min_residual_super"] == worst_super["min_residual_super"]
    assert report["site_super"] == worst_super["site_super"]
    assert report["max_residual_sub"] == worst_sub["max_residual_sub"]
    assert report["site_sub"] == worst_sub["site_sub"]
    assert report["verdict"] == ("fail" if case == "planar_fail" else "pass")
    assert (report["verdict"] == "pass") == all(r["verdict"] == "pass" for r in singles)


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
        up_m, um_m = curved_fields(w, spec, t - delta, 96)
        up_0, um_0 = curved_fields(w, spec, t, 96)
        up_p, um_p = curved_fields(w, spec, t + delta, 96)
        assert up_m.i_offset == up_0.i_offset == up_p.i_offset
        assert np.all(up_0.values >= um_0.values)
        fd_super = (up_p.values - up_m.values) / (2 * delta) \
            - discrete_laplacian(up_0) - w.f(up_0.values)
        fd_sub = (um_p.values - um_m.values) / (2 * delta) \
            - discrete_laplacian(um_0) - w.f(um_0.values)
        assert np.min(fd_super[1:-1, :]) > -2e-5
        assert np.max(fd_sub[1:-1, :]) < 2e-5


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
def test_curved_residual_does_not_depend_on_the_window(wave03, boundary_j):
    """u± and J± at a site are functions of the pair there, so a window
    narrower than the front gives the same bits as a wide one at the sites
    they share: the ghost layer follows the profile, not the pinned 0/1."""
    spec = curved_spec(height=16)
    for t in (0.0, 5.0):
        V0 = PhaseSequence(spec.V0.values, boundary_j)
        V = V0.replace(v_solve(V0, FlowParams(c=wave03.c, d=wave03.d), t_grid=[t]).values[-1])
        wide, narrow = (_curved_pair(wave03, spec, V, t, width) for width in (96, 6))
        k = narrow[0] - wide[0]
        for a, b in zip(wide[1:], narrow[1:]):
            assert np.array_equal(a[k:k + 6], b)


def test_curved_no_offset_rejected_at_margin(wave03):
    w = wave03
    cfg = SimConfig(w.f)
    spec = curved_spec()
    spec.M = 1e-12
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


@pytest.mark.parametrize("name", ["mu", "C", "M", "delta", "m", "C_eps"])
def test_supersub_spec_refuses_non_finite_constants(name):
    """NaN slips through every ``<= 0`` check, so it is refused by name, before a run
    could blame the certificate for it."""
    V0 = PhaseSequence(np.zeros(4))
    for value in (math.nan, math.inf, -math.inf):
        for kind in ("planar", "curved"):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                SuperSubSpec(kind=kind, V0=V0, **{name: value})


def test_offsets_bind_only_the_planar_pair(wave03):
    w = wave03
    cfg = SimConfig(w.f)
    # q0 >= a and q1 >= 1 - a: the curved pair never reads them
    spec = curved_spec()
    report = verify_supersub(spec, w, cfg, [0.0, 2.0], width=128)
    spec.q0, spec.q1 = 0.5, 0.9
    assert verify_supersub(spec, w, cfg, [0.0, 2.0], width=128) == report
    curved_fields(w, spec, 1.0, 96)
    for q0, q1, name in ((0.3, 0.1, "q0"), (0.1, 0.7, "q1")):
        planar = SuperSubSpec(kind="planar", q0=q0, q1=q1, mu=MU_REF, C=C_BIG)
        with pytest.raises(ValueError, match=f"{name} must lie"):
            verify_supersub(planar, w, cfg, [0.0])
        with pytest.raises(ValueError, match=f"{name} must lie"):
            _planar_pair(w, planar, [0.0], 256)


@pytest.mark.parametrize("kind", ["planar", "curved"])
def test_verify_supersub_rejects_empty_time_grid(wave03, kind):
    spec = (SuperSubSpec(kind="planar", mu=MU_REF, C=C_BIG) if kind == "planar"
            else curved_spec())
    for t_grid in ([], np.linspace(0.0, 50.0, 0)):
        with pytest.raises(OutOfRange, match="at least one time"):
            verify_supersub(spec, wave03, SimConfig(wave03.f), t_grid)


@pytest.mark.parametrize("kind", ["planar", "curved"])
@pytest.mark.parametrize("width", [0, -3, 2.5, True])
def test_verify_supersub_rejects_bad_width(wave03, kind, width):
    spec = (SuperSubSpec(kind="planar", mu=MU_REF, C=C_BIG) if kind == "planar"
            else curved_spec())
    with pytest.raises(ValueError, match="width must be an integer >= 1"):
        verify_supersub(spec, wave03, SimConfig(wave03.f), [0.0], width=width)


def test_build_planar_requires_constants(wave03):
    with pytest.raises(ValueError):
        _planar_pair(wave03, SuperSubSpec(kind="planar"), [0.0], 256)
    with pytest.raises(ValueError, match="needs mu and C"):
        verify_supersub(SuperSubSpec(kind="planar"), wave03, SimConfig(wave03.f), [0.0])
