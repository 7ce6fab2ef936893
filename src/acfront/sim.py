"""Time integration of the planar lattice Allen-Cahn equation and
sub/super-solution verification.

The scheme is Ketcheson's ten-stage, fourth-order strong-stability-preserving
Runge-Kutta method SSPRK(10,4) (SIAM J. Sci. Comput. 30, 2008) on
``u̇ = Δ⁺u + g(u)``, in Shu-Osher form with forward-Euler substeps of
``h = dt / 6``.  Under ``h (4 + sup|g'|) <= 1`` one forward-Euler update is
monotone in every input value, and each stage is a convex combination of
such updates, so the step is monotone under the same bound (Gottlieb, Shu
and Tadmor 2001): ordered initial fields produce ordered trajectories, and
the correctness arguments for front trapping rest on that comparison
property.  The default ``dt = 1 / ceil(N / 4)`` with
``N = ceil(4 + sup|g'|)`` uses two thirds of that bound at most: a unit of
time is a whole number of steps, so the default snapshots fall on integer
times.  The cubic's ``sup|g'|`` over ``[-1, 2]`` lies in ``[6.5, 8)``, so
``N`` is 11 or 12 and the default dt is 1/3 for every ``a``.

Verification of candidate super/sub-solutions evaluates the residual
``J[u] = u̇ - Δ⁺u - g(u)`` with an analytic time derivative (no time
differencing): the planar pair trades an initial uniform offset for an
eventual phase shift, and the curved pair rides an exactly solved phase
LDE through the Cole-Hopf route, with a corrector term proportional to the
squared discrete gradient of the phase.  The residuals of all times form
one ``(time, i, j)`` array, and one ``argmin`` and one ``argmax`` over it
give both worst residuals and their sites.
"""

from __future__ import annotations

import json
import math
import mmap
import numbers
import os
import struct
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import flow
from .core import (BOUNDARY_J, BistableNonlinearity, LatticeField, PhaseSequence,
                   _SSPRK104_REACH, _flat_laplacian, _flat_runs, _ssprk104, alpha,
                   d_minus, d_plus)
from .errors import NonFinite, OutOfRange, SolveFailed, VerificationFailed
from .wave import WaveProfile

__all__ = [
    "SimConfig",
    "SuperSubSpec",
    "step",
    "snapshots",
    "run",
    "verify_supersub",
    "search_planar_constants",
    "save_snapshot",
    "load_snapshot",
    "SnapshotWriter",
    "read_snapshots",
]

_MAGIC = b"ACF2"
_OLD_MAGIC = b"ACF1"
_HEADER = struct.Struct("<4sqqqd8s")
_SUPERSUB_TOL = 1e-6


def _check_window(**sizes) -> None:
    for key, value in sizes.items():
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < 1):
            raise ValueError(f"{key} must be an integer >= 1, got {value!r}")


def _window_origin(width: int) -> int:
    """Lattice index ``i`` of the first column of a window of ``width``
    columns centred on ``i = 0``: ``-(width // 2)``."""
    return -(width // 2)


@dataclass
class SimConfig:
    """Integration parameters and default window geometry."""

    f: BistableNonlinearity
    dt: Optional[float] = None
    t_end: float = 100.0
    record_every: Optional[int] = None
    width: int = 256
    height: int = 64
    boundary_j: str = "periodic"

    def __post_init__(self):
        _check_window(width=self.width, height=self.height)
        if self.boundary_j not in BOUNDARY_J:
            raise ValueError(f"boundary_j must be one of {BOUNDARY_J}")
        for key, value in (("dt", self.dt), ("t_end", self.t_end)):
            if (value is not None or key == "t_end") and (
                    isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise ValueError(f"{key} must be a real number, got {value!r}")
        sup = self.f.dg_sup()
        if self.dt is None:
            self.dt = 1.0 / math.ceil(math.ceil(4.0 + sup) / 4)
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if self.dt / 6.0 * (4.0 + sup) > 1.0 + 1e-12:
            raise ValueError(
                f"dt={self.dt:g} violates the monotone-scheme condition "
                f"(dt/6)*(4+sup|g'|) <= 1 (sup|g'|={sup:g})")
        if self.record_every is None:
            self.record_every = max(1, int(round(1.0 / self.dt)))
        _check_window(record_every=self.record_every)

    @property
    def i_offset(self) -> int:
        """Lattice index of the first window column (see ``_window_origin``)."""
        return _window_origin(self.width)


def _euler(cfg: SimConfig):
    """The forward-Euler substep ``E(v) = v + h (Δ⁺v + g(v))`` at
    ``h = dt / 6`` as ``euler(p, out)`` for ``core._ssprk104``.

    It works on the flat contiguous padded layout (see ``core._flat_runs``)
    and is one polynomial written straight into ``out``, the interior rows of
    the next stage's padded buffer, ghost columns included: the centre term
    ``g(v) - 4 v`` (``BistableNonlinearity._centre_into``), plus the four
    neighbours, times ``h``, plus ``v``.  No scratch array is made."""
    f, h = cfg.f, cfg.dt / 6.0

    def euler(p: np.ndarray, out: np.ndarray) -> None:
        c, neighbours = _flat_runs(p)
        o = f._centre_into(c, out.reshape(-1))
        for q in neighbours:
            o += q
        o *= h
        o += c

    return euler


def _advance(p0: np.ndarray, euler, boundary_j: str,
             work: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """One SSPRK(10,4) step (``core._ssprk104``) of the padded array ``p0``,
    which is read and not written; returns the padded result, in ``work[0]``
    when ``work`` lends the stage buffers.  The one finiteness check of a
    step is this one, on the result: a non-finite value raises
    :class:`NonFinite`, and the overflow that made it warns."""
    p = _ssprk104(p0, euler, boundary_j, work)
    if not np.isfinite(p[1:-1]).all():
        raise NonFinite("simulation step produced non-finite values")
    return p


def step(u: LatticeField, cfg: SimConfig) -> LatticeField:
    """One SSPRK(10,4) step of ``u̇ = Δ⁺u + g(u)``, made of forward-Euler
    substeps at ``h = dt / 6`` (see ``_euler``), as a new field; ``u`` is
    left untouched.  A non-finite result raises :class:`NonFinite`."""
    p = _advance(u.padded(), _euler(cfg), u.boundary_j)
    return LatticeField(p[1:-1, 1:-1], i_offset=u.i_offset, boundary_j=u.boundary_j)


# The fewest live sites, ``e (H + 2)``, of a step that ``snapshots`` splits
# with a forked worker.  On a 2-vCPU Xeon (KVM) the split stepped 256x256
# (66048 sites) and 256x192 about 25 % faster, 256x128 and 512x64 (33000)
# 0-20 % faster, and 256x64 (16896) no faster: below about 30000 sites a step
# fits one core's L2 and halving it saves less than the pipe round trip, the
# copy and the 2R rows stepped twice.  A fork also makes every page this
# process writes later a copy-on-write fault while the worker lives: 30 ms
# more phase extraction in a default thm22 split at 9000 sites.
_SPLIT_MIN_SITES = 32768
_TASK = struct.Struct("<3q")  # a far half for the worker: (lo, e, which)


def _can_fork() -> bool:
    """Whether ``snapshots`` may split steps: ``os.fork`` exists, at least
    two CPUs are in this process's affinity set, and no other Python thread
    runs, on every Python version.  OpenBLAS's thread pool does not count:
    OpenBLAS stops it in its own ``pthread_atfork`` handler, before the fork,
    and starts it again at the next BLAS call."""
    if not hasattr(os, "fork"):
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return cpus >= 2 and threading.active_count() == 1


class _Halves:
    """The buffers of a run, the forked worker that steps the far half of
    each step split in two (see :func:`snapshots`), and the one choice of
    how each step is made (see :meth:`step`).

    One anonymous shared ``mmap`` holds the two padded state buffers, this
    process's stage buffer and ``E(y5)`` buffer, and the worker's three
    buffers of a far half, so both processes see every write.  The worker is
    forked at the first split step and serves ``_TASK`` messages on one pipe,
    answering each with one status byte on another, until it reads EOF."""

    def __init__(self, p0: np.ndarray, euler, boundary_j: str):
        rows, s = p0.shape
        far = (rows - 1) // 2 + _SSPRK104_REACH  # interior rows of the widest far half
        shapes = [(rows, s)] * 3 + [(rows - 2, s), (far + 2, s), (far + 2, s), (far, s)]
        self._map = mmap.mmap(-1, 8 * sum(r * c for r, c in shapes))
        views, offset = [], 0
        for shape in shapes:
            views.append(np.ndarray(shape, buffer=self._map, offset=offset))
            offset += 8 * shape[0] * shape[1]
        self.states, (self.stage, self.e5), self._far = views[:2], views[2:4], views[4:]
        self.states[0][...] = p0
        self._euler, self._boundary_j = euler, boundary_j
        self._pid = self._task = self._done = None
        self._live = _can_fork()

    def step(self, which: int, e: int) -> None:
        """Step the prefix of ``e`` columns of ``states[which]`` into
        ``states[1 - which]``.  The split lives from ``_can_fork()`` until
        the first step too narrow to split (``e < 2 R`` or ``e (H + 2) <
        _SPLIT_MIN_SITES``), a failed fork or a dead worker.  A step is split
        while it lives; any other step, and a split step whose half failed,
        runs serially through ``_advance`` in the run's own buffers, from the
        state, which no step writes, so every error and warning is its own."""
        sites = self.states[which].shape[1]  # H + 2
        if self._live and (e < 2 * _SSPRK104_REACH or e * sites < _SPLIT_MIN_SITES):
            self.close()
        if not (self._live and self._split(which, e)):
            cur, new = self.states[which], self.states[1 - which]
            _advance(cur[:e + 2], self._euler, self._boundary_j,
                     (new[:e + 2], self.stage[:e + 2], self.e5[:e]))

    def _split(self, which: int, e: int) -> bool:
        """The split step: this process takes padded rows ``[0, m + R + 2)``
        and the worker ``[m - R, e + 2)``, ``m = e // 2``, keeping rows ``1 ..
        m`` of the first and ``m + 1 .. e`` of the second.  False, with the
        output in any state, if the fork failed, the worker died, or either
        half failed (a non-finite value, an overflow, a division by zero)."""
        if self._pid is None and not self._fork():
            return False
        reach, m = _SSPRK104_REACH, e // 2
        cur, new = self.states[which], self.states[1 - which]
        try:
            os.write(self._task, _TASK.pack(m - reach, e, which))
        except OSError:  # the worker is gone
            self.close()
            return False
        near = m + reach + 2
        try:
            with np.errstate(over="raise", divide="raise"):
                _advance(cur[:near], self._euler, self._boundary_j,
                         (new[:near], self.stage[:near], self.e5[:near - 2]))
            ok = True
        except (NonFinite, FloatingPointError):
            ok = False
        status = os.read(self._done, 1)
        if not status:  # the worker is gone
            self.close()
        if not (ok and status == b"\1"):
            return False
        new[m + 1:e + 1] = self._far[0][reach + 1:e - m + reach + 1]
        return True

    def _fork(self) -> bool:
        task_r, task_w = os.pipe()
        done_r, done_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            try:
                self._serve(task_r, done_w)
            finally:
                os._exit(0)
        for fd in (task_r, done_w) if pid else (task_r, task_w, done_r, done_w):
            os.close(fd)
        if pid is None:
            self._live = False
            return False
        self._pid, self._task, self._done = pid, task_w, done_r
        return True

    def _serve(self, task_r: int, done_w: int) -> None:
        """The worker's loop.  It first closes every descriptor it inherited
        but the standard three and its two pipe ends, the parent's ends of
        these pipes and of any other run's among them, so that closing them
        in the parent is an EOF here."""
        low, high = sorted((task_r, done_w))
        os.closerange(3, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        while len(task := os.read(task_r, _TASK.size)) == _TASK.size:
            lo, e, which = _TASK.unpack(task)
            p0 = self.states[which][lo:e + 2]
            n = p0.shape[0]
            try:
                with np.errstate(over="raise", divide="raise"):
                    _advance(p0, self._euler, self._boundary_j,
                             (self._far[0][:n], self._far[1][:n], self._far[2][:n - 2]))
                status = b"\1"
            except Exception:
                status = b"\0"
            os.write(done_w, status)

    def close(self) -> None:
        """Close this process's pipe ends, which the worker reads as EOF and
        leaves, and reap it; no step splits after."""
        self._live = False
        if self._pid is not None:
            os.close(self._task)
            os.close(self._done)
            try:
                os.waitpid(self._pid, 0)
            except ChildProcessError:  # reaped elsewhere
                pass
            self._pid = None


def snapshots(u0: LatticeField, cfg: SimConfig) -> Iterator[tuple[float, LatticeField]]:
    """Integrate from ``u0`` in the fewest steps that reach ``t_end`` (to
    within 1e-9 of a step, so a ``t_end`` on the step grid is hit exactly),
    yielding ``(t, u)`` every ``record_every`` steps (the initial and the
    final state are always included).

    The one stepping loop.  Its state is one padded array, and a second one
    takes each step's result before the two swap, so a run allocates per
    record, not per step.  Each record is a fresh compact copy that nothing
    writes again, and the loop keeps none.  ``u0`` must have the window size
    and ``boundary_j`` of ``cfg`` (else ``ValueError`` before any step); its
    ``i_offset`` is free.

    Each step makes only the live columns, with the same bits as a
    full-width step.  The rule rests on the step's reach,
    ``R = core._SSPRK104_REACH``: output column ``c`` reads input columns
    ``c - R .. c + R`` only, and the right i-ghost is pinned to 1.  So if the
    last step left every column ``>= s - R`` unchanged bit for bit, the next
    leaves every column ``>= s`` unchanged.  The loop keeps that settled
    index ``s``, ``W`` at first, and steps the prefix of width
    ``e = min(W, s + R)``, whose ghost row holds the state's column ``e``
    fixed.  That stand-in reaches only columns ``>= e - R = s``, so
    ``[0, s)`` take the new values and ``[s, W)`` keep the old ones.  Then
    ``s = min(W, c0 + R)``, with ``c0`` the first column of the unchanged
    suffix, found by comparing the bits of the new and old values on
    ``[0, s)``.

    A wide prefix is split in two at ``m = e // 2``, by the same reach
    argument applied to a cut in the middle: this process steps columns
    ``[0, m + R)``, whose ghost row holds column ``m + R`` fixed, and keeps
    ``[0, m)``; a forked worker steps columns ``[m - R, e)``, whose ghost row
    holds column ``m - R - 1`` fixed, and this process copies its ``[m, e)``.
    Both halves run at once on two CPUs, with the same bits as one step.
    :class:`_Halves` alone decides how each step is made: split, while the
    host can fork and the prefix is wide enough, else serially.  The worker
    is forked at the first split step.  It ends at the first step too narrow
    to split, after which the run stays serial, so a run whose prefix
    narrows early (the 256x128 step_kappa default) keeps no worker, nor its
    copy-on-write faults, for its serial steps.  Else it ends with the
    generator: exhausted, closed or left by an exception, it closes its pipe
    ends, the worker leaves at their EOF, and it is reaped."""
    if u0.values.shape != (cfg.width, cfg.height) or u0.boundary_j != cfg.boundary_j:
        raise ValueError(
            f"initial field is {u0.width}x{u0.height} {u0.boundary_j}, config is "
            f"{cfg.width}x{cfg.height} {cfg.boundary_j}")
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
    width, i_offset, boundary_j = cfg.width, u0.i_offset, u0.boundary_j
    reach, halves = _SSPRK104_REACH, _Halves(u0.padded(), _euler(cfg), boundary_j)
    states, which, settled = halves.states, 0, width
    try:
        for k in range(n_steps + 1):
            if k:
                halves.step(which, min(width, settled + reach))
                cur, new = states[which], states[1 - which]
                moved = np.flatnonzero(np.any(new[1:settled + 1].view(np.int64)
                                              != cur[1:settled + 1].view(np.int64), axis=1))
                new[settled + 1:] = cur[settled + 1:]
                settled = min(width, (int(moved[-1]) + 1 if moved.size else 0) + reach)
                which = 1 - which
            if k % cfg.record_every == 0 or k == n_steps:
                yield k * cfg.dt, LatticeField(states[which][1:-1, 1:-1].copy(),
                                               i_offset, boundary_j)
    finally:
        halves.close()


def run(u0: LatticeField, cfg: SimConfig,
        writer: Optional["SnapshotWriter"] = None) -> list[tuple[float, LatticeField]]:
    """Every record of :func:`snapshots`, as a list; each is handed to the
    ``writer`` as it is made."""
    snaps = []
    for t, u in snapshots(u0, cfg):
        snaps.append((t, u))
        if writer is not None:
            writer.write(u, t)
    return snaps


# ---------------------------------------------------------------------------
# sub/super-solution machinery


@dataclass
class SuperSubSpec:
    """Parameters of a candidate super/sub-solution pair.

    Planar kind: ``u± = Φ(i - c t ± C q(1 - e^{-μ t})) ± q e^{-μ t}`` with
    ``q = q0`` above and ``q = q1`` below.

    Curved kind: ``u± = Φ(i - V_j(t) ± q(t)) + r(i - V_j(t) ± q(t)) α_j(t)
    ± p(t)`` where ``V`` solves the phase LDE from ``V0``, ``α`` is the
    squared-gradient weight, and ``p`` follows the plateau/decay profile
    ``p(t) = (3/2m) M min(δ, t^{-3/2})`` with ``q(t) = C_eps ∫_0^t p``.
    """

    kind: str = "planar"
    q0: float = 0.1
    q1: float = 0.1
    mu: Optional[float] = None
    C: Optional[float] = None
    V0: Optional[PhaseSequence] = None
    M: float = 0.01
    delta: float = 0.02
    m: float = 0.015
    C_eps: float = 5.0

    def __post_init__(self):
        if self.kind not in ("planar", "curved"):
            raise ValueError(f"unknown kind {self.kind!r}")
        for name in ("mu", "C", "M", "delta", "m", "C_eps"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.kind == "planar":
            if self.mu is not None and self.mu <= 0.0:
                raise ValueError("mu must be positive")
            if self.C is not None and self.C < 1.0:
                raise ValueError("C must be at least 1")
        else:
            if self.V0 is None:
                raise ValueError("curved spec needs the initial phase V0")
            for name in ("M", "delta", "m", "C_eps"):
                if getattr(self, name) <= 0.0:
                    raise ValueError(f"{name} must be positive")

    def check_offsets(self, a: float) -> None:
        if not 0.0 < self.q0 < a:
            raise ValueError(f"q0 must lie in (0, a) = (0, {a:g})")
        if not 0.0 < self.q1 < 1.0 - a:
            raise ValueError(f"q1 must lie in (0, 1-a) = (0, {1 - a:g})")

    # plateau/decay profile of the additive offset
    def p_of(self, t: float) -> float:
        return 1.5 * self.M * min(self.delta, t ** -1.5 if t > 0 else math.inf) / self.m

    def p_dot(self, t: float) -> float:
        return 0.0 if t <= self.delta ** (-2.0 / 3.0) else -2.25 * self.M * t ** -2.5 / self.m

    def q_of(self, t: float) -> float:
        t_knee = self.delta ** (-2.0 / 3.0)
        base = self.delta * min(t, t_knee)
        if t > t_knee:
            base += 2.0 * (t_knee ** -0.5 - t ** -0.5)
        return self.C_eps * 1.5 * self.M * base / self.m

    def q_dot(self, t: float) -> float:
        return self.C_eps * self.p_of(t)


def _window_grid(width: int, i_offset: int) -> np.ndarray:
    return (np.arange(width) + i_offset).astype(float)[:, None]


def _planar_pair(w: WaveProfile, spec: SuperSubSpec, t: Sequence[float], width: int):
    """Planar pair at the times ``t`` on the window of ``width`` columns
    centred on ``i = 0`` (see ``_window_origin``): ``(i_offset, u+, u-, J[u+], J[u-])``, each array
    of shape ``(len(t), width, 1)``, with the residuals analytic in time."""
    if spec.mu is None or spec.C is None:
        raise ValueError("planar spec needs mu and C (see search_planar_constants)")
    spec.check_offsets(w.a)
    mu, C = spec.mu, spec.C
    i_offset = _window_origin(width)
    # libm's exp per time: numpy's SIMD exp can differ by an ulp and move a tied site
    decay = np.array([math.exp(-mu * s) for s in t])[:, None, None]
    t = np.asarray(t, dtype=float)[:, None, None]
    xi = _window_grid(width, i_offset) - w.c * t
    out = []
    for sign, q in ((+1.0, spec.q0), (-1.0, spec.q1)):
        arg = xi + sign * C * q * (1.0 - decay)
        phi = w.phi_at(arg)
        u = phi + sign * q * decay
        udot = w.phi_at(arg, 1) * (sign * C * q * mu * decay - w.c) \
            - sign * mu * q * decay
        lap = w.phi_at(arg + 1.0) + w.phi_at(arg - 1.0) - 2.0 * phi
        out.append((u, udot - lap - w.f(u)))
    (up, Jp), (um, Jm) = out
    return i_offset, up, um, Jp, Jm


def _curved_pair(w: WaveProfile, spec: SuperSubSpec, V: PhaseSequence, t: float,
                 width: int):
    """Curved pair at time ``t`` with phase ``V`` on the window of ``width``
    columns centred on the mean of ``V``: ``(i_offset, u+, u-, J[u+],
    J[u-])``, with the residuals analytic in time."""
    i_offset = _window_origin(width) + int(round(float(np.mean(V.values))))
    vdot = V.replace(flow.v_rhs(V, flow.FlowParams(c=w.c, d=w.d)))
    av = V.replace(alpha(V)).padded()
    avdot = d_plus(V) * d_plus(vdot) + d_minus(V) * d_minus(vdot)
    p, pdot, q, qdot = spec.p_of(t), spec.p_dot(t), spec.q_of(t), spec.q_dot(t)
    # Φ + rα with profile-valued ghosts (not the pinned 0/1), for the lattice's Δ
    xi = _window_grid(width + 2, i_offset - 1) - V.padded()[None, :]
    out = []
    for sign in (+1.0, -1.0):
        arg = xi + sign * q
        r = w.r_at(arg)
        lap, base = (x[:, 1:-1] for x in _flat_laplacian(w.phi_at(arg) + r * av[None, :]))
        arg, r = arg[1:-1, 1:-1], r[1:-1, 1:-1]
        u = base + sign * p
        udot = (w.phi_at(arg, 1) + w.r_at(arg, 1) * av[None, 1:-1]) \
            * (sign * qdot - vdot.values[None, :]) \
            + r * avdot[None, :] + sign * pdot
        out.append((u, udot - lap - w.f(u)))
    (up, Jp), (um, Jm) = out
    return i_offset, up, um, Jp, Jm


def verify_supersub(spec: SuperSubSpec, w: WaveProfile, cfg: SimConfig,
                    t_grid: Sequence[float], *, width: Optional[int] = None) -> dict:
    """Check ``J[u+] >= -tol`` and ``J[u-] <= tol`` over the window and times,
    with ``tol = _SUPERSUB_TOL = 1e-6``.

    The residuals are evaluated with analytic time derivatives, so ``tol``
    only absorbs the interpolation floor of the profile splines.  Returns a
    report with the extremal residuals, their sites and the verdict.  An
    empty ``t_grid`` would check nothing and raises :class:`OutOfRange`; a
    ``width`` that is not an integer >= 1 raises ``ValueError``.
    """
    if len(t_grid) == 0:
        raise OutOfRange("super/sub verification needs at least one time")
    if width is not None:
        _check_window(width=width)
    if spec.kind == "planar":
        ts = np.asarray(t_grid, dtype=float)
        i0, _, _, Jp, Jm = _planar_pair(w, spec, ts, cfg.width if width is None else width)
        offsets = np.full(ts.size, i0)
    else:
        if w.r is None:
            raise SolveFailed("curved verification needs the corrector r")
        grad0 = float(np.max(np.abs(d_plus(spec.V0))))
        p0 = spec.p_of(0.0)
        slack = p0 - float(np.max(np.abs(w.r))) * grad0 * grad0
        if not slack > 0.5 * p0:
            raise VerificationFailed(
                f"initial offset margin {slack:.3e} does not clear p(0)/2={0.5 * p0:.3e}",
                value=slack)
        wd = width if width is not None else 128
        traj = flow.v_solve(spec.V0, flow.FlowParams(c=w.c, d=w.d), t_grid=list(t_grid))
        ts, offsets = traj.times, np.empty(len(traj), dtype=int)
        Jp = np.empty((len(traj), wd, len(spec.V0)))
        Jm = np.empty_like(Jp)
        for k, (t, v) in enumerate(zip(ts.tolist(), traj.values)):
            offsets[k], _, _, Jp[k], Jm[k] = _curved_pair(
                w, spec, PhaseSequence(v, boundary_j=traj.boundary_j), t, wd)

    def worst(J: np.ndarray, pick) -> tuple[float, tuple[int, int, float]]:
        # flat C order: ties go to the first time, then the first site
        k, i, j = np.unravel_index(int(pick(J)), J.shape)
        return float(J[k, i, j]), (int(offsets[k] + i), int(j), float(ts[k]))

    worst_plus, site_plus = worst(Jp, np.argmin)
    worst_minus, site_minus = worst(Jm, np.argmax)
    tol = _SUPERSUB_TOL
    verdict = worst_plus >= -tol and worst_minus <= tol
    return {
        "kind": spec.kind,
        "tol": tol,
        "min_residual_super": worst_plus,
        "max_residual_sub": worst_minus,
        "site_super": site_plus,
        "site_sub": site_minus,
        "verdict": "pass" if verdict else "fail",
    }


def search_planar_constants(w: WaveProfile, spec: SuperSubSpec, cfg: SimConfig,
                            t_grid: Sequence[float]) -> tuple[float, float, dict]:
    """Log-grid scan for a certified planar pair ``(mu, C)``: ``mu`` over
    ``logspace(-2.5, 0, 11)``, and for each ``mu``, ``C`` over
    ``logspace(0, 2.5, 11)``, each pair checked by :func:`verify_supersub`.

    Returns the first passing pair and its report; raises
    :class:`VerificationFailed` when the whole grid fails.
    """
    best = None
    for mu in np.logspace(-2.5, 0.0, 11):
        for C in np.logspace(0.0, 2.5, 11):
            trial = SuperSubSpec(kind="planar", q0=spec.q0, q1=spec.q1,
                                 mu=float(mu), C=float(C))
            report = verify_supersub(trial, w, cfg, t_grid)
            if report["verdict"] == "pass":
                return float(mu), float(C), report
            margin = min(report["min_residual_super"], -report["max_residual_sub"])
            if best is None or margin > best[2]:
                best = (float(mu), float(C), margin)
    raise VerificationFailed(
        f"no (mu, C) pair certified; best margin {best[2]:.3e} "
        f"at mu={best[0]:g}, C={best[1]:g}", value=best[2])


# ---------------------------------------------------------------------------
# snapshot I/O


def save_snapshot(u: LatticeField, t: float, path: str) -> None:
    """Write one whole field: a 64-byte little-endian header (magic ``ACF2``,
    int64 width, height, i_offset, float64 t, ``boundary_j`` in 8 NUL-padded
    ASCII bytes, then zeros) and the row-major binary64 values."""
    header = _HEADER.pack(_MAGIC, u.width, u.height, u.i_offset, float(t),
                          u.boundary_j.encode("ascii"))
    with open(path, "wb") as fh:
        fh.write(header.ljust(64, b"\0"))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_snapshot(path: str) -> tuple[float, LatticeField]:
    """``(t, field)`` of a :func:`save_snapshot` file, ``boundary_j`` included.

    Raises ``ValueError`` unless the header gives a width and height of at
    least 1 and the body after it is exactly ``8 * width * height`` bytes."""
    with open(path, "rb") as fh:
        raw = fh.read(64)
        if raw[:4] == _OLD_MAGIC:
            raise ValueError(f"{path} is an ACF1 snapshot, which does not record "
                             "boundary_j; write it again with this version")
        if len(raw) < 64 or raw[:4] != _MAGIC:
            raise ValueError(f"{path} is not a snapshot file")
        _, width, height, i_offset, t, boundary_j = _HEADER.unpack(raw[:_HEADER.size])
        if width < 1 or height < 1:
            raise ValueError(f"{path}: header gives a {width}x{height} window; "
                             "width and height must be >= 1")
        body = fh.read()
    if len(body) != 8 * width * height:
        raise ValueError(f"{path}: a {width}x{height} snapshot has a body of "
                         f"{8 * width * height} bytes, the file has {len(body)}")
    values = np.frombuffer(body, dtype="<f8").reshape(width, height).astype(float)
    return t, LatticeField(values, i_offset=int(i_offset),
                           boundary_j=boundary_j.rstrip(b"\0").decode("ascii"))


class SnapshotWriter:
    """Persists a snapshot stream to a directory: ``snap_000000.bin``,
    ``snap_000001.bin``, ... (see :func:`save_snapshot`) and the NDJSON index
    ``snap_index.ndjson``, a listing of each file's time and geometry."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0
        os.makedirs(directory, exist_ok=True)
        self.index_path = os.path.join(directory, "snap_index.ndjson")
        open(self.index_path, "w", encoding="utf-8").close()

    def write(self, u: LatticeField, t: float) -> str:
        name = f"snap_{self.count:06d}.bin"
        path = os.path.join(self.directory, name)
        save_snapshot(u, t, path)
        record = {"file": name, "t": t, "width": u.width, "height": u.height,
                  "i_offset": u.i_offset, "boundary_j": u.boundary_j}
        with open(self.index_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.count += 1
        return path


def read_snapshots(index_path: str) -> list[tuple[float, LatticeField]]:
    """The snapshots an index lists, read whole from the files it names; a
    line that is not a JSON object with a string ``file`` is a ``ValueError``."""
    base = os.path.dirname(index_path)
    out = []
    with open(index_path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                rec = None
            if not (isinstance(rec, dict) and isinstance(rec.get("file"), str)):
                raise ValueError(f"{index_path} line {n}: not a JSON object with a string 'file'")
            out.append(load_snapshot(os.path.join(base, rec["file"])))
    return out
