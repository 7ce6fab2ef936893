"""A fixed reference kernel, run in short slices during a workload, so that
run time can be stated in units of the host's speed at that moment.

On a shared host the speed of one vCPU drifts: interpreter-bound code was
measured 20-45 % slower for tens of seconds to minutes at a time, with wall
time equal to CPU time (no preemption to subtract).  Runs made minutes apart
then disagree by more than any useful regression bound.  The slices run on
the same vCPU as the workload, interleaved with it every ``PERIOD_S``
seconds by ``SIGALRM``, so they see the same drift; an iteration's time
divided by the mean slice time during it cancels the drift to first order.
The kernel is the benchmark's own code with fixed inputs and does not change
when the program does, so a change to the program moves the ratio as it
moves the time.

Each workload names the parts of the kernel that resemble its own hot
path (``workloads.REFERENCE``): a pure-Python loop (interpreter speed),
numpy calls on 256-element arrays (call overhead), cubic-spline evaluations
at a few points (scipy call overhead, as in ``wave.phi_inverse``) and a
stencil on a 256x256 array (L2-resident array traffic, as in ``sim.step``).
Kinds of work do not slow down alike on a shared host, so a reference that
does other work than the workload tracks its drift less well.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.interpolate import CubicSpline

PERIOD_S = 0.25

_rng = np.random.default_rng(0)
_SMALL = _rng.random(256)
_FIELD = _rng.random((256, 256))
_KNOTS = np.linspace(0.0, 1.0, 641)
_SPLINE = CubicSpline(_KNOTS, np.tanh(4.0 * _KNOTS - 2.0), bc_type="clamped")
_POINTS = _rng.random(8)


def _python() -> float:
    s = 0
    for i in range(15000):
        s += i * i
    return float(s)


def _small() -> float:
    x = _SMALL
    for _ in range(120):
        x = np.where(np.sin(x) < 0.5, x * 0.5, x + 0.1)
    return float(x[0])


def _spline() -> float:
    y = 0.0
    for _ in range(120):
        y += float(_SPLINE(_POINTS)[0])
    return y


def _stencil() -> float:
    u = _FIELD
    for _ in range(3):
        u = 0.25 * (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1) + np.roll(u, -1, 1))
    return float(u[0, 0])


PARTS = {"python": _python, "small": _small, "spline": _spline, "stencil": _stencil}


def kernel(parts) -> float:
    """One slice of fixed work: each named part once, about 1.5 ms each on a
    2 GHz Xeon vCPU."""
    return sum(PARTS[p]() for p in parts)


class Reference:
    """Runs ``kernel(parts)`` every ``period`` seconds while entered, and
    once more on leaving, so every entered interval holds at least one slice.

    ``slices`` holds each slice's duration and ``spent`` their sum, which a
    caller subtracts from the interval's wall time.
    """

    def __init__(self, parts, period: float = PERIOD_S):
        self.parts = tuple(parts)
        self.period = period
        self.slices: list[float] = []
        self.spent = 0.0
        kernel(self.parts)  # first-call allocation and import costs stay out of the slices

    def slice(self, *_) -> None:
        t0 = time.perf_counter()
        kernel(self.parts)
        dt = time.perf_counter() - t0
        self.slices.append(dt)
        self.spent += dt

    def __enter__(self) -> "Reference":
        self._previous = signal.signal(signal.SIGALRM, self.slice)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.slice()

    def measure(self, fn, *args):
        """``fn(*args)`` with slices interleaved; returns ``(result, work_s,
        ref_s)``: its wall time without the slices, and the mean time of the
        slices run during and right after it."""
        first, spent = len(self.slices), self.spent
        t0 = time.perf_counter()
        with self:
            result = fn(*args)
        wall = time.perf_counter() - t0
        own = self.slices[first:]
        return result, wall - (self.spent - spent), sum(own) / len(own)
