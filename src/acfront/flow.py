"""Discrete heat kernel, the exponential heat LDE and curvature-driven flows.

The interface dynamics of a nearly flat lattice front reduce to scalar LDEs
for per-row phases.  This module provides:

* the discrete heat kernel ``G_k(t) = e^{-2t} I_k(2t)`` from the scaled
  modified Bessel function ``scipy.special.ive``; it solves
  ``\\dot G = G_{k+1} + G_{k-1} - 2 G_k`` with a unit mass delta at ``t = 0``;
* ``heat_solve``: exact convolution of a phase sequence with the kernel;
* the exponential heat LDE ``V̇ = (1/d)(e^{d ∂⁺V} - 2 + e^{-d ∂⁻V}) + c``
  linearized through the Cole-Hopf substitution ``h = e^{d (V - c t)}``, with
  a direct explicit route for cross-checking, falling back to the linear
  heat LDE ``V̇ = ∂⁽²⁾V + c`` when ``d`` vanishes;
* the discrete mean curvature flow ``Γ̇ = ∂⁽²⁾Γ/β² + 2dβ + c - 2d``, marched,
  like the direct route, by the lattice's own SSPRK(10,4) step;
* report builders for the kernel decay bounds and gradient decay rates.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ive

from .core import PhaseSequence, _ssprk104, d2, d_plus, deviation_seminorm
from .errors import FlatnessViolated, NonFinite, OutOfRange, OverflowGuard

__all__ = [
    "HeatKernelTable",
    "FlowParams",
    "FlowTrajectory",
    "heat_kernel",
    "heat_solve",
    "decay_report",
    "bessel_bounds_report",
    "v_solve",
    "v_rhs",
    "v_gradient_report",
    "mcf_solve",
    "mcf_rhs",
    "trajectory_to_csv",
    "report_to_ndjson",
]


@dataclass(frozen=True)
class HeatKernelTable:
    """Discrete heat kernel ``G_k(t)`` on the symmetric range ``|k| <= kmax``."""

    t: float
    k: np.ndarray
    values: np.ndarray

    @property
    def kmax(self) -> int:
        return int(self.k[-1])

    def mass(self) -> float:
        return float(self.values.sum())


def _auto_kmax(t: float) -> int:
    """Truncation order of the kernel at time ``t``; raises :class:`OutOfRange`
    unless ``t`` is finite and nonnegative (NaN included)."""
    if not 0.0 <= t < math.inf:
        raise OutOfRange(f"kernel time must be finite and nonnegative, got {t}")
    return int(math.ceil(2.0 * t + 40.0 * math.sqrt(t + 1.0) + 20.0))


def heat_kernel(t: float) -> HeatKernelTable:
    """Kernel table ``G_k(t) = e^{-2t} I_k(2t)`` with auto-sized truncation.

    The range ``|k| <= _auto_kmax(t)`` keeps the truncated mass within 1e-12 of 1.
    """
    kmax = _auto_kmax(t)
    half = ive(np.arange(kmax + 1), 2.0 * t)
    values = np.concatenate([half[:0:-1], half])
    k = np.arange(-kmax, kmax + 1)
    return HeatKernelTable(t=float(t), k=k, values=values)


def _periodized_kernel(table: HeatKernelTable, period: int) -> np.ndarray:
    """Fold the kernel onto one period: ``G_per[m] = sum_q G[m + q P]``."""
    folded = np.zeros(period)
    np.add.at(folded, np.mod(table.k, period), table.values)
    return folded


def heat_solve(h0: PhaseSequence, t: float) -> PhaseSequence:
    """Solution of the discrete heat LDE at time ``t``: kernel convolution.

    Periodic sequences convolve with the periodized kernel; reflecting
    sequences are evenly extended (matching the edge-replicating ghost
    policy) and solved on the doubled period.
    """
    vals = h0.values
    if h0.boundary_j == "reflect":
        ext = PhaseSequence(np.concatenate([vals, vals[::-1]]), boundary_j="periodic")
        return h0.replace(heat_solve(ext, t).values[: vals.size])
    # direct circulant product out[j] = sum_m g[m] vals[(j - m) mod P]: no FFT,
    # whose round-off would swamp the e^{-500}-scale Cole-Hopf values
    P = vals.size
    g = _periodized_kernel(heat_kernel(t), P)
    return h0.replace(np.convolve(np.concatenate([vals, vals]), g)[P:2 * P])


def _loglog_slope(ts: np.ndarray, ys: np.ndarray) -> float:
    keep = ys > 0.0
    if keep.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(ts[keep]), np.log(ys[keep]), 1)[0])


def _decay_stats(ts: np.ndarray, seqs, g0: float, l0: float, tol: float) -> dict:
    """Norms ``sup|∂⁺h|`` and ``sup|∂⁽²⁾h|`` of the sequences ``seqs`` at
    times ``ts``; whether the first stays within ``g0 + tol``; the constants
    K of ``K min(g0, t^{-1/2})`` and ``K min(l0, t^{-1})`` fitted over
    ``t > 0``; and log-log slopes over ``t >= 1``."""
    d1 = np.empty(ts.size)
    d2n = np.empty(ts.size)
    for idx, s in enumerate(seqs):
        d1[idx] = np.max(np.abs(d_plus(s)))
        d2n[idx] = np.max(np.abs(d2(s)))
    pos = ts > 0.0
    late = ts >= 1.0
    bound1 = np.minimum(g0, ts[pos] ** -0.5)
    bound2 = np.minimum(l0, ts[pos] ** -1.0)
    return {
        "t": ts.tolist(),
        "d_plus_norm": d1.tolist(),
        "d2_norm": d2n.tolist(),
        "initial_gradient_norm": g0,
        "initial_second_norm": l0,
        "monotone_bound_holds": bool(np.all(d1 <= g0 + tol)),
        "K_first": float(np.max(d1[pos] / bound1)) if pos.any() else math.nan,
        "K_second": float(np.max(d2n[pos] / bound2)) if pos.any() else math.nan,
        "slope_first": _loglog_slope(ts[late], d1[late]),
        "slope_second": _loglog_slope(ts[late], d2n[late]),
    }


def decay_report(h0: PhaseSequence, t_grid: Sequence[float]) -> dict:
    """Gradient and second-difference decay of the heat flow from ``h0``.

    For each requested time the report records ``sup|∂⁺h|`` and
    ``sup|∂⁽²⁾h|``, the fitted constants of the bounds ``sup|∂⁺h(t)| <=
    K min(sup|∂⁺h⁰|, t^{-1/2})`` (and the ``t^{-1}`` analogue) over ``t > 0``,
    whether the initial gradient bound holds at every time, and log-log slope
    estimates over ``t >= 1``.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    g0 = float(np.max(np.abs(d_plus(h0))))
    l0 = float(np.max(np.abs(d2(h0))))
    return _decay_stats(ts, (heat_solve(h0, float(t)) for t in ts), g0, l0, 1e-14)


def bessel_bounds_report(t_grid: Sequence[float]) -> dict:
    """Structural bounds of the scaled Bessel family used by the heat kernel.

    Checks, for each time and orders ``k <= _auto_kmax(t)``: monotonicity
    ``I_k > I_{k+1}`` in the order, the telescoping identity
    ``sum_{k in Z} |I_{k+1} - I_k| = 2 I_0`` (scaled, to 1e-10), uniform
    boundedness of ``sqrt(t) e^{-t} sum |I_{k+1} - I_k|`` and
    ``t e^{-t} sum |∂⁽²⁾I|``, and that the second difference
    ``k -> I_{k+1} - 2 I_k + I_{k-1}`` changes sign exactly once on ``k >= 0``.
    """
    rows = []
    floor = 1e-280
    for t in t_grid:
        t = float(t)
        kmax = _auto_kmax(t)
        half = ive(np.arange(kmax + 1), t)
        full = np.concatenate([half[:0:-1], half])
        diff = np.diff(full)
        lap = full[2:] - 2.0 * full[1:-1] + full[:-2]
        # strict order decay checked on the representable range; the far
        # tail underflows to exact zeros
        rep = half[:-1] > floor
        monotone = bool(np.all((half[:-1] - half[1:])[rep] > 0.0))
        telescope = float(np.abs(diff).sum())
        telescope_err = abs(telescope - 2.0 * half[0])
        # second difference on k >= 0, with I_{-1} = I_1 at k = 0
        lap_pos = np.concatenate([[2.0 * (half[1] - half[0])],
                                  half[2:] - 2.0 * half[1:-1] + half[:-2]])
        signs = np.sign(lap_pos[np.abs(lap_pos) > floor])
        changes = int(np.count_nonzero(np.diff(signs) != 0.0))
        rows.append({
            "t": t,
            "k_max": kmax,
            "order_monotone": monotone,
            "telescope_error": telescope_err,
            "first_sum_scaled": math.sqrt(t) * telescope if t > 0 else 0.0,
            "second_sum_scaled": t * float(np.abs(lap).sum()),
            "second_diff_sign_changes": changes,
        })
    return {
        "rows": rows,
        "all_order_monotone": all(r["order_monotone"] for r in rows),
        "max_telescope_error": max(r["telescope_error"] for r in rows),
        "first_sum_bound": max(r["first_sum_scaled"] for r in rows),
        "second_sum_bound": max(r["second_sum_scaled"] for r in rows),
        "single_sign_change": all(r["second_diff_sign_changes"] == 1 for r in rows),
    }


@dataclass
class FlowParams:
    """Parameters shared by the phase-flow integrators; ``dt`` bounds the
    forward-Euler substep of the explicit marcher (steps of at most ``6 dt``)."""

    c: float
    d: float
    dt: Optional[float] = None

    @property
    def variant(self) -> str:
        """``linear_heat`` when ``|d| < 1e-8``, else ``exp_lde``."""
        return "linear_heat" if abs(self.d) < 1e-8 else "exp_lde"

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.d)):
            raise ValueError(f"c and d must be finite, got c={self.c}, d={self.d}")
        if self.dt is None:
            # explicit-scheme stability for the linearized operator
            self.dt = 0.1 * min(1.0, 1.0 / (2.0 + 2.0 * abs(self.d)))
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass
class FlowTrajectory:
    """Phase sequences recorded along a flow, row ``values[k]`` at ``times[k]``."""

    times: np.ndarray
    values: np.ndarray
    boundary_j: str = "periodic"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return self.times.size


def _march(y0: PhaseSequence, rhs, t_grid: Sequence[float], p: FlowParams,
           what: str, delta: float = math.inf) -> FlowTrajectory:
    """SSPRK(10,4) steps (``core._ssprk104``) from ``y0``, with ``rhs(q)``
    the right-hand side at the padded sequence ``q``: forward-Euler
    substeps ``q[1:-1] + h rhs(q)`` of ``h = step / 6 <= p.dt``, so steps at
    most ``6 p.dt`` long, the last before each time in ``t_grid`` cut short
    to land on it.

    Raises :class:`FlatnessViolated` once ``sup|∂⁺y|`` exceeds ``delta``,
    initially or after any step.  Raises :class:`NonFinite`, naming
    ``what``, as soon as a step is not finite, and :class:`OutOfRange` for a
    non-finite, negative or decreasing ``t_grid``.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    if not (np.all(np.isfinite(ts)) and np.all(np.diff(ts, prepend=0.0) >= 0.0)):
        raise OutOfRange(f"{what} output times must be finite, >= 0 and nondecreasing")

    def slope(q: np.ndarray) -> float:
        return float(np.max(np.abs(q[2:] - q[1:-1])))

    def euler(q: np.ndarray, out: np.ndarray) -> None:
        np.multiply(rhs(q), h, out=out)
        out += q[1:-1]

    q = y0.padded()
    if slope(q) > delta:
        raise FlatnessViolated(f"initial gradient {slope(q):.3g} exceeds delta={delta:g}")
    rows = np.empty((ts.size, len(y0)))
    t = 0.0
    for idx, target in enumerate(ts):
        while t < target - 1e-12:
            step = min(6.0 * p.dt, target - t)
            h = step / 6.0
            q = _ssprk104(q, euler, y0.boundary_j)
            t += step
            if not np.all(np.isfinite(q)):
                raise NonFinite(f"{what} blew up at t={t:g}")
            if slope(q) > delta:
                raise FlatnessViolated(
                    f"gradient {slope(q):.3g} exceeded delta={delta:g} at t={t:g}")
        rows[idx] = q[1:-1]
    return FlowTrajectory(ts, rows, boundary_j=y0.boundary_j)


def _v_rhs(q: np.ndarray, p: FlowParams) -> np.ndarray:
    """Right-hand side of the phase LDE at the padded sequence ``q``."""
    if p.variant == "linear_heat":
        return q[2:] - 2.0 * q[1:-1] + q[:-2] + p.c
    return (np.exp(p.d * (q[2:] - q[1:-1])) - 2.0
            + np.exp(-p.d * (q[1:-1] - q[:-2]))) / p.d + p.c


def v_rhs(V: PhaseSequence, p: FlowParams) -> np.ndarray:
    """Right-hand side of the phase LDE for ``V`` (exact, no time stepping)."""
    return _v_rhs(V.padded(), p)


def v_solve(V0: PhaseSequence, p: FlowParams, t_grid: Sequence[float],
            method: str = "cole_hopf") -> FlowTrajectory:
    """Integrate the phase LDE for ``V`` from ``V0``.

    ``cole_hopf`` evaluates the exact solution at each requested time through
    ``h = e^{d (V - c t)}`` and the heat kernel (or directly for the linear
    variant); ``euler`` selects the explicit marcher made of forward-Euler
    substeps (:func:`_march`), an independent cross-check on the nonlinear
    LDE.  Raises :class:`OverflowGuard` when the transform would overflow.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    if method == "euler":
        return _march(V0, lambda q: _v_rhs(q, p), ts, p, "explicit integration")
    if method != "cole_hopf":
        raise ValueError(f"unknown method {method!r}")
    rows = np.empty((ts.size, len(V0)))
    if p.variant == "linear_heat":
        for idx, t in enumerate(ts):
            rows[idx] = heat_solve(V0, float(t)).values + p.c * t
        return FlowTrajectory(ts, rows, boundary_j=V0.boundary_j)
    anchor = float(V0.values[0])
    if abs(p.d) * deviation_seminorm(V0) > 500.0:
        raise OverflowGuard("d * [V0]_dev exceeds 500; transform would overflow")
    h0 = V0.replace(np.exp(p.d * (V0.values - anchor)))
    for idx, t in enumerate(ts):
        h = heat_solve(h0, float(t))
        if np.any(h.values <= 0.0):
            raise NonFinite("Cole-Hopf transform left the positive cone")
        # anchor is added last so that translating V0 shifts the output by
        # exactly the same floating-point addition
        rows[idx] = anchor + (p.c * t + np.log(h.values) / p.d)
    return FlowTrajectory(ts, rows, boundary_j=V0.boundary_j)


def v_gradient_report(traj: FlowTrajectory) -> dict:
    """Gradient-decay diagnostics along a ``V`` trajectory (norms, fitted
    constants for the ``min`` bounds, and log-log slopes)."""
    if len(traj) == 0:
        raise OutOfRange("trajectory has no recorded times")
    seqs = [PhaseSequence(row, boundary_j=traj.boundary_j) for row in traj.values]
    rep = _decay_stats(traj.times, seqs, np.max(np.abs(d_plus(seqs[0]))),
                       np.max(np.abs(d2(seqs[0]))), 1e-12)
    del rep["initial_gradient_norm"], rep["initial_second_norm"]
    return rep


def _mcf_rhs(q: np.ndarray, p: FlowParams) -> np.ndarray:
    """:func:`mcf_rhs` at the padded sequence ``q``."""
    dp, dm = q[2:] - q[1:-1], q[1:-1] - q[:-2]
    b2 = 1.0 + 0.5 * (dp * dp + dm * dm)
    return (dp - dm) / b2 + 2.0 * p.d * np.sqrt(b2) + (p.c - 2.0 * p.d)


def mcf_rhs(G: PhaseSequence, p: FlowParams) -> np.ndarray:
    """Right-hand side ``∂⁽²⁾Γ/β² + 2dβ + c - 2d`` of the discrete mean
    curvature flow, with ``β = sqrt(1 + (|∂⁺Γ|² + |∂⁻Γ|²)/2)``: curvature
    plus the direction-dependent drift ``c + 2d(β - 1)``."""
    return _mcf_rhs(G.padded(), p)


def mcf_solve(G0: PhaseSequence, p: FlowParams, t_grid: Sequence[float], *,
              delta: float = 0.1) -> FlowTrajectory:
    """The discrete mean curvature flow (see :func:`mcf_rhs`), marched by
    SSPRK(10,4) steps made of forward-Euler substeps (:func:`_march`).

    Raises :class:`FlatnessViolated` once ``sup|∂⁺Γ|`` exceeds ``delta``; the
    local comparison structure of the flow is only guaranteed for flat
    interfaces.
    """
    return _march(G0, lambda q: _mcf_rhs(q, p), t_grid, p, "curvature flow", delta)


def trajectory_to_csv(traj: FlowTrajectory, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "j", "value"])
        for row, t in enumerate(traj.times):
            for j, v in enumerate(traj.values[row]):
                writer.writerow([format(t, ".17g"), j, format(v, ".17g")])


def report_to_ndjson(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report) + "\n")
