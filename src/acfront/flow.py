"""Discrete heat kernel, the exponential heat LDE and curvature-driven flows.

The interface dynamics of a nearly flat lattice front reduce to scalar LDEs
for per-row phases.  This module provides:

* scaled modified Bessel evaluation ``e^{-t} I_k(t)`` (Miller backward
  recurrence, power series for small arguments) and the discrete heat kernel
  ``G_k(t) = e^{-2t} I_k(2t)``, which solves ``\\dot G = G_{k+1} + G_{k-1} -
  2 G_k`` with a unit mass delta at ``t = 0``;
* ``heat_solve``: exact convolution of a phase sequence with the kernel;
* the exponential heat LDE ``V̇ = (1/d)(e^{d ∂⁺V} - 2 + e^{-d ∂⁻V}) + c``
  linearized through the Cole-Hopf substitution ``h = e^{d (V - c t)}``, with
  a direct Euler route for cross-checking, falling back to the linear heat
  LDE ``V̇ = ∂⁽²⁾V + c`` when ``d`` vanishes;
* the discrete mean curvature flow ``Γ̇ = ∂⁽²⁾Γ/β² + 2dβ + c - 2d`` and the
  LDE for its gradient ``Υ = ∂⁺Γ``;
* report builders for the kernel decay bounds and gradient decay rates.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import PhaseSequence, beta, d2, d_plus, d_minus, deviation_seminorm
from .errors import FlatnessViolated, NonFinite, OutOfRange, OverflowGuard

__all__ = [
    "HeatKernelTable",
    "FlowParams",
    "FlowTrajectory",
    "bessel_i",
    "bessel_i_unscaled",
    "heat_kernel",
    "heat_solve",
    "decay_report",
    "bessel_bounds_report",
    "v_solve",
    "v_rhs",
    "v_gradient_report",
    "mcf_solve",
    "mcf_rhs",
    "gradient_lde_solve",
    "kernel_to_csv",
    "trajectory_to_csv",
    "report_to_ndjson",
]

_RESCALE = 1e250


def _bessel_series_scaled(kmax: int, t: float) -> np.ndarray:
    """Scaled values ``e^{-t} I_k(t)`` for ``k = 0..kmax`` by power series."""
    out = np.zeros(kmax + 1)
    x = 0.5 * t
    damp = math.exp(-t)
    for k in range(kmax + 1):
        # term_m = (t/2)^(2m+k) / (m! (m+k)!)
        term = x ** k / math.factorial(k) if k < 160 else 0.0
        total = term
        m = 0
        while term > 1e-20 * total + 5e-324 and m < 200:
            m += 1
            term *= x * x / (m * (m + k))
            total += term
        out[k] = damp * total
    return out


def _bessel_ladder(kmax: int, t: float) -> np.ndarray:
    """Scaled values ``e^{-t} I_k(t)`` for ``k = 0..kmax``.

    Miller backward recurrence seeded far above ``kmax``, normalized through
    the identity ``e^{-t} (I_0 + 2 sum_{k>=1} I_k) = 1`` so the returned
    ladder carries unit mass by construction.
    """
    if t < 0.0:
        raise OutOfRange("Bessel argument must be nonnegative")
    if t < 1e-12:
        out = np.zeros(kmax + 1)
        out[0] = 1.0
        return out
    if t < 1.0:
        return _bessel_series_scaled(kmax, t)
    start = int(max(kmax, math.ceil(t + 10.0 * math.sqrt(t + 1.0)))) + 40
    f = np.zeros(start + 2)
    f[start] = 1e-250
    for k in range(start, 0, -1):
        f[k - 1] = f[k + 1] + (2.0 * k / t) * f[k]
        if f[k - 1] > _RESCALE:
            f[k - 1:] /= _RESCALE
    mass = f[0] + 2.0 * f[1:].sum()
    return f[: kmax + 1] / mass


def bessel_i(k, t: float):
    """Scaled modified Bessel value(s) ``e^{-t} I_k(t)``, ``k >= 0``."""
    karr = np.atleast_1d(np.asarray(k, dtype=int))
    if np.any(karr < 0):
        raise OutOfRange("order k must be nonnegative")
    ladder = _bessel_ladder(int(karr.max()), float(t))
    out = ladder[karr]
    return float(out[0]) if np.asarray(k).ndim == 0 else out


def bessel_i_unscaled(k, t: float):
    """Unscaled ``I_k(t)`` for moderate ``t`` (raises once ``e^t`` overflows)."""
    if t > 700.0:
        raise OverflowGuard("unscaled Bessel would overflow; use bessel_i")
    scaled = bessel_i(k, t)
    return scaled * math.exp(t)


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
    return int(math.ceil(2.0 * t + 40.0 * math.sqrt(t + 1.0) + 20.0))


def heat_kernel(t: float, k_range: Optional[int] = None) -> HeatKernelTable:
    """Kernel table ``G_k(t) = e^{-2t} I_k(2t)`` with auto-sized truncation.

    The default range keeps the truncated mass within 1e-12 of 1.
    """
    if t < 0.0:
        raise OutOfRange("kernel time must be nonnegative")
    kmax = _auto_kmax(t) if k_range is None else int(k_range)
    half = _bessel_ladder(kmax, 2.0 * t)
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


def decay_report(h0: PhaseSequence, t_grid: Sequence[float]) -> dict:
    """Gradient and second-difference decay of the heat flow from ``h0``.

    For each requested time the report records ``sup|∂⁺h|`` and
    ``sup|∂⁽²⁾h|``, the fitted constants of the bounds ``sup|∂⁺h(t)| <=
    K min(sup|∂⁺h⁰|, t^{-1/2})`` (and the ``t^{-1}`` analogue), whether the
    initial gradient bound holds at every time, and log-log slope estimates.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    d1 = np.empty(ts.size)
    d2n = np.empty(ts.size)
    for idx, t in enumerate(ts):
        h = heat_solve(h0, float(t))
        d1[idx] = np.max(np.abs(d_plus(h)))
        d2n[idx] = np.max(np.abs(d2(h)))
    g0 = float(np.max(np.abs(d_plus(h0))))
    l0 = float(np.max(np.abs(d2(h0))))
    pos = ts > 0.0
    bound1 = np.minimum(g0, np.where(pos, ts, np.inf) ** -0.5)
    bound2 = np.minimum(l0, np.where(pos, ts, np.inf) ** -1.0)
    return {
        "t": ts.tolist(),
        "d_plus_norm": d1.tolist(),
        "d2_norm": d2n.tolist(),
        "initial_gradient_norm": g0,
        "initial_second_norm": l0,
        "monotone_bound_holds": bool(np.all(d1 <= g0 + 1e-14)),
        "K_first": float(np.max(d1 / bound1)) if ts.size else math.nan,
        "K_second": float(np.max(d2n / bound2)) if ts.size else math.nan,
        "slope_first": _loglog_slope(ts, d1),
        "slope_second": _loglog_slope(ts, d2n),
    }


def bessel_bounds_report(t_grid: Sequence[float], k_max: Optional[int] = None) -> dict:
    """Structural bounds of the scaled Bessel family used by the heat kernel.

    Checks, for each time: monotonicity ``I_k > I_{k+1}`` in the order, the
    telescoping identity ``sum_{k in Z} |I_{k+1} - I_k| = 2 I_0`` (scaled, to
    1e-10), uniform boundedness of ``sqrt(t) e^{-t} sum |I_{k+1} - I_k|`` and
    ``t e^{-t} sum |∂⁽²⁾I|``, and that the second difference
    ``k -> I_{k+1} - 2 I_k + I_{k-1}`` changes sign exactly once on ``k >= 0``.
    """
    rows = []
    floor = 1e-280
    for t in t_grid:
        t = float(t)
        kmax = _auto_kmax(t) if k_max is None else int(k_max)
        half = _bessel_ladder(kmax, t)
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
    """Parameters shared by the phase-flow integrators."""

    c: float
    d: float
    dt: Optional[float] = None
    t_end: float = 100.0
    variant: Optional[str] = None

    def __post_init__(self):
        if self.variant is None:
            self.variant = "linear_heat" if abs(self.d) < 1e-8 else "exp_lde"
        if self.variant not in ("exp_lde", "linear_heat"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "exp_lde" and abs(self.d) < 1e-8:
            raise ValueError("exp_lde variant needs |d| >= 1e-8")
        if self.dt is None:
            # explicit-scheme stability for the linearized operator
            self.dt = 0.1 * min(1.0, 1.0 / (2.0 + 2.0 * abs(self.d)))
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


@dataclass
class FlowTrajectory:
    """Phase sequences recorded along a flow, one row per time."""

    times: np.ndarray
    values: np.ndarray
    boundary_j: str = "periodic"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return self.times.size

    def at(self, t: float) -> PhaseSequence:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 + 1e-9 * abs(t):
            raise OutOfRange(f"time {t} was not recorded")
        return PhaseSequence(self.values[idx].copy(), boundary_j=self.boundary_j)

    def final(self) -> PhaseSequence:
        return PhaseSequence(self.values[-1].copy(), boundary_j=self.boundary_j)


def v_rhs(V: PhaseSequence, p: FlowParams) -> np.ndarray:
    """Right-hand side of the phase LDE for ``V`` (exact, no time stepping)."""
    if p.variant == "linear_heat":
        return d2(V) + p.c
    dp = d_plus(V)
    dm = d_minus(V)
    return (np.exp(p.d * dp) - 2.0 + np.exp(-p.d * dm)) / p.d + p.c


def v_solve(V0: PhaseSequence, p: FlowParams,
            t_grid: Optional[Sequence[float]] = None,
            method: str = "cole_hopf") -> FlowTrajectory:
    """Integrate the phase LDE for ``V`` from ``V0``.

    ``cole_hopf`` evaluates the exact solution at each requested time through
    ``h = e^{d (V - c t)}`` and the heat kernel (or directly for the linear
    variant); ``euler`` time-steps the nonlinear LDE explicitly as an
    independent cross-check.  Raises :class:`OverflowGuard` when the
    transform would overflow.
    """
    if t_grid is None:
        t_grid = np.linspace(0.0, p.t_end, 51)
    ts = np.asarray(list(t_grid), dtype=float)
    if method == "euler":
        return _v_solve_euler(V0, p, ts)
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


def _v_solve_euler(V0: PhaseSequence, p: FlowParams, ts: np.ndarray) -> FlowTrajectory:
    rows = np.empty((ts.size, len(V0)))
    v = V0.replace(V0.values.copy())
    t = 0.0
    for idx, target in enumerate(ts):
        while t < target - 1e-12:
            step = min(p.dt, target - t)
            v = v.replace(v.values + step * v_rhs(v, p))
            t += step
        if not np.all(np.isfinite(v.values)):
            raise NonFinite(f"Euler integration blew up at t={t:g}")
        rows[idx] = v.values
    return FlowTrajectory(ts, rows, boundary_j=V0.boundary_j)


def v_gradient_report(traj: FlowTrajectory) -> dict:
    """Gradient-decay diagnostics along a ``V`` trajectory (norms, fitted
    constants for the ``min`` bounds, and log-log slopes)."""
    ts = traj.times
    d1 = np.empty(ts.size)
    d2n = np.empty(ts.size)
    for idx in range(ts.size):
        s = PhaseSequence(traj.values[idx], boundary_j=traj.boundary_j)
        d1[idx] = np.max(np.abs(d_plus(s)))
        d2n[idx] = np.max(np.abs(d2(s)))
    g0, l0 = d1[0], d2n[0]
    pos = ts > 0.0
    bound1 = np.minimum(g0, np.where(pos, ts, np.inf) ** -0.5)
    bound2 = np.minimum(l0, np.where(pos, ts, np.inf) ** -1.0)
    late = ts >= 1.0
    return {
        "t": ts.tolist(),
        "d_plus_norm": d1.tolist(),
        "d2_norm": d2n.tolist(),
        "monotone_bound_holds": bool(np.all(d1 <= g0 + 1e-12)),
        "K_first": float(np.max(d1[pos] / bound1[pos])) if pos.any() else math.nan,
        "K_second": float(np.max(d2n[pos] / bound2[pos])) if pos.any() else math.nan,
        "slope_first": _loglog_slope(ts[late], d1[late]),
        "slope_second": _loglog_slope(ts[late], d2n[late]),
    }


def mcf_rhs(G: PhaseSequence, p: FlowParams, *, form: str = "2d",
            A: Optional[float] = None) -> np.ndarray:
    """Right-hand side of the discrete mean curvature flow.

    ``2d`` form: ``∂⁽²⁾Γ/β² + 2dβ + c - 2d``.  ``anisotropic`` form:
    ``β(∂⁽²⁾Γ/β³ + c + A (1 - 1/β))`` with the anisotropy coefficient ``A``
    supplied externally; the two coincide when ``A = 2d - c``.
    """
    b = beta(G)
    lap = d2(G)
    if form == "2d":
        return lap / (b * b) + 2.0 * p.d * b + p.c - 2.0 * p.d
    if form == "anisotropic":
        if A is None:
            A = 2.0 * p.d - p.c
        return b * (lap / (b * b * b) + p.c + A * (1.0 - 1.0 / b))
    raise ValueError(f"unknown form {form!r}")


def mcf_solve(G0: PhaseSequence, p: FlowParams,
              t_grid: Optional[Sequence[float]] = None, *,
              form: str = "2d", A: Optional[float] = None,
              delta: float = 0.1) -> FlowTrajectory:
    """Explicit Euler integration of the discrete mean curvature flow.

    Raises :class:`FlatnessViolated` once ``sup|∂⁺Γ|`` exceeds ``delta``; the
    local comparison structure of the flow is only guaranteed for flat
    interfaces.
    """
    if t_grid is None:
        t_grid = np.linspace(0.0, p.t_end, int(p.t_end) + 1)
    ts = np.asarray(list(t_grid), dtype=float)
    if np.max(np.abs(d_plus(G0))) > delta:
        raise FlatnessViolated(
            f"initial gradient {np.max(np.abs(d_plus(G0))):.3g} exceeds delta={delta:g}")
    rows = np.empty((ts.size, len(G0)))
    g = G0.replace(G0.values.copy())
    t = 0.0
    for idx, target in enumerate(ts):
        while t < target - 1e-12:
            step = min(p.dt, target - t)
            g = g.replace(g.values + step * mcf_rhs(g, p, form=form, A=A))
            t += step
            grad = np.max(np.abs(d_plus(g)))
            if grad > delta:
                raise FlatnessViolated(
                    f"gradient {grad:.3g} exceeded delta={delta:g} at t={t:g}")
        if not np.all(np.isfinite(g.values)):
            raise NonFinite(f"curvature flow blew up at t={t:g}")
        rows[idx] = g.values
    return FlowTrajectory(ts, rows, boundary_j=G0.boundary_j)


def _pi_factors(U: PhaseSequence) -> tuple[np.ndarray, np.ndarray]:
    """``Pi_j = sqrt(1 + (U_{j+1}^2 + U_j^2)/2)`` and ``Pi_{j-1}``."""
    up = U.shifted(+1)
    um = U.shifted(-1)
    u = U.values
    pi = np.sqrt(1.0 + 0.5 * (up * up + u * u))
    pi_m = np.sqrt(1.0 + 0.5 * (u * u + um * um))
    return pi, pi_m


def gradient_lde_solve(U0: PhaseSequence, p: FlowParams,
                       t_grid: Optional[Sequence[float]] = None, *,
                       delta: float = 0.1) -> FlowTrajectory:
    """Explicit Euler integration of the LDE satisfied by ``Υ = ∂⁺Γ``:
    ``Υ̇_j = ∂⁺Υ_j/Π_j² - ∂⁻Υ_j/Π_{j-1}² + 2d(Π_j - Π_{j-1})``."""
    if t_grid is None:
        t_grid = np.linspace(0.0, p.t_end, int(p.t_end) + 1)
    ts = np.asarray(list(t_grid), dtype=float)
    if np.max(np.abs(U0.values)) > delta:
        raise FlatnessViolated(
            f"initial gradient {np.max(np.abs(U0.values)):.3g} exceeds delta={delta:g}")
    rows = np.empty((ts.size, len(U0)))
    u = U0.replace(U0.values.copy())
    t = 0.0
    for idx, target in enumerate(ts):
        while t < target - 1e-12:
            step = min(p.dt, target - t)
            pi, pi_m = _pi_factors(u)
            rhs = (d_plus(u) / (pi * pi) - d_minus(u) / (pi_m * pi_m)
                   + 2.0 * p.d * (pi - pi_m))
            u = u.replace(u.values + step * rhs)
            t += step
            if np.max(np.abs(u.values)) > delta:
                raise FlatnessViolated(
                    f"gradient {np.max(np.abs(u.values)):.3g} exceeded "
                    f"delta={delta:g} at t={t:g}")
        if not np.all(np.isfinite(u.values)):
            raise NonFinite(f"gradient flow blew up at t={t:g}")
        rows[idx] = u.values
    return FlowTrajectory(ts, rows, boundary_j=U0.boundary_j)


def kernel_to_csv(table: HeatKernelTable, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "value"])
        for k, v in zip(table.k, table.values):
            writer.writerow([int(k), format(v, ".17g")])


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
