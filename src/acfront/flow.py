"""Discrete heat kernel, the exponential heat LDE and curvature-driven flows.

The interface dynamics of a nearly flat lattice front reduce to scalar LDEs
for per-row phases.  This module provides:

* the discrete heat kernel ``G_k(t) = e^{-2t} I_k(2t)``, of unit mass by
  construction; it solves ``\\dot G = G_{k+1} + G_{k-1} - 2 G_k`` with a
  unit mass delta at ``t = 0``;
* ``heat_solve``: exact convolution of a phase sequence with the kernel, by
  direct sums over its nonzero taps;
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

from .core import PhaseSequence, _fill_ghosts, _ssprk104, _substep, deviation_seminorm
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

_MILLER_MARGIN = 16  # the Bessel ratios start this far past kmax: the last taps are exact
_TINY = np.finfo(float).tiny  # the smallest normal; heat_solve zeroes taps below it


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


def _bessel_table(kmax: int, x: float) -> np.ndarray:
    """``e^{-x} I_k(x)`` for ``|k| <= kmax``.  The ratios ``q_k = I_k / I_{k-1}
    = x / (2k + x q_{k+1})``, run back from ``q = 0`` ``_MILLER_MARGIN``
    orders past ``kmax`` (Miller's recurrence in Gautschi's ratio form), are
    at most 1, so nothing overflows, and multiply up to ``I_k / I_0``.  Unit
    mass fixes ``e^{-x} I_0``, and ``x = 0`` gives the unit delta unbranched."""
    q, r = [], 0.0
    for k in range(kmax + _MILLER_MARGIN, 0, -1):
        r = x / (2.0 * k + x * r)
        q.append(r)
    ratios = np.cumprod(q[::-1][:kmax])
    half = np.concatenate(([1.0], ratios)) / (1.0 + 2.0 * ratios.sum())
    return np.concatenate([half[:0:-1], half])


def heat_kernel(t: float) -> HeatKernelTable:
    """Kernel table ``G_k(t) = e^{-2t} I_k(2t)`` with auto-sized truncation.

    The range ``|k| <= _auto_kmax(t)`` keeps the truncated mass within 1e-12 of 1.
    """
    kmax = _auto_kmax(t)
    return HeatKernelTable(t=float(t), k=np.arange(-kmax, kmax + 1),
                           values=_bessel_table(kmax, 2.0 * t))


def heat_solve(h0: PhaseSequence, t: float) -> PhaseSequence:
    """Solution of the discrete heat LDE at time ``t``: kernel convolution.

    The P outputs are direct sums ``out[j] = sum_k G_k vals[j - k]`` over the
    kernel's nonzero taps ``|k| <= K`` (its tails past K underflow to exact
    zeros), on the sequence padded by K: wrapped for ``periodic``, mirrored
    for ``reflect`` (the even extension the edge-replicating ghost implies).
    A kernel wider than the period (P, or 2P for ``reflect``) is folded onto
    it first.  So a call costs P·min(2K + 1, period) products.  There is no
    FFT: its round-off, relative to the largest value, would swamp the
    e^{-500}-scale Cole-Hopf values.

    Taps below the smallest normal, ``tiny`` (the far tails, from t ≈ 147
    on), are set to exact zeros in place, so the tap count and positions,
    and with them the summation order, stay those of the nonzero taps, and
    no product runs in subnormal arithmetic.  Each zeroed product is below
    ``tiny·max|h0|``, so the output equals the unzeroed sum byte for byte
    wherever no output lies within 2^53 of the smallest normal on the
    data's scale (``|out_j| >= 2^53·tiny·max|h0|``): there rounding loses
    those products.  Elsewhere, as where the taps underflow to zero, an
    output far from the largest values misses their share: Cole-Hopf data
    spanning e^{±500} at t = 200 read e^{-500} from 830 cells off the e^{500}
    block on, where the exact value at 850 cells is e^{-238}.
    """
    vals = h0.values
    period, mode = ((2 * vals.size, "symmetric") if h0.boundary_j == "reflect"
                    else (vals.size, "wrap"))
    table = heat_kernel(t)
    g = table.values[table.values > 0.0]
    if g.size > period:
        g = np.bincount(np.mod(table.k, period), weights=table.values, minlength=period)
        pad = (period - 1, 0)
    else:
        pad = (g.size // 2, g.size // 2)
    g[g < _TINY] = 0.0
    return h0.replace(np.convolve(np.pad(vals, pad, mode=mode), g, "valid"))


def _loglog_slope(ts: np.ndarray, ys: np.ndarray) -> float:
    keep = ys > 0.0
    if keep.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(ts[keep]), np.log(ys[keep]), 1)[0])


def _decay_norms(rows: np.ndarray, boundary_j: str) -> tuple[np.ndarray, np.ndarray]:
    """``sup|∂⁺h|`` and ``sup|∂⁽²⁾h|`` of each row ``h`` of the (T, P) array
    ``rows`` under ``boundary_j``, in one pass over its padded copy."""
    q = np.empty((rows.shape[0], rows.shape[1] + 2))
    q[:, 1:-1] = rows
    _fill_ghosts(q, boundary_j)
    return (np.max(np.abs(q[:, 2:] - q[:, 1:-1]), axis=1),
            np.max(np.abs(q[:, 2:] - 2.0 * q[:, 1:-1] + q[:, :-2]), axis=1))


def _decay_stats(ts: np.ndarray, d1: np.ndarray, d2n: np.ndarray, g0: float, l0: float,
                 tol: float) -> dict:
    """Given the norms ``d1`` and ``d2n`` at times ``ts``: whether the first
    stays within ``g0 + tol``; the constants K of ``K min(g0, t^{-1/2})`` and
    ``K min(l0, t^{-1})`` fitted over ``t > 0``; and log-log slopes over
    ``t >= 1``."""
    pos = ts > 0.0
    late = ts >= 1.0
    bound1 = np.minimum(g0, ts[pos] ** -0.5)
    bound2 = np.minimum(l0, ts[pos] ** -1.0)
    return {
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
    estimates over ``t >= 1``.  Raises :class:`OutOfRange` for an empty ``t_grid``.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size == 0:
        raise OutOfRange("decay report needs at least one time")
    rows = np.array([heat_solve(h0, float(t)).values for t in ts]).reshape(ts.size, len(h0))
    d1, d2n = _decay_norms(rows, h0.boundary_j)
    (g0,), (l0,) = _decay_norms(h0.values[None, :], h0.boundary_j)
    return {"t": ts.tolist(), "d_plus_norm": d1.tolist(), "d2_norm": d2n.tolist(),
            "initial_gradient_norm": g0, "initial_second_norm": l0,
            **_decay_stats(ts, d1, d2n, g0, l0, 1e-14)}


def bessel_bounds_report(t_grid: Sequence[float]) -> dict:
    """Structural bounds of the scaled Bessel family used by the heat kernel.

    Checks, for each time and orders ``k <= _auto_kmax(t)``: monotonicity
    ``I_k > I_{k+1}`` in the order, the telescoping identity
    ``sum_{k in Z} |I_{k+1} - I_k| = 2 I_0`` (scaled, to 1e-10), uniform
    boundedness of ``sqrt(t) e^{-t} sum |I_{k+1} - I_k|`` and
    ``t e^{-t} sum |∂⁽²⁾I|``, and that the second difference
    ``k -> I_{k+1} - 2 I_k + I_{k-1}`` changes sign exactly once on ``k >= 0``.
    Raises :class:`OutOfRange` for an empty ``t_grid``.
    """
    if len(t_grid) == 0:
        raise OutOfRange("Bessel bounds need at least one time")
    rows = []
    floor = 1e-280
    for t in t_grid:
        t = float(t)
        kmax = _auto_kmax(t)
        full = _bessel_table(kmax, t)
        half = full[kmax:]
        lap = full[2:] - 2.0 * full[1:-1] + full[:-2]
        # strict order decay checked on the representable range; the far
        # tail underflows to exact zeros
        rep = half[:-1] > floor
        monotone = bool(np.all((half[:-1] - half[1:])[rep] > 0.0))
        telescope = float(np.abs(np.diff(full)).sum())
        telescope_err = abs(telescope - 2.0 * half[0])
        lap_pos = lap[kmax - 1:]  # the second difference on k >= 0
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


def _slope(q: np.ndarray) -> float:
    """``sup|∂⁺|`` of the padded sequence ``q``, its ghost pair included."""
    return float(np.max(np.abs(q[2:] - q[1:-1])))


def _march(y0: PhaseSequence, rhs, t_grid: Sequence[float], p: FlowParams,
           what: str, delta: float = math.inf) -> FlowTrajectory:
    """SSPRK(10,4) steps (``core._ssprk104``) from ``y0``, with ``rhs`` the
    right-hand side binder: ``rhs(q)`` binds a padded sequence ``q`` and
    returns ``f(out)``, which writes the right-hand side at ``q`` into
    ``out``.  The steps are made of forward-Euler substeps ``q[1:-1] + h
    rhs(q)`` (``core._substep``, the lattice step's too) of ``h = step / 6
    <= p.dt``, so steps at most ``6 p.dt`` long, the last before each time
    in ``t_grid`` cut short to land on it.  The stage buffers, lent to
    ``_ssprk104``, and a spare that takes the next step's result are made
    once, and so is one binding of each of the three padded buffers for the
    full-length steps, so no substep allocates and no full-length step
    binds.

    Raises :class:`FlatnessViolated` once ``sup|∂⁺y|`` exceeds ``delta``,
    initially or after any step; an infinite ``delta`` skips the check.
    Raises :class:`NonFinite`, naming ``what``, as soon as a step is not
    finite, and :class:`OutOfRange` for a non-finite, negative or decreasing
    ``t_grid``.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    if not (np.all(np.isfinite(ts)) and np.all(np.diff(ts, prepend=0.0) >= 0.0)):
        raise OutOfRange(f"{what} output times must be finite, >= 0 and nondecreasing")
    guard = delta < math.inf
    q = y0.padded()
    if guard and _slope(q) > delta:
        raise FlatnessViolated(f"initial gradient {_slope(q):.3g} exceeds delta={delta:g}")
    spare, stage, e5 = np.empty_like(q), np.empty_like(q), np.empty(len(y0))
    full = 6.0 * p.dt
    full_euler = _substep(rhs, full / 6.0)
    bound = {id(b): full_euler(b) for b in (q, spare, stage)}

    def full_step(b: np.ndarray):
        return bound[id(b)]  # the full-length substep, bound once per buffer

    rows = np.empty((ts.size, len(y0)))
    t = 0.0
    for idx, target in enumerate(ts):
        while t < target - 1e-12:
            step = min(full, target - t)
            euler = full_step if step == full else _substep(rhs, step / 6.0)
            # the result lands in ``spare``; the old state is the next spare
            q, spare = _ssprk104(q, euler, y0.boundary_j, (spare, stage, e5)), q
            t += step
            if not np.isfinite(q).all():
                raise NonFinite(f"{what} blew up at t={t:g}")
            if guard and _slope(q) > delta:
                raise FlatnessViolated(
                    f"gradient {_slope(q):.3g} exceeded delta={delta:g} at t={t:g}")
        rows[idx] = q[1:-1]
    return FlowTrajectory(ts, rows, boundary_j=y0.boundary_j)


def _fresh(kernel, s: PhaseSequence, p: FlowParams) -> np.ndarray:
    """The right-hand side of the binder ``kernel(p, n)`` at ``s``, in a
    fresh array; ``s`` is left untouched."""
    out = np.empty(len(s))
    kernel(p, len(s))(s.padded())(out)
    return out


def _v_rhs(p: FlowParams, n: int):
    """The right-hand side of the phase LDE as a binder ``rhs(q) -> f(out)``
    for padded sequences ``q`` of ``n + 2`` entries (see
    ``core._substep``): binding slices ``q``, and ``f`` writes into
    ``out``.  The exponential variant keeps its two scratch arrays, and
    their views, made here, across calls.  The constants are 0-d arrays,
    which numpy broadcasts without converting a Python float each call."""
    c, d, two = np.array(p.c), np.array(p.d), np.array(2.0)
    if p.variant == "linear_heat":
        def bind(q: np.ndarray):
            hi, mid, lo = q[2:], q[1:-1], q[:-2]

            def rhs(out: np.ndarray) -> None:
                # q[2:] - 2 q[1:-1] + q[:-2] + c
                np.multiply(mid, two, out=out)
                np.subtract(hi, out, out=out)
                out += lo
                out += c

            return rhs

        return bind
    e, r = np.empty(n + 1), np.empty(n)
    e_hi, e_lo = e[1:], e[:-1]
    least, one = np.array(5e-324), np.array(1.0)

    def bind(q: np.ndarray):
        hi, lo = q[1:], q[:-1]

        def rhs(out: np.ndarray) -> None:
            # one exponential per neighbour difference: e^{-d dV_j^-} = 1 / e^{d dV_{j-1}^+};
            # an underflowed e is raised to the least subnormal, so 1/e overflows
            # where e^{-d dV^-} did, instead of dividing by zero
            np.subtract(hi, lo, out=e)
            np.multiply(e, d, out=e)
            np.exp(e, out=e)
            np.maximum(e, least, out=e)
            # (e_j - 2 + 1 / e_{j-1}) / d + c
            np.subtract(e_hi, two, out=out)
            out += np.divide(one, e_lo, out=r)
            out /= d
            out += c

        return rhs

    return bind


def v_rhs(V: PhaseSequence, p: FlowParams) -> np.ndarray:
    """Right-hand side of the phase LDE for ``V`` (exact, no time stepping),
    in a fresh array.  It is the binder the explicit marcher steps with,
    bound and called once."""
    return _fresh(_v_rhs, V, p)


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
        return _march(V0, _v_rhs(p, len(V0)), ts, p, "explicit integration")
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
    d1, d2n = _decay_norms(traj.values, traj.boundary_j)
    return {"t": traj.times.tolist(), "d_plus_norm": d1.tolist(), "d2_norm": d2n.tolist(),
            **_decay_stats(traj.times, d1, d2n, d1[0], d2n[0], 1e-12)}


def _mcf_rhs(p: FlowParams, n: int):
    """:func:`mcf_rhs` as a binder ``rhs(q) -> f(out)`` for padded
    sequences ``q`` of ``n + 2`` entries (see ``core._substep``), on two
    scratch arrays, and their views, made here.  One difference ``dq = q[1:]
    - q[:-1]`` gives both ``∂⁺ = dq[1:]`` and ``∂⁻ = dq[:-1]``, and one
    square of it both squared gradients.  The constants are 0-d arrays, as
    in :func:`_v_rhs`."""
    dq, b = np.empty(n + 1), np.empty(n)
    dq_hi, dq_lo = dq[1:], dq[:-1]
    half, one = np.array(0.5), np.array(1.0)
    drift, offset = np.array(2.0 * p.d), np.array(p.c - 2.0 * p.d)

    def bind(q: np.ndarray):
        hi, lo = q[1:], q[:-1]

        def rhs(out: np.ndarray) -> None:
            np.subtract(hi, lo, out=dq)
            np.subtract(dq_hi, dq_lo, out=out)  # ∂⁽²⁾Γ
            np.multiply(dq, dq, out=dq)
            np.add(dq_hi, dq_lo, out=b)
            np.multiply(b, half, out=b)
            np.add(b, one, out=b)  # β²
            out /= b
            np.sqrt(b, out=b)
            np.multiply(b, drift, out=b)
            out += b
            out += offset

        return rhs

    return bind


def mcf_rhs(G: PhaseSequence, p: FlowParams) -> np.ndarray:
    """Right-hand side ``∂⁽²⁾Γ/β² + 2dβ + c - 2d`` of the discrete mean
    curvature flow, with ``β = sqrt(1 + (|∂⁺Γ|² + |∂⁻Γ|²)/2)``: curvature
    plus the direction-dependent drift ``c + 2d(β - 1)``.  A fresh array,
    from the binder that :func:`mcf_solve` steps with."""
    return _fresh(_mcf_rhs, G, p)


def mcf_solve(G0: PhaseSequence, p: FlowParams, t_grid: Sequence[float], *,
              delta: float = 0.1) -> FlowTrajectory:
    """The discrete mean curvature flow (see :func:`mcf_rhs`), marched by
    SSPRK(10,4) steps made of forward-Euler substeps (:func:`_march`).

    Raises :class:`FlatnessViolated` once ``sup|∂⁺Γ|`` exceeds ``delta``; the
    local comparison structure of the flow is only guaranteed for flat
    interfaces.  ``delta = inf`` turns the guard off; a NaN or nonpositive
    ``delta`` raises ``ValueError``.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return _march(G0, _mcf_rhs(p, len(G0)), t_grid, p, "curvature flow", delta)


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
