"""Time integration of the planar lattice Allen-Cahn equation and
sub/super-solution verification.

The scheme is explicit Euler on ``u̇ = Δ⁺u + g(u)``.  Under the step
restriction ``dt (4 + sup|g'|) <= 1`` the update is monotone in every input
value, so ordered initial fields produce ordered trajectories; the
correctness arguments for front trapping rest on that comparison property,
which is why no higher-order integrator is used.

Verification of candidate super/sub-solutions evaluates the residual
``J[u] = u̇ - Δ⁺u - g(u)`` with an analytic time derivative (no time
differencing): the planar pair trades an initial uniform offset for an
eventual phase shift, and the curved pair rides an exactly solved phase
LDE through the Cole-Hopf route, with a corrector term proportional to the
squared discrete gradient of the phase.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import flow
from .core import BistableNonlinearity, LatticeField, PhaseSequence, alpha, d_plus, discrete_laplacian
from .errors import NonFinite, SolveFailed, VerificationFailed
from .wave import WaveProfile

__all__ = [
    "SimConfig",
    "SuperSubSpec",
    "step",
    "run",
    "residual_J",
    "build_planar_supersub",
    "build_curved_supersub",
    "verify_supersub",
    "search_planar_constants",
    "save_snapshot",
    "load_snapshot",
    "SnapshotWriter",
    "read_snapshots",
    "export_row_csv",
    "export_col_csv",
]

_MAGIC = b"ACF1"
_HEADER = struct.Struct("<4sqqqd")
_SUPERSUB_TOL = 1e-6


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
        sup = self.f.dg_sup()
        if self.dt is None:
            self.dt = 0.2 / (4.0 + sup)
        if self.dt * (4.0 + sup) > 1.0 + 1e-12:
            raise ValueError(
                f"dt={self.dt:g} violates the monotone-scheme condition "
                f"dt*(4+sup|g'|) <= 1 (sup|g'|={sup:g})")
        if self.record_every is None:
            self.record_every = max(1, int(round(1.0 / self.dt)))

    @property
    def i_offset(self) -> int:
        """Lattice index of the first window column: ``-(width // 2)``."""
        return -(self.width // 2)

    def blank_field(self, fill: float = 0.0) -> LatticeField:
        return LatticeField(np.full((self.width, self.height), fill),
                            i_offset=self.i_offset, boundary_j=self.boundary_j)


def step(u: LatticeField, cfg: SimConfig) -> LatticeField:
    """One explicit Euler step ``u + dt (Δ⁺u + g(u))``."""
    vals = u.values + cfg.dt * (discrete_laplacian(u) + cfg.f(u.values))
    if not np.all(np.isfinite(vals)):
        raise NonFinite("simulation step produced non-finite values")
    return LatticeField(vals, i_offset=u.i_offset, boundary_j=u.boundary_j)


def run(u0: LatticeField, cfg: SimConfig,
        observers: Iterable[Callable[[float, LatticeField], None]] = (),
        writer: Optional["SnapshotWriter"] = None) -> list[tuple[float, LatticeField]]:
    """Integrate from ``u0`` to ``t_end``, recording every ``record_every``
    steps (the initial and final states are always included)."""
    observers = tuple(observers)
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
    snaps: list[tuple[float, LatticeField]] = []

    def emit(t: float, u: LatticeField) -> None:
        snaps.append((t, u))
        for obs in observers:
            obs(t, u)
        if writer is not None:
            writer.write(u, t)

    u = u0.copy()
    emit(0.0, u)
    for k in range(1, n_steps + 1):
        u = step(u, cfg)
        if k % cfg.record_every == 0 or k == n_steps:
            emit(k * cfg.dt, u)
    return snaps


def residual_J(snap0: tuple[float, LatticeField], snap1: tuple[float, LatticeField],
               cfg: SimConfig) -> LatticeField:
    """Forward-difference residual ``J[u] = u̇ - Δ⁺u - g(u)`` of a snapshot
    pair, with the spatial part evaluated on the earlier snapshot."""
    t0, u0 = snap0
    t1, u1 = snap1
    dt = t1 - t0
    if dt <= 0.0:
        raise ValueError("snapshots must be in increasing time order")
    vals = (u1.values - u0.values) / dt - discrete_laplacian(u0) - cfg.f(u0.values)
    return LatticeField(vals, i_offset=u0.i_offset, boundary_j=u0.boundary_j)


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
    nu: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("planar", "curved"):
            raise ValueError(f"unknown kind {self.kind!r}")
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
        t_knee = self.delta ** (-2.0 / 3.0)
        if t <= t_knee:
            return 0.0
        return -2.25 * self.M * t ** -2.5 / self.m

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


def _planar_pair(w: WaveProfile, spec: SuperSubSpec, t: float, width: int):
    """Planar pair at time ``t`` on the window of ``width`` columns from
    ``i = -(width // 2)``: ``(i_offset, u+, u-, J[u+], J[u-])``, each array
    of shape ``(width, 1)``, with the residuals analytic in time."""
    if spec.mu is None or spec.C is None:
        raise ValueError("planar spec needs mu and C (see search_planar_constants)")
    mu, C = spec.mu, spec.C
    i_offset = -(width // 2)
    decay = math.exp(-mu * t)
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


def build_planar_supersub(w: WaveProfile, spec: SuperSubSpec, t: float, *,
                          width: int = 256, height: int = 64
                          ) -> tuple[LatticeField, LatticeField]:
    """Planar super/sub-solution fields at time ``t``; the window starts at
    ``i = -(width // 2)``."""
    spec.check_offsets(w.a)
    i_offset, up, um, _, _ = _planar_pair(w, spec, t, width)
    ones = np.ones((1, height))
    return (LatticeField(up * ones, i_offset=i_offset),
            LatticeField(um * ones, i_offset=i_offset))


def _curved_pair(w: WaveProfile, spec: SuperSubSpec, V: PhaseSequence, t: float,
                 width: int):
    """Curved pair at time ``t`` with phase ``V`` on the window of ``width``
    columns centred on the mean of ``V``: ``(i_offset, u+, u-, J[u+],
    J[u-])``, with the residuals analytic in time."""
    i_offset = -(width // 2) + int(round(float(np.mean(V.values))))
    i = _window_grid(width, i_offset)
    params = flow.FlowParams(c=w.c, d=w.d)
    vdot = flow.v_rhs(V, params)
    av = alpha(V)
    av_seq = PhaseSequence(av, boundary_j=V.boundary_j)
    vdot_seq = PhaseSequence(vdot, boundary_j=V.boundary_j)
    avdot = (V.shifted(+1) - V.values) * (vdot_seq.shifted(+1) - vdot) \
        + (V.shifted(-1) - V.values) * (vdot_seq.shifted(-1) - vdot)
    p = spec.p_of(t)
    pdot = spec.p_dot(t)
    q = spec.q_of(t)
    qdot = spec.q_dot(t)
    out = []
    for sign in (+1.0, -1.0):
        arg = i - V.values[None, :] + sign * q
        r = w.r_at(arg)
        base = w.phi_at(arg) + r * av[None, :]
        u = base + sign * p
        udot = (w.phi_at(arg, 1) + w.r_at(arg, 1) * av[None, :]) \
            * (sign * qdot - vdot[None, :]) \
            + r * avdot[None, :] + sign * pdot
        lap = (w.phi_at(arg + 1.0) + w.r_at(arg + 1.0) * av[None, :]
               + w.phi_at(arg - 1.0) + w.r_at(arg - 1.0) * av[None, :]
               - 4.0 * base)
        for jshift in (+1, -1):
            argj = i - V.shifted(jshift)[None, :] + sign * q
            avj = av_seq.shifted(jshift)[None, :]
            lap += w.phi_at(argj) + w.r_at(argj) * avj
        out.append((u, udot - lap - w.f(u)))
    (up, Jp), (um, Jm) = out
    return i_offset, up, um, Jp, Jm


def build_curved_supersub(w: WaveProfile, spec: SuperSubSpec, t: float, *,
                          width: int = 128) -> tuple[LatticeField, LatticeField]:
    """Curved super/sub-solution fields at time ``t``, on a window centred on
    the phase ``V`` solved exactly from ``spec.V0`` (Cole-Hopf route)."""
    if w.r is None:
        raise SolveFailed("curved construction needs the corrector r")
    params = flow.FlowParams(c=w.c, d=w.d)
    V = flow.v_solve(spec.V0, params, t_grid=[t]).final()
    i_offset, up, um, _, _ = _curved_pair(w, spec, V, t, width)
    return (LatticeField(up, i_offset=i_offset, boundary_j=V.boundary_j),
            LatticeField(um, i_offset=i_offset, boundary_j=V.boundary_j))


def verify_supersub(spec: SuperSubSpec, w: WaveProfile, cfg: SimConfig,
                    t_grid: Sequence[float], *, width: Optional[int] = None,
                    raise_on_fail: bool = False) -> dict:
    """Check ``J[u+] >= -tol`` and ``J[u-] <= tol`` over the window and times,
    with ``tol = _SUPERSUB_TOL = 1e-6``.

    The residuals are evaluated with analytic time derivatives, so ``tol``
    only absorbs the interpolation floor of the profile splines.  Returns a
    report with the extremal residuals, their sites and the verdict; with
    ``raise_on_fail`` a failing verdict raises :class:`VerificationFailed`.
    """
    spec.check_offsets(w.a)
    if spec.kind == "planar":
        wd = width if width is not None else cfg.width
        pairs = ((float(t), *_planar_pair(w, spec, float(t), wd)) for t in t_grid)
    else:
        if w.r is None:
            raise SolveFailed("curved verification needs the corrector r")
        grad0 = float(np.max(np.abs(d_plus(spec.V0))))
        p0 = spec.p_of(0.0)
        slack = p0 - float(np.max(np.abs(w.r))) * grad0 * grad0
        nu = spec.nu if spec.nu is not None else 0.5 * p0
        if not slack > nu > 0.0:
            raise VerificationFailed(
                f"initial offset margin {slack:.3e} does not clear nu={nu:.3e}",
                value=slack)
        wd = width if width is not None else 128
        params = flow.FlowParams(c=w.c, d=w.d)
        traj = flow.v_solve(spec.V0, params, t_grid=list(t_grid))
        pairs = ((float(t), *_curved_pair(w, spec, traj.at(t), float(t), wd))
                 for t in traj.times)
    worst_plus = math.inf
    worst_minus = -math.inf
    site_plus = site_minus = None
    for t, i0, _, _, Jp, Jm in pairs:
        ip, jp = np.unravel_index(int(np.argmin(Jp)), Jp.shape)
        im, jm = np.unravel_index(int(np.argmax(Jm)), Jm.shape)
        if Jp[ip, jp] < worst_plus:
            worst_plus, site_plus = float(Jp[ip, jp]), (int(ip) + i0, int(jp), t)
        if Jm[im, jm] > worst_minus:
            worst_minus, site_minus = float(Jm[im, jm]), (int(im) + i0, int(jm), t)
    tol = _SUPERSUB_TOL
    verdict = worst_plus >= -tol and worst_minus <= tol
    report = {
        "kind": spec.kind,
        "tol": tol,
        "min_residual_super": worst_plus,
        "max_residual_sub": worst_minus,
        "site_super": site_plus,
        "site_sub": site_minus,
        "verdict": "pass" if verdict else "fail",
    }
    if raise_on_fail and not verdict:
        bad = site_plus if worst_plus < -tol else site_minus
        raise VerificationFailed(
            f"super/sub residual violated at site {bad}", site=bad,
            value=worst_plus if worst_plus < -tol else worst_minus)
    return report


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
    """Write one field: 64-byte header (magic, width, height, i_offset, t)
    followed by row-major binary64 little-endian values."""
    header = _HEADER.pack(_MAGIC, u.width, u.height, u.i_offset, float(t))
    with open(path, "wb") as fh:
        fh.write(header.ljust(64, b"\0"))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_snapshot(path: str, boundary_j: str = "periodic") -> tuple[float, LatticeField]:
    with open(path, "rb") as fh:
        raw = fh.read(64)
        magic, width, height, i_offset, t = _HEADER.unpack(raw[: _HEADER.size])
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a snapshot file")
        data = np.frombuffer(fh.read(8 * width * height), dtype="<f8")
    values = data.reshape(width, height).astype(float)
    return t, LatticeField(values, i_offset=int(i_offset), boundary_j=boundary_j)


class SnapshotWriter:
    """Persists a snapshot stream to a directory: ``snap_000000.bin``,
    ``snap_000001.bin``, ... and the NDJSON index ``snap_index.ndjson``."""

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
    base = os.path.dirname(index_path)
    out = []
    with open(index_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            t, field = load_snapshot(os.path.join(base, rec["file"]),
                                     boundary_j=rec.get("boundary_j", "periodic"))
            out.append((t, field))
    return out


def export_row_csv(u: LatticeField, j: int, path: str) -> None:
    """One row of the field (fixed ``j``) as CSV columns ``i, value``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "value"])
        for idx in range(u.width):
            writer.writerow([idx + u.i_offset, format(u.values[idx, j], ".17g")])


def export_col_csv(u: LatticeField, i: int, path: str) -> None:
    """One column of the field (fixed lattice ``i``) as CSV ``j, value``."""
    idx = i - u.i_offset
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "value"])
        for j in range(u.height):
            writer.writerow([j, format(u.values[idx, j], ".17g")])
