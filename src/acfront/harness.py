"""Experiment pipelines, initial-condition generators, configuration and
reporting.

Each experiment assembles the other modules into one verdict-producing run:
``thm22`` checks front convergence in sup norm, ``thm23`` hands the
extracted phase to the discrete curvature flow and tracks the gap,
``thm24`` fits the limiting phase offset of a periodically modulated front
and compares it with the averaging prediction, and ``step_kappa`` follows a
step-shaped phase whose transition zone spreads diffusively.

Randomness is provided by an explicit splitmix64 stream so reports are
reproducible bit for bit from (config, seed).  Reference outputs: seed 0
gives ``0xE220A8397B1DCDAF``, ``0x6E789E6AA1B965F4``, ``0x06C45D188009454F``;
seed 1 gives ``0x910A2DEC89025CC1``, ``0xBEEB8DA1658EEC67``,
``0xF893A2EEFB32555E``.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__ as _pkg_version
from . import flow, phase, sim
from .core import BistableNonlinearity, LatticeField, PhaseSequence
from .errors import FlatnessViolated, H0Violated, OutOfRange, PreAsymptotic
from .wave import WaveProfile, _check_grid, solve_r, solve_wave

__all__ = [
    "ExperimentSpec",
    "ExperimentReport",
    "splitmix64",
    "splitmix64_uniform",
    "make_kappa",
    "make_v0",
    "make_initial",
    "run_thm22",
    "run_thm23",
    "run_thm24",
    "run_step_kappa",
    "run_experiment",
    "default_spec",
    "parse_config",
    "spec_from_config",
]

_MASK = (1 << 64) - 1


def _splitmix64_array(seed: int, n: int) -> np.ndarray:
    """First ``n`` outputs of the splitmix64 stream for ``seed``, as uint64, in
    one pass: state ``x_k = seed + k * 0x9E3779B97F4A7C15`` (mod 2^64,
    ``k = 1..n``), then the two multiply-xorshift mixes."""
    u64 = np.uint64
    x = u64(seed & _MASK) + np.arange(1, n + 1, dtype=u64) * u64(0x9E3779B97F4A7C15)
    z = (x ^ (x >> u64(30))) * u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    return z ^ (z >> u64(31))


def splitmix64(seed: int, n: int) -> list[int]:
    """First ``n`` outputs of the splitmix64 stream for ``seed``, as Python ints."""
    return _splitmix64_array(seed, n).tolist()


def splitmix64_uniform(seed: int, n: int) -> np.ndarray:
    """``n`` doubles in [0, 1) from the splitmix64 stream."""
    # v / 2**64 rounds up to 1.0 for v >= 2**64 - 2**10
    return np.minimum(_splitmix64_array(seed, n) / 2.0 ** 64, np.nextafter(1.0, 0.0))


# the kinds each generator makes, the default first, each with the keys it
# reads and their defaults; a seed of None is the spec's seed
_GENERATORS = {
    "kappa": {"periodic": {"P": 8, "amplitude": 2.0, "offset": 0.0},
              "step": {"lo": 0.0, "hi": 4.0, "offset": 0.0},
              "random": {"amplitude": 1.0, "offset": 0.0, "seed": None}},
    "v0": {"none": {},
           "gaussian_bump": {"amp": 0.5, "width": 3.0, "center_i": 0.0, "center_j": 0.0},
           "random_l1": {"amp": 0.5, "decay": 4.0, "center_i": 0.0, "center_j": 0.0,
                         "seed": None}},
}

# what a kappa or v0 value must be: (wording, type, exclusive lower bound), each
# below inf; a finite real unless listed (kind is checked apart)
_FINITE_REAL = ("a finite real", numbers.Real, -math.inf)
_GENERATOR_VALUES = {"P": ("an integer >= 1", numbers.Integral, 0),
                     "seed": ("an integer", numbers.Integral, -math.inf),
                     "width": ("a positive finite real", numbers.Real, 0.0),
                     "decay": ("a positive finite real", numbers.Real, 0.0)}

# the scalar spec fields a config may set, with the type each must have
_SCALAR_KEYS = {"a": numbers.Real, "width": numbers.Integral, "height": numbers.Integral,
                "dt": numbers.Real, "t_end": numbers.Real, "tau": numbers.Real,
                "record_every": numbers.Integral, "boundary_j": str,
                "seed": numbers.Integral, "L": numbers.Real, "h": numbers.Real}

# the verdict criteria and their default tolerances
_TOLERANCES = {"front_error": 0.02, "tracking": 0.1, "mu_stable": 0.01, "mu_pred": 0.05,
               "edge_phase": 0.1, "flatness_handoff": 0.1, "mcf_delta": 0.2}


@dataclass
class ExperimentSpec:
    """Complete description of one experiment run."""

    name: str
    a: float = 0.3
    width: int = 256
    height: int = 64
    dt: Optional[float] = None
    t_end: float = 150.0
    tau: float = 60.0
    record_every: Optional[int] = None
    boundary_j: str = "periodic"
    seed: int = 1
    kappa: dict = field(default_factory=lambda: {"kind": "periodic",
                                                 **_GENERATORS["kappa"]["periodic"]})
    v0: dict = field(default_factory=lambda: {"kind": "none"})
    tolerances: dict = field(default_factory=dict)
    L: float = 20.0
    h: float = 0.0625

    def __post_init__(self):
        if self.name not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment name {self.name!r}")
        for key, value in self.tolerances.items():
            if key not in _TOLERANCES:
                raise ValueError(f"unknown tolerance {key!r}; known: {sorted(_TOLERANCES)}")
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"tolerance {key} must be a number, got {value!r}")
            if not 0.0 < value < math.inf:
                raise ValueError(f"tolerance {key} must be positive and finite, got {value}")
        self.tolerances = {**_TOLERANCES, **self.tolerances}
        for gen, kinds in _GENERATORS.items():
            # any kind's keys: spec_from_config layers them over the default kind's
            unknown = sorted(set(getattr(self, gen)) - {"kind"}.union(*kinds.values()))
            if unknown:
                raise ValueError(f"unknown {gen} keys: {unknown}")
            _generator(gen, self)
            for key, value in getattr(self, gen).items():
                want, kind, low = _GENERATOR_VALUES.get(key, _FINITE_REAL)
                if key != "kind" and (isinstance(value, bool) or not isinstance(value, kind)
                                      or not low < value < math.inf):
                    name = "period P" if key == "P" else key
                    raise ValueError(f"{gen} {name} must be {want}, got {value!r}")
        for key, kind in _SCALAR_KEYS.items():
            value = getattr(self, key)
            # SimConfig checks the window sizes and fills a dt or record_every of None
            if key in ("width", "height") or (value is None and key in ("dt", "record_every")):
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{key} must be {kind.__name__.lower()}, got {value!r}")
        if not 0.0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        _check_grid(self.L, self.h)
        self.sim_config(BistableNonlinearity(a=self.a))  # checks a and the lattice run
        if self.name in _HANDOFF and self.tau > self.t_end:
            raise PreAsymptotic(f"no snapshot at or after tau={self.tau:g}: the run ends "
                                f"at t_end={self.t_end:g}")

    def config_dict(self) -> dict:
        return asdict(self)

    def sim_config(self, f: BistableNonlinearity) -> sim.SimConfig:
        """The lattice run this spec describes, for the nonlinearity ``f``."""
        return sim.SimConfig(f, dt=self.dt, t_end=self.t_end,
                             record_every=self.record_every, width=self.width,
                             height=self.height, boundary_j=self.boundary_j)

    def config_hash(self) -> str:
        canon = json.dumps(self.config_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class ExperimentReport:
    """Metric series, verdicts with their tolerances, and provenance."""

    name: str
    config: dict
    series: dict
    verdicts: dict
    mu_hat: Optional[float] = None
    mu_pred: Optional[float] = None
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts.values())

    def to_ndjson(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            meta = {"record": "meta", "name": self.name, "config": self.config,
                    "mu_hat": self.mu_hat, "mu_pred": self.mu_pred,
                    "provenance": self.provenance, "passed": self.passed}
            fh.write(json.dumps(meta) + "\n")
            for key, rows in self.series.items():
                for t, value in rows:
                    fh.write(json.dumps({"record": "series", "metric": key,
                                         "t": t, "value": value}) + "\n")
            for key, v in self.verdicts.items():
                fh.write(json.dumps({"record": "verdict", "criterion": key, **v}) + "\n")


def _verdict(value: float, tolerance: float) -> dict:
    return {"value": value, "tolerance": tolerance, "pass": bool(value < tolerance)}


# ---------------------------------------------------------------------------
# initial data generators


def _generator(gen: str, spec: ExperimentSpec) -> tuple[str, dict]:
    """The kind of generator ``gen`` that ``spec`` asks for (the default without
    a ``kind`` key) and ``spec``'s keys over that kind's defaults, where a default
    of None is the spec's seed; ``ValueError`` for a kind ``gen`` does not make."""
    cfg = getattr(spec, gen)
    kinds = _GENERATORS[gen]
    kind = cfg.get("kind", next(iter(kinds)))
    if kind not in kinds:
        raise ValueError(f"unknown {gen} kind {kind!r}; known: {list(kinds)}")
    defaults = {key: spec.seed if v is None else v for key, v in kinds[kind].items()}
    return kind, {**defaults, **cfg}


def make_kappa(spec: ExperimentSpec) -> PhaseSequence:
    """Initial phase modulation sequence from the configured generator."""
    kind, p = _generator("kappa", spec)
    j = np.arange(spec.height)
    if kind == "periodic":
        vals = float(p["amplitude"]) * np.sin(2.0 * np.pi * j / int(p["P"]))
    elif kind == "step":
        vals = np.where(j < spec.height // 2, float(p["lo"]), float(p["hi"]))
    else:  # random
        noise = 2.0 * splitmix64_uniform(int(p["seed"]), spec.height) - 1.0
        vals = float(p["amplitude"]) * noise
    return PhaseSequence(vals + float(p["offset"]), boundary_j=spec.boundary_j)


def make_v0(spec: ExperimentSpec) -> np.ndarray:
    """Localized perturbation v0 on the window (zero, bump, or summable noise)."""
    kind, p = _generator("v0", spec)
    shape = (spec.width, spec.height)
    if kind == "none":
        return np.zeros(shape)
    i = (np.arange(spec.width) + sim._window_origin(spec.width)).astype(float)[:, None]
    j = (np.arange(spec.height) - spec.height // 2).astype(float)[None, :]
    ci, cj = float(p["center_i"]), float(p["center_j"])
    amp = float(p["amp"])
    if kind == "gaussian_bump":
        width = float(p["width"])
        return amp * np.exp(-((i - ci) ** 2 + (j - cj) ** 2) / (2.0 * width * width))
    # random_l1
    noise = 2.0 * splitmix64_uniform(int(p["seed"]), spec.width * spec.height) - 1.0
    envelope = np.exp(-(np.abs(i - ci) + np.abs(j - cj)) / float(p["decay"]))
    return amp * noise.reshape(shape) * envelope


def make_initial(spec: ExperimentSpec, w: WaveProfile) -> LatticeField:
    """Front-like initial data ``u0 = Phi(i - kappa_j) + v0``.

    The bistability side condition (values near the left window edge staying
    strictly below ``a``, near the right edge strictly above) is checked on
    the first and last five columns as a finite-window proxy for the
    infinite-lattice limits.
    """
    kappa = make_kappa(spec)
    i_offset = sim._window_origin(spec.width)
    i = (np.arange(spec.width) + i_offset).astype(float)[:, None]
    vals = w.phi_at(i - kappa.values[None, :]) + make_v0(spec)
    edge = 5
    left = float(np.max(vals[:edge, :]))
    right = float(np.min(vals[-edge:, :]))
    if left >= w.a:
        raise H0Violated(f"left-edge value {left:.6g} is not below a={w.a:g}")
    if right <= w.a:
        raise H0Violated(f"right-edge value {right:.6g} is not above a={w.a:g}")
    return LatticeField(vals, i_offset=i_offset, boundary_j=spec.boundary_j)


# ---------------------------------------------------------------------------
# pipelines


def _report(spec: ExperimentSpec, series: dict, verdicts: dict, **kw) -> ExperimentReport:
    """The report of ``spec``: its config, ``series`` and ``verdicts`` (``kw``
    sets ``mu_hat``/``mu_pred``) and the provenance of the run."""
    provenance = {"config_hash": spec.config_hash(), "package_version": _pkg_version,
                  "numpy_version": np.__version__}
    return ExperimentReport(name=spec.name, config=spec.config_dict(), series=series,
                            verdicts=verdicts, provenance=provenance, **kw)


def _pipeline(runner):
    """``runner`` on its spec built anew (``__post_init__`` is idempotent),
    so a field assigned after construction is checked before any solve."""
    @functools.wraps(runner)
    def checked(spec: ExperimentSpec, w: Optional[WaveProfile] = None) -> ExperimentReport:
        return runner(replace(spec), w)
    return checked


def _trajectory(spec: ExperimentSpec, w: Optional[WaveProfile],
                observe: Optional[Callable[..., None]] = None):
    """Solve the wave unless given (for a spec in ``_HANDOFF``, also its
    missing ``d`` and ``r``), run the lattice from :func:`make_initial` and
    reduce each snapshot as it is made: its phase, and whatever ``observe(w,
    t, u, g)`` keeps.  Returns ``(w, [(t, PhaseExtract), ...], u_end, k0)``,
    ``k0`` the :func:`_handoff` index in ``_HANDOFF`` and None else: no field
    but the last outlives the run.  A given wave must be the spec's own
    (``a``, ``L``, ``h``).

    The run stops with :class:`OutOfRange` as soon as a defined row's anchor
    comes within ``ceil(L)`` cells of either i-edge, so the window always
    holds the resolved profile.
    """
    hands_off = spec.name in _HANDOFF
    if w is None:
        w = solve_wave(BistableNonlinearity(a=spec.a), L=spec.L, h=spec.h)
    elif (w.a, w.L, w.h) != (spec.a, spec.L, spec.h):
        raise ValueError(f"the wave (a={w.a}, L={w.L}, h={w.h}) is not the "
                         f"spec's (a={spec.a}, L={spec.L}, h={spec.h})")
    if hands_off and w.d is None:
        solve_r(w)
    margin = math.ceil(spec.L)
    traj = []
    for t, u in sim.snapshots(make_initial(spec, w), spec.sim_config(w.f)):
        g = phase.extract(u, w)
        k = g.i_star[g.defined_mask] - u.i_offset
        if k.size and min(k.min(), u.width - 2 - k.max()) < margin:
            raise OutOfRange(f"front anchor within {margin} cells of a window edge "
                             f"at t={t:g}")
        if observe is not None:
            observe(w, t, u, g)
        traj.append((t, g))
    return w, traj, u, _handoff(spec, traj) if hands_off else None


def _handoff(spec: ExperimentSpec, traj) -> int:
    """Index of the hand-off snapshot, the first at ``t >= tau``; its phase
    must be defined on every row, else :class:`PreAsymptotic`.  The spec
    has refused ``tau > t_end``, so only a ``tau`` within rounding of the
    last step can find none."""
    k0 = next((k for k, (t, _) in enumerate(traj) if t >= spec.tau), None)
    if k0 is None:
        raise PreAsymptotic(f"no snapshot at or after tau={spec.tau:g}")
    t0, g0 = traj[k0]
    if not g0.all_defined:
        raise PreAsymptotic(f"phase undefined on some rows at tau={t0:g}")
    return k0


def _track_mcf(w: WaveProfile, traj, k0: int, **kw):
    """Curvature flow from the phase at ``traj[k0]`` over the later
    snapshot times (``kw`` goes to :func:`flow.mcf_solve`), its parameters,
    and its sup gap to every later phase defined on every row."""
    t0, g0 = traj[k0]
    params = flow.FlowParams(c=w.c, d=w.d)
    mcf = flow.mcf_solve(g0.gamma, params, t_grid=[t - t0 for t, _ in traj[k0:]], **kw)
    gap_series = [(t, float(np.max(np.abs(g.gamma.values - mcf.values[k]))))
                  for k, (t, g) in enumerate(traj[k0:]) if g.all_defined]
    return mcf, params, gap_series


@_pipeline
def run_thm22(spec: ExperimentSpec, w: Optional[WaveProfile] = None) -> ExperimentReport:
    """Front convergence: sup distance to the fitted profile falls below
    tolerance by ``t_end``."""
    fe_series = []

    def front_error(w: WaveProfile, t: float, u: LatticeField, g: phase.PhaseExtract):
        if g.all_defined:
            fe_series.append((t, phase.front_error(u, w, g)))

    _, traj, _, _ = _trajectory(spec, w, observe=front_error)
    if not fe_series:
        raise PreAsymptotic("phase undefined on some rows at every snapshot")
    fl_series = [(t, phase.flatness(g)) for t, g in traj if g.all_defined]
    final = fe_series[-1][1]
    return _report(spec, {"front_error": fe_series, "flatness": fl_series},
                   {"front_error_final": _verdict(final, spec.tolerances["front_error"])})


@_pipeline
def run_thm23(spec: ExperimentSpec, w: Optional[WaveProfile] = None) -> ExperimentReport:
    """Curvature-flow tracking: hand the extracted phase at ``tau`` to the
    discrete curvature flow and bound the gap up to ``t_end``."""
    w, traj, _, k0 = _trajectory(spec, w)
    handoff_tol = spec.tolerances["flatness_handoff"]
    t0, g0 = traj[k0]
    fl0 = phase.flatness(g0)
    if fl0 > handoff_tol:
        raise FlatnessViolated(
            f"flatness {fl0:.4f} at hand-off t={t0:g} exceeds {handoff_tol:g}")
    mcf, params, gap_series = _track_mcf(w, traj, k0)
    vtr = flow.v_solve(g0.gamma, params, t_grid=mcf.times)
    v_gap_series = [(t, float(np.max(np.abs(mcf.values[k] - vtr.values[k]))))
                    for k, (t, g) in enumerate(traj[k0:]) if g.all_defined]
    sup_gap = max(v for _, v in gap_series)
    sup_v_gap = max(v for _, v in v_gap_series)
    tol = spec.tolerances["tracking"]
    return _report(spec, {"mcf_gap": gap_series, "mcf_v_gap": v_gap_series,
                          "flatness_handoff": [(t0, fl0)],
                          "spread_handoff": [(t0, float(np.ptp(g0.gamma.values)))]},
                   {"tracking_sup": _verdict(sup_gap, tol),
                    "handoff_flatness": _verdict(fl0, handoff_tol),
                    "mcf_vs_v": _verdict(sup_v_gap, tol)})


def _mu_prediction(w: WaveProfile, g: phase.PhaseExtract, tau: float) -> float:
    """Averaging prediction for the limiting offset from the phase at the
    hand-off time: ``(1/d) log mean_j exp(d (gamma_j - c tau))``."""
    rel = g.gamma.values - w.c * tau
    return float(np.log(np.mean(np.exp(w.d * rel))) / w.d)


@_pipeline
def run_thm24(spec: ExperimentSpec, w: Optional[WaveProfile] = None) -> ExperimentReport:
    """Limiting offset of a periodically modulated front: fit ``mu`` from
    late snapshots, check stability, the final profile fit, and the
    averaging prediction."""
    w, traj, u_end, k0 = _trajectory(spec, w)
    mu_series = [(t, float(np.mean(g.gamma.values)) - w.c * t)
                 for t, g in traj if g.all_defined]
    n = len(mu_series)
    tail10 = [v for _, v in mu_series[max(0, n - max(1, n // 10)):]]
    tail20 = [v for _, v in mu_series[max(0, n - max(1, n // 5)):]]
    mu_hat = float(np.mean(tail10))
    mu_spread = float(max(tail20) - min(tail20))
    t_end = traj[-1][0]
    i = u_end.lattice_i().astype(float)[:, None]
    final_err = float(np.max(np.abs(u_end.values - w.phi_at(i - w.c * t_end - mu_hat))))
    t_tau, g_tau = traj[k0]
    mu_pred = _mu_prediction(w, g_tau, t_tau)
    tols = spec.tolerances
    return _report(spec, {"mu_of_t": mu_series,
                          "flatness_handoff": [(t_tau, phase.flatness(g_tau))],
                          "spread_handoff": [(t_tau, float(np.ptp(g_tau.gamma.values)))]},
                   {"mu_stable": _verdict(mu_spread, tols["mu_stable"]),
                    "final_profile_error": _verdict(final_err, tols["front_error"]),
                    "mu_vs_prediction": _verdict(abs(mu_hat - mu_pred), tols["mu_pred"])},
                   mu_hat=mu_hat, mu_pred=mu_pred)


@_pipeline
def run_step_kappa(spec: ExperimentSpec, w: Optional[WaveProfile] = None) -> ExperimentReport:
    """Step-shaped phase: edge rows settle at the two plateau offsets while
    the transition zone is tracked by the curvature flow and spreads like
    ``sqrt(t)`` in the diffusive phase proxy."""
    if spec.boundary_j != "reflect":
        raise ValueError("step_kappa needs the reflect j-boundary")
    kappa = make_kappa(spec)
    lo = float(kappa.values[0])
    hi = float(kappa.values[-1])
    if lo == hi:
        raise ValueError(f"step_kappa needs two distinct plateaus, got both at {lo:g}")
    w, traj, _, k0 = _trajectory(spec, w)
    t_end, g_end = traj[-1]
    if not g_end.all_defined:
        raise PreAsymptotic("phase undefined on some rows at t_end")
    rows = 3
    drift = w.c * t_end
    edge_lo = float(np.mean(g_end.gamma.values[:rows])) - drift
    edge_hi = float(np.mean(g_end.gamma.values[-rows:])) - drift
    edge_err = max(abs(edge_lo - lo), abs(edge_hi - hi))

    # curvature-flow tracking of the transition zone from the hand-off time
    # the step transition hands off with a mild but not tiny slope, so the
    # curvature-flow flatness guard gets the wider experiment-level bound
    _, params, gap_series = _track_mcf(w, traj, k0, delta=spec.tolerances["mcf_delta"])
    sup_gap = max(v for _, v in gap_series)

    # diffusive spreading of the transition zone, measured on the phase LDE
    # proxy over a long window so late times stay uncontaminated by edges
    proxy0 = PhaseSequence(np.repeat([lo, hi], 256), boundary_j="reflect")  # 512 rows
    t_probe = np.geomspace(10.0, 1000.0, 13)
    proxy = flow.v_solve(proxy0, params, t_grid=t_probe)
    # the rows rise monotonically, so the 10-90 % width is a difference of counts
    rel = (proxy.values - proxy.values[:, :1]) / (proxy.values[:, -1:] - proxy.values[:, :1])
    widths = (np.count_nonzero(rel < 0.9, axis=1)
              - np.count_nonzero(rel < 0.1, axis=1)).astype(float).tolist()
    slope = float(np.polyfit(np.log(t_probe), np.log(widths), 1)[0])

    tols = spec.tolerances
    return _report(spec, {"mcf_gap": gap_series,
                          "proxy_width": list(zip(t_probe.tolist(), widths))},
                   {"edge_phases": _verdict(edge_err, tols["edge_phase"]),
                    "tracking_sup": _verdict(sup_gap, tols["tracking"]),
                    "width_slope": _verdict(abs(slope - 0.5), 0.1)})


# every experiment: its runner and the fields of its default spec
_EXPERIMENTS = {
    "thm22": (run_thm22, {"t_end": 150.0}),
    "thm23": (run_thm23, {"t_end": 200.0, "tau": 60.0}),
    "thm24": (run_thm24, {"t_end": 150.0, "tau": 30.0,
                          "kappa": {"kind": "periodic", **_GENERATORS["kappa"]["periodic"],
                                    "amplitude": 1.0}}),
    "step_kappa": (run_step_kappa, {"t_end": 150.0, "tau": 60.0, "height": 128,
                                    "boundary_j": "reflect",
                                    "kappa": {"kind": "step", **_GENERATORS["kappa"]["step"]}}),
}
_ALIASES = {"step": "step_kappa"}
# the experiments that hand the phase at tau on (so need tau <= t_end):
# ``_trajectory`` solves their ``d`` and finds the hand-off
_HANDOFF = ("thm23", "thm24", "step_kappa")


def run_experiment(spec: ExperimentSpec, w: Optional[WaveProfile] = None) -> ExperimentReport:
    return _EXPERIMENTS[spec.name][0](spec, w)


def default_spec(name: str) -> ExperimentSpec:
    """Built-in experiment parameters reproducing the headline checks."""
    name = _ALIASES.get(name, name)
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment name {name!r}; known: {list(_EXPERIMENTS)}")
    return ExperimentSpec(name=name, **copy.deepcopy(_EXPERIMENTS[name][1]))


# ---------------------------------------------------------------------------
# configuration files: flat key=value text, # comments


def parse_config(text: str) -> dict:
    """Parse flat ``key=value`` lines (UTF-8, ``#`` comments) to a dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(value: str):
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


def spec_from_config(cfg: dict, name: Optional[str] = None) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from a flat config dict.

    Scalar spec fields map directly (``a``, ``width``, ``height``, ``dt``,
    ``t_end``, ``tau``, ``seed``, ``boundary_j``, ``L``, ``h``,
    ``record_every``); generator fields use prefixes ``kappa_*`` and
    ``v0_*``; tolerance overrides use ``tol_<criterion>``.  An unknown key,
    or a config ``name`` naming another experiment than ``name`` (aliases
    resolved), is a ``ValueError``; the spec checks every value as it is
    built.
    """
    values = {k: _coerce(v) for k, v in cfg.items()}
    given = values.pop("name", None)
    if name is None and given is None:
        raise ValueError(f"config must set name= ({'|'.join(_EXPERIMENTS)})")
    spec = default_spec(str(name or given))
    if given is not None and _ALIASES.get(str(given), str(given)) != spec.name:
        raise ValueError(f"config name {given} conflicts with experiment {name}")
    scalars = {key: values.pop(key) for key in _SCALAR_KEYS if key in values}
    nested = {"kappa": dict(spec.kappa), "v0": dict(spec.v0),
              "tolerances": dict(spec.tolerances)}
    for key in list(values):
        for prefix, target in (("kappa_", "kappa"), ("v0_", "v0"), ("tol_", "tolerances")):
            if key.startswith(prefix):
                nested[target][key[len(prefix):]] = values.pop(key)
    if values:
        raise ValueError(f"unknown config keys: {sorted(values)}")
    return replace(spec, **scalars, **nested)
