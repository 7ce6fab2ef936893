"""Seeded experiment pipelines, generators, and config parsing."""

import dataclasses
import hashlib
import json
import math
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfront import harness
from acfront.core import BistableNonlinearity
from acfront.errors import FlatnessViolated, H0Violated, OutOfRange, PreAsymptotic
from acfront.harness import (ExperimentSpec, default_spec, make_initial,
                             make_kappa, make_v0, parse_config, run_experiment,
                             run_thm22, run_thm23, run_thm24, run_step_kappa,
                             spec_from_config, splitmix64, splitmix64_uniform)

PERIODIC8 = {"kind": "periodic", "P": 8, "amplitude": 1.0, "offset": 0.0}


def fast_spec(name, **kw):
    base = dict(width=96, height=16, t_end=20.0, tau=10.0, kappa=dict(PERIODIC8))
    base.update(kw)
    return ExperimentSpec(name=name, **base)


def test_splitmix64_reference_vectors():
    # published reference stream for seed 0, plus a frozen seed-1 stream
    assert splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                0x06C45D188009454F]
    assert splitmix64(1, 3) == [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67,
                                0xF893A2EEFB32555E]


def splitmix64_loop(seed, n):
    """The splitmix64 stream one output at a time, on Python integers."""
    mask = (1 << 64) - 1
    x = seed & mask
    out = []
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@settings(max_examples=200)
@given(seed=st.one_of(st.integers(-2 ** 70, 2 ** 70),
                      st.sampled_from([0, 2 ** 63 + 5, 2 ** 64 - 1, -1])),
       n=st.integers(0, 1100))
def test_splitmix64_matches_loop_reference(seed, n):
    want = splitmix64_loop(seed, n)
    got = splitmix64(seed, n)
    assert got == want and all(type(v) is int for v in got)
    uniform = np.minimum(np.array([v / 2.0 ** 64 for v in want]), np.nextafter(1.0, 0.0))
    assert splitmix64_uniform(seed, n).tobytes() == uniform.tobytes()


def test_splitmix64_uniform_deterministic_unit_range():
    a = splitmix64_uniform(7, 100)
    b = splitmix64_uniform(7, 100)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))
    assert a.std() > 0.1


def test_splitmix64_uniform_stays_below_one():
    # this seed's first output is 2**64 - 1 (the preimage under the bijective
    # mixes), which divided by 2**64 rounds to exactly 1.0
    seed = 0x31628AF67B2131AB
    assert splitmix64(seed, 1) == [2 ** 64 - 1]
    assert splitmix64_uniform(seed, 1)[0] == np.nextafter(1.0, 0.0)


def test_make_kappa_generators():
    spec = fast_spec("thm22", height=8)
    j = np.arange(8)
    assert np.allclose(make_kappa(spec).values, np.sin(2.0 * np.pi * j / 8.0))

    spec.kappa = {"kind": "step", "lo": -1.0, "hi": 3.0}
    vals = make_kappa(spec).values
    assert vals.tolist() == [-1.0] * 4 + [3.0] * 4

    spec.kappa = {"kind": "random", "amplitude": 0.5, "seed": 3}
    vals = make_kappa(spec).values
    assert np.max(np.abs(vals)) <= 0.5
    assert np.array_equal(vals, make_kappa(spec).values)

    spec.kappa = {"kind": "sawtooth"}
    with pytest.raises(ValueError):
        make_kappa(spec)


def test_make_v0_generators():
    spec = fast_spec("thm22", height=8)
    assert not np.any(make_v0(spec))

    spec.v0 = {"kind": "gaussian_bump", "amp": 0.25, "width": 2.0}
    v = make_v0(spec)
    assert v.shape == (96, 8)
    assert v[48, 4] == pytest.approx(0.25, abs=1e-12)
    assert np.all(v >= 0.0) and np.max(v) == v[48, 4]

    spec.v0 = {"kind": "random_l1", "amp": 0.2, "decay": 4.0, "seed": 5}
    v = make_v0(spec)
    assert np.max(np.abs(v)) <= 0.2
    # summable tails: the far corner is exponentially damped
    assert abs(v[0, 0]) < 0.2 * np.exp(-40.0 / 4.0)


GENERATOR_KINDS = [(gen, kind) for gen, kinds in harness._GENERATORS.items() for kind in kinds]
MAKE = {"kappa": lambda spec: make_kappa(spec).values, "v0": make_v0}


@pytest.mark.parametrize("gen, kind", GENERATOR_KINDS,
                         ids=[kind for _, kind in GENERATOR_KINDS])
def test_generator_reads_exactly_its_table_row(gen, kind):
    """A kind named alone makes the same bits as its table row spelled out
    (a seed of None being the spec's), and every key of the row is read."""
    spec = fast_spec("thm22", height=8, seed=5)
    defaults = {key: spec.seed if value is None else value
                for key, value in harness._GENERATORS[gen][kind].items()}
    bare = MAKE[gen](dataclasses.replace(spec, **{gen: {"kind": kind}}))
    spelled = MAKE[gen](dataclasses.replace(spec, **{gen: {"kind": kind, **defaults}}))
    assert bare.tobytes() == spelled.tobytes()
    for key, value in defaults.items():
        moved = {"kind": kind, key: value + 1}
        assert not np.array_equal(MAKE[gen](dataclasses.replace(spec, **{gen: moved})), bare)


@pytest.mark.parametrize("gen, kind", [("kappa", "random"), ("v0", "random_l1")])
def test_generator_seed_of_zero_is_used_as_zero(gen, kind):
    spec = fast_spec("thm22", height=8, seed=5, **{gen: {"kind": kind}})
    zero = MAKE[gen](dataclasses.replace(spec, **{gen: {"kind": kind, "seed": 0}}))
    assert np.array_equal(zero, MAKE[gen](dataclasses.replace(spec, seed=0)))
    assert not np.array_equal(zero, MAKE[gen](spec))


def test_kappa_period_is_checked_whatever_the_kind():
    message = "kappa period P must be an integer >= 1, got 2.5"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentSpec(name="thm22", kappa={"kind": "step", "P": 2.5})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        spec_from_config({"name": "step", "kappa_P": "2.5"})


def test_make_initial_exact_profile_composition(wave03):
    spec = fast_spec("thm22", height=8)
    u0 = make_initial(spec, wave03)
    kappa = make_kappa(spec)
    i = u0.lattice_i().astype(float)[:, None]
    assert np.array_equal(u0.values, wave03.phi_at(i - kappa.values[None, :]))
    assert u0.i_offset == -spec.width // 2


def test_make_initial_rejects_edge_violations(wave03):
    spec = fast_spec("thm22", kappa={"kind": "periodic", "P": 8,
                                     "amplitude": 1.0, "offset": -200.0})
    with pytest.raises(H0Violated):
        make_initial(spec, wave03)
    spec.kappa["offset"] = 200.0
    with pytest.raises(H0Violated):
        make_initial(spec, wave03)


def test_spec_validation_and_hash():
    with pytest.raises(ValueError):
        ExperimentSpec(name="thm99")
    a = fast_spec("thm22")
    b = fast_spec("thm22")
    assert a.config_hash() == b.config_hash()
    b.seed = 2
    assert a.config_hash() != b.config_hash()
    assert a.tolerances["front_error"] == 0.02
    c = fast_spec("thm22", tolerances={"front_error": 0.5})
    assert c.tolerances["front_error"] == 0.5
    assert c.tolerances["tracking"] == 0.1


def test_spec_rejects_unknown_or_non_numeric_tolerances_and_fractional_period():
    with pytest.raises(ValueError, match="unknown tolerance 'frnt_error'"):
        ExperimentSpec(name="thm22", tolerances={"frnt_error": 0.01})
    for bad in ("abc", True, None):
        with pytest.raises(ValueError, match="tolerance front_error must be a number"):
            ExperimentSpec(name="thm22", tolerances={"front_error": bad})
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="tolerance tracking must be positive and finite"):
            ExperimentSpec(name="thm22", tolerances={"tracking": bad})
    for P in (2.5, 8.0, True, 0, "8"):
        with pytest.raises(ValueError, match="kappa period P must be an integer >= 1"):
            ExperimentSpec(name="thm22", kappa={"kind": "periodic", "P": P})
    for key in ("width", "height"):
        with pytest.raises(ValueError, match=f"{key} must be an integer >= 1, got True"):
            ExperimentSpec(name="thm22", **{key: True})
    spec = ExperimentSpec(name="thm22", tolerances={"front_error": 1},
                          kappa={"P": np.int64(4)})
    assert spec.tolerances["front_error"] == 1 and spec.kappa["P"] == 4


@pytest.mark.parametrize("key, value, message", [
    ("a", "0.3", "a must be real, got '0.3'"),
    ("seed", 1.5, "seed must be integral, got 1.5"),
    ("boundary_j", "reflct", "boundary_j must be one of ('periodic', 'reflect')"),
    ("dt", -0.01, "dt must be positive and finite, got -0.01"),
    ("t_end", -1.0, "t_end must be finite and >= 0, got -1.0"),
    # The id keeps this case's name from before the message named "an integer".
    pytest.param("record_every", 0, "record_every must be an integer >= 1, got 0",
                 id="record_every-0-record_every must be >= 1, got 0"),
    ("tau", math.nan, "tau must be finite and >= 0, got nan"),
    ("h", 0.3, "1/h must be an integer, got h=0.3"),
    ("L", 20.03, "L must be a multiple of h, got L=20.03, h=0.0625"),
    ("L", 1.0, "half-width L must be at least 2"),
    ("kappa", {"kind": "sawtooth"},
     "unknown kappa kind 'sawtooth'; known: ['periodic', 'step', 'random']"),
    ("v0", {"kind": "bump"},
     "unknown v0 kind 'bump'; known: ['none', 'gaussian_bump', 'random_l1']"),
    ("kappa", {"amplitude": "abc"}, "kappa amplitude must be a finite real, got 'abc'"),
    ("kappa", {"offset": math.inf}, "kappa offset must be a finite real, got inf"),
    ("kappa", {"kind": "step", "lo": None}, "kappa lo must be a finite real, got None"),
    ("kappa", {"kind": "step", "hi": True}, "kappa hi must be a finite real, got True"),
    ("kappa", {"kind": "random", "seed": True}, "kappa seed must be an integer, got True"),
    ("kappa", {"kind": "random", "seed": 2.0}, "kappa seed must be an integer, got 2.0"),
    ("v0", {"kind": "random_l1", "amp": "0.1"}, "v0 amp must be a finite real, got '0.1'"),
    ("v0", {"kind": "random_l1", "decay": 0}, "v0 decay must be a positive finite real, got 0"),
    ("v0", {"kind": "random_l1", "decay": math.inf},
     "v0 decay must be a positive finite real, got inf"),
    ("v0", {"kind": "random_l1", "seed": "7"}, "v0 seed must be an integer, got '7'"),
    ("v0", {"kind": "gaussian_bump", "width": -3.0},
     "v0 width must be a positive finite real, got -3.0"),
    ("v0", {"kind": "gaussian_bump", "center_i": math.nan},
     "v0 center_i must be a finite real, got nan"),
    ("v0", {"kind": "gaussian_bump", "center_j": "up"},
     "v0 center_j must be a finite real, got 'up'"),
])
def test_spec_checks_every_setting_when_built(key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentSpec(name="thm23", **{key: value})


@pytest.mark.parametrize("runner", [run_thm22, run_thm23, run_thm24, run_step_kappa])
@pytest.mark.parametrize("key, value, message", [
    ("dt", -1.0, "dt must be positive and finite, got -1.0"),
    ("v0", {"kind": "bump"},
     "unknown v0 kind 'bump'; known: ['none', 'gaussian_bump', 'random_l1']"),
    ("kappa", {"kind": "sawtooth"},
     "unknown kappa kind 'sawtooth'; known: ['periodic', 'step', 'random']"),
], ids=["dt", "v0_kind", "kappa_kind"])
def test_pipeline_checks_fields_assigned_after_the_spec_was_built(monkeypatch, runner, key,
                                                                  value, message):
    def no_solve(*args, **kw):
        raise AssertionError("the wave was solved")

    monkeypatch.setattr(harness, "solve_wave", no_solve)
    spec = default_spec(runner.__name__.removeprefix("run_"))
    setattr(spec, key, value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        runner(spec)


def test_pipeline_runs_a_spec_reseeded_after_it_was_built(wave03):
    """The benchmark's pattern: a built spec given a new seed and v0."""
    spec = fast_spec("thm22")
    spec.seed = 5
    spec.v0 = {"kind": "random_l1", "amp": 0.1, "decay": 4.0}
    report = run_experiment(spec, wave03)
    assert report.config["seed"] == 5 and report.config["v0"]["kind"] == "random_l1"
    assert report.config == spec.config_dict()


def test_spec_accepts_numpy_scalars_and_default_steps():
    spec = ExperimentSpec(name="thm22", a=np.float64(0.3), width=np.int64(96),
                          seed=np.int64(3), v0={"kind": "random_l1", "seed": np.int64(2),
                                                "decay": np.float64(3.0)})
    assert spec.dt is None and spec.record_every is None
    assert spec.sim_config(BistableNonlinearity(a=0.3)).record_every == 3


@pytest.mark.parametrize("spec, message", [
    (ExperimentSpec(name="thm22", a=0.45, L=12.0, t_end=10.0, tau=5.0),
     "the wave (a=0.3, L=20.0, h=0.0625) is not the spec's (a=0.45, L=12.0, h=0.0625)"),
    (ExperimentSpec(name="thm23", h=0.125),
     "the wave (a=0.3, L=20.0, h=0.0625) is not the spec's (a=0.3, L=20.0, h=0.125)"),
], ids=["a_and_L", "h"])
def test_pipeline_refuses_a_wave_that_is_not_the_specs(wave03, monkeypatch, spec, message):
    def no_run(*args, **kw):
        raise AssertionError("the lattice ran")

    monkeypatch.setattr(harness.sim, "snapshots", no_run)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(spec, wave03)


def assert_spread_bounded_by_flatness(report, t0, fl0):
    """The hand-off spread ``max γ - min γ`` is at least the flatness and, on
    a periodic column of H rows, at most H/2 steps of it."""
    (t, spread), = report.series["spread_handoff"]
    assert t == t0 and 0.0 < fl0 <= spread <= report.config["height"] / 2 * fl0


def test_thm22_fast_run_passes(wave03):
    report = run_thm22(fast_spec("thm22"), wave03)
    assert report.passed
    assert report.verdicts["front_error_final"]["value"] < 0.02
    ts = [t for t, _ in report.series["front_error"]]
    assert ts == sorted(ts) and ts[-1] >= 20.0
    assert report.provenance["config_hash"] == fast_spec("thm22").config_hash()


def test_thm23_fast_run_passes(wave03):
    report = run_thm23(fast_spec("thm23", t_end=40.0), wave03)
    assert report.passed
    assert set(report.verdicts) == {"tracking_sup", "handoff_flatness", "mcf_vs_v"}
    (t0, fl0), = report.series["flatness_handoff"]
    assert t0 >= 10.0 and fl0 < 0.1
    assert_spread_bounded_by_flatness(report, t0, fl0)


def test_thm23_tracking_is_converged_in_dt(wave03):
    """Halving dt moves ``tracking_sup`` by less than 1 % of its value, so
    the gap measures the curvature-flow model, not the time error of the
    lattice step (a first-order step moves it by half)."""
    gaps = [run_thm23(fast_spec("thm23", t_end=40.0, dt=1.0 / n, record_every=n),
                      wave03).verdicts["tracking_sup"]["value"] for n in (12, 24)]
    assert abs(gaps[0] - gaps[1]) < 0.01 * gaps[1]


def test_thm23_steep_handoff_rejected(wave03):
    spec = fast_spec("thm23", tau=0.0,
                     kappa={"kind": "periodic", "P": 4, "amplitude": 2.0,
                            "offset": 0.0})
    with pytest.raises(FlatnessViolated):
        run_thm23(spec, wave03)


def test_thm23_undefined_phase_at_handoff_rejected(wave03):
    spec = fast_spec("thm23", tau=0.0,
                     v0={"kind": "gaussian_bump", "amp": 0.6, "width": 2.0,
                         "center_i": -10.0})
    with pytest.raises(PreAsymptotic):
        run_thm23(spec, wave03)


def test_thm23_tau_after_t_end_is_preasymptotic(wave03):
    spec = default_spec("thm23")
    spec.t_end, spec.tau, spec.width, spec.height = 6.0, 20.0, 64, 8
    with pytest.raises(PreAsymptotic, match="tau=20"):
        run_thm23(spec, wave03)


def test_thm24_fast_run_passes(wave03):
    report = run_thm24(fast_spec("thm24", t_end=40.0), wave03)
    assert report.passed
    assert report.mu_hat is not None and report.mu_pred is not None
    assert abs(report.mu_hat - report.mu_pred) < 0.05
    assert report.verdicts["mu_stable"]["value"] < 0.01
    # the hand-off flatness shows whether the run tested a curved phase at all
    (t0, fl0), = report.series["flatness_handoff"]
    assert t0 == 10.0 and 0.0 < fl0 < 0.1
    assert_spread_bounded_by_flatness(report, t0, fl0)


def test_thm24_tau_after_t_end_is_preasymptotic(wave03):
    spec = default_spec("thm24")
    spec.t_end, spec.tau, spec.width, spec.height = 6.0, 20.0, 64, 8
    with pytest.raises(PreAsymptotic, match="tau=20"):
        run_thm24(spec, wave03)


def test_step_kappa_fast_run_passes(wave03):
    spec = ExperimentSpec(name="step_kappa", width=96, height=48, t_end=60.0,
                          tau=30.0, boundary_j="reflect",
                          kappa={"kind": "step", "lo": 0.0, "hi": 2.0})
    report = run_step_kappa(spec, wave03)
    assert report.passed
    assert set(report.verdicts) == {"edge_phases", "tracking_sup", "width_slope"}


def test_step_kappa_requires_reflect(wave03):
    spec = ExperimentSpec(name="step_kappa", kappa={"kind": "step"})
    with pytest.raises(ValueError):
        run_step_kappa(spec, wave03)


@pytest.mark.parametrize("runner", [run_thm22, run_thm24])
def test_pipeline_keeps_at_most_two_stepped_fields(wave03, monkeypatch, runner):
    """Each snapshot is reduced as it is made: when ``sim.snapshots`` yields
    a record, at most two of its records are alive (the new one and the
    pipeline's last snapshot)."""
    yielded, alive_at_yield = [], []
    snapshots = harness.sim.snapshots

    def counting_snapshots(u0, cfg):
        for t, u in snapshots(u0, cfg):
            yielded.append(weakref.ref(u))
            alive_at_yield.append(sum(ref() is not None for ref in yielded))
            yield t, u

    monkeypatch.setattr(harness.sim, "snapshots", counting_snapshots)
    report = runner(fast_spec(runner.__name__.removeprefix("run_"), t_end=30.0), wave03)
    assert report.passed
    assert len(yielded) == 31 and max(alive_at_yield) == 2


def _child_pids() -> set:
    """The processes whose parent is this one, zombies included."""
    me, out = os.getpid(), set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            out.add(int(entry))
    return out


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("split_min_sites", [None, 0], ids=["default", "split"])
def test_default_thm22_leaves_no_descriptor_or_child(wave03, monkeypatch, split_min_sites):
    """A default thm22 run leaves the open file descriptors and the child
    processes as they were, also with every step split with a worker."""
    if split_min_sites is not None:
        monkeypatch.setattr(harness.sim, "_SPLIT_MIN_SITES", split_min_sites)
    fds, children = sorted(os.listdir("/proc/self/fd")), _child_pids()
    assert run_thm22(default_spec("thm22"), wave03).passed
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert _child_pids() == children


def test_report_ndjson_reproducible(tmp_path, wave03):
    spec = fast_spec("thm22")
    paths = []
    for k in range(2):
        report = run_experiment(spec, wave03)
        path = tmp_path / f"rep{k}.ndjson"
        report.to_ndjson(str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with open(paths[0]) as fh:
        records = [json.loads(line) for line in fh]
    kinds = {r["record"] for r in records}
    assert kinds == {"meta", "series", "verdict"}
    meta = records[0]
    assert meta["passed"] is True
    assert meta["config"]["name"] == "thm22"


# SHA-256 of the NDJSON report of each fast spec above, with the meta
# record's provenance (package and numpy versions) removed; the same under
# any BLAS thread count, since the wave solves reach BLAS and LAPACK only
# with blocks as wide as the operators' bandwidth, which run on one thread
REPORT_DIGESTS = [
    (fast_spec("thm22"),
     "6a273fa7d5aa0d4d9f9fc80310bf2e2822a1c2899668abf32279956782f368c8"),
    (fast_spec("thm23", t_end=40.0),
     "9159b8ffa10345fce74933a68e30d451f2fae6c2c65b5ca7da4fb93de4721ff7"),
    (fast_spec("thm24", t_end=40.0),
     "7e8b36c76148fe0a4fd128f0450c802abd0fb3c0c4ec622aa81f44221cdb94f5"),
    (ExperimentSpec(name="step_kappa", width=96, height=48, t_end=60.0, tau=30.0,
                    boundary_j="reflect", kappa={"kind": "step", "lo": 0.0, "hi": 2.0}),
     "47a7e1a926aba0981ddfd5e94e802b39a6ac1ff68815b3a8532dddf768a2d957"),
]


@pytest.mark.parametrize("spec, digest", REPORT_DIGESTS,
                         ids=[spec.name for spec, _ in REPORT_DIGESTS])
def test_report_bytes_pinned(tmp_path, wave03, spec, digest):
    path = tmp_path / "report.ndjson"
    run_experiment(spec, wave03).to_ndjson(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = json.loads(lines[0])
    del meta["provenance"]
    lines[0] = json.dumps(meta)
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == digest


def test_step_kappa_with_equal_plateaus_fails_before_the_lattice_runs(wave03, monkeypatch):
    def no_run(*args, **kw):
        raise AssertionError("the lattice ran")

    monkeypatch.setattr(harness.sim, "snapshots", no_run)
    spec = ExperimentSpec(name="step_kappa", width=96, height=32, t_end=40.0, tau=20.0,
                          boundary_j="reflect", kappa={"kind": "step", "lo": 2.0, "hi": 2.0})
    with pytest.raises(ValueError, match="two distinct plateaus"):
        run_step_kappa(spec, wave03)


def test_thm22_runs_without_a_handoff(wave03):
    """thm22 never reads tau: a spec whose run ends before it is built and
    run to its verdict at t_end."""
    ExperimentSpec(name="thm22", t_end=50.0)  # the default tau is 60
    report = run_thm22(fast_spec("thm22", t_end=5.0), wave03)
    assert report.series["front_error"][-1][0] == 5.0


@pytest.mark.parametrize("name", ["thm23", "thm24", "step_kappa"])
def test_handoff_after_t_end_fails_at_spec_time(monkeypatch, name):
    """A pipeline that hands the phase at tau on refuses tau > t_end when the
    spec is built, before any solve or lattice step; tau = t_end is taken."""
    def no_run(*args, **kw):
        raise AssertionError("the lattice ran")

    monkeypatch.setattr(harness.sim, "snapshots", no_run)
    with pytest.raises(PreAsymptotic, match="^no snapshot at or after tau=20: the run ends "
                                            "at t_end=6$"):
        dataclasses.replace(default_spec(name), t_end=6.0, tau=20.0)
    assert dataclasses.replace(default_spec(name), t_end=20.0, tau=20.0).tau == 20.0


def test_exactly_the_pipelines_that_hand_off_solve_d(wave03):
    """Each pipeline run on a wave without ``d``: the wave comes back with
    ``d`` (and ``psi`` and ``r``) exactly for the names in ``_HANDOFF``,
    which the spec reads to refuse ``tau > t_end``."""
    bare = dataclasses.replace(wave03, psi=None, d=None, r=None)
    step = {"boundary_j": "reflect", "kappa": {"kind": "step", "lo": 0.0, "hi": 2.0}}
    solved = set()
    for name in harness._EXPERIMENTS:
        w = dataclasses.replace(bare)
        run_experiment(fast_spec(name, **(step if name == "step_kappa" else {})), w)
        if w.d is not None:
            assert w.d == wave03.d and np.array_equal(w.r, wave03.r)
            solved.add(name)
    assert solved == set(harness._HANDOFF) == {"thm23", "thm24", "step_kappa"}


def test_thm22_undefined_phase_at_every_snapshot_is_preasymptotic(wave03):
    """A bump that leaves the phase undefined on some rows at t = 0, in a run
    that ends there, leaves thm22 no front error to judge."""
    spec = fast_spec("thm22", width=256, t_end=0.0,
                     v0={"kind": "gaussian_bump", "amp": 0.9, "center_i": -40.0})
    with pytest.raises(PreAsymptotic, match="^phase undefined on some rows at every "
                                            "snapshot$"):
        run_thm22(spec, wave03)


def test_front_near_window_edge_is_out_of_range(wave03):
    # the front moves left at |c| ~ 0.28 and reaches ceil(L) = 20 cells from
    # the left edge of the 64-wide window near t = 40
    spec = fast_spec("thm22", width=64, height=8, t_end=50.0)
    with pytest.raises(OutOfRange, match="within 20 cells of a window edge"):
        run_thm22(spec, wave03)


def test_default_specs():
    assert default_spec("thm22").name == "thm22"
    assert default_spec("step").name == "step_kappa"
    assert default_spec("step").boundary_j == "reflect"
    assert default_spec("thm24").kappa["P"] == 8
    with pytest.raises(ValueError):
        default_spec("thm99")


def test_parse_config_lines_and_errors():
    cfg = parse_config("a = 0.3  # detuning\n\nname=thm22\nkappa_P = 8\n")
    assert cfg == {"a": "0.3", "name": "thm22", "kappa_P": "8"}
    with pytest.raises(ValueError, match="line 2"):
        parse_config("a = 0.3\nnot a pair\n")


def test_spec_from_config_round_trip():
    cfg = parse_config("""
        name = thm24
        a = 0.3
        seed = 7
        t_end = 40
        kappa_kind = periodic
        kappa_P = 8
        kappa_amplitude = 1
        v0_kind = gaussian_bump
        v0_amp = 0.25
        tol_front_error = 0.05
    """)
    spec = spec_from_config(cfg)
    assert spec.name == "thm24"
    assert spec.seed == 7
    assert spec.t_end == 40
    assert spec.kappa["P"] == 8 and spec.kappa["amplitude"] == 1
    assert spec.v0 == {"kind": "gaussian_bump", "amp": 0.25}
    assert spec.tolerances["front_error"] == 0.05


def test_spec_from_config_name_must_match_the_experiment():
    with pytest.raises(ValueError, match="config name thm22 conflicts with experiment thm24"):
        spec_from_config({"name": "thm22"}, name="thm24")
    assert spec_from_config({"name": "step_kappa"}, name="step").name == "step_kappa"
    assert spec_from_config({"name": "thm24"}, name="thm24").name == "thm24"
    assert spec_from_config({}, name="thm23").name == "thm23"


def test_spec_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        spec_from_config({"name": "thm22", "vorticity": "1"})
    with pytest.raises(ValueError, match="name"):
        spec_from_config({"a": "0.3"})


@pytest.mark.parametrize("key, value", [
    ("width", "abc"), ("height", "2.5"), ("a", "abc"), ("dt", "true"),
    ("seed", "1.5"), ("record_every", "x"), ("boundary_j", "3"), ("L", "wide"),
])
def test_spec_from_config_rejects_wrongly_typed_scalar(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be .+, got "):
        spec_from_config({"name": "thm22", key: value})


def test_spec_rejects_generator_keys_no_generator_reads():
    with pytest.raises(ValueError, match=r"unknown v0 keys: \['amplitude', 'i0'\]"):
        spec_from_config({"name": "thm22", "v0_kind": "gaussian_bump",
                          "v0_amplitude": "0.05", "v0_i0": "7"})
    with pytest.raises(ValueError, match=r"unknown kappa keys: \['period'\]"):
        ExperimentSpec(name="thm22", kappa={"kind": "periodic", "period": 4})
    # keys of another kind are read by that kind's generator, so they pass
    spec = spec_from_config({"name": "thm22", "kappa_kind": "step", "kappa_lo": "1"})
    assert spec.kappa["P"] == 8 and spec.kappa["lo"] == 1


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("Example:\n\n```\n", 1)[1].split("```", 1)[0]
    spec = spec_from_config(parse_config(example))
    assert spec.name == "thm24" and spec.seed == 7
    assert spec.v0 == {"kind": "gaussian_bump", "amp": 0.3}
