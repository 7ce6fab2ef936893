"""End-to-end exercises of the acfront command line (in process)."""

import json

import numpy as np
import pytest

from acfront import cli, harness, sim
from acfront.cli import main
from acfront.flow import FlowParams, mcf_solve
from acfront.phase import extract, flatness
from acfront.sim import read_snapshots
from acfront.wave import load_wave

FAST_CONFIG = """\
name = thm22
width = 96
height = 16
t_end = 2.0
kappa_kind = periodic
kappa_P = 8
kappa_amplitude = 1.0
"""


@pytest.fixture(scope="module")
def wave_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "wave.ndjson"
    assert main(["wave", "--a", "0.3", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_sim")
    cfg = root / "run.cfg"
    cfg.write_text(FAST_CONFIG)
    out = root / "snaps"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_wave_prints_speed_and_writes_profile(wave_file, capsys):
    assert main(["wave", "--a", "0.3"]) == 0
    line = capsys.readouterr().out
    assert "c=-0.279590404" in line and "sup-residual=" in line
    w = load_wave(wave_file)
    assert w.c == pytest.approx(-0.279590404792108, abs=1e-12)
    assert w.d is not None


def test_simulate_writes_indexed_snapshots(snapshot_dir):
    lines = (snapshot_dir / "snap_index.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) >= 3
    assert records[0]["file"] == "snap_000000.bin"
    assert records[0]["boundary_j"] == "periodic"
    assert (snapshot_dir / "snap_000000.bin").exists()


def test_phase_reports_defined_rows(snapshot_dir, wave_file, tmp_path, capsys):
    snap = str(snapshot_dir / "snap_000000.bin")
    out = tmp_path / "phase.csv"
    assert main(["phase", "--snapshot", snap, "--wave", wave_file,
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "defined_rows=16/16" in text
    assert "front_error=" in text and "flatness=" in text
    assert out.read_text().count("\n") >= 2


def test_phase_reads_boundary_from_snapshot(wave_file, tmp_path, capsys):
    cfg = tmp_path / "reflect.cfg"
    cfg.write_text(FAST_CONFIG.replace("t_end = 2.0", "t_end = 4.0")
                   + "boundary_j = reflect\n")
    out = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    t, u = read_snapshots(str(out / "snap_index.ndjson"))[4]
    assert (t, u.boundary_j) == (4.0, "reflect")
    expected = flatness(extract(u, load_wave(wave_file)))
    capsys.readouterr()
    assert main(["phase", "--snapshot", str(out / "snap_000004.bin"),
                 "--wave", wave_file]) == 0
    assert f"flatness={expected:.6g}\n" in capsys.readouterr().out


def test_phase_rejects_old_snapshot_format(snapshot_dir, wave_file, tmp_path, capsys):
    old = tmp_path / "old.bin"
    old.write_bytes(b"ACF1" + (snapshot_dir / "snap_000000.bin").read_bytes()[4:])
    assert main(["phase", "--snapshot", str(old), "--wave", wave_file]) == 2
    assert "ACF1 snapshot" in capsys.readouterr().err


def test_phase_truncated_snapshot_is_usage_error(snapshot_dir, wave_file, tmp_path, capsys):
    short = tmp_path / "short.bin"
    short.write_bytes((snapshot_dir / "snap_000000.bin").read_bytes()[:-1])
    assert main(["phase", "--snapshot", str(short), "--wave", wave_file]) == 2
    assert "the file has 12287" in capsys.readouterr().err


def test_phase_missing_snapshot_is_usage_error(wave_file, capsys):
    assert main(["phase", "--snapshot", "/nonexistent.bin",
                 "--wave", wave_file]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("name = thm22\nnot a pair\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_experiment_unread_generator_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CONFIG + "v0_kind = gaussian_bump\nv0_amplitude = 0.05\n")
    assert main(["experiment", "thm22", "--config", str(cfg)]) == 2
    assert "unknown v0 keys: ['amplitude']" in capsys.readouterr().err


def test_heat_reports(tmp_path, capsys):
    assert main(["heat", "--report", "bessel"]) == 0
    assert "single_sign_change=True" in capsys.readouterr().out
    out = tmp_path / "decay.ndjson"
    assert main(["heat", "--report", "decay", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "slope_first=-0.5" in text and "monotone_bound=True" in text
    record = json.loads(out.read_text().splitlines()[0])
    assert "slope_first" in record


def _write_gamma(path, values):
    path.write_text("gamma\n" + "\n".join(f"{float(v)!r}" for v in values) + "\n")


def test_mcf_from_csv_with_explicit_params(tmp_path, capsys):
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, 0.1 * np.sin(2.0 * np.pi * np.arange(32) / 32.0))
    out = tmp_path / "traj.csv"
    code = main(["mcf", "--init", str(init), "--c", "-0.2796", "--d", "-0.1466",
                 "--t-end", "10", "--samples", "11", "--out", str(out)])
    assert code == 0
    assert "trajectory (11 times)" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "t,j,value"
    assert len(lines) == 1 + 11 * 32


def test_mcf_with_wave_file(tmp_path, wave_file):
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, 0.05 * np.sin(2.0 * np.pi * np.arange(16) / 16.0))
    out = tmp_path / "traj.csv"
    assert main(["mcf", "--init", str(init), "--wave", wave_file,
                 "--t-end", "5", "--samples", "6", "--out", str(out)]) == 0


def test_mcf_with_a_wave_file_without_d_is_usage_error(tmp_path, wave_file, capsys):
    lines = open(wave_file, encoding="utf-8").read().splitlines()
    meta = json.loads(lines[0])
    del meta["d"]
    wave = tmp_path / "wave_without_d.ndjson"
    wave.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n", encoding="utf-8")
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, np.zeros(8))
    assert main(["mcf", "--init", str(init), "--wave", str(wave)]) == 2
    assert capsys.readouterr().err == "error: wave file lacks d; pass --c/--d explicitly\n"


def test_mcf_without_parameters_is_usage_error(tmp_path, capsys):
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, np.zeros(8))
    assert main(["mcf", "--init", str(init)]) == 2
    assert capsys.readouterr().err == "error: mcf needs either --wave or both --c and --d\n"


def test_mcf_steep_data_fails_flatness_guard(tmp_path, capsys):
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, [0.0, 3.0] * 8)
    assert main(["mcf", "--init", str(init), "--c", "-0.2796",
                 "--d", "-0.1466"]) == 1
    assert "verdict failure" in capsys.readouterr().err


def test_mcf_negative_end_time_is_out_of_range(tmp_path, capsys):
    """A negative or non-finite --t-end is an input error (exit 2), refused
    before the solve, as --delta and --samples are."""
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, np.zeros(8))
    for t_end in ("-5", "inf", "nan"):
        assert main(["mcf", "--init", str(init), "--c", "-0.2796", "--d", "-0.1466",
                     "--t-end", t_end, "--samples", "3",
                     "--out", str(tmp_path / "traj.csv")]) == 2
        assert capsys.readouterr().err == (f"error: --t-end must be finite and >= 0, "
                                           f"got {float(t_end)}\n")
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("delta", ["nan", "0", "-1"])
def test_mcf_nan_or_nonpositive_delta_is_usage_error(tmp_path, capsys, delta):
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, [0.0, 5.0, 10.0, 15.0])
    out = tmp_path / "traj.csv"
    assert main(["mcf", "--init", str(init), "--c", "-0.2796", "--d", "-0.1466",
                 "--delta", delta, "--out", str(out)]) == 2
    assert "delta must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_mcf_without_samples_is_usage_error(tmp_path, capsys, samples):
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, np.zeros(8))
    out = tmp_path / "traj.csv"
    assert main(["mcf", "--init", str(init), "--c", "-0.2796", "--d", "-0.1466",
                 "--samples", samples, "--out", str(out)]) == 2
    assert "--samples must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_mcf_reads_phase_output(snapshot_dir, wave_file, tmp_path):
    phases = tmp_path / "phase.csv"
    assert main(["phase", "--snapshot", str(snapshot_dir / "snap_000000.bin"),
                 "--wave", wave_file, "--out", str(phases)]) == 0
    out = tmp_path / "traj.csv"
    assert main(["mcf", "--init", str(phases), "--wave", wave_file, "--t-end", "1",
                 "--samples", "2", "--delta", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 16


@pytest.fixture(scope="module")
def reflect_phase(wave_file, tmp_path_factory):
    """``(phase CSV, extracted phase)`` at t = 4 of a reflect run, written by
    ``simulate`` and ``phase --out``."""
    root = tmp_path_factory.mktemp("cli_reflect")
    cfg = root / "reflect.cfg"
    cfg.write_text(FAST_CONFIG.replace("t_end = 2.0", "t_end = 4.0")
                   + "boundary_j = reflect\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(root / "snaps")]) == 0
    _, u = read_snapshots(str(root / "snaps" / "snap_index.ndjson"))[4]
    phases = root / "phase.csv"
    assert main(["phase", "--snapshot", str(root / "snaps" / "snap_000004.bin"),
                 "--wave", wave_file, "--out", str(phases)]) == 0
    return phases, extract(u, load_wave(wave_file)).gamma


@pytest.mark.parametrize("boundary", [[], ["--boundary", "reflect"]],
                         ids=["from_csv", "agreeing_flag"])
def test_mcf_flows_phase_output_under_its_recorded_boundary(reflect_phase, wave_file,
                                                            tmp_path, boundary):
    phases, gamma = reflect_phase
    assert gamma.boundary_j == "reflect"
    assert {line.rsplit(",", 1)[1] for line in phases.read_text().splitlines()} \
        == {"boundary_j", "reflect"}
    out = tmp_path / "traj.csv"
    assert main(["mcf", "--init", str(phases), "--wave", wave_file, "--t-end", "5",
                 "--samples", "6", "--delta", "1", "--out", str(out), *boundary]) == 0
    w = load_wave(wave_file)
    want = mcf_solve(gamma, FlowParams(c=w.c, d=w.d), t_grid=np.linspace(0.0, 5.0, 6),
                     delta=1.0)
    got = np.array([float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]])
    assert np.array_equal(got, want.values.reshape(-1))


def test_mcf_boundary_contradicting_csv_is_usage_error(reflect_phase, wave_file,
                                                       tmp_path, capsys):
    phases, _ = reflect_phase
    assert main(["mcf", "--init", str(phases), "--wave", wave_file, "--delta", "1",
                 "--boundary", "periodic", "--out", str(tmp_path / "traj.csv")]) == 2
    assert "contradicts the boundary_j column" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("t,j,gamma,defined\n0,0,0.5,1\n0,1,,0\n0,2,0.5,1\n",
     "gamma is blank (phase undefined) on data row 2"),
    ("t,j,gamma,defined\n0,0,0.5,1\n0,1,0.5,1\n1,0,0.4,1\n1,1,0.4,1\n",
     "rows of 2 times t"),
    ("0.5\n0.4\n0.3\n", "no header row with a gamma column"),
    ("t,j,gamma,defined,boundary_j\n0,0,0.5,1,reflect\n0,1,0.5,1,periodic\n",
     "rows of 2 boundary_j policies"),
], ids=["blank_gamma", "two_times", "headerless", "two_policies"])
def test_mcf_init_layout_errors_are_usage_errors(tmp_path, capsys, text, message):
    init = tmp_path / "gamma0.csv"
    init.write_text(text)
    assert main(["mcf", "--init", str(init), "--c", "-0.2796", "--d", "-0.1466",
                 "--out", str(tmp_path / "traj.csv")]) == 2
    assert message in capsys.readouterr().err


def test_verify_subsuper_planar(capsys):
    code = main(["verify-subsuper", "--kind", "planar",
                 "--t-end", "10", "--t-samples", "6"])
    assert code == 0
    assert "verdict=pass mu=" in capsys.readouterr().out


def test_verify_subsuper_curved(capsys):
    code = main(["verify-subsuper", "--kind", "curved",
                 "--t-end", "10", "--t-samples", "6"])
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict=pass" in text and "site_super=" in text


def test_verify_subsuper_offsets_only_bind_planar(capsys):
    # q0 = 0.1 lies outside (0, a) at a = 0.05; only the planar pair reads it
    code = main(["verify-subsuper", "--kind", "curved", "--a", "0.05", "--q0", "0.1",
                 "--t-end", "2", "--t-samples", "2"])
    assert code == 0
    assert "verdict=pass" in capsys.readouterr().out
    code = main(["verify-subsuper", "--kind", "planar", "--a", "0.05", "--q0", "0.1",
                 "--t-end", "2", "--t-samples", "2"])
    assert code == 2
    assert "q0 must lie in (0, a) = (0, 0.05)" in capsys.readouterr().err


@pytest.mark.parametrize("a", ["0.05", "0.95"])
def test_verify_subsuper_planar_defaults_fit_every_detuning(a, capsys):
    """The default offsets, min(0.1, a/2) and min(0.1, (1-a)/2), lie in
    their intervals, so near either end of the bistable range the planar
    certificate runs to a verdict and is never a usage error."""
    code = main(["verify-subsuper", "--kind", "planar", "--a", a,
                 "--t-end", "2", "--t-samples", "2"])
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    assert "verdict=" in captured.out


def test_verify_subsuper_planar_defaults_keep_the_mid_range_output(capsys, monkeypatch):
    """For a in [0.2, 0.8] the default offsets are 0.1 and 0.1, as before."""
    seen = []

    def spy(spec, a):
        seen.append((spec.q0, spec.q1))
        raise ValueError("stop before the wave solve")

    monkeypatch.setattr(sim.SuperSubSpec, "check_offsets", spy)
    for a in ("0.2", "0.3", "0.5", "0.8"):
        assert main(["verify-subsuper", "--kind", "planar", "--a", a]) == 2
    assert seen == [(0.1, 0.1)] * 4


@pytest.mark.parametrize("kind", ["planar", "curved"])
def test_verify_subsuper_without_t_samples_is_usage_error(kind, capsys, monkeypatch):
    def no_wave(*args):
        raise AssertionError("the wave was solved before the usage check")

    monkeypatch.setattr(cli, "_solved_wave", no_wave)
    for samples in ("0", "-1"):
        assert main(["verify-subsuper", "--kind", kind, "--t-samples", samples]) == 2
        captured = capsys.readouterr()
        assert "verdict=" not in captured.out
        assert "--t-samples must be >= 1" in captured.err


@pytest.mark.parametrize("kind, args, message", [
    (kind, ["--t-end", t_end], f"t_end must be finite and >= 0, got {float(t_end)}")
    for kind in ("planar", "curved") for t_end in ("nan", "inf", "-5")] + [
    ("planar", ["--q0", "0.3"], "q0 must lie in (0, a) = (0, 0.3)"),
    ("planar", ["--q0", "0"], "q0 must lie in (0, a) = (0, 0.3)"),
    ("planar", ["--q1", "0.7"], "q1 must lie in (0, 1-a) = (0, 0.7)"),
    ("curved", ["--v-amplitude", "nan"], "sequence values must be finite"),
    ("curved", ["--v-amplitude", "inf"], "sequence values must be finite"),
])
def test_verify_subsuper_refuses_bad_inputs_before_the_wave_solve(kind, args, message,
                                                                  capsys, monkeypatch):
    def no_wave(*args):
        raise AssertionError("the wave was solved before the usage check")

    monkeypatch.setattr(cli, "_solved_wave", no_wave)
    assert main(["verify-subsuper", "--kind", kind, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_experiment_step_with_equal_plateaus_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("name = step_kappa\nwidth = 96\nheight = 32\nt_end = 40\n"
                   "tau = 20\nkappa_lo = 2\nkappa_hi = 2\n")
    assert main(["experiment", "step", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "width_slope" not in captured.out
    assert "two distinct plateaus" in captured.err


def test_experiment_with_config_and_report(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG.replace("t_end = 2.0", "t_end = 20.0\ntau = 10"))
    out = tmp_path / "report.ndjson"
    assert main(["experiment", "thm22", "--config", str(cfg),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "front_error_final:" in text and "pass" in text
    meta = json.loads(out.read_text().splitlines()[0])
    assert meta["passed"] is True


def test_experiment_failed_verdict_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG.replace("t_end = 2.0", "t_end = 20.0\ntau = 10")
                   + "tol_front_error = 1e-12\n")
    assert main(["experiment", "thm22", "--config", str(cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("line, key", [
    ("dt = -0.01", "dt"), ("dt = nan", "dt"), ("t_end = -1", "t_end"),
    ("record_every = 0", "record_every"),
])
def test_experiment_bad_step_setting_is_usage_error(tmp_path, capsys, line, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG + line + "\n")
    assert main(["experiment", "thm22", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "pass" not in captured.out
    assert f"error: {key} must be" in captured.err


@pytest.mark.parametrize("line, message", [
    ("tol_frnt_error = 0.01", "unknown tolerance 'frnt_error'"),
    ("tol_front_error = abc", "tolerance front_error must be a number, got 'abc'"),
    ("kappa_P = 2.5", "kappa period P must be an integer >= 1, got 2.5"),
    ("tol_front_error = nan", "tolerance front_error must be positive and finite, got nan"),
    ("tol_front_error = -1", "tolerance front_error must be positive and finite, got -1"),
    ("width = 0", "width must be an integer >= 1, got 0"),
    ("width = -4", "width must be an integer >= 1, got -4"),
    ("height = 0", "height must be an integer >= 1, got 0"),
], ids=["unknown_tolerance", "non_numeric_tolerance", "fractional_period",
        "nan_tolerance", "negative_tolerance", "zero_width", "negative_width",
        "zero_height"])
def test_experiment_bad_tolerance_or_period_fails_before_the_wave_solve(
        tmp_path, capsys, monkeypatch, line, message):
    def no_solve(*args, **kw):
        raise AssertionError("the wave was solved")

    monkeypatch.setattr(harness, "solve_wave", no_solve)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG + line + "\n")
    assert main(["experiment", "thm22", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("dt = -0.01", "dt must be positive and finite, got -0.01"),
    ("t_end = -1", "t_end must be finite and >= 0, got -1"),
    ("record_every = 0", "record_every must be an integer >= 1, got 0"),
    ("tau = nan", "tau must be finite and >= 0, got nan"),
    ("h = 0.3", "1/h must be an integer, got h=0.3"),
    ("L = 20.03", "L must be a multiple of h, got L=20.03, h=0.0625"),
    ("L = 1", "half-width L must be at least 2"),
    ("a = abc", "a must be real, got 'abc'"),
    ("a = 1.5", "detuning a must lie in (0, 1), got 1.5"),
    ("boundary_j = reflct", "boundary_j must be one of ('periodic', 'reflect')"),
    ("kappa_kind = sawtooth",
     "unknown kappa kind 'sawtooth'; known: ['periodic', 'step', 'random']"),
    ("v0_kind = bump", "unknown v0 kind 'bump'; known: ['none', 'gaussian_bump', 'random_l1']"),
    ("kappa_amplitude = abc", "kappa amplitude must be a finite real, got 'abc'"),
    ("kappa_kind = step\nkappa_hi = inf", "kappa hi must be a finite real, got inf"),
    ("kappa_kind = random\nkappa_seed = 1.5", "kappa seed must be an integer, got 1.5"),
    ("v0_kind = random_l1\nv0_decay = 0", "v0 decay must be a positive finite real, got 0"),
    ("v0_kind = gaussian_bump\nv0_width = -2", "v0 width must be a positive finite real, got -2"),
    ("v0_kind = random_l1\nv0_seed = true", "v0 seed must be an integer, got 'true'"),
    ("v0_center_i = nan", "v0 center_i must be a finite real, got nan"),
])
def test_experiment_bad_setting_fails_before_the_wave_solve(
        tmp_path, capsys, monkeypatch, line, message):
    def no_solve(*args, **kw):
        raise AssertionError("the wave was solved")

    monkeypatch.setattr(harness, "solve_wave", no_solve)
    monkeypatch.setattr(harness, "solve_r", no_solve)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG.replace("thm22", "thm23") + line + "\n")
    assert main(["experiment", "thm23", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_experiment_thm24_prints_its_offsets(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("name = thm24\nwidth = 96\nheight = 16\nt_end = 20\ntau = 10\n")
    out = tmp_path / "report.ndjson"
    main(["experiment", "thm24", "--config", str(cfg), "--out", str(out)])
    meta = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert (f"mu_hat={meta['mu_hat']:.6g} mu_pred={meta['mu_pred']:.6g}\n"
            in capsys.readouterr().out)


def test_verify_subsuper_planar_search_failure_exit_code(capsys):
    code = main(["verify-subsuper", "--kind", "planar", "--q0", "0.29", "--q1", "0.69"])
    assert code == 1
    assert capsys.readouterr().out == (
        "verdict=fail (no (mu, C) pair certified; best margin -4.762e-03 "
        "at mu=0.01, C=316.228)\n")


@pytest.mark.parametrize("h", ["0", "-0.0625"])
def test_wave_nonpositive_spacing_is_usage_error(h, capsys):
    assert main(["wave", "--a", "0.3", "--h", h]) == 2
    assert "h positive and finite" in capsys.readouterr().err


def test_experiment_zero_spacing_in_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG + "h = 0\n")
    assert main(["experiment", "thm22", "--config", str(cfg)]) == 2
    assert "h positive and finite" in capsys.readouterr().err


def test_experiment_wrongly_typed_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG + "width = abc\n")
    assert main(["experiment", "thm22", "--config", str(cfg)]) == 2
    assert "error: width must be an integer >= 1, got 'abc'" in capsys.readouterr().err


def test_experiment_tau_after_t_end_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("name = thm24\nwidth = 64\nheight = 8\nt_end = 6\ntau = 20\n")
    assert main(["experiment", "thm24", "--config", str(cfg)]) == 1
    assert "tau=20" in capsys.readouterr().err


def test_thm23_tau_after_t_end_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("name = thm23\nwidth = 64\nheight = 8\nt_end = 6\ntau = 20\n")
    assert main(["experiment", "thm23", "--config", str(cfg)]) == 1
    assert "tau=20" in capsys.readouterr().err


def test_thm22_without_handoff_runs(tmp_path, capsys):
    """thm22 never reads tau, so a run that ends before the default tau = 60
    reaches its verdict: at t_end = 0 the front error of the initial front
    itself, which is the profile."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG.replace("t_end = 2.0", "t_end = 0"))
    assert main(["experiment", "thm22", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "front_error_final:" in captured.out and " pass" in captured.out
    assert captured.err == ""


def test_front_near_window_edge_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("name = thm22\nwidth = 64\nheight = 8\ntau = 10\nt_end = 50\n")
    assert main(["experiment", "thm22", "--config", str(cfg)]) == 1
    assert "window edge" in capsys.readouterr().err


def test_experiment_name_conflicting_with_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG)
    assert main(["experiment", "thm24", "--config", str(cfg)]) == 2
    assert "conflicts with experiment thm24" in capsys.readouterr().err


def test_pinned_wave_is_numerical_failure(capsys):
    assert main(["wave", "--a", "0.5"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_wave_window_too_short_is_numerical_failure(capsys):
    assert main(["wave", "--a", "0.3", "--L", "2"]) == 3
    assert "does not reach the equilibria" in capsys.readouterr().err


def test_wave_without_a_decaying_tail_is_numerical_failure(capsys):
    # at a = 1e-9 the left tail decays at a rate below 1e-8
    assert main(["wave", "--a", "1e-9"]) == 3
    assert "no decaying tail mode on the left" in capsys.readouterr().err


def test_wave_window_too_short_for_d_is_numerical_failure(capsys):
    # Newton converges at L = 10, but the adjoint residual ratio is 3.1e-9
    # and d is off by 1.7e-4
    assert main(["wave", "--a", "0.3", "--L", "10"]) == 3
    assert "adjoint residual ratio" in capsys.readouterr().err


MALFORMED_WAVE_CASES = {"meta_without_c": "'c'", "null_c": "'c'", "text_c": "'c'",
                        "kind_table": "'kind'", "rho_above_one": "'rho_l'",
                        "nan_rho": "'rho_r'", "rho_zero": "'rho_r'",
                        "nan_c": "'c'", "inf_d": "'d'",
                        "list_record": "not a JSON object", "text_in_phi": "'phi'",
                        "short_phi": "'phi'", "short_psi": "'psi'", "short_r": "'r'",
                        "phi_reversed": "'phi'"}


def _malformed_wave(wave_file, tmp_path, case):
    """A copy of ``wave_file`` with the defect ``case`` of
    ``MALFORMED_WAVE_CASES``; returns its path."""
    with open(wave_file, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = json.loads(lines[0])
    arrays = {json.loads(line)["name"]: k for k, line in enumerate(lines) if k > 0}
    if case == "meta_without_c":
        del meta["c"]
    elif case == "null_c":
        meta["c"] = None
    elif case == "text_c":
        meta["c"] = "x" + meta["c"]
    elif case == "kind_table":
        meta["kind"] = "table"
    elif case == "rho_above_one":
        meta["rho_l"] = "1.5"
    elif case == "nan_rho":
        meta["rho_r"] = "nan"
    elif case == "rho_zero":
        meta["rho_r"] = "0"
    elif case == "nan_c":
        meta["c"] = "nan"
    elif case == "inf_d":
        meta["d"] = "inf"
    elif case == "list_record":
        lines.append("[1, 2, 3]")
    elif case == "phi_reversed":
        rec = json.loads(lines[arrays["phi"]])
        rec["values"].reverse()
        lines[arrays["phi"]] = json.dumps(rec)
    else:
        name = case.split("_", 2)[-1]
        rec = json.loads(lines[arrays[name]])
        # text_in_phi: one entry a string; short_*: 3 of 641 entries cut
        rec["values"] = (["x"] + rec["values"][1:] if case.startswith("text")
                         else rec["values"][:-3])
        lines[arrays[name]] = json.dumps(rec)
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n", encoding="utf-8")
    return bad


@pytest.mark.parametrize("case", sorted(MALFORMED_WAVE_CASES))
def test_malformed_wave_file_is_usage_error(snapshot_dir, wave_file, tmp_path, capsys,
                                            case):
    bad = _malformed_wave(wave_file, tmp_path, case)
    assert main(["phase", "--snapshot", str(snapshot_dir / "snap_000000.bin"),
                 "--wave", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and MALFORMED_WAVE_CASES[case] in err


@pytest.mark.parametrize("case", ["kind_table", "rho_above_one", "nan_rho", "rho_zero",
                                  "phi_reversed"])
def test_mcf_refuses_a_malformed_wave_file(wave_file, tmp_path, capsys, case):
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, np.zeros(8))
    bad = _malformed_wave(wave_file, tmp_path, case)
    assert main(["mcf", "--init", str(init), "--wave", str(bad),
                 "--out", str(tmp_path / "traj.csv")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and MALFORMED_WAVE_CASES[case] in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["wave", "--a", "0.3", "--bogus"])
    assert exc.value.code == 2
