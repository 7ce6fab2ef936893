"""End-to-end exercises of the acfront command line (in process)."""

import json

import numpy as np
import pytest

from acfront.cli import main
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


def test_mcf_without_parameters_is_usage_error(tmp_path, capsys):
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, np.zeros(8))
    assert main(["mcf", "--init", str(init)]) == 2
    assert "needs either" in capsys.readouterr().err


def test_mcf_steep_data_fails_flatness_guard(tmp_path, capsys):
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, [0.0, 3.0] * 8)
    assert main(["mcf", "--init", str(init), "--c", "-0.2796",
                 "--d", "-0.1466"]) == 1
    assert "verdict failure" in capsys.readouterr().err


def test_mcf_negative_end_time_is_out_of_range(tmp_path, capsys):
    init = tmp_path / "gamma0.csv"
    _write_gamma(init, np.zeros(8))
    assert main(["mcf", "--init", str(init), "--c", "-0.2796", "--d", "-0.1466",
                 "--t-end", "-5", "--samples", "3",
                 "--out", str(tmp_path / "traj.csv")]) == 1
    assert "nondecreasing" in capsys.readouterr().err


def test_mcf_reads_phase_output(snapshot_dir, wave_file, tmp_path):
    phases = tmp_path / "phase.csv"
    assert main(["phase", "--snapshot", str(snapshot_dir / "snap_000000.bin"),
                 "--wave", wave_file, "--out", str(phases)]) == 0
    out = tmp_path / "traj.csv"
    assert main(["mcf", "--init", str(phases), "--wave", wave_file, "--t-end", "1",
                 "--samples", "2", "--delta", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 16


@pytest.mark.parametrize("text, message", [
    ("t,j,gamma,defined\n0,0,0.5,1\n0,1,,0\n0,2,0.5,1\n",
     "gamma is blank (phase undefined) on data row 2"),
    ("t,j,gamma,defined\n0,0,0.5,1\n0,1,0.5,1\n1,0,0.4,1\n1,1,0.4,1\n",
     "rows of 2 times t"),
    ("0.5\n0.4\n0.3\n", "no header row with a gamma column"),
], ids=["blank_gamma", "two_times", "headerless"])
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


def test_experiment_wrongly_typed_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG + "width = abc\n")
    assert main(["experiment", "thm22", "--config", str(cfg)]) == 2
    assert "config key width must be int" in capsys.readouterr().err


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


def test_thm22_without_handoff_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_CONFIG.replace("t_end = 2.0", "t_end = 0"))
    assert main(["experiment", "thm22", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "pass" not in captured.out
    assert "no snapshot at or after tau=60" in captured.err


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


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["wave", "--a", "0.3", "--bogus"])
    assert exc.value.code == 2
