"""The narrative demos run end to end, each in a fresh working directory, and
print and write what they say they do."""

import json
import runpy
from pathlib import Path

import pytest

from acfront.wave import load_wave

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _experiment_pipeline(out, cwd):
    assert "FAIL" not in out
    for name in ("thm22", "thm23", "thm24"):
        assert f"wrote report_{name}.ndjson" in out
        meta = json.loads((cwd / f"report_{name}.ndjson").read_text().splitlines()[0])
        assert (meta["record"], meta["name"]) == ("meta", name)


def _heat_kernel_decay(out, cwd):
    assert "kernel at t=5: kmax = 128, mass - 1 = 0.000e+00" in out
    assert "monotone sup bound holds: True" in out and "contraction holds: True" in out


def _phase_flows(out, cwd):
    assert "Cole-Hopf vs explicit (dt=1e-3) at t=2" in out
    lines = (cwd / "mcf_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,j,value" and len(lines) == 1 + 11 * 64


def _simulate_and_extract(out, cwd):
    assert "dt = 0.333333, steps = 240, window 256x64" in out
    lines = (cwd / "phase_series.csv").read_text().splitlines()
    assert lines[0] == "t,j,gamma,defined,boundary_j" and len(lines) == 1 + 81 * 64


def _supersub_verification(out, cwd):
    assert "planar pair certified" in out
    assert "curved pair with defaults (M=0.01, delta=0.02, m=0.015, C_eps=5.0): pass" in out
    assert "negative control rejected as expected" in out


def _wave_profile(out, cwd):
    assert "wave speed c = -0.279590404792108" in out
    w = load_wave(str(cwd / "wave_a0.3.ndjson"))
    assert (w.a, w.c) == (0.3, -0.27959040479210795) and w.r is not None


# each demo and the check of its main output
CHECKS = {"experiment_pipeline": _experiment_pipeline,
          "heat_kernel_decay": _heat_kernel_decay,
          "phase_flows": _phase_flows,
          "simulate_and_extract": _simulate_and_extract,
          "supersub_verification": _supersub_verification,
          "wave_profile": _wave_profile}


def test_every_demo_has_a_check():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(CHECKS)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_demo_runs(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    CHECKS[name](capsys.readouterr().out, tmp_path)
