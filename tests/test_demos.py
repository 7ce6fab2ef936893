"""The narrative demos run end to end."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_phase_flows_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "phase_flows.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Cole-Hopf vs explicit (dt=1e-3) at t=2" in out
    lines = (tmp_path / "mcf_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,j,value" and len(lines) == 1 + 11 * 64
