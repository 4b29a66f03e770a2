import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from prbox import REFERENCE_SETTINGS, GaussianTwoModeState, and_gate_success, bell_S

ROOT = Path(__file__).resolve().parent.parent


def test_chsh_trend_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "chsh_trend.py"),
         "--r", "0", "1", "--mc-n", "20000"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "    r  H_ave_%       S   P_AND  fidelity"
    assert len(lines) == 5 and lines[4].startswith("MC check at r=1: S = ")
    # the r = 1 row at the script's default state and the reference settings
    settings = replace(REFERENCE_SETTINGS, r=1.0)
    state = GaussianTwoModeState(delta=0.75, gamma=1.25)
    r, _, s, p_and, _ = lines[2].split()
    assert r == "1.00"
    assert s == f"{bell_S(state, settings):.3f}"
    assert p_and == f"{and_gate_success(state, settings):.4f}"
