"""Byte-for-byte pins of prbox-sim's default CSV and JSON output.

Each case runs in an empty directory with a relative ``--config run.cfg``
and ``--out out``, so the ``reproduce`` field of ``optimize`` is fixed.
``out`` is a file, or for ``sweep`` CSV a directory of curve files.

The expected files under ``tests/golden/`` are rewritten from the
``prbox`` on the import path by ``python tests/test_cli_golden.py``.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from prbox.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("csv", "json")
# name: (config text, subcommand and flags)
CASES = {
    "chsh": ("r = 0, 1\n", ["chsh"]),
    "sweep": (
        "r = 1\nsweep_steps = 5\nsweep_alphas = pi, pi/2\nreference_curve = true\n",
        ["sweep"],
    ),
    "mc": ("r = 0.5\nmc_n = 20000\nmc_seed = 7\n", ["mc"]),
    "plan_5pi4": ("", ["plan-frft", "--target", "5pi/4", "--inventory", "25,15"]),
    "plan_zero": ("", ["plan-frft", "--target", "0", "--inventory", "25,15"]),
    "optimize": (
        "angle_grid_step = pi/2\nrefine_tol = 1e-2\ntarget_fidelity = 0.8\n",
        ["optimize"],
    ),
    "optimize_default": ("target_fidelity = 0.9275\n", ["optimize"]),
    "sweep_wide": (
        "r = 2\nsweep_steps = 13\nsweep_beta_min = -1.5\nsweep_beta_max = 7.5\n",
        ["sweep"],
    ),
    # rungs through the arcsine, Owen's T and Gauss-Laguerre tail branches
    "chsh_ladder": ("r = 0, 0.35, 1, 1.5, 2.5, 4\n", ["chsh"]),
    "sweep_multi": (
        "r = 0, 1, 3\nsweep_alphas = pi, pi/2\nsweep_steps = 7\n",
        ["sweep"],
    ),
}


def run_case(name: str, fmt: str) -> Path:
    """Run one case in the current directory and return the path of its output."""
    text, argv = CASES[name]
    Path("run.cfg").write_text(text)
    code = main([*argv, "--config", "run.cfg", "--format", fmt, "--out", "out"])
    assert code == 0
    return Path("out")


def contents(path: Path) -> dict:
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return {"": path.read_bytes()}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert contents(run_case(name, fmt)) == contents(GOLDEN / f"{name}.{fmt}")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        for fmt in FORMATS:
            target = GOLDEN / f"{name}.{fmt}"
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                out = run_case(name, fmt).resolve()
                if target.is_dir():
                    shutil.rmtree(target)
                (shutil.copytree if out.is_dir() else shutil.copyfile)(out, target)
                os.chdir(GOLDEN)
            print(f"wrote {target}", file=sys.stderr)
