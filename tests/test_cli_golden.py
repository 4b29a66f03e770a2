"""Byte-for-byte pins of prbox-sim's default CSV and JSON output.

Each case runs in an empty directory with a relative ``--config run.cfg``
and ``--out out``, so the ``reproduce`` field of ``optimize`` is fixed.

The expected files under ``tests/golden/`` are rewritten from the
``prbox`` on the import path by ``python tests/test_cli_golden.py``.
README's output-field tables must list exactly the fields they print.
"""

import csv
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

import oracles
from prbox.cli import main
from prbox.config import parse_config_text

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
FORMATS = ("csv", "json")
# name: (config text, subcommand and flags)
CASES = {
    "chsh": ("r = 0, 1\n", ["chsh"]),
    "sweep": ("r = 1\nsweep_steps = 5\nsweep_alphas = pi, pi/2\n", ["sweep"]),
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


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, fmt).read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_mc_golden_matches_the_mp_oracle():
    """Every p and kept_fraction of the mc goldens, and each S of the JSON
    golden, lies within 4 of its printed standard errors of the mpmath
    orthant oracle at the record's printed angles and r."""
    delta, gamma = parse_config_text(CASES["mc"][0]).effective_widths()
    with open(GOLDEN / "mc.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    doc = json.loads((GOLDEN / "mc.json").read_text())
    records += doc["matrices"]
    assert len(records) == 8
    oracle_E = {}
    for rec in records:
        kept, *p = oracles.postselected_probs_mp(
            delta, gamma, *(float(rec[k]) for k in ("alpha_rad", "beta_rad", "r"))
        )
        oracle_E[float(rec["r"]), rec["setting"]] = p[0] - p[1] - p[2] + p[3]
        checks = [("kept_fraction", "kept_se", kept)]
        checks += [(f"p_{o}", f"se_{o}", p_o) for o, p_o in zip(("pp", "pm", "mp", "mm"), p)]
        for key, se_key, want in checks:
            assert abs(float(rec[key]) - want) < 4.0 * float(rec[se_key]), (rec["setting"], key)
    assert len(doc["bell"]) == 1
    for entry in doc["bell"]:
        e = [oracle_E[entry["r"], label] for label in ("ab", "apb", "abp", "apbp")]
        want = e[0] + e[1] + e[2] - e[3]
        assert abs(entry["S"] - want) < 4.0 * entry["S_se"], (entry["r"], want)


def readme_fields() -> dict[str, set[str]]:
    """The field names of README's output tables, by the subcommand their
    heading names, or "" for the table that every JSON document shares."""
    section = README.read_text().split("\n## Output fields\n")[1].split("\n## ")[0]
    tables, command = {}, None
    for line in section.splitlines():
        if line.startswith("### "):
            heading = re.fullmatch(r"### `prbox-sim (\S+)`", line)
            command = heading[1] if heading else ""
        elif line.startswith("| `") and command is not None:
            cell = line.split(" | ")[0]
            tables.setdefault(command, set()).update(re.findall(r"`([^`]+)`", cell))
    return tables


def json_keys(v) -> set[str]:
    """Every key of a JSON value, at any depth."""
    if isinstance(v, dict):
        return set(v).union(*map(json_keys, v.values()))
    if isinstance(v, list):
        return set().union(*map(json_keys, v))
    return set()


def golden_fields(path: Path) -> set[str]:
    """Every key of a JSON golden, or the header fields of a CSV golden."""
    if path.suffix == ".json":
        return json_keys(json.loads(path.read_text()))
    return set(path.read_text().splitlines()[0].split(","))


def test_readme_lists_exactly_the_golden_fields():
    tables = readme_fields()
    shared = tables.pop("")
    printed = {command: set() for command in tables}
    for path in sorted(GOLDEN.iterdir()):
        command = CASES[path.stem][1][0]
        fields = golden_fields(path)
        assert fields - shared - tables[command] == set(), path.name
        if path.suffix == ".json":
            assert shared <= fields, path.name
        printed[command] |= fields
    # and no table lists a field that no golden prints
    assert {c: fields - printed[c] for c, fields in tables.items()} == {c: set() for c in tables}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        for fmt in FORMATS:
            target = GOLDEN / f"{name}.{fmt}"
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                shutil.copyfile(run_case(name, fmt), target)
                os.chdir(GOLDEN)
            print(f"wrote {target}", file=sys.stderr)
