"""Byte-for-byte pins of prbox-sim's default CSV and JSON output.

Each case runs in an empty directory with a relative ``--config run.cfg``
and ``--out out``, so the ``reproduce`` field of ``optimize`` is fixed.

The expected files under ``tests/golden/`` are rewritten from the
``prbox`` on the import path by ``python tests/test_cli_golden.py``, which
runs every case first and replaces the files only if every case exits 0.
README's output-field tables must list exactly the fields they print.
"""

import csv
import functools
import itertools
import json
import os
import re
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


def run_case(case: tuple[str, list[str]], fmt: str) -> int:
    """Run one (config text, argv) case in the current directory, writing
    its output to ``out``, and return its exit code."""
    text, argv = case
    Path("run.cfg").write_text(text)
    return main([*argv, "--config", "run.cfg", "--format", fmt, "--out", "out"])


def write_goldens(cases: dict, golden: Path) -> int:
    """Run every case in every format in a temporary directory, then move
    all outputs into golden, or, if any case exits non-zero, name it and
    its exit code, leave golden as it is and return 1."""
    home = Path.cwd()
    golden.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=golden.parent) as work:
        staged = Path(work)
        try:
            for name, fmt in itertools.product(cases, FORMATS):
                run_dir = staged / f"{name}-{fmt}"
                run_dir.mkdir()
                os.chdir(run_dir)
                code = run_case(cases[name], fmt)
                if code != 0:
                    print(f"case {name} ({fmt}) exited {code}; no golden rewritten",
                          file=sys.stderr)
                    return 1
        finally:
            os.chdir(home)
        for name, fmt in itertools.product(cases, FORMATS):
            target = golden / f"{name}.{fmt}"
            os.replace(staged / f"{name}-{fmt}" / "out", target)
            print(f"wrote {target}", file=sys.stderr)
    return 0


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[name], fmt) == 0
    assert Path("out").read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_golden_writer_rewrites_nothing_when_a_case_fails(tmp_path, capsys):
    old = {f"{name}.{fmt}": b"old" for name, fmt in itertools.product(("chsh", "bad"), FORMATS)}
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)
    cases = {"chsh": CASES["chsh"], "bad": ("r = -1\n", ["chsh"])}
    assert write_goldens(cases, tmp_path) == 1
    assert "case bad (csv) exited 2" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def test_golden_writer_writes_every_case(tmp_path):
    cases = {name: CASES[name] for name in ("plan_5pi4", "plan_zero")}
    assert write_goldens(cases, tmp_path) == 0
    written = sorted(tmp_path.iterdir())
    assert [p.name for p in written] == sorted(f"{n}.{f}" for n in cases for f in FORMATS)
    assert all(p.read_bytes() == (GOLDEN / p.name).read_bytes() for p in written)


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


def printed_as(token: float, want: float, fmt: str) -> bool:
    """Whether token is want printed with fmt.  Where want lies within 1e-9
    relative of a rounding boundary, either neighbour is accepted."""
    return token in {float(fmt % (want * (1.0 + d))) for d in (-1e-9, 0.0, 1e-9)}


@functools.cache
def chsh_oracle_row(delta, gamma, angles, r):
    """The floats of a chsh row but max_marginal_dev, from the mpmath
    orthant oracle at 20 digits, by key."""
    a, ap, b, bp = angles
    # (kept, p_pp, p_pm, p_mp, p_mm) of ab, a'b, ab', a'b'
    tables = [oracles.postselected_probs_mp(delta, gamma, x, y, r, dps=20)
              for x, y in ((a, b), (ap, b), (a, bp), (ap, bp))]
    e = [pp - pm - mp + mm for _, pp, pm, mp, mm in tables]
    s = e[0] + e[1] + e[2] - e[3]
    wins = [pp + mm for _, pp, _, _, mm in tables[:3]] + [tables[3][2] + tables[3][3]]
    return {
        "H_ave_pct": 100.0 * sum(t[0] for t in tables) / 4.0,
        **dict(zip(("E_ab", "E_apb", "E_abp", "E_apbp"), e)),
        "S": s, "P_AND": sum(wins) / 4.0, "fidelity": (4.0 + s) / 8.0,
    }


@pytest.mark.parametrize("name", ["chsh", "chsh_ladder"])
def test_chsh_golden_matches_the_mp_oracle(name):
    """Every float of a chsh golden, in CSV and JSON, is the mpmath orthant
    oracle at the config's angles and r as printed: E at 3 decimals and the
    rest at the config's precision, each within half a unit of its last
    printed digit.  P_AND is summed from the oracle's tables, so it checks
    (4 + S)/8, and max_marginal_dev, zero by symmetry, is |x| <= 1e-15."""
    cfg = parse_config_text(CASES[name][0])
    delta, gamma = cfg.effective_widths()
    a, ap, b, bp = cfg.alpha, cfg.alpha_prime, cfg.beta, cfg.beta_prime
    with open(GOLDEN / f"{name}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    doc = json.loads((GOLDEN / f"{name}.json").read_text())
    assert doc["r_unit"] == cfg.r_unit
    rows += doc["results"]
    assert [float(row["r"]) for row in rows] == [*cfg.r_values, *cfg.r_values]
    oracle = {r: chsh_oracle_row(delta, gamma, (a, ap, b, bp), r_dim)
              for r, r_dim in zip(cfg.r_values, cfg.r_dimensionless())}
    general = f"%.{cfg.precision}g"
    for row in rows:
        want = oracle[float(row["r"])]
        assert set(row) == {"r", "max_marginal_dev", *want}
        assert abs(float(row["max_marginal_dev"])) <= 1e-15
        for key, value in want.items():
            fmt = "%.3f" if key.startswith("E_") else general
            assert printed_as(float(row[key]), value, fmt), (row["r"], key, row[key], value)


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
    sys.exit(write_goldens(CASES, GOLDEN))
