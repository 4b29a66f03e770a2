import csv
import io
import itertools
import json
import math
import os
import shlex

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from oracles import REFERENCE_SETTINGS
from prbox import chsh, cli
from prbox.chsh import (
    EmptyPostSelectionError,
    and_gate_success,
    bell_S,
    bell_S_gradient,
    no_signaling_report,
    sweep_beta,
)
from prbox.cli import main
from prbox.config import ConfigError, load_config
from prbox.frft import MAX_STAGE_ORDER, MIN_STAGE_ORDER, PlanNotFoundError
from prbox.montecarlo import InsufficientCountsError, mc_bell_S, setting_estimates
from prbox.optimize import MAX_GRID_ANGLES, MIN_GRID_ANGLES, R_TOL
from prbox.state import GaussianTwoModeState, NonNormalizableStateError

PI = math.pi
STATE = GaussianTwoModeState(delta=0.75, gamma=1.25)


def run(tmp_path, *argv):
    return main(list(argv))


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestPlanFrft:
    def test_two_stage_plan_csv(self, tmp_path, capsys):
        code = main(
            ["plan-frft", "--target", "5pi/4", "--inventory", "25,15",
             "--max-stages", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "angle_rad,f_cm,z_cm"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(PI / 2, rel=1e-5)
        assert float(first[1]) == 25.0
        second = lines[2].split(",")
        assert float(second[2]) == pytest.approx(25.6, abs=0.05)

    def test_json_has_schema_version(self, tmp_path, capsys):
        code = main(
            ["plan-frft", "--target", "pi/2", "--inventory", "50",
             "--max-stages", "1", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == "2"
        assert doc["stages"][0]["z_cm"] == pytest.approx(50.0)

    def test_zero_target_empty_plan(self, capsys):
        code = main(["plan-frft", "--target", "0", "--inventory", "25"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "angle_rad,f_cm,z_cm"

    def test_flags_take_pi_notation(self, capsys):
        argv = ["plan-frft", "--target", "5pi/4", "--inventory", "25,15", "--angle-tol", "pi/1000"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_negative_value_follows_its_flag(self, capsys):
        base = ["plan-frft", "--inventory", "25,15"]
        assert main([*base, "--target=-3pi/4"]) == 0
        expected = capsys.readouterr()
        assert main([*base, "--target", "-3pi/4"]) == 0
        assert capsys.readouterr() == expected
        assert len(expected.out.splitlines()) == 3

    def test_missing_flag_value_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["plan-frft", "--out", "--format", "json"])
        assert info.value.code == 2
        assert "argument --out: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,target,stages",
        [
            (["--target", "3pi/2", "--inventory", "25,15"], "4.71238898038469", 2),
            (["--target", "pi", "--inventory", "25", "--max-stages", "1"], repr(PI), 1),
        ],
    )
    def test_target_on_the_stage_bound_names_the_bound(self, capsys, flags, target, stages):
        # the last stage would turn by pi, which the open stage range excludes
        assert main(["plan-frft", *flags]) == 3
        assert capsys.readouterr() == (
            "",
            f"numerical failure: no plan within 0.001 rad of target {target}: the last of "
            f"{stages} stage(s) would need order {PI!r} rad, outside the open range "
            f"({MIN_STAGE_ORDER}, {MAX_STAGE_ORDER}) of one stage\n",
        )

    def test_empty_inventory_fails(self, capsys):
        code = main(["plan-frft", "--target", "pi/2", "--inventory", ""])
        assert code == 2
        assert "empty list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,flags,key",
        [
            ("", ["--inventory", "25,-15"], "frft_inventory_cm"),
            ("frft_inventory_cm = 25, 0\n", [], "frft_inventory_cm"),
            ("", ["--angle-tol", "-1"], "frft_angle_tol"),
            ("", ["--angle-tol", "nan"], "frft_angle_tol"),
            ("", ["--target", "nan"], "frft_target"),
            ("", ["--max-stages", "two"], "frft_max_stages"),
        ],
    )
    def test_bad_plan_inputs_are_config_errors(
        self, tmp_path, capsys, config, flags, key
    ):
        cfg = write_config(tmp_path, config)
        assert main(["plan-frft", "--config", cfg, *flags]) == 2
        assert key in capsys.readouterr().err


TINY_MM = "r_unit = mm\nscale_s_mm = 1e-10\n"


class TestDegenerateConfig:
    @pytest.mark.parametrize(
        "command,config,key",
        [
            ("optimize", "refine_tol = 0", "refine_tol"),
            ("optimize", "refine_tol = -1e-3", "refine_tol"),
            ("optimize", "angle_grid_step = 0", "angle_grid_step"),
            ("optimize", "angle_grid_step = -0.1", "angle_grid_step"),
            ("optimize", "angle_grid_step = inf", "angle_grid_step"),
            ("sweep", "sweep_beta_min = nan", "sweep_beta_min"),
            ("sweep", "reference_curve = true", "reference_curve"),
            ("sweep", "reference_phase = 0", "reference_phase"),
            ("sweep", "sweep_alphas = nan", "sweep_alphas"),
            ("sweep", "sweep_beta_max = inf", "sweep_beta_max"),
            ("chsh", "r = nan", "r_values"),
            ("optimize", "target_fidelity = 0.8\ntune_r_max = inf", "tune_r_max"),
            ("optimize", "target_fidelity = 0.8\ntune_r_max = 0", "tune_r_max"),
            ("optimize", "target_fidelity = 0.8\ntune_r_max = -1", "tune_r_max"),
            ("optimize", "target_fidelity = 1.5", "target_fidelity"),
            ("optimize", "target_fidelity = -0.2", "target_fidelity"),
            # finite as configured, but 1e300 mm at 1e-10 mm per dimensionless
            # unit overflows to inf, and so does the step of this beta grid
            ("chsh", f"{TINY_MM}r = 1, 1e300", "r_values"),
            ("sweep", f"{TINY_MM}r = 1, 1e300\nsweep_alphas = pi\nsweep_steps = 5", "r_values"),
            ("mc", f"{TINY_MM}r = 1, 1e300\nmc_n = 1000", "r_values"),
            ("optimize", f"{TINY_MM}r = 1\ntarget_fidelity = 0.8\ntune_r_max = 1e300",
             "tune_r_max"),
            ("sweep", "sweep_beta_min = -1e308\nsweep_beta_max = 1e308", "sweep_beta_min"),
        ],
    )
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, config, key):
        cfg = write_config(tmp_path, config + "\n")
        code = main([command, "--config", cfg, "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert key in err
        assert out == ""

    def test_separable_gamma_inf_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "gamma = inf\nr = 0\n")
        assert main(["chsh", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0


class TestChsh:
    def test_separable_r_zero(self, tmp_path):
        cfg = write_config(
            tmp_path, "delta = 1\ngamma = 1e9\nr = 0\n"
        )
        out = tmp_path / "chsh.csv"
        code = main(["chsh", "--config", cfg, "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        assert float(rec["S"]) == pytest.approx(0.0, abs=1e-6)
        assert float(rec["P_AND"]) == pytest.approx(0.5, abs=1e-6)
        assert float(rec["H_ave_pct"]) == pytest.approx(100.0, abs=1e-6)

    def test_identity_and_trends_in_mm(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "r = 0.1, 0.2, 0.5\nr_unit = mm\nscale_s_mm = 0.25\n",
        )
        out = tmp_path / "chsh.csv"
        assert main(["chsh", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 3
        s_vals = [float(r["S"]) for r in rows]
        h_vals = [float(r["H_ave_pct"]) for r in rows]
        assert s_vals[0] < s_vals[1] < s_vals[2]
        assert h_vals[0] > h_vals[1] > h_vals[2]
        for r in rows:
            assert float(r["P_AND"]) == pytest.approx(
                (4.0 + float(r["S"])) / 8.0, abs=1e-3
            )
            assert float(r["max_marginal_dev"]) <= 1e-9

    def test_json_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "r = 1\n")
        assert main(["chsh", "--config", cfg, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == "2"
        assert len(doc["results"]) == 1

    @pytest.mark.parametrize("r", [4.0, 8.0])
    def test_wide_dark_region_is_resolved(self, tmp_path, capsys, r):
        cfg = write_config(tmp_path, f"r = {r}\nprecision = 17\n")
        assert main(["chsh", "--config", cfg, "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["results"]
        assert 0.0 < row["H_ave_pct"] < 1e-5
        assert 4.0 - 1e-5 < row["S"] <= 4.0

    def test_row_equals_library_functions(self, tmp_path, capsys):
        # precision 17 round-trips floats, so the row must match exactly
        cfg = write_config(tmp_path, "r = 0, 1.3\nprecision = 17\n")
        assert main(["chsh", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        for row in rows:
            r = row["r"]
            p_pp, p_pm, _ = chsh.setting_tables(STATE, REFERENCE_SETTINGS, r)
            assert row["S"] == bell_S(STATE, REFERENCE_SETTINGS, r)
            assert row["P_AND"] == and_gate_success(row["S"]) == row["fidelity"]
            assert abs(row["P_AND"] - oracles.and_gate_from_tables(p_pp, p_pm)) <= 1e-15
            assert row["max_marginal_dev"] == no_signaling_report(p_pp, p_pm)[1]

    def test_header_prints_each_fact_once(self, tmp_path):
        cfg = write_config(tmp_path, "r = 0.4\n")
        out = tmp_path / "chsh.csv"
        assert main(["chsh", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == (
            "r,H_ave_pct,E_ab,E_apb,E_abp,E_apbp,S,P_AND,fidelity,max_marginal_dev"
        )

    def test_first_failing_rung_is_named(self, tmp_path, capsys):
        # the kept fraction underflows at r = 20 and at r = 30
        with pytest.raises(EmptyPostSelectionError) as rung:
            bell_S(STATE, REFERENCE_SETTINGS, 20.0)
        cfg = write_config(tmp_path, "r = 1, 20, 30\n")
        assert main(["chsh", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"numerical failure: chsh r=20 (dimensionless): {rung.value}\n"
        assert "r=20.0 " in captured.err and captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rung_with_overflowing_threshold_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "r = 1, 1e200\n")
        assert main(["chsh", "--config", cfg]) == 3
        assert "r=1e+200 " in capsys.readouterr().err


def csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSweep:
    def test_first_failing_curve_in_output_order_is_named(self, tmp_path, capsys):
        # at beta = pi/2 the kept fraction underflows from r = 18 for alpha =
        # pi/2 and from r = 20 for alpha = pi; curves run alpha-major, so
        # (pi, 20) fails first, though r = 18 is the first failing r
        grid = [0.0, PI / 2, PI, 3 * PI / 2, 2 * PI]
        with pytest.raises(EmptyPostSelectionError) as curve:
            sweep_beta(STATE, PI, 20.0, grid)
        cfg = write_config(tmp_path, "sweep_alphas = pi, pi/2\nr = 18, 20\nsweep_steps = 5\n")
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: sweep alpha=3.14159 rad, r=20 (dimensionless): {curve.value}\n"
        )

    def test_csv_table_holds_the_json_curves(self, tmp_path, capsys):
        # a repeated alpha repeats its curves, in both formats
        cfg = write_config(tmp_path, "sweep_alphas = pi, pi/2, pi\nr = 0.5, 1\nsweep_steps = 5\n")
        out = tmp_path / "curves.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
        curves = json.loads(capsys.readouterr().out)["curves"]
        groups = [
            (key, [[float(row["beta_rad"]), float(row["E"])] for row in rows])
            for key, rows in itertools.groupby(
                csv_rows(out), lambda row: (float(row["alpha_rad"]), float(row["r"]))
            )
        ]
        assert groups == [((c["alpha_rad"], c["r"]), c["points"]) for c in curves]
        assert len(curves) == 6 and curves[:2] == curves[4:]

    def test_fig1_style_run_produces_six_curves_plus_reference(self, tmp_path):
        # the reference is the model's own r = 0 curve, one per alpha
        cfg = write_config(
            tmp_path,
            # width-swapped configuration entered as printed, then swapped
            "delta = 5/4\ngamma = 3/4\nswap_widths = true\n"
            "r = 0, 0.75, 1, 2\nsweep_alphas = pi, pi/2\nsweep_steps = 25\n",
        )
        out = tmp_path / "curves.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "beta_rad,E,alpha_rad,r"
        curves = {(row["alpha_rad"], row["r"]) for row in csv_rows(out)}
        assert len(curves) == 8
        assert sorted(c for c in curves if c[1] == "0") == [("1.5708", "0"), ("3.14159", "0")]

    def test_single_step_single_row(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_steps = 1\nsweep_alphas = pi\nr = 1\n")
        out = tmp_path / "one.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_steps = 9\nsweep_alphas = pi\nr = 1\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reemission_idempotent(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_steps = 17\nsweep_alphas = pi\nr = 0.5\n")
        out = tmp_path / "idem.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        for line in lines[1:]:
            for cell in line.split(","):
                assert f"{float(cell):.6g}" == cell


class TestMc:
    def test_matrix_rows_normalized_and_reproducible(self, tmp_path):
        cfg = write_config(
            tmp_path, "r = 0.5\nmc_n = 200000\nmc_seed = 21\nprecision = 17\n"
        )
        out1, out2 = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
        assert main(["mc", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["mc", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 5
        for ln in lines[1:]:
            rec = dict(zip(header, ln.split(",")))
            total = sum(float(rec[k]) for k in ("p_pp", "p_pm", "p_mp", "p_mm"))
            assert total == pytest.approx(1.0, abs=1e-12)
            n_kept = float(rec["kept_fraction"]) * float(rec["n"])
            se = math.sqrt(0.25 / n_kept)
            marg = float(rec["p_pp"]) + float(rec["p_pm"])
            assert abs(marg - 0.5) < 4.0 * se

    @pytest.mark.parametrize("text, rung", [
        ("r = 0.5, 2\n", "r=2 (dimensionless)"),
        ("r_unit = mm\nscale_s_mm = 2\nr = 4\n", "r=4 (mm)"),
    ])
    def test_too_few_kept_events_exit_3_naming_rung_and_setting(self, tmp_path, capsys,
                                                                  text, rung):
        # the (alpha', beta) pair keeps about 1.3e-5 of the pairs at r = 2
        cfg = write_config(tmp_path, text + "mc_n = 1000000\nmc_seed = 1\n")
        assert main(["mc", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: mc {rung}, setting apb: only ")
        assert err.endswith(" kept events; need at least 100\n")

    def test_bell_entries_equal_mc_bell_S_over_setting_estimates(self, tmp_path, capsys):
        # precision 17 round-trips floats, so each entry must match exactly; r
        # is printed in mm as configured and sampled at half that, dimensionless
        doc = json_run(tmp_path, capsys, "mc", "r_unit = mm\nscale_s_mm = 2\nr = 1, 2\n"
                       "mc_n = 50000\nmc_seed = 21\nprecision = 17\n")
        assert [entry["r"] for entry in doc["bell"]] == [1.0, 2.0]
        for entry in doc["bell"]:
            ests = list(setting_estimates(STATE, REFERENCE_SETTINGS, entry["r"] / 2, 50_000, 21))
            assert (entry["S"], entry["S_se"]) == mc_bell_S(ests)

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, "r = 0.5\nmc_n = 100000\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["mc", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
        assert main(["mc", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestOptimize:
    def test_record_fields(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "r = 0.5\nangle_grid_step = pi/4\nrefine_tol = 1e-2\n",
        )
        code = main(["optimize", "--config", cfg, "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == "2"
        assert doc["reproduce"].startswith("prbox-sim optimize")
        assert -4.0 <= doc["S"] <= 4.0
        assert doc["fidelity"] == pytest.approx((doc["S"] + 4.0) / 8.0, abs=1e-5)

    @pytest.mark.parametrize("name", ["a,b.cfg", 'a"b.cfg', "a\nb.cfg", "a\rb.cfg"])
    def test_csv_reads_back_with_quoted_cells(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, "r = 0.5\nangle_grid_step = pi/4\nrefine_tol = 1e-2\n", name)
        assert main(["optimize", "--config", cfg]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out, newline=""))
        assert len(row) == len(header) == 10
        assert dict(zip(header, row))["reproduce"] == "prbox-sim optimize --config " + shlex.quote(cfg)

    def test_percent_in_the_reproduce_string_is_written_as_it_is(self, tmp_path, monkeypatch):
        docs = []
        write = cli._write
        monkeypatch.setattr(
            cli, "_write", lambda cfg, doc, *rest: docs.append(doc) or write(cfg, doc, *rest)
        )
        cfg = write_config(tmp_path, "r = 0.5\nangle_grid_step = pi/4\nrefine_tol = 1e-2\n")
        out = tmp_path / "100%s %%d.json"
        assert main(["optimize", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
        (doc,) = docs
        assert doc["reproduce"].endswith(shlex.quote(str(out)))
        expected = old_json_text({"schema_version": cli.SCHEMA_VERSION, **doc}, 6)
        assert out.read_bytes() == expected.encode()

    def test_a_grid_it_cannot_hold_exits_2_naming_the_step(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "r = 1\nangle_grid_step = 1e-9\n")
        assert main(["optimize", "--config", cfg]) == 2
        assert capsys.readouterr() == ("", (
            f"config error: angle_grid_step must be finite and give {MIN_GRID_ANGLES} "
            f"to {MAX_GRID_ANGLES} grid angles per axis, got 1e-09\n"))

    def test_more_than_one_r_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "r = 1, 2\n")
        assert main(["optimize", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: optimize takes exactly one r, got 2 r_values\n"


# r = 1 mm at 2 mm per dimensionless unit: a dimensionless r of 0.5
MM_CONFIG = "r_unit = mm\nscale_s_mm = 2\nr = 1\nprecision = 17\n"
OPTIMIZE_CONFIG = "angle_grid_step = pi/4\nrefine_tol = 1e-2\ntarget_fidelity = 0.8\n"


def json_run(tmp_path, capsys, command, text):
    cfg = write_config(tmp_path, text + "out_format = json\n", name=f"{command}.cfg")
    assert main([command, "--config", cfg]) == 0, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


class TestRUnit:
    def test_sweep_prints_r_in_mm(self, tmp_path, capsys):
        curve = "sweep_alphas = pi\nsweep_steps = 5\n"
        cfg = write_config(tmp_path, MM_CONFIG + curve)
        out = tmp_path / "curves.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert {row["r"] for row in csv_rows(out)} == {"1"}
        doc = json_run(tmp_path, capsys, "sweep", MM_CONFIG + curve)
        assert doc["r_unit"] == "mm" and doc["curves"][0]["r"] == 1.0
        # the points are the curve at the dimensionless r
        plain = json_run(tmp_path, capsys, "sweep", "r = 0.5\nprecision = 17\n" + curve)
        assert plain["r_unit"] == "dimensionless" and plain["curves"][0]["r"] == 0.5
        assert doc["curves"][0]["points"] == plain["curves"][0]["points"]

    def test_optimize_prints_r_and_tuned_r_in_mm(self, tmp_path, capsys):
        doc = json_run(tmp_path, capsys, "optimize", MM_CONFIG + OPTIMIZE_CONFIG)
        assert (doc["r"], doc["r_unit"]) == (1.0, "mm")
        # the default tune_r_max, 3 mm, is a dimensionless 1.5
        plain = json_run(tmp_path, capsys, "optimize", "r = 0.5\ntune_r_max = 1.5\n"
                         "precision = 17\n" + OPTIMIZE_CONFIG)
        assert doc["S"] == plain["S"]
        assert doc["tuned_r"] == 2.0 * plain["tuned_r"]
        # a chsh run at the printed tuned_r, in mm, reaches the target
        # fidelity to within tune_r's tolerance in the dimensionless r
        (row,) = json_run(tmp_path, capsys, "chsh",
                          f"r_unit = mm\nscale_s_mm = 2\nr = {doc['tuned_r']!r}\n"
                          "precision = 17\n")["results"]
        slope = bell_S_gradient(STATE, REFERENCE_SETTINGS, doc["tuned_r"] / 2.0)[1][4] / 8.0
        assert abs(row["fidelity"] - doc["target_fidelity"]) <= R_TOL * slope

    def test_chsh_error_names_the_rung_in_mm(self, tmp_path, capsys):
        # 40 mm is a dimensionless 20, where the kept fraction underflows
        cfg = write_config(tmp_path, MM_CONFIG + "r = 1, 40\n")
        assert main(["chsh", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: chsh r=40 (mm): kept fraction ")

    def test_sweep_error_names_the_curve_in_mm(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MM_CONFIG + "r = 40\nsweep_alphas = pi/2, pi\n"
                           "sweep_steps = 5\n")
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: sweep alpha=1.5707963267948966 rad, "
                              "r=40 (mm): kept fraction ")

    def test_tune_r_max_is_read_in_mm(self, tmp_path, capsys):
        # fidelity 0.8 needs a dimensionless r near 0.88, beyond 1 mm = 0.5
        cfg = write_config(tmp_path, MM_CONFIG + OPTIMIZE_CONFIG + "tune_r_max = 1\n")
        assert main(["optimize", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: optimize tune_r_max=1 (mm): target fidelity 0.8 "
                              "unreachable below r_max: maximum achievable is ")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "not_a_key = 1\n")
        assert main(["chsh", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numerical_error_is_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "delta = 1.25\ngamma = 0.75\nr = 0\n")
        assert main(["chsh", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chsh", "sweep"])
    @pytest.mark.parametrize("gamma, message", [
        pytest.param("1", "gamma=1.0 <= delta=1.0: no covariance matrix exists", id="epr"),
        pytest.param("1.000000000000001", "state too close to the EPR limit", id="near_epr"),
    ])
    def test_state_without_covariance_is_3_unprefixed(self, tmp_path, capsys, command,
                                                       gamma, message):
        # the state passes construction, and its error names no rung or curve
        cfg = write_config(tmp_path, f"delta = 1\ngamma = {gamma}\nr = 0, 1\nsweep_steps = 5\n")
        assert main([command, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"numerical failure: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "error",
        [NonNormalizableStateError, EmptyPostSelectionError,
         InsufficientCountsError, PlanNotFoundError],
    )
    def test_numerical_errors_reach_the_exit_3_clause(self, error):
        # main maps ValueError to 3 after ConfigError (2) and before OSError (4)
        assert issubclass(error, ValueError)
        assert not issubclass(error, (ConfigError, OSError))

    def test_swap_widths_flag_rescues_swapped_config(self, tmp_path):
        cfg = write_config(tmp_path, "delta = 1.25\ngamma = 0.75\nr = 0\n")
        assert main(["chsh", "--config", cfg, "--swap-widths"]) == 0

    @pytest.mark.parametrize("argv, key", [
        (["chsh", "--seed", "x"], "mc_seed"),
        (["chsh", "--format", "xml"], "format"),
        (["plan-frft", "--angle-tol", "abc"], "frft_angle_tol"),
        (["plan-frft", "--target", "3pie"], "frft_target"),
        (["plan-frft", "--inventory", "25,x"], "frft_inventory_cm"),
    ])
    def test_bad_flag_value_is_2_naming_the_key(self, capsys, argv, key):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err

    def test_io_error_is_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "r = 0\n")
        missing = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert main(["chsh", "--config", cfg, "--out", missing]) == 4

    @pytest.mark.parametrize("command", ["chsh", "sweep"])
    def test_out_naming_a_directory_is_4(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "r = 0\nsweep_steps = 5\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith("I/O error: ")

    def test_missing_config_file_is_4(self, capsys):
        assert main(["chsh", "--config", "/nonexistent.cfg"]) == 4


class TestMain:
    @pytest.mark.parametrize("command, config", [
        ("chsh", "r = 0, 1, 2.5\n"),
        ("sweep", "sweep_alphas = pi, pi/2\nr = 0, 1, 2.5\nsweep_steps = 5\n"),
        # these fail at r = 20, and at (alpha, r) = (pi, 20)
        ("chsh", "r = 1, 20, 30\n"),
        ("sweep", "sweep_alphas = pi, pi/2\nr = 18, 20\nsweep_steps = 5\n"),
    ])
    def test_one_kernel_call_per_invocation(self, tmp_path, capsys, monkeypatch, command, config):
        # the run exits as a loop of scalar calls over its rows or curves, in
        # output order, would: 0, or 3 with the first error that loop raises,
        # named by its row or curve
        cfg = write_config(tmp_path, config)
        run_cfg = load_config(cfg)
        rows = {
            "chsh": [(f"chsh r={r:.6g} (dimensionless)",
                      lambda r=r: bell_S(STATE, REFERENCE_SETTINGS, r))
                     for r in run_cfg.r_values],
            "sweep": [(f"sweep alpha={alpha:.6g} rad, r={r:.6g} (dimensionless)",
                       lambda alpha=alpha, r=r: sweep_beta(STATE, alpha, r, run_cfg.beta_grid()))
                      for alpha in run_cfg.sweep_alphas for r in run_cfg.r_values],
        }
        expected = (0, "")
        for name, row in rows[command]:
            try:
                row()
            except ValueError as exc:
                expected = (3, f"numerical failure: {name}: {exc}\n")
                break
        kernel, calls = chsh.postselected_tables, []

        def counting(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(chsh, "postselected_tables", counting)
        code = main([command, "--config", cfg, "--format", "json"])
        assert (code, capsys.readouterr().err) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("out", [None, "out"])
    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_one_write_call_leaves_every_output(
        self, tmp_path, capsys, monkeypatch, command, out_format, out
    ):
        # _write is the one exit path: one call per run, and the run leaves
        # the one file --out names and no stdout, or without it stdout only
        cfg = write_config(tmp_path, dict(DOCUMENT_CONFIGS)[command], name="run.cfg")
        write, calls = cli._write, []

        def recording(*args, **kwargs):
            calls.append(args)
            return write(*args, **kwargs)

        monkeypatch.setattr(cli, "_write", recording)
        monkeypatch.chdir(tmp_path)
        argv = [command, "--config", "run.cfg", "--format", out_format]
        assert main(argv + (["--out", out] if out else [])) == 0
        assert len(calls) == 1
        left = {os.path.relpath(p, tmp_path) for p in tmp_path.rglob("*")}
        assert left - {"run.cfg"} == ({out} if out else set())
        assert bool(capsys.readouterr().out) == (out is None)

    def test_cached_parser_carries_no_state_between_calls(self, capsys, monkeypatch):
        # the first call's flags are the defaults; the fourth's are not, so a
        # flag carried over to the fifth call would change its plan
        argvs = (
            ["plan-frft", "--target", "5pi/4", "--inventory", "25,15"], ["chsh"], ["plan-frft"],
            ["plan-frft", "--target", "pi/2", "--inventory", "30", "--max-stages", "1"],
            ["plan-frft"],
        )

        def outputs():
            return [(main(list(argv)), capsys.readouterr()) for argv in argvs]

        assert cli._build_parser() is cli._build_parser()
        cached = outputs()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert cached == outputs()
        assert cached[3] != cached[4] and all(code == 0 for code, _ in cached)


def old_json_value(v, precision: int, key: str = ""):
    """The JSON rule as it was before the one-pass writer, kept as the
    oracle: the document with each float read back from its CSV cell, and
    an ndarray read as its tolist()."""
    if isinstance(v, np.ndarray):
        return old_json_value(v.tolist(), precision, key)
    if isinstance(v, dict):
        return {k: old_json_value(x, precision, k) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [old_json_value(x, precision) for x in v]
    if isinstance(v, (str, int)):  # bool is an int
        return v
    return float(cli._cell(key, v, precision))


def old_json_text(doc: dict, precision: int) -> str:
    return json.dumps(old_json_value(doc, precision), indent=2, sort_keys=True) + "\n"


PRECISIONS = [1, 6, 15, 16, 17]
# One small config per JSON-writing command.
DOCUMENT_CONFIGS = [
    ("chsh", "r = 0, 0.4, 1.3, 2.5, 3\n"),
    ("sweep", "r = 0.75, 2\nsweep_alphas = pi, pi/2\nsweep_steps = 9\n"),
    ("mc", "r = 0.5, 1\nmc_n = 20000\nmc_seed = 3\n"),
    ("optimize",
     "r = 1\nangle_grid_step = pi/4\nrefine_tol = 1e-2\ntarget_fidelity = 0.9275\n"),
    ("plan-frft", "frft_target = 5pi/4\nfrft_inventory_cm = 25, 15\nfrft_max_stages = 2\n"),
]
JSON_KEYS = st.one_of(st.sampled_from(["E_ab", "E_apbp", "S", "r", ""]), st.text(max_size=6))
JSON_DOCUMENTS = st.recursive(
    st.one_of(st.floats(), st.integers(), st.booleans(), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


class TestOutputRule:
    @given(
        st.floats(),
        st.sampled_from(["E_ab", "S"]),
        st.sampled_from(PRECISIONS),
    )
    @example(5474340356989.544, "S", 3)
    @example(5474340356989.544, "S", 6)
    @example(5474340356989.544, "S", 10)
    @example(1.570376581136e-312, "S", 15)
    @example(0.1, "S", 17)
    @example(5e-324, "S", 15)
    @example(math.nan, "S", 6)
    @example(math.inf, "S", 6)
    @example(-math.inf, "E_ab", 6)
    @example(1.5e308, "S", 1)
    @example(-0.0, "S", 6)
    @example(-0.0, "E_ab", 6)
    @example(-0.0004, "E_ab", 1)
    @example(0.0625, "E_ab", 6)
    @example(-0.1875, "E_ab", 17)
    @example(1.0005, "E_ab", 6)
    @example(2.5625, "S", 1)
    @example(1e300, "E_ab", 17)
    @example(1e300, "S", 17)
    @example(1e-300, "E_ab", 6)
    @example(-1e-300, "S", 1)
    def test_json_float_is_the_csv_cell(self, v, key, precision):
        got = json.loads(cli._json_text({key: v}, precision))[key]
        assert repr(got) == repr(float(cli._cell(key, v, precision)))
        # the rule written out: E columns at 3 decimals, other floats at
        # precision significant digits with -0 printed as 0
        if key.startswith("E_"):
            expected = round(v, 3)
        else:
            expected = float(f"{0.0 if v == 0.0 else v:.{precision}g}")
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("command,config", DOCUMENT_CONFIGS, ids=[c for c, _ in DOCUMENT_CONFIGS])
    def test_written_bytes_are_the_old_rule(self, tmp_path, monkeypatch, command, config, precision):
        docs = []
        write = cli._write
        monkeypatch.setattr(
            cli, "_write", lambda cfg, doc, *rest, **kw: docs.append(doc) or write(cfg, doc, *rest, **kw)
        )
        cfg = write_config(tmp_path, config + f"precision = {precision}\n")
        out = tmp_path / "out.json"
        assert main([command, "--config", cfg, "--format", "json", "--out", str(out)]) == 0
        (doc,) = docs
        expected = old_json_text({"schema_version": cli.SCHEMA_VERSION, **doc}, precision)
        assert out.read_bytes() == expected.encode()

    @given(st.dictionaries(JSON_KEYS, JSON_DOCUMENTS, max_size=5), st.sampled_from(PRECISIONS))
    @example({"": [], "E_ab": {}, "\u00e9\"": ("x\\y", True, 0, -0.0)}, 6)
    @example({"%": 0.0, "%s": "%%d", "E_%s": -0.0}, 6)
    @example({"": ["%s", "%%", 0.5]}, 15)
    @example({"E_ab": [np.array([[0.0, -0.0], [2.5, 1e300]]), np.array([5e-324, 0.1])]}, 1)
    @example({"r": np.array([1.0, np.nan, -np.inf, 1e17]), "E_ab": np.array(-0.0)}, 17)
    @example({"S": 5e-324, "": [1.570376581136e-312, -2.2250738585072e-308]}, 15)
    def test_any_document_is_the_old_rule(self, doc, precision):
        assert cli._json_text(doc, precision) + "\n" == old_json_text(doc, precision)
