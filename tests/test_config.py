import argparse
import math
import re
from dataclasses import fields

import pytest

from prbox import cli, config
from prbox.config import ConfigError, RunConfig, parse_config_text, parse_number
from prbox.optimize import MAX_GRID_ANGLES, MIN_GRID_ANGLES, angle_grid

PI = math.pi


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", PI),
            ("2pi", 2 * PI),
            ("5pi/4", 5 * PI / 4),
            ("pi/2", PI / 2),
            ("-pi/8", -PI / 8),
            ("29pi/50", 29 * PI / 50),
            ("0.5pi", 0.5 * PI),
            ("3/4", 0.75),
            ("-1/2", -0.5),
            ("0.75", 0.75),
            ("2", 2.0),
            ("1e-3", 1e-3),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert parse_number(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("text", ["", "pie", "pi/0", "1/0", "2,3"])
    def test_rejected_forms(self, text):
        with pytest.raises(ConfigError):
            parse_number(text)


class TestParseConfig:
    def test_full_file(self):
        cfg = parse_config_text(
            """
            # reproduces the width-swapped sweep setup
            delta = 5/4
            gamma = 3/4
            swap_widths = true
            alpha = pi
            alpha_prime = pi/2
            beta = 5pi/4
            beta_prime = 3pi/4
            r = 0.75, 1, 2
            r_unit = dimensionless
            sweep_steps = 49
            format = csv
            """
        )
        assert cfg.delta == pytest.approx(1.25)
        assert cfg.swap_widths is True
        assert cfg.effective_widths() == (pytest.approx(0.75), pytest.approx(1.25))
        assert cfg.r_values == (0.75, 1.0, 2.0)
        assert cfg.beta == pytest.approx(5 * PI / 4)

    def test_defaults(self):
        cfg = parse_config_text("")
        assert cfg.delta == 0.75
        assert cfg.gamma == 1.25
        assert cfg.r_unit == "dimensionless"
        assert cfg.out_format == "csv"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("darkness = 1\n")

    def test_value_errors_name_their_line(self):
        with pytest.raises(ConfigError, match=r"^line 1: cannot parse number 'abc'"):
            parse_config_text("delta = abc\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("delta 0.75\n")

    def test_bad_unit_rejected(self):
        with pytest.raises(ConfigError, match="r_unit"):
            parse_config_text("r_unit = inches\n")

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("format = xml\n")

    def test_negative_r_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("r = -0.5\n")

    @pytest.mark.parametrize("text", ["0", "-0.1", "1e-9", "2pi/257", "pi", "4", "2pi", "10"])
    def test_grid_step_it_cannot_hold_rejected(self, text):
        # optimize's grid rule and message, refused before any command runs
        step = parse_number(text)
        message = (f"angle_grid_step must be finite and give {MIN_GRID_ANGLES} to "
                   f"{MAX_GRID_ANGLES} grid angles per axis, got {step}")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_text(f"angle_grid_step = {text}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(angle_grid_step=step)

    @pytest.mark.parametrize("text", ["2pi/256", "pi/12", "3.14"])
    def test_grid_step_it_can_hold_accepted(self, text):
        cfg = parse_config_text(f"angle_grid_step = {text}\n")
        assert MIN_GRID_ANGLES <= len(angle_grid(cfg.angle_grid_step)) <= MAX_GRID_ANGLES

    def test_overrides_win(self):
        cfg = parse_config_text("mc_seed = 1\n", overrides={"mc_seed": 42})
        assert cfg.mc_seed == 42


class TestUnitHandling:
    def test_mm_conversion(self):
        cfg = parse_config_text(
            "r = 0.1, 0.2, 0.5\nr_unit = mm\nscale_s_mm = 0.25\n"
        )
        assert cfg.r_dimensionless() == (
            pytest.approx(0.4),
            pytest.approx(0.8),
            pytest.approx(2.0),
        )

    def test_dimensionless_passthrough(self):
        cfg = parse_config_text("r = 1.5\n")
        assert cfg.r_dimensionless() == (1.5,)


class TestBetaGrid:
    def test_single_step(self):
        cfg = parse_config_text("sweep_steps = 1\nsweep_beta_min = 0.3\n")
        assert cfg.beta_grid() == (0.3,)

    def test_endpoints_included(self):
        cfg = parse_config_text(
            "sweep_steps = 5\nsweep_beta_min = 0\nsweep_beta_max = 2pi\n"
        )
        grid = cfg.beta_grid()
        assert len(grid) == 5
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2 * PI)


def test_runconfig_is_frozen():
    cfg = RunConfig()
    with pytest.raises(Exception):
        cfg.delta = 2.0


def test_every_field_has_exactly_one_key_parser():
    key_sets = (
        config._FLOAT_KEYS,
        config._INT_KEYS,
        config._BOOL_KEYS,
        config._LIST_KEYS,
        config._STR_KEYS,
    )
    names = [f.name for f in fields(RunConfig)]
    assert sorted(k for keys in key_sets for k in keys) == sorted(names)


def test_every_flag_sets_the_field_of_its_dest():
    # each flag goes through config.parse_value under its dest, so a dest
    # that is not a field name would be an unknown key
    names = {f.name for f in fields(RunConfig)}
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sp in subparsers.choices.items():
        dests = {a.dest for a in sp._actions if a.option_strings} - {"help", "config"}
        assert dests and dests <= names, command
