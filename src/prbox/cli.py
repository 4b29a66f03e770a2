"""Command-line entry point.

Subcommands: sweep, chsh, mc, plan-frft, optimize.  Configuration comes
from a flat key=value file (see config.py); a few flags override config
fields.  Output is CSV or JSON at a configured precision, deterministic
given the config (plus the seed for Monte Carlo runs).

Exit codes: 0 success, 2 config validation failure, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys

from . import chsh as chsh_mod
from . import montecarlo as mc_mod
from .config import ConfigError, RunConfig, load_config, parse_number
from .frft import PlanNotFoundError, plan_lens_system
from .optimize import maximize_S, tune_r
from .state import GaussianTwoModeState, NonNormalizableStateError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _fmt(x: float, precision: int) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.{precision}g}"


def _round_sig(x: float, precision: int) -> float:
    return float(_fmt(x, precision))


def _emit(text: str, out_path: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out_path: str) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


def _state_from_config(cfg: RunConfig) -> GaussianTwoModeState:
    delta, gamma = cfg.effective_widths()
    return GaussianTwoModeState(delta=delta, gamma=gamma, scale_s=cfg.scale_s_mm)


def _settings_from_config(cfg: RunConfig, r: float) -> chsh_mod.MeasurementSettings:
    return chsh_mod.MeasurementSettings(
        alpha=cfg.alpha,
        alpha_prime=cfg.alpha_prime,
        beta=cfg.beta,
        beta_prime=cfg.beta_prime,
        r=r,
    )


def cmd_sweep(cfg: RunConfig) -> int:
    state = _state_from_config(cfg)
    grid = cfg.beta_grid()
    p = cfg.precision
    pairs = [(alpha, r) for alpha in cfg.sweep_alphas for r in cfg.r_dimensionless()]
    names = [f"sweep_alpha{alpha:.4f}_r{r:.4f}.csv" for alpha, r in pairs]
    if cfg.out_format == "csv":
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ConfigError(
                    f"two sweep curves would both be written to {name}: "
                    "sweep_alphas and r must differ at 4 decimals"
                )
    curves = []
    for alpha, r in pairs:
        points = chsh_mod.sweep_beta(state, alpha, r, grid)
        curves.append({"alpha_rad": alpha, "r": r, "points": points})
    reference = (
        chsh_mod.quantum_reference_curve(grid, cfg.reference_phase)
        if cfg.reference_curve
        else None
    )
    if cfg.out_format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "curves": [
                {
                    "alpha_rad": _round_sig(c["alpha_rad"], p),
                    "r": _round_sig(c["r"], p),
                    "points": [
                        [_round_sig(b, p), _round_sig(e, p)] for b, e in c["points"]
                    ],
                }
                for c in curves
            ],
        }
        if reference is not None:
            doc["reference"] = [
                [_round_sig(b, p), _round_sig(v, p)] for b, v in reference
            ]
        _emit_json(doc, cfg.out_path)
        return EXIT_OK
    out_dir = cfg.out_path or "."
    os.makedirs(out_dir, exist_ok=True)
    for c, name in zip(curves, names):
        lines = ["beta_rad,E,alpha_rad,r"]
        for b, e in c["points"]:
            lines.append(
                f"{_fmt(b, p)},{_fmt(e, p)},"
                f"{_fmt(c['alpha_rad'], p)},{_fmt(c['r'], p)}"
            )
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    if reference is not None:
        lines = ["beta_rad,E_reference"]
        for b, v in reference:
            lines.append(f"{_fmt(b, p)},{_fmt(v, p)}")
        with open(
            os.path.join(out_dir, "reference_curve.csv"), "w", encoding="utf-8"
        ) as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def _chsh_row(cfg: RunConfig, state, r_cfg: float, r_dimless: float) -> dict:
    tables = chsh_mod.setting_tables(state, _settings_from_config(cfg, r_dimless))
    e_vals = [chsh_mod.correlation_E(t) for t in tables]
    s = chsh_mod.S_from_tables(tables)
    report = chsh_mod.no_signaling_from_tables(tables)
    h_ave = 100.0 * sum(t.kept_fraction for t in tables) / 4.0
    return {
        "r": r_cfg,
        "H_ave_pct": h_ave,
        "E_ab": e_vals[0],
        "E_apb": e_vals[1],
        "E_abp": e_vals[2],
        "E_apbp": e_vals[3],
        "S": s,
        "P_AND": chsh_mod.and_gate_from_tables(tables),
        "fidelity": chsh_mod.pr_fidelity(s),
        "max_marginal_dev": report.max_deviation,
        "A_plus_ab": report.alice_plus[0, 0],
        "A_plus_abp": report.alice_plus[0, 1],
        "A_plus_apb": report.alice_plus[1, 0],
        "A_plus_apbp": report.alice_plus[1, 1],
        "B_plus_ab": report.bob_plus[0, 0],
        "B_plus_apb": report.bob_plus[0, 1],
        "B_plus_abp": report.bob_plus[1, 0],
        "B_plus_apbp": report.bob_plus[1, 1],
    }


def cmd_chsh(cfg: RunConfig) -> int:
    state = _state_from_config(cfg)
    p = cfg.precision
    rows = [
        _chsh_row(cfg, state, r_cfg, r_dim)
        for r_cfg, r_dim in zip(cfg.r_values, cfg.r_dimensionless())
    ]
    # correlation functions printed at 3 decimals (report convention)
    e_cols = ("E_ab", "E_apb", "E_abp", "E_apbp")
    if cfg.out_format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "r_unit": cfg.r_unit,
            "results": [
                {
                    k: (round(v, 3) if k in e_cols else _round_sig(v, p))
                    for k, v in row.items()
                }
                for row in rows
            ],
        }
        _emit_json(doc, cfg.out_path)
        return EXIT_OK
    cols = list(rows[0])
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for k in cols:
            if k in e_cols:
                cells.append(f"{row[k]:.3f}")
            else:
                cells.append(_fmt(row[k], p))
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", cfg.out_path)
    return EXIT_OK


def cmd_mc(cfg: RunConfig) -> int:
    state = _state_from_config(cfg)
    p = cfg.precision
    records = []
    for r_cfg, r_dim in zip(cfg.r_values, cfg.r_dimensionless()):
        pairs = chsh_mod.setting_pairs(_settings_from_config(cfg, r_dim))
        for k, (label, (a, b)) in enumerate(zip(chsh_mod.SETTING_LABELS, pairs)):
            seed = mc_mod.derive_setting_seed(cfg.mc_seed, k)
            counts = mc_mod.simulate_counts(
                state, a, b, r_dim, cfg.mc_n, seed, workers=cfg.mc_workers
            )
            est = mc_mod.estimate_probabilities(counts)
            records.append(
                {
                    "r": r_cfg,
                    "setting": label,
                    "alpha_rad": a,
                    "beta_rad": b,
                    "p_pp": est.p_pp,
                    "se_pp": est.se_pp,
                    "p_pm": est.p_pm,
                    "se_pm": est.se_pm,
                    "p_mp": est.p_mp,
                    "se_mp": est.se_mp,
                    "p_mm": est.p_mm,
                    "se_mm": est.se_mm,
                    "kept_fraction": est.kept_fraction,
                    "kept_se": est.kept_fraction_se,
                    "seed": seed,
                    "n": cfg.mc_n,
                }
            )
    if cfg.out_format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "r_unit": cfg.r_unit,
            "matrices": [
                {
                    k: (v if isinstance(v, (str, int)) else _round_sig(v, p))
                    for k, v in rec.items()
                }
                for rec in records
            ],
        }
        _emit_json(doc, cfg.out_path)
        return EXIT_OK
    cols = list(records[0].keys())
    lines = [",".join(cols)]
    for rec in records:
        cells = [
            str(v) if isinstance(v, (str, int)) else _fmt(v, p)
            for v in (rec[k] for k in cols)
        ]
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", cfg.out_path)
    return EXIT_OK


def cmd_plan_frft(cfg: RunConfig) -> int:
    plan = plan_lens_system(
        target=cfg.frft_target,
        inventory=cfg.frft_inventory_cm,
        max_stages=cfg.frft_max_stages,
        angle_tol=cfg.frft_angle_tol,
    )
    p = cfg.precision
    if cfg.out_format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "target_rad": _round_sig(cfg.frft_target, p),
            "composed_rad": _round_sig(plan.composed_order, p),
            "total_z_cm": _round_sig(plan.total_z_cm, p),
            "stages": [
                {
                    "angle_rad": _round_sig(s.order, p),
                    "f_cm": _round_sig(s.focal_cm, p),
                    "z_cm": _round_sig(s.z_cm, p),
                }
                for s in plan.stages
            ],
        }
        _emit_json(doc, cfg.out_path)
        return EXIT_OK
    lines = ["angle_rad,f_cm,z_cm"]
    for s in plan.stages:
        lines.append(f"{_fmt(s.order, p)},{_fmt(s.focal_cm, p)},{_fmt(s.z_cm, p)}")
    _emit("\n".join(lines) + "\n", cfg.out_path)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, reproduce: str = "prbox-sim optimize") -> int:
    state = _state_from_config(cfg)
    p = cfg.precision
    r = cfg.r_dimensionless()[0]
    result = maximize_S(
        state,
        r,
        angle_grid_step=cfg.angle_grid_step,
        refine_tol=cfg.refine_tol,
    )
    st = result.settings
    record = {
        "schema_version": SCHEMA_VERSION,
        "alpha_rad": _round_sig(st.alpha, p),
        "alpha_prime_rad": _round_sig(st.alpha_prime, p),
        "beta_rad": _round_sig(st.beta, p),
        "beta_prime_rad": _round_sig(st.beta_prime, p),
        "r": _round_sig(r, p),
        "S": _round_sig(result.objective, p),
        "fidelity": _round_sig(chsh_mod.pr_fidelity(result.objective), p),
        "iterations": result.iterations,
        "converged": result.converged,
        "reproduce": reproduce,
    }
    if cfg.target_fidelity > 0.0:
        tuned = tune_r(
            state,
            _settings_from_config(cfg, r),
            cfg.target_fidelity,
            cfg.tune_r_max,
        )
        record["tuned_r"] = _round_sig(tuned, p)
        record["target_fidelity"] = _round_sig(cfg.target_fidelity, p)
    if cfg.out_format == "json":
        _emit_json(record, cfg.out_path)
        return EXIT_OK
    cols = [k for k in record if k != "schema_version"]
    lines = [",".join(cols)]
    lines.append(
        ",".join(
            str(record[k]) if not isinstance(record[k], float) else _fmt(record[k], p)
            for k in cols
        )
    )
    _emit("\n".join(lines) + "\n", cfg.out_path)
    return EXIT_OK


_COMMANDS = {
    "sweep": cmd_sweep,
    "chsh": cmd_chsh,
    "mc": cmd_mc,
    "plan-frft": cmd_plan_frft,
    "optimize": cmd_optimize,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prbox-sim",
        description="Post-selected PR-box correlation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--out", default=None, help="output path (sweep csv: directory)")
        sp.add_argument("--format", default=None, choices=("csv", "json"))
        sp.add_argument("--seed", default=None, type=int, help="Monte Carlo seed")
        sp.add_argument(
            "--swap-widths",
            action="store_true",
            help="swap delta and gamma (convenience for width-swapped configs)",
        )
        if name == "plan-frft":
            sp.add_argument("--target", default=None, help="target rotation (rad)")
            sp.add_argument(
                "--inventory", default=None, help="comma-separated focal lengths (cm)"
            )
            sp.add_argument("--max-stages", default=None, type=int)
            sp.add_argument("--angle-tol", default=None, type=float)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides: dict = {}
    if args.out is not None:
        overrides["out_path"] = args.out
    if args.format is not None:
        overrides["out_format"] = args.format
    if args.seed is not None:
        overrides["mc_seed"] = args.seed
    if args.swap_widths:
        overrides["swap_widths"] = True
    if args.command == "plan-frft":
        if args.target is not None:
            overrides["frft_target"] = parse_number(args.target)
        if args.inventory is not None:
            items = [s for s in args.inventory.split(",") if s.strip()]
            overrides["frft_inventory_cm"] = tuple(parse_number(s) for s in items)
        if args.max_stages is not None:
            overrides["frft_max_stages"] = args.max_stages
        if args.angle_tol is not None:
            overrides["frft_angle_tol"] = args.angle_tol
    if args.config is not None:
        return load_config(args.config, overrides)
    from .config import parse_config_text

    return parse_config_text("", overrides)


def main(argv=None) -> int:
    raw_args = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(raw_args)
    try:
        cfg = _config_from_args(args)
        if args.command == "optimize":
            repro = "prbox-sim " + " ".join(shlex.quote(a) for a in raw_args)
            return cmd_optimize(cfg, repro)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        NonNormalizableStateError,
        chsh_mod.EmptyPostSelectionError,
        mc_mod.InsufficientCountsError,
        PlanNotFoundError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
