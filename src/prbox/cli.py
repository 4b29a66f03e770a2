"""Command-line entry point.

Subcommands: sweep, chsh, mc, plan-frft, optimize.  Configuration comes
from a flat key=value file (see config.py); a few flags override config
fields.  Output is CSV or JSON at a configured precision, deterministic
given the config (plus the seed for Monte Carlo runs).

Every subcommand builds a document of raw values and writes it through
``_write``, which states the one output rule.  JSON is the document plus
``"schema_version": "1"``; CSV is the document's rows under a header taken
from the row keys (``sweep`` writes one CSV file per curve).  In both, the
four ``E_*`` correlation columns of ``chsh`` are printed at 3 decimals, other
floats at ``precision`` significant digits with -0 printed as 0, and
strings, integers and booleans as they are.

Exit codes: 0 success, 2 config validation failure, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from . import chsh as chsh_mod
from . import montecarlo as mc_mod
from .config import ConfigError, RunConfig, load_config, parse_config_text
from .config import parse_list, parse_number
from .frft import plan_lens_system
from .optimize import maximize_S, tune_r
from .state import GaussianTwoModeState

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Correlation columns of a chsh row, in setting_tables order, printed at 3
# decimals (report convention).
_E_COLUMNS = ("E_ab", "E_apb", "E_abp", "E_apbp")


def _fmt(x: float, precision: int) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.{precision}g}"


def _json_value(v, precision: int, key: str = ""):
    if isinstance(v, dict):
        return {k: _json_value(x, precision, k) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x, precision) for x in v]
    if isinstance(v, (str, int)):  # bool is an int
        return v
    if key in _E_COLUMNS:
        return round(v, 3)
    return float(_fmt(v, precision))


def _cell(key: str, v, precision: int) -> str:
    if isinstance(v, (str, int)):
        return str(v)
    if key in _E_COLUMNS:
        return f"{v:.3f}"
    return _fmt(v, precision)


def _csv_text(rows: list[dict], precision: int, header: list[str] | None = None) -> str:
    header = header or list(rows[0])
    lines = [",".join(header)]
    lines += [",".join(_cell(k, row[k], precision) for k in header) for row in rows]
    return "\n".join(lines) + "\n"


def _write(
    cfg: RunConfig, doc: dict, rows: list[dict], header: list[str] | None = None
) -> int:
    """Write doc as JSON or rows as CSV to cfg.out_path, or to stdout."""
    if cfg.out_format == "json":
        doc = _json_value({"schema_version": SCHEMA_VERSION, **doc}, cfg.precision)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = _csv_text(rows, cfg.precision, header)
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


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
    r_dim = cfg.r_dimensionless()
    pairs = [(alpha, r) for alpha in cfg.sweep_alphas for r in r_dim]
    names = [f"sweep_alpha{alpha:.4f}_r{r:.4f}.csv" for alpha, r in pairs]
    if cfg.out_format == "csv":
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ConfigError(
                    f"two sweep curves would both be written to {name}: "
                    "sweep_alphas and r must differ at 4 decimals"
                )
    try:
        e = chsh_mod.correlation_grid(state, cfg.sweep_alphas, grid, r_dim)
    except ValueError:
        for alpha, r in pairs:  # the first failing curve, in output order, raises
            chsh_mod.sweep_beta(state, alpha, r, grid)
        raise
    curves = [
        {"alpha_rad": alpha, "r": r, "points": list(zip(grid, e[k, i].tolist()))}
        for i, alpha in enumerate(cfg.sweep_alphas)
        for k, r in enumerate(r_dim)
    ]
    reference = (
        chsh_mod.quantum_reference_curve(grid, cfg.reference_phase)
        if cfg.reference_curve
        else None
    )
    if cfg.out_format == "json":
        doc = {"curves": curves}
        if reference is not None:
            doc["reference"] = reference
        return _write(cfg, doc, [])
    files = {
        name: [
            {"beta_rad": b, "E": e, "alpha_rad": c["alpha_rad"], "r": c["r"]}
            for b, e in c["points"]
        ]
        for c, name in zip(curves, names)
    }
    if reference is not None:
        files["reference_curve.csv"] = [
            {"beta_rad": b, "E_reference": v} for b, v in reference
        ]
    out_dir = cfg.out_path or "."
    os.makedirs(out_dir, exist_ok=True)
    for name, rows in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(_csv_text(rows, cfg.precision))
    return EXIT_OK


def _chsh_row(r_cfg: float, tables: tuple[chsh_mod.JointProbTable, ...]) -> dict:
    s = chsh_mod.S_from_tables(tables)
    report = chsh_mod.no_signaling_from_tables(tables)
    return {
        "r": r_cfg,
        "H_ave_pct": 100.0 * sum(t.kept_fraction for t in tables) / 4.0,
        **{col: chsh_mod.correlation_E(t) for col, t in zip(_E_COLUMNS, tables)},
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
    arrays = chsh_mod.postselected_tables(
        state, (cfg.alpha, cfg.alpha_prime), (cfg.beta, cfg.beta_prime),
        cfg.r_dimensionless(),
    )
    rows = [
        _chsh_row(r_cfg, chsh_mod.joint_tables(*rung))
        for r_cfg, *rung in zip(cfg.r_values, *arrays)
    ]
    return _write(cfg, {"r_unit": cfg.r_unit, "results": rows}, rows)


def cmd_mc(cfg: RunConfig) -> int:
    state = _state_from_config(cfg)
    records = []
    for r_cfg, r_dim in zip(cfg.r_values, cfg.r_dimensionless()):
        settings = _settings_from_config(cfg, r_dim)
        estimates = mc_mod.setting_estimates(
            state, settings, cfg.mc_n, cfg.mc_seed, cfg.mc_workers
        )
        pairs = chsh_mod.setting_pairs(settings)
        for label, (a, b), (seed, est) in zip(chsh_mod.SETTING_LABELS, pairs, estimates):
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
    return _write(cfg, {"r_unit": cfg.r_unit, "matrices": records}, records)


def cmd_plan_frft(cfg: RunConfig) -> int:
    plan = plan_lens_system(
        target=cfg.frft_target,
        inventory=cfg.frft_inventory_cm,
        max_stages=cfg.frft_max_stages,
        angle_tol=cfg.frft_angle_tol,
    )
    stages = [
        {"angle_rad": s.order, "f_cm": s.focal_cm, "z_cm": s.z_cm} for s in plan.stages
    ]
    doc = {
        "target_rad": cfg.frft_target,
        "composed_rad": plan.composed_order,
        "total_z_cm": plan.total_z_cm,
        "stages": stages,
    }
    return _write(cfg, doc, stages, header=["angle_rad", "f_cm", "z_cm"])


def cmd_optimize(cfg: RunConfig, reproduce: str = "prbox-sim optimize") -> int:
    state = _state_from_config(cfg)
    r = cfg.r_dimensionless()[0]
    result = maximize_S(
        state,
        r,
        angle_grid_step=cfg.angle_grid_step,
        refine_tol=cfg.refine_tol,
    )
    st = result.settings
    record = {
        "alpha_rad": st.alpha,
        "alpha_prime_rad": st.alpha_prime,
        "beta_rad": st.beta,
        "beta_prime_rad": st.beta_prime,
        "r": r,
        "S": result.objective,
        "fidelity": chsh_mod.pr_fidelity(result.objective),
        "iterations": result.iterations,
        "converged": result.converged,
        "reproduce": reproduce,
    }
    if cfg.target_fidelity > 0.0:
        record["tuned_r"] = tune_r(
            state,
            _settings_from_config(cfg, r),
            cfg.target_fidelity,
            cfg.tune_r_max,
        )
        record["target_fidelity"] = cfg.target_fidelity
    return _write(cfg, record, [record])


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
            overrides["frft_inventory_cm"] = parse_list(args.inventory)
        if args.max_stages is not None:
            overrides["frft_max_stages"] = args.max_stages
        if args.angle_tol is not None:
            overrides["frft_angle_tol"] = args.angle_tol
    if args.config is not None:
        return load_config(args.config, overrides)
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
    except ValueError as exc:  # every named numerical error subclasses it
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
