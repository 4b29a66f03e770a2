"""Command-line entry point.

Subcommands: sweep, chsh, mc, plan-frft, optimize.  Configuration comes
from a flat key=value file (see config.py); each flag sets the config key
of the same meaning, in the same notation.  Output is CSV or JSON at a
configured precision, deterministic given the config (plus the seed for
Monte Carlo runs).

Every subcommand builds a document of raw values and writes it through
``_write``, the one output rule.  JSON is the document plus
``"schema_version": "1"``; CSV is its rows under a header of the row keys
(``sweep`` writes one file per curve), a cell quoted only if it holds a
comma, a double quote or a line break (RFC 4180).  In both, the ``E_*``
correlation columns of ``chsh`` are printed at 3 decimals, other floats at
``precision`` significant digits with -0 as 0, and the rest as they are.
JSON is written in one pass from the document to text, with the bytes of
``json.dumps(indent=2, sort_keys=True)``: a float is the repr of its CSV
cell read back, or NaN, Infinity, -Infinity.

Exit codes: 0 success, 2 config validation failure, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import shlex
import sys
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import chsh as chsh_mod
from . import montecarlo as mc_mod
from .config import ConfigError, RunConfig, load_config, parse_config_text, parse_value
from .frft import plan_lens_system
from .optimize import maximize_S, tune_r
from .state import GaussianTwoModeState

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Correlation columns of a chsh row, in SETTING_LABELS order, printed at 3
# decimals (report convention).
_E_COLUMNS = ("E_ab", "E_apb", "E_abp", "E_apbp")
# Sign outcomes of an mc record's p_* and se_* columns, in ProbEstimate order.
_OUTCOMES = ("pp", "pm", "mp", "mm")
# JSON's spelling of the non-finite floats.
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_MIN_NORMAL = sys.float_info.min


def _json_text(v, precision: int, key: str = "", indent: str = "\n") -> str:
    """v as JSON text, keys sorted and indented by two spaces; a float is
    float.__repr__ of its CSV cell, or NaN, Infinity, -Infinity."""
    inner = indent + "  "
    if isinstance(v, dict):
        items = [head + (_json_float(k, x, precision) if type(x := v[k]) is float
                         else _json_text(x, precision, k, inner))
                 for k, head in _json_heads(tuple(v), inner)]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(v, (list, tuple)):
        items = [_json_float("", x, precision) if type(x) is float
                 else _json_text(x, precision, "", inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(v, str):
        return _json_str(v)
    if isinstance(v, int):  # bool is an int
        return "true" if v is True else "false" if v is False else int.__repr__(v)
    return _json_float(key, v, precision)


@functools.lru_cache(maxsize=64)
def _json_heads(keys: tuple, indent: str) -> tuple[tuple[str, str], ...]:
    """Each key in sorted order, with its text up to the value: rows that
    share their keys sort them once."""
    return tuple((k, indent + _json_str(k) + ": ") for k in sorted(keys))


def _json_float(key: str, v, precision: int) -> str:
    text = _cell(key, v, precision)
    # A normal double's cell at <= 15 significant digits is its repr, unless
    # the notations differ: E+ (repr is positional below 1e16) or no point.
    if (precision <= 15 and key not in _E_COLUMNS and "e+" not in text
            and ("." in text or "e" in text) and abs(v) >= _MIN_NORMAL):
        return text
    text = repr(float(text))  # 2e+308 reads back as inf
    return _JSON_SPECIAL.get(text, text)


def _cell(key: str, v, precision: int) -> str:
    if isinstance(v, str):
        return '"' + v.replace('"', '""') + '"' if any(c in v for c in ',"\r\n') else v
    if isinstance(v, int):
        return str(v)
    if key in _E_COLUMNS:
        return f"{v:.3f}"
    return f"{v + 0.0:.{precision}g}"  # + 0.0 prints -0 as 0


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
        text = _json_text({"schema_version": SCHEMA_VERSION, **doc}, cfg.precision) + "\n"
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
    return GaussianTwoModeState(delta=delta, gamma=gamma)


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
    # axes in output order, so the first failing curve raises
    e = chsh_mod.correlation_grid(
        state, np.array(cfg.sweep_alphas)[:, None, None], grid, np.array(r_dim)[:, None]
    )
    curves = [
        {"alpha_rad": alpha, "r": r, "points": list(zip(grid, points))}
        for (alpha, r), points in zip(pairs, e.reshape(len(pairs), -1).tolist())
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


def cmd_chsh(cfg: RunConfig) -> int:
    state = _state_from_config(cfg)
    e, s, p_and, plus, max_dev, kept_pct = chsh_mod.chsh_values(*chsh_mod.postselected_tables(
        state, [[cfg.alpha], [cfg.alpha_prime]], (cfg.beta, cfg.beta_prime),
        np.array(cfg.r_dimensionless())[:, None, None],
    ))
    # Alice's P(+) at (alpha_i, beta_j) is Bob's at (beta_j, alpha_i): the A
    # columns run over i then j, the B columns in SETTING_LABELS order
    labels = chsh_mod.SETTING_LABELS
    columns = {
        "H_ave_pct": kept_pct,
        **dict(zip(_E_COLUMNS, chsh_mod.setting_columns(e))),
        "S": s,
        "P_AND": p_and,
        "fidelity": np.array([chsh_mod.pr_fidelity(x) for x in s.tolist()]),
        "max_marginal_dev": max_dev,
        **{"A_plus_" + k: x for k, x in zip(("ab", "abp", "apb", "apbp"), plus.reshape(-1, 4).T)},
        **{"B_plus_" + k: x for k, x in zip(labels, chsh_mod.setting_columns(plus))},
    }
    values = np.stack(list(columns.values()), axis=-1).tolist()
    rows = [{"r": r, **dict(zip(columns, row))} for r, row in zip(cfg.r_values, values)]
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
        for label, (a, b), est in zip(chsh_mod.SETTING_LABELS, pairs, estimates):
            records.append({
                "r": r_cfg,
                "setting": label,
                "alpha_rad": a,
                "beta_rad": b,
                **{f"{x}_{k}": getattr(est, f"{x}_{k}") for k in _OUTCOMES for x in ("p", "se")},
                "kept_fraction": est.kept_fraction,
                "kept_se": est.kept_fraction_se,
                "seed": est.seed,
                "n": cfg.mc_n,
            })
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
    if len(cfg.r_values) != 1:
        raise ConfigError(f"optimize takes exactly one r, got {len(cfg.r_values)} r_values")
    state = _state_from_config(cfg)
    (r,) = cfg.r_dimensionless()
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prbox-sim",
        description="Post-selected PR-box correlation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        # a word such as -3pi/4 is a flag's value, not an option
        sp._negative_number_matcher = re.compile(r"-\.?\d|-pi")
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--out", dest="out_path", help="output path (sweep csv: directory)")
        sp.add_argument("--format", dest="out_format", help="csv or json")
        sp.add_argument("--seed", dest="mc_seed", help="Monte Carlo seed")
        sp.add_argument(
            "--swap-widths", dest="swap_widths", action="store_const", const="true",
            help="swap delta and gamma (convenience for width-swapped configs)",
        )
        if name == "plan-frft":
            sp.add_argument("--target", dest="frft_target", help="target rotation (rad)")
            sp.add_argument(
                "--inventory", dest="frft_inventory_cm", help="comma-separated focal lengths (cm)"
            )
            sp.add_argument("--max-stages", dest="frft_max_stages")
            sp.add_argument("--angle-tol", dest="frft_angle_tol")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {}
    for k, v in vars(args).items():
        if v is not None and k not in ("command", "config"):
            try:
                overrides[k] = parse_value(k, v)
            except ConfigError as exc:  # name the key, as an int key's message does
                raise ConfigError(str(exc) if str(exc).startswith(k) else f"{k}: {exc}") from None
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
