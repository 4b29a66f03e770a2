"""Command-line entry point.

Subcommands: sweep, chsh, mc, plan-frft, optimize.  Configuration comes
from a flat key=value file (see config.py); each flag sets the config key
of the same meaning, in the same notation.  Output is CSV or JSON at a
configured precision, deterministic given the config (plus the seed for
Monte Carlo runs).

Every subcommand builds a document of raw values, and in CSV its files of
rows, and returns ``_write``, the one exit path: nothing else opens an
output file or writes to stdout.  JSON is the document plus
``"schema_version": "1"``, written to ``out_path`` or stdout.  CSV writes
each file's rows under a header of the row keys, a cell quoted only if it
holds a comma, a double quote or a line break (RFC 4180); the file named ""
goes to ``out_path`` or stdout, any other name into the ``out_path``
directory (``sweep``'s file per curve and its reference curve).  In both,
the ``E_*`` correlation columns of ``chsh`` are printed at 3 decimals,
other floats at ``precision`` significant digits with -0 as 0, and the
rest as they are; one helper states the float formats.  JSON has the
bytes of ``json.dumps(indent=2, sort_keys=True)``: a float is the repr of
its CSV cell read back, or NaN, Infinity, -Infinity.  One % call formats
all its floats; only tokens that may not be their repr are rewritten.

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

# Correlation columns of a chsh row, printed at 3 decimals (report convention).
_E_COLUMNS = tuple("E_" + label for label in chsh_mod.SETTING_LABELS)
# Sign outcomes of an mc record's p_* and se_* columns, in ProbEstimate order.
_OUTCOMES = ("pp", "pm", "mp", "mm")
# JSON's spelling of the non-finite floats.
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# A float's JSON slot is its % format behind the mark \x00, then \x01 if each
# token is rewritten (fixed-point ones keep trailing zeros; 16 or 17 digits may
# outrun the repr).  Other tokens are rewritten if they have neither point nor
# exponent, an e+ exponent (repr is positional below 1e16) or one of -308 or
# less (maybe subnormal).  A token ends at a comma or a line break.
_NOT_REPR = re.compile(
    r"\x00(?:\x01[^,\n]*|[-0-9]+(?=[,\n])|[-0-9.]*e(?:\+|-30[89]|-3[12][0-9])[0-9]*|nan|-?inf)"
)


def _json_text(doc: dict, precision: int) -> str:
    """doc as JSON text, keys sorted and indented by two spaces; a float is
    float.__repr__ of its CSV cell, or NaN, Infinity, -Infinity."""
    values = []
    text = _json_template(doc, precision, values) % tuple(values)
    return _NOT_REPR.sub(_json_repr, text).replace("\x00", "")


def _json_repr(token: re.Match) -> str:
    text = repr(float(token[0].lstrip("\x00\x01")))  # 2e+308 reads back as inf
    return _JSON_SPECIAL.get(text, text)


def _json_template(v, precision: int, values: list, key: str = "", indent: str = "\n") -> str:
    """v as a JSON % template, keys sorted and indented by two spaces, with
    a slot for each float, whose value is appended to values; a float array
    is one step: all its values at once and one row's template repeated."""
    inner = indent + "  "
    if isinstance(v, dict):
        items = []
        for k, head, slot, zero in _json_heads(tuple(v), inner, precision):
            if type(x := v[k]) is float:
                values.append(x + zero)
            else:
                slot = head + _json_template(x, precision, values, k, inner)
            items.append(slot)
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(v, np.ndarray):
        if not (v.ndim and v.size and v.dtype.kind == "f"):
            return _json_template(v.tolist(), precision, values, key, indent)
        values += (v + 0.0).ravel().tolist()
        row = _json_template(v[0] if v.ndim > 1 else 0.0, precision, [], "", inner)
        return "[" + inner + ("," + inner).join([row] * len(v)) + indent + "]"
    if isinstance(v, (list, tuple)):
        items = [_json_template(x, precision, values, "", inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(v, str):
        return _json_str(v).replace("%", "%%")
    if isinstance(v, int):  # bool is an int
        return "true" if v is True else "false" if v is False else int.__repr__(v)
    _, zero, slot = _float_format(key, precision)
    values.append(v + zero)
    return slot


@functools.lru_cache(maxsize=64)
def _json_heads(keys: tuple, indent: str, precision: int) -> tuple[tuple, ...]:
    """Each key in sorted order, with its text up to the value, that text
    and the key's float slot, and the slot's zero: rows that share their
    keys sort them once."""
    heads = []
    for k in sorted(keys):
        head = indent + _json_str(k).replace("%", "%%") + ": "
        _, zero, slot = _float_format(k, precision)
        heads.append((k, head, head + slot, zero))
    return tuple(heads)


def _float_format(key: str, precision: int) -> tuple[str, float, str]:
    """The % format of a float under key, the zero to add to the float
    first, and its JSON slot: an E column at 3 decimals as it is (v + -0.0
    is v), any other float at precision significant digits with -0 as 0."""
    if key in _E_COLUMNS:
        return "%.3f", -0.0, "\x00\x01%.3f"
    fmt = f"%.{precision}g"
    return fmt, 0.0, ("\x00\x01" if precision > 15 else "\x00") + fmt


def _cell(key: str, v, precision: int) -> str:
    if isinstance(v, str):
        return '"' + v.replace('"', '""') + '"' if any(c in v for c in ',"\r\n') else v
    if isinstance(v, int):
        return str(v)
    fmt, zero, _ = _float_format(key, precision)
    return fmt % (v + zero)


def _csv_text(rows: list[dict], precision: int, header: list[str] | None = None) -> str:
    header = header or list(rows[0])
    lines = [",".join(header)]
    lines += [",".join(_cell(k, row[k], precision) for k in header) for row in rows]
    return "\n".join(lines) + "\n"


def _write(
    cfg: RunConfig, doc: dict, files: dict[str, list[dict]], header: list[str] | None = None
) -> int:
    """Write doc as JSON to cfg.out_path, or to stdout; or each name: rows
    entry of files as CSV, the name "" to cfg.out_path or stdout and any
    other name to that file in the cfg.out_path directory (default ".")."""
    if cfg.out_format == "json":
        texts = {"": _json_text({"schema_version": SCHEMA_VERSION, **doc}, cfg.precision) + "\n"}
    else:
        texts = {name: _csv_text(rows, cfg.precision, header) for name, rows in files.items()}
    out_dir = cfg.out_path or "."
    if any(texts):
        os.makedirs(out_dir, exist_ok=True)
    for name, text in texts.items():
        path = os.path.join(out_dir, name) if name else cfg.out_path
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return EXIT_OK


def _state_from_config(cfg: RunConfig) -> GaussianTwoModeState:
    delta, gamma = cfg.effective_widths()
    return GaussianTwoModeState(delta=delta, gamma=gamma)


def _settings(cfg: RunConfig) -> chsh_mod.MeasurementSettings:
    return chsh_mod.MeasurementSettings(cfg.alpha, cfg.alpha_prime, cfg.beta, cfg.beta_prime)


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
    points = chsh_mod.sweep_beta(state, np.array(cfg.sweep_alphas)[:, None], np.array(r_dim), grid)
    points = points.reshape(len(pairs), len(grid), 2)  # (beta, E) rows
    curves = [{"alpha_rad": alpha, "r": r, "points": p} for (alpha, r), p in zip(pairs, points)]
    doc, files = {"curves": curves}, {}
    if cfg.reference_curve:
        doc["reference"] = chsh_mod.quantum_reference_curve(grid, cfg.reference_phase)
    if cfg.out_format == "csv":  # a JSON run builds no rows
        files = {
            name: [{"beta_rad": b, "E": e, "alpha_rad": c["alpha_rad"], "r": c["r"]}
                   for b, e in c["points"].tolist()]
            for c, name in zip(curves, names)
        }
        if cfg.reference_curve:
            files["reference_curve.csv"] = [
                {"beta_rad": b, "E_reference": v} for b, v in doc["reference"]
            ]
    return _write(cfg, doc, files)


def cmd_chsh(cfg: RunConfig) -> int:
    state = _state_from_config(cfg)
    e, s, p_and, plus, max_dev, kept_pct = chsh_mod.chsh_values(*chsh_mod.setting_tables(
        state, _settings(cfg), np.array(cfg.r_dimensionless())[:, None, None]
    ))
    # Alice's P(+) at (alpha_i, beta_j) is Bob's at (beta_j, alpha_i): the A
    # columns run over i then j, plus[..., i, j] naming the label whose setting
    # column is flat index 2i + j; the B columns run in SETTING_LABELS order
    labels = chsh_mod.SETTING_LABELS
    ij = np.argsort(chsh_mod.setting_columns(np.arange(4).reshape(2, 2)))
    columns = {
        "H_ave_pct": kept_pct,
        **dict(zip(_E_COLUMNS, chsh_mod.setting_columns(e))),
        "S": s,
        "P_AND": p_and,
        "fidelity": np.array([chsh_mod.pr_fidelity(x) for x in s.tolist()]),
        "max_marginal_dev": max_dev,
        **{"A_plus_" + labels[k]: x for k, x in zip(ij, plus.reshape(-1, 4).T)},
        **{"B_plus_" + k: x for k, x in zip(labels, chsh_mod.setting_columns(plus))},
    }
    values = np.stack(list(columns.values()), axis=-1).tolist()
    rows = [{"r": r, **dict(zip(columns, row))} for r, row in zip(cfg.r_values, values)]
    return _write(cfg, {"r_unit": cfg.r_unit, "results": rows}, {"": rows})


def cmd_mc(cfg: RunConfig) -> int:
    state = _state_from_config(cfg)
    settings = _settings(cfg)
    pairs = chsh_mod.setting_pairs(settings)
    records = []
    for r_cfg, r_dim in zip(cfg.r_values, cfg.r_dimensionless()):
        estimates = mc_mod.setting_estimates(
            state, settings, r_dim, cfg.mc_n, cfg.mc_seed, cfg.mc_workers
        )
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
    return _write(cfg, {"r_unit": cfg.r_unit, "matrices": records}, {"": records})


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
    return _write(cfg, doc, {"": stages}, header=["angle_rad", "f_cm", "z_cm"])


def cmd_optimize(cfg: RunConfig, reproduce: str) -> int:
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
        record["tuned_r"] = tune_r(state, _settings(cfg), cfg.target_fidelity, cfg.tune_r_max)
        record["target_fidelity"] = cfg.target_fidelity
    return _write(cfg, record, {"": [record]})


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
