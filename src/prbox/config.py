"""Flat key=value run configuration with pi-suffix angle notation.

Angles may be written as multiples of pi ("5pi/4", "pi/2", "-3pi/4",
"0.58pi"), plain numbers, or simple fractions ("3/4").  Lists are
comma-separated.  Unknown keys are rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

TWO_PI = 2.0 * math.pi

_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")
_FRACTION_RE = re.compile(r"^([+-]?\d+(?:\.\d+)?)/(\d+(?:\.\d+)?)$")


class ConfigError(ValueError):
    """Invalid configuration file or field value."""


def parse_number(text: str) -> float:
    """Parse a float, a simple fraction, or a multiple of pi."""
    text = text.strip().replace(" ", "")
    m = _PI_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        if div == 0.0:
            raise ConfigError(f"zero denominator in {text!r}")
        return sign * coef * math.pi / div
    m = _FRACTION_RE.match(text)
    if m:
        denom = float(m.group(2))
        if denom == 0.0:
            raise ConfigError(f"zero denominator in {text!r}")
        return float(m.group(1)) / denom
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse number {text!r}") from None


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def _parse_list(text: str) -> tuple[float, ...]:
    items = [s for s in (p.strip() for p in text.split(",")) if s]
    if not items:
        raise ConfigError(f"empty list value {text!r}")
    return tuple(parse_number(s) for s in items)


@dataclass(frozen=True)
class RunConfig:
    """All tunables for one simulation run."""

    # state
    delta: float = 0.75
    gamma: float = 1.25
    scale_s_mm: float = 1.0
    swap_widths: bool = False
    # measurement settings
    alpha: float = math.pi
    alpha_prime: float = math.pi / 2.0
    beta: float = 5.0 * math.pi / 4.0
    beta_prime: float = 3.0 * math.pi / 4.0
    r_values: tuple[float, ...] = (1.0,)
    r_unit: str = "dimensionless"
    # monte carlo
    mc_n: int = 1_000_000
    mc_seed: int = 0
    mc_workers: int = 1
    # sweep
    sweep_beta_min: float = 0.0
    sweep_beta_max: float = TWO_PI
    sweep_steps: int = 97
    sweep_alphas: tuple[float, ...] = (math.pi, math.pi / 2.0)
    reference_curve: bool = False
    reference_phase: float = 0.0
    # frft planning
    frft_target: float = 5.0 * math.pi / 4.0
    frft_inventory_cm: tuple[float, ...] = (25.0, 15.0)
    frft_max_stages: int = 2
    frft_angle_tol: float = 1e-3
    # optimizer
    angle_grid_step: float = math.pi / 12.0
    refine_tol: float = 1e-4
    target_fidelity: float = 0.0
    tune_r_max: float = 3.0
    # output
    out_format: str = "csv"
    out_path: str = ""
    precision: int = 6

    def __post_init__(self) -> None:
        if not self.delta > 0.0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if not self.gamma > 0.0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if not self.scale_s_mm > 0.0:
            raise ConfigError(f"scale_s_mm must be positive, got {self.scale_s_mm}")
        if self.r_unit not in ("dimensionless", "mm"):
            raise ConfigError(
                f"r_unit must be 'dimensionless' or 'mm', got {self.r_unit!r}"
            )
        if any(r < 0.0 for r in self.r_values):
            raise ConfigError(f"r values must be non-negative, got {self.r_values}")
        if self.mc_n < 1:
            raise ConfigError(f"mc_n must be >= 1, got {self.mc_n}")
        if self.mc_workers < 1:
            raise ConfigError(f"mc_workers must be >= 1, got {self.mc_workers}")
        if self.sweep_steps < 1:
            raise ConfigError(f"sweep_steps must be >= 1, got {self.sweep_steps}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.out_format}")
        if not 1 <= self.precision <= 17:
            raise ConfigError(f"precision must be in [1, 17], got {self.precision}")
        if self.frft_max_stages < 1:
            raise ConfigError(
                f"frft_max_stages must be >= 1, got {self.frft_max_stages}"
            )

    def effective_widths(self) -> tuple[float, float]:
        """(delta, gamma) after the optional swap-widths convenience flag."""
        if self.swap_widths:
            return self.gamma, self.delta
        return self.delta, self.gamma

    def r_dimensionless(self) -> tuple[float, ...]:
        """r values converted to dimensionless detector units."""
        if self.r_unit == "mm":
            return tuple(r / self.scale_s_mm for r in self.r_values)
        return self.r_values

    def beta_grid(self) -> tuple[float, ...]:
        if self.sweep_steps == 1:
            return (self.sweep_beta_min,)
        step = (self.sweep_beta_max - self.sweep_beta_min) / (self.sweep_steps - 1)
        return tuple(self.sweep_beta_min + i * step for i in range(self.sweep_steps))


# Keys by the annotation of their RunConfig field, as written in the class
# (strings, since annotations are postponed).
_FLOAT_KEYS, _INT_KEYS, _BOOL_KEYS, _LIST_KEYS, _STR_KEYS = (
    {f.name for f in fields(RunConfig) if f.type == type_name}
    for type_name in ("float", "int", "bool", "tuple[float, ...]", "str")
)
# "r" and "format"/"out" are accepted as spelled in config files
_ALIASES = {"r": "r_values", "format": "out_format", "out": "out_path"}


def parse_config_text(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse key=value lines ('#' comments) into a validated RunConfig."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        key = _ALIASES.get(key, key)
        if key in _FLOAT_KEYS:
            values[key] = parse_number(val)
        elif key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer") from None
        elif key in _BOOL_KEYS:
            values[key] = _parse_bool(val)
        elif key in _LIST_KEYS:
            values[key] = _parse_list(val)
        elif key in _STR_KEYS:
            values[key] = val
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if overrides:
        values.update(overrides)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), overrides)
