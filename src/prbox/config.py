"""Flat key=value run configuration with pi-suffix angle notation.

Angles may be written as multiples of pi ("5pi/4", "pi/2", "-3pi/4",
"0.58pi"), plain numbers, or simple fractions ("3/4").  Lists are
comma-separated.  Unknown keys are rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .optimize import ANGLE_GRID_STEP, REFINE_TOL, angle_grid

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


def parse_list(text: str) -> tuple[float, ...]:
    """Parse a comma-separated list of numbers (at least one)."""
    items = [s for s in (p.strip() for p in text.split(",")) if s]
    if not items:
        raise ConfigError(f"empty list value {text!r}")
    return tuple(parse_number(s) for s in items)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


_POSITIVE = ("delta", "gamma", "scale_s_mm", "refine_tol", "frft_angle_tol", "tune_r_max")
_AT_LEAST_ONE = ("mc_n", "mc_workers", "sweep_steps", "frft_max_stages")


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
    sweep_beta_max: float = math.tau
    sweep_steps: int = 97
    sweep_alphas: tuple[float, ...] = (math.pi, math.pi / 2.0)
    # frft planning
    frft_target: float = 5.0 * math.pi / 4.0
    frft_inventory_cm: tuple[float, ...] = (25.0, 15.0)
    frft_max_stages: int = 2
    frft_angle_tol: float = 1e-3
    # optimizer
    angle_grid_step: float = ANGLE_GRID_STEP
    refine_tol: float = REFINE_TOL
    target_fidelity: float = 0.0
    tune_r_max: float = 3.0  # in r_unit, as r is
    # output
    out_format: str = "csv"
    out_path: str = ""
    precision: int = 6

    def __post_init__(self) -> None:
        # every number is finite, except gamma = inf (the separable state)
        for f in fields(self):
            value = getattr(self, f.name)
            numbers = {"float": (value,), "tuple[float, ...]": value}.get(f.type, ())
            if f.name != "gamma" and not all(math.isfinite(v) for v in numbers):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in _POSITIVE:
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # and so is each number the kernels take; a monotone grid is finite at its ends
        beta_ends = (self._beta(0), self._beta(self.sweep_steps - 1))
        for what, values in (
            ("r_values / scale_s_mm", self.r_dimensionless()),
            ("tune_r_max / scale_s_mm", (self.tune_r_max / self.r_scale(),)),
            ("the ends of the beta grid from sweep_beta_min to sweep_beta_max", beta_ends),
        ):
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{what} must be finite, got {values}")
        if not self.frft_inventory_cm or min(self.frft_inventory_cm) <= 0.0:
            raise ConfigError(
                "frft_inventory_cm must be a non-empty list of positive focal "
                f"lengths, got {self.frft_inventory_cm}"
            )
        if self.r_unit not in ("dimensionless", "mm"):
            raise ConfigError(
                f"r_unit must be 'dimensionless' or 'mm', got {self.r_unit!r}"
            )
        angle_grid(self.angle_grid_step, ConfigError)  # also refuses a step <= 0
        if not 0.0 <= self.target_fidelity < 1.0:  # 0 tunes no r
            raise ConfigError(f"target_fidelity must be in [0, 1), got {self.target_fidelity}")
        if any(r < 0.0 for r in self.r_values):
            raise ConfigError(f"r values must be non-negative, got {self.r_values}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.out_format}")
        if not 1 <= self.precision <= 17:
            raise ConfigError(f"precision must be in [1, 17], got {self.precision}")

    def effective_widths(self) -> tuple[float, float]:
        """(delta, gamma) after the optional swap-widths convenience flag."""
        if self.swap_widths:
            return self.gamma, self.delta
        return self.delta, self.gamma

    def r_scale(self) -> float:
        """One dimensionless unit of r in r_unit: scale_s_mm in mm, else 1."""
        return self.scale_s_mm if self.r_unit == "mm" else 1.0

    def r_dimensionless(self) -> tuple[float, ...]:
        """r values converted to dimensionless detector units."""
        return tuple(r / self.r_scale() for r in self.r_values)

    def beta_grid(self) -> tuple[float, ...]:
        return tuple(map(self._beta, range(self.sweep_steps)))

    def _beta(self, i: int) -> float:
        if self.sweep_steps == 1:
            return self.sweep_beta_min
        step = (self.sweep_beta_max - self.sweep_beta_min) / (self.sweep_steps - 1)
        return self.sweep_beta_min + i * step


# Keys by the annotation of their RunConfig field, as written in the class
# (strings, since annotations are postponed).
_FLOAT_KEYS, _INT_KEYS, _BOOL_KEYS, _LIST_KEYS, _STR_KEYS = (
    {f.name for f in fields(RunConfig) if f.type == type_name}
    for type_name in ("float", "int", "bool", "tuple[float, ...]", "str")
)
# "r" and "format"/"out" are accepted as spelled in config files
_ALIASES = {"r": "r_values", "format": "out_format", "out": "out_path"}


def parse_value(key: str, text: str):
    """Parse one value by the type of the RunConfig field named key."""
    if key in _FLOAT_KEYS:
        return parse_number(text)
    if key in _INT_KEYS:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key} must be an integer") from None
    if key in _BOOL_KEYS:
        return _parse_bool(text)
    if key in _LIST_KEYS:
        return parse_list(text)
    if key in _STR_KEYS:
        return text
    raise ConfigError(f"unknown key {key!r}")


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
        try:
            values[key] = parse_value(key, val)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    if overrides:
        values.update(overrides)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), overrides)
