"""Derivative-free search over measurement settings and dark-region width.

maximize_S: coarse grid over the four rotation angles from one correlation_grid
array, then coordinate-wise golden-section refinement, which keeps the tables of
one call keyed by (alpha, beta), so a step that moves one angle computes only
the two setting-pair tables it changes.  tune_r: bisection on the monotone
fidelity(r) at fixed angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chsh import (
    MeasurementSettings,
    S_from_tables,
    bell_S,
    correlation_grid,
    postselected_probs,
    pr_fidelity,
)
from .state import GaussianTwoModeState

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SearchResult:
    settings: MeasurementSettings
    objective: float
    iterations: int
    converged: bool


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, int]:
    """Golden-section maximizer of a unimodal f on [lo, hi]."""
    evals = 0
    c = hi - (hi - lo) * _INV_GOLDEN
    d = lo + (hi - lo) * _INV_GOLDEN
    fc, fd = f(c), f(d)
    evals += 2
    while abs(hi - lo) > tol:
        width = hi - lo
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INV_GOLDEN
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INV_GOLDEN
            fd = f(d)
        evals += 1
        if hi - lo >= width:  # no longer shrinks at float resolution
            break
    return 0.5 * (lo + hi), evals


def maximize_S(
    state: GaussianTwoModeState,
    r: float,
    angle_grid_step: float = math.pi / 12.0,
    refine_tol: float = 1e-4,
    max_sweeps: int = 30,
) -> SearchResult:
    """Grid search plus coordinate-wise golden-section refinement of S.

    Returns a local optimum; no global guarantee.  Deterministic: grid ties
    are broken lexicographically in (alpha, alpha', beta, beta').
    """
    if not (angle_grid_step > 0.0 and refine_tol > 0.0):
        raise ValueError(
            f"angle_grid_step and refine_tol must be positive, got "
            f"{angle_grid_step} and {refine_tol}"
        )
    grid = np.arange(0.0, TWO_PI, angle_grid_step)
    n = len(grid)
    e_tab = correlation_grid(state, grid, grid, r)
    # S[i, j, k, l] = E(a_i, b_k) + E(a'_j, b_k) + E(a_i, b_l) - E(a'_j, b_l)
    s_tab = (
        e_tab[:, None, :, None]
        + e_tab[None, :, :, None]
        + e_tab[:, None, None, :]
        - e_tab[None, :, None, :]
    )
    i, j, k, l = np.unravel_index(int(np.argmax(s_tab)), s_tab.shape)
    angles = [grid[i], grid[j], grid[k], grid[l]]
    iterations = n * n

    tables = {}

    def table(a: float, b: float):
        if (a, b) not in tables:
            tables[a, b] = postselected_probs(state, a, b, r)
        return tables[a, b]

    def objective(vals) -> float:
        a, ap, b, bp = vals
        return S_from_tables((table(a, b), table(ap, b), table(a, bp), table(ap, bp)))

    half = angle_grid_step
    converged = False
    for _ in range(max_sweeps):
        moved = 0.0
        for axis in range(4):

            def along(t, _axis=axis):
                trial = list(angles)
                trial[_axis] = t
                return objective(trial)

            best, evals = _golden_max(
                along, angles[axis] - half, angles[axis] + half, refine_tol
            )
            iterations += evals
            moved = max(moved, abs(best - angles[axis]))
            angles[axis] = best
        half = max(2.0 * moved, 4.0 * refine_tol)
        if moved < refine_tol:
            converged = True
            break
    settings = MeasurementSettings(
        alpha=angles[0],
        alpha_prime=angles[1],
        beta=angles[2],
        beta_prime=angles[3],
        r=r,
    )
    return SearchResult(
        settings=settings,
        objective=bell_S(state, settings),
        iterations=iterations,
        converged=converged,
    )


def tune_r(
    state: GaussianTwoModeState,
    settings: MeasurementSettings,
    target_fidelity: float,
    r_max: float,
    r_tol: float = 1e-4,
) -> float:
    """Bisection for the dark-region half-width reaching a target fidelity.

    Fidelity is assumed monotone in r only on the bracket, and the
    assumption is checked at every bisection step.
    """
    if not 0.0 < target_fidelity < 1.0:
        raise ValueError(f"target fidelity must be in (0, 1), got {target_fidelity}")
    if not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")

    def fidelity(r: float) -> float:
        return pr_fidelity(bell_S(state, replace(settings, r=r)))

    lo, hi = 0.0, r_max
    f_lo, f_hi = fidelity(lo), fidelity(hi)
    if target_fidelity <= f_lo:
        return 0.0
    if target_fidelity > f_hi:
        raise ValueError(
            f"target fidelity {target_fidelity} unreachable below r_max={r_max}: "
            f"maximum achievable is {f_hi:.6f}"
        )
    while hi - lo > r_tol:
        mid = 0.5 * (lo + hi)
        f_mid = fidelity(mid)
        if not (f_lo - 1e-9 <= f_mid <= f_hi + 1e-9):
            raise ValueError(
                f"fidelity not monotone on bracket [{lo}, {hi}]: "
                f"f({mid})={f_mid} outside [{f_lo}, {f_hi}]"
            )
        if f_mid < target_fidelity:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)
