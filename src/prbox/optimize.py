"""Search over measurement settings and dark-region width.

maximize_S: a grid over the four rotation angles from one correlation_grid
array, whose argmax separates: for fixed (alpha, alpha'), S is a term in beta
plus a term in beta', each maximized on its own.  From that grid point a BFGS
ascent on the exact gradient of S (bell_S_gradient) with an Armijo
backtracking line search refines the angles; it has converged once the
quasi-Newton step is below refine_tol radians and |grad S| below GRAD_TOL.
tune_r: safeguarded Newton on the monotone fidelity(r) at fixed angles, with
its slope from the same gradient, inside a bisection bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chsh import MeasurementSettings, bell_S, bell_S_gradient, pr_fidelity
from .chsh import correlation_grid
from .state import GaussianTwoModeState

# |grad S| below which a quasi-Newton step shorter than refine_tol converges.
GRAD_TOL = 1e-6
# Armijo sufficient-rise constant, and the line search's smallest step fraction.
ARMIJO = 1e-4
MIN_STEP = 2.0**-40


@dataclass(frozen=True)
class SearchResult:
    settings: MeasurementSettings
    objective: float
    iterations: int
    converged: bool


def grid_argmax(e_tab: np.ndarray) -> tuple[int, int, int, int]:
    """(i, j, k, l) maximizing S = (E[i, k] + E[j, k]) + (E[i, l] - E[j, l]),
    ties going to the smallest (i, j), then the smallest k and l.  For fixed
    (i, j) the k and l terms are maximized apart: O(n^3) work, not O(n^4)."""
    plus = e_tab[:, None, :] + e_tab[None, :, :]
    minus = e_tab[:, None, :] - e_tab[None, :, :]
    best = plus.max(axis=2) + minus.max(axis=2)
    i, j = np.unravel_index(int(np.argmax(best)), best.shape)
    return int(i), int(j), int(np.argmax(plus[i, j])), int(np.argmax(minus[i, j]))


def maximize_S(
    state: GaussianTwoModeState,
    r: float,
    angle_grid_step: float = math.pi / 12.0,
    refine_tol: float = 1e-4,
    max_steps: int = 100,
) -> SearchResult:
    """Grid search plus BFGS ascent of S on its exact gradient.

    refine_tol bounds the final quasi-Newton step, in radians; the search
    has converged when that step is shorter and |grad S| < GRAD_TOL, and
    stops unconverged after max_steps steps or when no step raises S.
    Returns a local optimum; no global guarantee.  Deterministic: grid ties
    are broken lexicographically in (alpha, alpha', beta, beta').
    ``iterations`` counts the grid's tables and the gradient evaluations.
    """
    if not (angle_grid_step > 0.0 and refine_tol > 0.0):
        raise ValueError(
            f"angle_grid_step and refine_tol must be positive, got "
            f"{angle_grid_step} and {refine_tol}"
        )
    grid = np.arange(0.0, math.tau, angle_grid_step)
    x = grid[list(grid_argmax(correlation_grid(state, grid[:, None], grid, r)))]
    iterations = len(grid) ** 2

    def evaluate(x):
        nonlocal iterations
        iterations += 1
        s, grad = bell_S_gradient(state, MeasurementSettings(*x, r=r))
        return s, grad[:4]

    s, g = evaluate(x)
    h_inv = np.eye(4)  # inverse Hessian of -S
    converged = False
    for k in range(max_steps):
        p = h_inv @ g
        if math.hypot(*p) < refine_tol and math.hypot(*g) < GRAD_TOL:
            converged = True
            break
        # at most one grid step, so the ascent stays by its grid point
        p *= min(1.0, angle_grid_step / math.hypot(*p))
        t, rise = 1.0, ARMIJO * float(g @ p)
        s_new, g_new = evaluate(x + p)
        while s_new < s + t * rise and t > MIN_STEP:
            t *= 0.5
            s_new, g_new = evaluate(x + t * p)
        if s_new < s + t * rise:  # no rise left at float resolution
            break
        dx, dg = t * p, g - g_new
        curv = float(dx @ dg)
        if curv > 0.0:  # BFGS update, scaled to the first step's curvature
            if k == 0:
                h_inv *= curv / float(dg @ dg)
            hy = h_inv @ dg
            h_inv += (curv + dg @ hy) * np.outer(dx, dx) / curv**2
            h_inv -= (np.outer(hy, dx) + np.outer(dx, hy)) / curv
        x, s, g = x + dx, s_new, g_new
    settings = MeasurementSettings(*map(float, x), r=r)
    return SearchResult(settings, s, iterations, converged)


def tune_r(
    state: GaussianTwoModeState,
    settings: MeasurementSettings,
    target_fidelity: float,
    r_max: float,
    r_tol: float = 1e-4,
) -> float:
    """Safeguarded Newton search for the dark-region half-width reaching a
    target fidelity: a Newton step on the exact slope dF/dr where it stays
    inside the bracket, bisection where it does not.  The bracket's ends
    need no slope, so they are plain bell_S values.

    Fidelity is assumed monotone in r only on the bracket, and the
    assumption is checked at every step.
    """
    if not 0.0 < target_fidelity < 1.0:
        raise ValueError(f"target fidelity must be in (0, 1), got {target_fidelity}")
    if not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if not (r_tol > 0.0 and math.isfinite(r_tol)):
        raise ValueError(f"r_tol must be a finite positive real, got {r_tol}")

    lo, hi = 0.0, r_max
    f_lo, f_hi = (pr_fidelity(bell_S(state, replace(settings, r=x))) for x in (lo, hi))
    if target_fidelity <= f_lo:
        return 0.0
    if target_fidelity > f_hi:
        raise ValueError(
            f"target fidelity {target_fidelity} unreachable below r_max={r_max}: "
            f"maximum achievable is {f_hi:.6f}"
        )
    newton = math.nan
    # the bracket also ends once no double lies strictly inside it
    while hi - lo > r_tol and lo < 0.5 * (lo + hi) < hi:
        x = newton if lo < newton < hi else 0.5 * (lo + hi)
        s, grad = bell_S_gradient(state, replace(settings, r=x))
        f_x, slope = pr_fidelity(s), grad[4] / 8.0
        if not (f_lo - 1e-9 <= f_x <= f_hi + 1e-9):
            raise ValueError(
                f"fidelity not monotone on bracket [{lo}, {hi}]: "
                f"f({x})={f_x} outside [{f_lo}, {f_hi}]"
            )
        if f_x < target_fidelity:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        newton = x - (f_x - target_fidelity) / slope if slope > 0.0 else math.nan
        if abs(newton - x) < r_tol and lo <= newton <= hi:
            return newton
    return 0.5 * (lo + hi)
