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
from dataclasses import dataclass

import numpy as np

from .chsh import CHSH_SIGN, MeasurementSettings, and_gate_success, bell_S, bell_S_gradient
from .chsh import correlation_grid
from .state import GaussianTwoModeState

# |grad S| below which a quasi-Newton step shorter than refine_tol converges.
GRAD_TOL = 1e-6
# Armijo sufficient-rise constant, and the line search's smallest step fraction.
ARMIJO = 1e-4
MIN_STEP = 2.0**-40
# Grid angles per axis.  With fewer than 3 every angle is 0 or pi, where
# grad S = 0, so the ascent cannot leave its grid point; grid_argmax holds two
# (n, n, n) float64 arrays, 16 n^3 bytes: 268 MB at n = 256.
MIN_GRID_ANGLES = 3
MAX_GRID_ANGLES = 256
# maximize_S's default grid step and quasi-Newton step bound, in radians.
ANGLE_GRID_STEP = math.pi / 12.0
REFINE_TOL = 1e-4
# The most quasi-Newton steps of maximize_S, and tune_r's tolerance in r.
MAX_STEPS = 100
R_TOL = 1e-4


@dataclass(frozen=True)
class SearchResult:
    settings: MeasurementSettings
    objective: float
    iterations: int
    converged: bool


def grid_argmax(e_tab: np.ndarray) -> tuple[int, int, int, int]:
    """(i, j, k, l) maximizing S = (E[i, k] + E[j, k]) + (E[i, l] - E[j, l]),
    as CHSH_SIGN signs it, ties going to the smallest (i, j), then the
    smallest k and l.  For fixed (i, j) the k and l terms are maximized
    apart: O(n^3) work, not O(n^4)."""
    b_term, bp_term = (sign[0] * e_tab[:, None, :] + sign[1] * e_tab[None, :, :]
                       for sign in CHSH_SIGN.T)
    best = b_term.max(axis=2) + bp_term.max(axis=2)
    i, j = np.unravel_index(int(np.argmax(best)), best.shape)
    return int(i), int(j), int(np.argmax(b_term[i, j])), int(np.argmax(bp_term[i, j]))


def angle_grid(angle_grid_step: float, error: type[Exception] = ValueError) -> np.ndarray:
    """maximize_S's grid angles from 0 to 2 pi; a step it cannot hold raises error."""
    # np.arange makes a grid of ceil(tau / angle_grid_step) angles
    if not (angle_grid_step > 0.0
            and MIN_GRID_ANGLES - 1 < math.tau / angle_grid_step <= MAX_GRID_ANGLES):
        raise error(
            f"angle_grid_step must be finite and give {MIN_GRID_ANGLES} to "
            f"{MAX_GRID_ANGLES} grid angles per axis, got {angle_grid_step}"
        )
    return np.arange(0.0, math.tau, angle_grid_step)


def maximize_S(
    state: GaussianTwoModeState,
    r: float,
    angle_grid_step: float = ANGLE_GRID_STEP,
    refine_tol: float = REFINE_TOL,
) -> SearchResult:
    """Grid search plus BFGS ascent of S on its exact gradient.

    refine_tol bounds the final quasi-Newton step, in radians; the search
    has converged when that step is shorter and |grad S| < GRAD_TOL, and
    stops unconverged after MAX_STEPS steps or when no step raises S.
    Returns a local optimum; no global guarantee.  Deterministic: grid ties
    are broken lexicographically in (alpha, alpha', beta, beta').
    ``iterations`` counts the grid's tables and the gradient evaluations.
    """
    if not (angle_grid_step > 0.0 and refine_tol > 0.0):
        raise ValueError(
            f"angle_grid_step and refine_tol must be positive, got "
            f"{angle_grid_step} and {refine_tol}"
        )
    grid = angle_grid(angle_grid_step)
    x = grid[list(grid_argmax(correlation_grid(state, grid[:, None], grid, r)))]
    iterations = len(grid) ** 2

    def evaluate(x):
        nonlocal iterations
        iterations += 1
        s, grad = bell_S_gradient(state, MeasurementSettings(*x), r)
        return s, grad[:4]

    s, g = evaluate(x)
    h_inv = np.eye(4)  # inverse Hessian of -S
    converged = False
    for k in range(MAX_STEPS):
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
            h_inv += (curv + dg @ hy) * (dx[:, None] * dx) / curv**2
            h_inv -= (hy[:, None] * dx + dx[:, None] * hy) / curv
        x, s, g = x + dx, s_new, g_new
    settings = MeasurementSettings(*map(float, x))
    return SearchResult(settings, s, iterations, converged)


def tune_r(
    state: GaussianTwoModeState,
    settings: MeasurementSettings,
    target_fidelity: float,
    r_max: float,
) -> float:
    """Safeguarded Newton search, to within R_TOL, for the dark-region
    half-width reaching a target fidelity F(r) = and_gate_success(S(r)) at
    the settings' angles: a Newton step on the exact slope dF/dr = (dS/dr)/8
    where it stays inside the bracket, bisection where it does not.  The
    bracket's ends need no slope, so they are plain bell_S values.

    Fidelity is assumed monotone in r only on the bracket, and the
    assumption is checked at every step.
    """
    if not 0.0 < target_fidelity < 1.0:
        raise ValueError(f"target fidelity must be in (0, 1), got {target_fidelity}")
    if not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")

    lo, hi = 0.0, r_max
    f_lo, f_hi = (and_gate_success(bell_S(state, settings, x)) for x in (lo, hi))
    if target_fidelity <= f_lo:
        return 0.0
    if target_fidelity > f_hi:
        raise ValueError(
            f"target fidelity {target_fidelity} unreachable below r_max: "
            f"maximum achievable is {f_hi:.6f}"
        )
    newton = math.nan
    # the bracket also ends once no double lies strictly inside it
    while hi - lo > R_TOL and lo < 0.5 * (lo + hi) < hi:
        x = newton if lo < newton < hi else 0.5 * (lo + hi)
        s, grad = bell_S_gradient(state, settings, x)
        f_x, slope = and_gate_success(s), grad[4] / 8.0
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
        if abs(newton - x) < R_TOL and lo <= newton <= hi:
            return newton
    return 0.5 * (lo + hi)
