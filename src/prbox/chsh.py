"""Post-selected binned correlations: dark-region quadrant probabilities,
correlation functions, Bell parameter, PR-box fidelity and the non-local
AND-gate success probability.

Detection outcomes are the signs of the two rotated positions; events with
either position inside the dark strip |x| <= r are discarded, and the four
surviving sign combinations are renormalized to a probability table.  The
pair is a zero-mean Gaussian and the strip is symmetric, so a table takes
two orthant masses, quadrant_probability: Owen's T closed form in the bulk
and, where that form cancels, a 20-node Gauss-Laguerre rule of the tail
integral, as one array expression.  postselected_tables is the one kernel
and its (p_pp, p_pm, kept) the one table type: alpha, beta and r broadcast
as numpy arrays do, and a failure raises for the first failing element in
C order.  Callers lay out their axes in output order, so prbox-sim chsh
over its r rungs and prbox-sim sweep over its curves (sweep_beta) each
make one call, which raises what a loop over its rows would raise first.
E, S, the AND-gate success (and_gate_success), the largest deviation of a
marginal from 1/2 (no_signaling_report; by that same symmetry each
marginal is 1/2, so none is returned) and the kept fraction are one array
formula, chsh_values, over the tables of setting_tables, the kernel on the
(alpha, alpha') x (beta, beta') grid of a MeasurementSettings at any number
of r, with S and P_AND weighted by CHSH_SIGN; prbox-sim chsh reads from
it, bell_S and bell_S_gradient only its E and its S sum.  The kernel
forms its thresholds and signed correlations once at the full
(2, *shape), and bell_S_gradient sums its exact derivatives dm, of shape
(3, 2, *shape), into grad S.  No prbox-sim command runs postselected_probs,
the table as floats at scalar inputs: the benchmark's traced pass wraps it
to count distinct tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Unused, but perfbench/run.py's import_seconds() fails unless `import prbox`
# loads it; the drop waits on import_seconds reading an unloaded module as 0 s.
import scipy.integrate  # noqa: F401
from scipy.special import log_ndtr, ndtr, owens_t, roots_laguerre

from .state import GaussianTwoModeState, _require, rotated_block

# Relative accuracy target of an orthant mass.  Owen's T form errs by about
# 1e-14 of its leading term, so it meets the target while the mass is at
# least CANCELLATION_SHARE of that term; below that the tail is integrated.
ORTHANT_RTOL = 1e-10
CANCELLATION_SHARE = 1e-14 / ORTHANT_RTOL
DEGENERATE_CORR = 1.0 - 1e-12
# A kept mass below the smallest normal double is not resolved.
MIN_NORMAL = float(np.finfo(float).tiny)
_BAD_R = "r must be a finite non-negative real, got {}"
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# The 20-node Gauss-Laguerre rule (Golub & Welsch 1969): the sum of w_i g(x_i)
# approximates the integral of exp(-u) g(u), u >= 0.
_LAGUERRE_X, _LAGUERRE_W = roots_laguerre(20)
_LAGUERRE_SHIFT = _LAGUERRE_X + np.log(_LAGUERRE_W)
# Signs of the correlations of a table's (m_pp, m_pm) orthants.
_PAIR_SIGNS = np.array([1.0, -1.0])


class EmptyPostSelectionError(ValueError):
    """Dark region so wide that essentially no probability mass survives."""


def _check_r(r) -> None:
    _require(((r >= 0.0) & np.isfinite(r), ValueError, _BAD_R, r))


@dataclass(frozen=True)
class MeasurementSettings:
    """The four rotation angles; the dark width r is an argument of each use."""

    alpha: float
    alpha_prime: float
    beta: float
    beta_prime: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


def _tail_orthants(h1, h2, rho) -> np.ndarray:
    """P(Z1 > h1, Z2 > h2) over (n, 1) arrays, where Owen's T form cancels: the
    integral of the density times the conditional tail along the larger
    threshold h, where the integrand peaks at the lower limit, relative to
    its value there, by the Gauss-Laguerre rule in u = (z - h) / scale."""
    s = np.sqrt(1.0 - rho * rho)
    # past 38.7 a threshold gives log f(h) < -0.5 h^2 < -746, so a zero mass;
    # capping at 40 keeps that, and keeps the squares below finite
    h1, h2 = np.minimum(h1, 40.0), np.minimum(h2, 40.0)
    h, k = np.maximum(h1, h2), np.minimum(h1, h2)

    def log_f(z):
        return -0.5 * z * z + log_ndtr((rho * z - k) / s)

    # far nodes' terms and masses below the doubles underflow to zero
    with np.errstate(under="ignore"):
        # log-derivative at z = h; phi(w) / Phi(w) is the normal hazard at -w
        w = (rho * h - k) / s
        hazard = np.exp(-0.5 * w * w - log_ndtr(w)) / _SQRT_2PI
        scale = 1.0 / np.maximum(h - (rho / s) * hazard, 1.0)
        log_f0 = log_f(h)
        terms = np.exp(log_f(h + scale * _LAGUERRE_X) - log_f0 + _LAGUERRE_SHIFT)
        mass = np.exp(log_f0) * scale * terms.sum(axis=1, keepdims=True) / _SQRT_2PI
    return np.where(log_f0 < -746.0, 0.0, mass)[:, 0]  # exp(log_f0) underflows


def quadrant_probability(h1, h2, rho) -> np.ndarray:
    """P(Z1 > h1, Z2 > h2), h1, h2 >= 0, for standard bivariate normals with
    correlation rho, to about ORTHANT_RTOL relative: the arcsine law where
    h1^2 + h2^2 underflows, Owen's T form (Owen 1956) in the bulk, and where
    that form cancels, the 20-node Gauss-Laguerre rule of _tail_orthants,
    evaluated over those elements as one array expression.  The inputs are
    float arrays with at least one axis that broadcast to the shape of the
    result, as postselected_tables passes them; nothing here converts them."""
    # a threshold above about 1.3e154 squares to inf, which the arcsine test reads right
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sqrt(1.0 - rho * rho)
        lead = 0.5 * (ndtr(-h1) + ndtr(-h2))
        t1 = owens_t(h1, (h2 - rho * h1) / (h1 * s))
        t2 = owens_t(h2, (h1 - rho * h2) / (h2 * s))
        mass = lead - t1 - t2
        arcsine = h1 * h1 + h2 * h2 == 0.0
    degenerate = abs(rho) >= DEGENERATE_CORR
    special = arcsine | degenerate
    tail = ~(special | (mass > CANCELLATION_SHARE * lead))
    if np.count_nonzero(special):
        mass = np.where(arcsine, 0.25 + np.arcsin(rho) / (2.0 * math.pi), mass)
        # Z2 = Z1 almost surely; Z2 = -Z1 never exceeds h2 when Z1 > h1
        mass = np.where(degenerate, np.where(rho > 0.0, ndtr(-np.maximum(h1, h2)), 0.0), mass)
    if np.count_nonzero(tail):
        args = (np.broadcast_to(x, mass.shape)[tail, None] for x in (h1, h2, rho))
        mass[tail] = _tail_orthants(*args)
    return mass


def postselected_tables(state: GaussianTwoModeState, alpha, beta, r, gradient: bool = False):
    """Checked tables (p_pp, p_pm, kept) at (alpha, beta, r), arrays of
    their broadcast shape; p_mm = p_pp and p_mp = p_pm, so a table takes the
    orthants of correlation rho and -rho, one call with the pair on a
    leading axis.  A bad r raises first; then the first failing element in
    C order raises its first failing check: kept >= MIN_NORMAL, p_pp, p_pm,
    their sum, kept <= 1.  With gradient=True, also dm of shape (3, 2,
    *shape): the derivatives in alpha, beta and r of (m_pp, m_pm), over kept."""
    try:
        r = np.asarray(r, dtype=float)
    except ValueError:  # a ragged r such as [[1, 2], [3]] makes no float array
        if all(np.isscalar(x) for x in np.asarray(r, dtype=object).flat):
            raise
        raise ValueError(f"r must have an array shape, got ragged r={r!r}") from None
    _check_r(r)
    v1, v2, rho, *block_grad = rotated_block(state, alpha, beta, gradient)
    sd1, sd2 = np.sqrt(v1), np.sqrt(v2)
    # the (m_pp, m_pm) orthants' thresholds and correlations, formed at the full
    # shape with the pair on a leading axis, so the ops on them do not broadcast
    shape = (2, *np.broadcast(r, rho).shape)
    signs = _PAIR_SIGNS.reshape(2, *[1] * (len(shape) - 1))
    h1, h2 = (np.divide(r, sd, out=np.empty(shape)) for sd in (sd1, sd2))
    c = np.multiply(rho, signs, out=np.empty(shape))
    m = quadrant_probability(h1, h2, c)
    kept = ((m[0] + m[1]) + m[1]) + m[0]
    # a kept below MIN_NORMAL fails its check, which comes first at its element;
    # dividing by at least MIN_NORMAL keeps 0/0 out of the tables until then
    p_pp, p_pm = p = m / np.maximum(kept, MIN_NORMAL)
    total = ((p_pp + p_pm) + p_pm) + p_pp
    in_unit = (-1e-12 <= p) & (p <= 1.0 + 1e-12)
    _require(
        (kept >= MIN_NORMAL, EmptyPostSelectionError,
         "kept fraction {} below the smallest normal double: dark region "
         "half-width r={} removes essentially all probability mass", kept, r),
        (in_unit[0], ValueError, "p_pp={} outside [0, 1]", p_pp),
        (in_unit[1], ValueError, "p_pm={} outside [0, 1]", p_pm),
        (abs(total - 1.0) <= 1e-9, ValueError, "probabilities sum to {}, expected 1", total),
        (kept <= 1.0 + 1e-12, ValueError, "kept_fraction={} outside (0, 1]", kept),
    )
    if not gradient:
        return p_pp, p_pm, kept
    # An orthant of correlation c has dP/dh1 = -phi(h1) Phi(-(h2 - c h1)/s), the
    # same with h1, h2 swapped, and dP/dc = phi2(h1, h2; c) (Plackett 1954).
    # They are taken over kept in log space, so they stay finite wherever kept
    # is a normal double.  dc/drho is +1 for m_pp and -1 for m_pm.
    dlv1, dlv2, drho_a, drho_b = block_grad
    s, log_kept = np.sqrt(1.0 - c * c), np.log(kept)  # c * c is rho * rho
    d1 = -np.exp(log_ndtr((c * h1 - h2) / s) - 0.5 * h1 * h1 - log_kept) / _SQRT_2PI
    d2 = -np.exp(log_ndtr((c * h2 - h1) / s) - 0.5 * h2 * h2 - log_kept) / _SQRT_2PI
    dc = np.exp((c * h1 * h2 - 0.5 * (h1 * h1 + h2 * h2)) / (s * s) - log_kept) / s
    dc = dc / (2.0 * math.pi) * signs
    # h = r / sqrt(v), so dh/dt = -h d ln sqrt(v)/dt and dh/dr = 1 / sqrt(v)
    dm = (
        d1 * (-h1 * dlv1) + dc * drho_a,
        d2 * (-h2 * dlv2) + dc * drho_b,
        d1 * (1.0 / sd1) + d2 * (1.0 / sd2),
    )
    return p_pp, p_pm, kept, np.array(dm)


def postselected_probs(
    state: GaussianTwoModeState, alpha: float, beta: float, r: float
) -> tuple[float, float, float]:
    """(p_pp, p_pm, kept) of postselected_tables at scalar inputs, as floats,
    for the benchmark's traced pass, which hashes the arguments of each call."""
    return tuple(map(float, postselected_tables(state, alpha, beta, r)))


def _correlation(p_pp, p_pm):
    return ((p_pp + p_pp) - p_pm) - p_pm  # E = p_pp + p_mm - p_pm - p_mp


def correlation_grid(state: GaussianTwoModeState, alpha, beta, r):
    """The correlation E of the table at each element of broadcast (alpha,
    beta, r), from one postselected_tables call."""
    p_pp, p_pm, _ = postselected_tables(state, alpha, beta, r)
    return _correlation(p_pp, p_pm)


SETTING_LABELS = ("ab", "apb", "abp", "apbp")
# The sign of E(alpha_i, beta_j) in S (Clauser, Horne, Shimony & Holt 1969).
CHSH_SIGN = np.array([[1.0, 1.0], [1.0, -1.0]])


def setting_pairs(settings: MeasurementSettings) -> tuple[tuple[float, float], ...]:
    """(alpha, beta) of the four CHSH setting pairs, in the order
    (ab, a'b, ab', a'b') that SETTING_LABELS names."""
    a, ap = settings.alpha, settings.alpha_prime
    b, bp = settings.beta, settings.beta_prime
    return ((a, b), (ap, b), (a, bp), (ap, bp))


def setting_columns(x) -> tuple:
    """x[..., i, j] at (alpha_i, beta_j) as four arrays, one per setting pair,
    in SETTING_LABELS order."""
    return x[..., 0, 0], x[..., 1, 0], x[..., 0, 1], x[..., 1, 1]


def _bell_sum(e):
    s_ab, s_apb, s_abp, s_apbp = setting_columns(CHSH_SIGN * e)
    return s_ab + s_apb + s_abp + s_apbp  # S, summed in SETTING_LABELS order


def chsh_values(p_pp, p_pm, kept):
    """(E, S, P_AND, max_dev, kept_pct) of postselected_tables arrays whose
    last two axes are (alpha, alpha') x (beta, beta'), over any leading axes:
    the correlation of each table; the Bell parameter S, the sum of
    CHSH_SIGN times E in SETTING_LABELS order; P_AND of and_gate_success;
    max_dev of no_signaling_report; and the average kept fraction in
    percent."""
    e = _correlation(p_pp, p_pm)
    s = _bell_sum(e)
    p_and = and_gate_success(p_pp, p_pm)
    _, max_dev = no_signaling_report(p_pp, p_pm)
    kept_pct = 100.0 * sum(setting_columns(kept)) / 4.0
    return e, s, p_and, max_dev, kept_pct


def and_gate_success(p_pp, p_pm):
    """Success probability of the post-selected non-local AND gate over
    tables whose last two axes are (alpha, alpha') x (beta, beta'): the
    average over the tables of the same-sign probability where CHSH_SIGN is
    +1 and the cross-sign one where it is -1, summed from table entries so
    that P_AND = (4 + S)/8 stays a check."""
    w_ab, w_apb, w_abp, w_apbp = setting_columns(np.where(CHSH_SIGN > 0.0, p_pp, p_pm))
    return 0.25 * (w_ab + w_ab + w_apb + w_apb + w_abp + w_abp + w_apbp + w_apbp)


def no_signaling_report(p_pp, p_pm):
    """(plus, max_dev) over tables whose last two axes are (alpha, alpha') x
    (beta, beta'): Alice's P(+) at (alpha_i, beta_j), which is Bob's with
    the last two axes swapped, as p_mp = p_pm, and the largest deviation of
    either from 1/2."""
    plus = p_pp + p_pm
    return plus, np.abs(plus - 0.5).max(axis=(-2, -1))


def setting_tables(state: GaussianTwoModeState, settings: MeasurementSettings, r,
                   gradient: bool = False):
    """postselected_tables on the settings' (alpha, alpha') x (beta, beta')
    grid, at an r whose axes come before the grid's."""
    return postselected_tables(
        state, [[settings.alpha], [settings.alpha_prime]],
        (settings.beta, settings.beta_prime), r, gradient,
    )


def bell_S(state: GaussianTwoModeState, settings: MeasurementSettings, r: float) -> float:
    """S = E(a,b) + E(a',b) + E(a,b') - E(a',b') from post-selected tables at r."""
    p_pp, p_pm, _ = setting_tables(state, settings, r)
    return float(_bell_sum(_correlation(p_pp, p_pm)))


def bell_S_gradient(
    state: GaussianTwoModeState, settings: MeasurementSettings, r: float
) -> tuple[float, np.ndarray]:
    """bell_S, bit-identical, and its exact gradient in (alpha, alpha', beta,
    beta', r), from the four setting tables as one postselected_tables call."""
    p_pp, p_pm, _, dm = setting_tables(state, settings, r, gradient=True)
    e = _correlation(p_pp, p_pm)
    # E = (m_pp - m_pm) / (m_pp + m_pm) and kept = 2 (m_pp + m_pm); S sums CHSH_SIGN * E
    s_a, s_b, s_r = CHSH_SIGN * (2.0 * (dm[:, 0] * (1.0 - e) - dm[:, 1] * (1.0 + e)))
    grad = [*s_a.sum(axis=1), *s_b.sum(axis=0), s_r.sum()]
    return float(_bell_sum(e)), np.array(grad)


def pr_fidelity(s: float) -> float:
    """PR-box success probability implied by a Bell parameter S."""
    if abs(s) > 4.0 + 1e-12:
        raise ValueError(f"|S|={abs(s)} exceeds the algebraic maximum 4")
    return (s + 4.0) / 8.0


def sweep_beta(state: GaussianTwoModeState, alpha, r, grid) -> np.ndarray:
    """(beta, E) points of the correlation curve over a grid of beta values
    at each element of broadcast (alpha, r), of shape (*shape, len(grid), 2),
    from one correlation_grid call: the first failing curve in C order, and
    on it the first failing beta, raises."""
    grid = np.asarray(grid, dtype=float)
    if not grid.size:
        raise ValueError("beta grid must be non-empty")
    e = correlation_grid(state, np.asarray(alpha)[..., None], grid, np.asarray(r)[..., None])
    return np.stack(np.broadcast_arrays(grid, e), -1)
