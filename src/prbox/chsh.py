"""Post-selected binned correlations: dark-region quadrant probabilities,
correlation functions, Bell parameter, PR-box fidelity and the non-local
AND-gate success probability.

Detection outcomes are the signs of the two rotated positions; events with
either position inside the dark strip |x| <= r are discarded, and the four
surviving sign combinations are renormalized to a probability table.  The
pair is a zero-mean Gaussian and the strip is symmetric, so a table takes
two orthant masses, each Owen's T closed form in the bulk and, where that
form cancels, a 20-node Gauss-Laguerre rule of the tail integral, evaluated
as one array expression.  postselected_tables is the one kernel: its
alpha, beta and r broadcast as numpy arrays do, and a failure raises for
the first failing element in C order.  Callers lay out their axes in
output order, so prbox-sim chsh over its r rungs and prbox-sim sweep over
its curves each make one call, which raises what a loop over its rows
would raise first.  postselected_probs, correlation_grid and sweep_beta
read from it.  E, S, the AND-gate success, the no-signaling marginals and
the kept fraction are one array formula, chsh_values, over the kernel's
(alpha, alpha') x (beta, beta') tables at any number of r; bell_S,
and_gate_success, no_signaling_report, bell_S_gradient and prbox-sim chsh
read from it, and bell_S_gradient sums the kernel's exact derivatives into
grad S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Unused, but perfbench/run.py's import_seconds() fails unless `import prbox`
# loads it; the drop waits on import_seconds reading an unloaded module as 0 s.
import scipy.integrate  # noqa: F401
from scipy.special import log_ndtr, ndtr, owens_t

from .state import BivariateGaussian, GaussianTwoModeState, position_joint_density, rotated_block

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
# The 20-node Gauss-Laguerre rule (Golub & Welsch 1969), as roots_laguerre(20)
# gives it: the sum of w_i g(x_i) approximates the integral of exp(-u) g(u), u >= 0.
_LAGUERRE_X = np.array([
    0.07053988969198874, 0.37212681800161146, 0.9165821024832735, 1.707306531028344,
    2.749199255309432, 4.048925313850887, 5.6151749708616165, 7.459017453671063,
    9.594392869581098, 12.038802546964316, 14.81429344263074, 17.948895520519375,
    21.478788240285013, 25.451702793186904, 29.93255463170061, 35.013434240479,
    40.83305705672857, 47.6199940473465, 55.810795750063896, 66.52441652561575,
])
_LAGUERRE_W = np.array([
    0.16874680185111224, 0.2912543620060692, 0.26668610286700123, 0.1660024532695074,
    0.0748260646687925, 0.024964417309283272, 0.006202550844572276, 0.0011449623864769102,
    0.00015574177302781267, 1.540144086522499e-05, 1.0864863665179856e-06, 5.3301209095567636e-08,
    1.7579811790506002e-09, 3.7255024025122663e-11, 4.767529251578186e-13, 3.3728442433625577e-15,
    1.1550143395004038e-17, 1.5395221405823465e-20, 5.286442725569081e-24, 1.6564566124991287e-28,
])
_LAGUERRE_SHIFT = _LAGUERRE_X + np.log(_LAGUERRE_W)


class EmptyPostSelectionError(ValueError):
    """Dark region so wide that essentially no probability mass survives."""


def _check_r(r: float) -> None:
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError(_BAD_R.format(r))


@dataclass(frozen=True)
class MeasurementSettings:
    """The four rotation angles and the dark-region half-width (dimensionless)."""

    alpha: float
    alpha_prime: float
    beta: float
    beta_prime: float
    r: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "alpha_prime", "beta", "beta_prime"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        _check_r(self.r)


REFERENCE_SETTINGS = MeasurementSettings(
    alpha=math.pi,
    alpha_prime=math.pi / 2,
    beta=5 * math.pi / 4,
    beta_prime=3 * math.pi / 4,
)


@dataclass(frozen=True)
class JointProbTable:
    """Renormalized post-selected sign probabilities and the kept fraction,
    as postselected_tables computes and checks them."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float
    kept_fraction: float


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


def _orthants(h1, h2, rho) -> np.ndarray:
    """P(Z1 > h1, Z2 > h2), h1, h2 >= 0, for standard bivariate normals with
    correlation rho, over broadcast arrays, to about ORTHANT_RTOL relative:
    the arcsine law where h1^2 + h2^2 underflows, Owen's T form (Owen 1956)
    in the bulk, and where that form cancels, the 20-node Gauss-Laguerre rule
    of _tail_orthants, evaluated over those elements as one array expression."""
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
    if special.any():
        mass = np.where(arcsine, 0.25 + np.arcsin(rho) / (2.0 * math.pi), mass)
        # Z2 = Z1 almost surely; Z2 = -Z1 never exceeds h2 when Z1 > h1
        mass = np.where(degenerate, np.where(rho > 0.0, ndtr(-np.maximum(h1, h2)), 0.0), mass)
    if tail.any():
        args = (np.broadcast_to(x, mass.shape)[tail, None] for x in (h1, h2, rho))
        mass[tail] = _tail_orthants(*args)
    return mass


def quadrant_probability(
    bg: BivariateGaussian, sign1: int, sign2: int, r: float
) -> float:
    """Un-normalized mass of bg over {sign1*x1 > r} x {sign2*x2 > r}."""
    _check_r(r)
    if sign1 not in (-1, 1) or sign2 not in (-1, 1):
        raise ValueError("signs must be +1 or -1")
    h1, h2, rho = np.array([[r / bg.std1], [r / bg.std2], [sign1 * sign2 * bg.corr]])
    return float(_orthants(h1, h2, rho)[0])


def _require(*checks) -> None:
    """Raise for the first element, in C order of the broadcast shape, where
    a check (ok, error, message, *values) fails, with the first check that
    fails there: error(message formatted with the values at that element)."""
    # one all-true test per check; count_nonzero is cheaper than ok.all()
    if all(np.count_nonzero(ok) == ok.size for ok, *_ in checks):
        return
    shape = np.broadcast_shapes(*(np.shape(ok) for ok, *_ in checks))
    oks = np.array([np.broadcast_to(ok, shape).ravel() for ok, *_ in checks])
    at = np.argmin(oks.all(axis=0))
    _, error, message, *values = checks[np.argmin(oks[:, at])]
    raise error(message.format(*(float(np.broadcast_to(v, shape).flat[at]) for v in values)))


def postselected_tables(state: GaussianTwoModeState, alpha, beta, r, gradient: bool = False):
    """Checked tables (p_pp, p_pm, kept) at (alpha, beta, r), arrays of
    their broadcast shape; p_mm = p_pp and p_mp = p_pm, so a table takes the
    orthants of correlation rho and -rho, one call with the pair on a
    leading axis.  A bad r raises first; then the first failing element in
    C order raises its first failing check: kept >= MIN_NORMAL, p_pp, p_pm,
    their sum, kept <= 1.  With gradient=True, also dm of shape (2, 3,
    *shape): the derivatives of (m_pp, m_pm) in alpha, beta and r, over kept."""
    try:
        r = np.asarray(r, dtype=float)
    except ValueError:  # a ragged r such as [[1, 2], [3]] makes no float array
        if all(np.isscalar(x) for x in np.asarray(r, dtype=object).flat):
            raise
        raise ValueError(f"r must have an array shape, got ragged r={r!r}") from None
    _require(((r >= 0.0) & np.isfinite(r), ValueError, _BAD_R, r))
    v1, v2, rho, *block_grad = rotated_block(state, alpha, beta, gradient)
    h1, h2 = r / np.sqrt(v1), r / np.sqrt(v2)
    # signs of the correlations of the (m_pp, m_pm) orthants, on a leading axis
    signs = np.array([1.0, -1.0]).reshape(2, *[1] * np.broadcast(h1, h2, rho).ndim)
    c = rho * signs
    m = _orthants(h1, h2, c)
    kept = ((m[0] + m[1]) + m[1]) + m[0]
    # a kept below MIN_NORMAL fails its check, which comes first at its element;
    # dividing by at least MIN_NORMAL keeps 0/0 out of the tables until then
    p_pp, p_pm = m / np.maximum(kept, MIN_NORMAL)
    total = ((p_pp + p_pm) + p_pm) + p_pp
    _require(
        (kept >= MIN_NORMAL, EmptyPostSelectionError,
         "kept fraction {} below the smallest normal double: dark region "
         "half-width r={} removes essentially all probability mass", kept, r),
        ((-1e-12 <= p_pp) & (p_pp <= 1.0 + 1e-12), ValueError, "p_pp={} outside [0, 1]", p_pp),
        ((-1e-12 <= p_pm) & (p_pm <= 1.0 + 1e-12), ValueError, "p_pm={} outside [0, 1]", p_pm),
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
    s, log_kept = np.sqrt(1.0 - rho * rho), np.log(kept)
    d1 = -np.exp(log_ndtr((c * h1 - h2) / s) - 0.5 * h1 * h1 - log_kept) / _SQRT_2PI
    d2 = -np.exp(log_ndtr((c * h2 - h1) / s) - 0.5 * h2 * h2 - log_kept) / _SQRT_2PI
    dc = np.exp((c * h1 * h2 - 0.5 * (h1 * h1 + h2 * h2)) / (s * s) - log_kept) / s
    dc = dc / (2.0 * math.pi) * signs
    # h = r / sqrt(v), so dh/dt = -h d ln sqrt(v)/dt and dh/dr = 1 / sqrt(v)
    dm = (
        d1 * (-h1 * dlv1) + dc * drho_a,
        d2 * (-h2 * dlv2) + dc * drho_b,
        d1 * (1.0 / np.sqrt(v1)) + d2 * (1.0 / np.sqrt(v2)),
    )
    return p_pp, p_pm, kept, np.stack(dm, axis=1)


def postselected_probs(
    state: GaussianTwoModeState, alpha: float, beta: float, r: float
) -> JointProbTable:
    """Renormalized post-selected sign probabilities at rotation (alpha, beta):
    postselected_tables at scalar inputs."""
    p_pp, p_pm, kept = map(float, postselected_tables(state, alpha, beta, r))
    return JointProbTable(p_pp, p_pm, p_pm, p_pp, kept)


def correlation_E(table: JointProbTable) -> float:
    """E = P(+,+) + P(-,-) - P(+,-) - P(-,+)."""
    return table.p_pp + table.p_mm - table.p_pm - table.p_mp


def _correlation(p_pp, p_pm):
    return ((p_pp + p_pp) - p_pm) - p_pm  # correlation_E, as p_mm = p_pp and p_mp = p_pm


def correlation_grid(state: GaussianTwoModeState, alpha, beta, r):
    """correlation_E of postselected_probs at each element of broadcast
    (alpha, beta, r), from one postselected_tables call."""
    p_pp, p_pm, _ = postselected_tables(state, alpha, beta, r)
    return _correlation(p_pp, p_pm)


def sign_expectation(
    state: GaussianTwoModeState, alpha: float, beta: float
) -> float:
    """<sgn(x1) sgn(x2)> without post-selection: (2/pi) asin(corr)."""
    rho = position_joint_density(state, alpha, beta).corr
    return (2.0 / math.pi) * math.asin(rho)


SETTING_LABELS = ("ab", "apb", "abp", "apbp")


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


def chsh_values(p_pp, p_pm, kept):
    """(E, S, P_AND, plus, max_dev, kept_pct) of postselected_tables arrays
    whose last two axes are (alpha, alpha') x (beta, beta'), over any leading
    axes: the correlation of each table; the Bell parameter S = E(a,b) +
    E(a',b) + E(a,b') - E(a',b'); the AND-gate success, the average of the
    same-sign probabilities of the three pairs with positive target
    correlation and the cross-sign ones of (alpha', beta'), summed from table
    entries so that P_AND = (4 + S)/8 stays a check; Alice's P(+) at each
    table, which is Bob's P(+) with the last two axes swapped, as p_mp =
    p_pm; the largest deviation of a marginal from 1/2; and the average kept
    fraction in percent."""
    e = _correlation(p_pp, p_pm)
    e_ab, e_apb, e_abp, e_apbp = setting_columns(e)
    pp_ab, pp_apb, pp_abp, _ = setting_columns(p_pp)
    pm_apbp = p_pm[..., 1, 1]
    s = e_ab + e_apb + e_abp - e_apbp
    p_and = 0.25 * (pp_ab + pp_ab + pp_apb + pp_apb + pp_abp + pp_abp + pm_apbp + pm_apbp)
    plus = p_pp + p_pm
    max_dev = np.abs(plus - 0.5).max(axis=(-2, -1))
    kept_pct = 100.0 * sum(setting_columns(kept)) / 4.0
    return e, s, p_and, plus, max_dev, kept_pct


def _setting_grid(state, settings, gradient=False):
    return postselected_tables(
        state, [[settings.alpha], [settings.alpha_prime]],
        (settings.beta, settings.beta_prime), settings.r, gradient,
    )


def bell_S(state: GaussianTwoModeState, settings: MeasurementSettings) -> float:
    """S = E(a,b) + E(a',b) + E(a,b') - E(a',b') from post-selected tables."""
    return float(chsh_values(*_setting_grid(state, settings))[1])


def bell_S_gradient(
    state: GaussianTwoModeState, settings: MeasurementSettings
) -> tuple[float, np.ndarray]:
    """bell_S, bit-identical, and its exact gradient in (alpha, alpha', beta,
    beta', r), from the four setting tables as one postselected_tables call."""
    p_pp, p_pm, kept, dm = _setting_grid(state, settings, gradient=True)
    e, s = chsh_values(p_pp, p_pm, kept)[:2]
    # E = (m_pp - m_pm) / (m_pp + m_pm) and kept = 2 (m_pp + m_pm)
    u, w = dm
    e_a, e_b, e_r = 2.0 * (u * (1.0 - e) - w * (1.0 + e))
    sign = np.array([[1.0, 1.0], [1.0, -1.0]])  # E[i, j] at (alpha_i, beta_j)
    grad = [*(sign * e_a).sum(axis=1), *(sign * e_b).sum(axis=0), (sign * e_r).sum()]
    return float(s), np.array(grad)


def pr_fidelity(s: float) -> float:
    """PR-box success probability implied by a Bell parameter S."""
    if abs(s) > 4.0 + 1e-12:
        raise ValueError(f"|S|={abs(s)} exceeds the algebraic maximum 4")
    return (s + 4.0) / 8.0


def and_gate_success(
    state: GaussianTwoModeState, settings: MeasurementSettings
) -> float:
    """Success probability of the post-selected non-local AND gate."""
    return float(chsh_values(*_setting_grid(state, settings))[2])


@dataclass(frozen=True)
class NoSignalingReport:
    """P(+) marginals under every setting pairing.

    ``alice_plus[i, j]`` is Alice's P(+) with her i-th setting (alpha,
    alpha') against Bob's j-th setting (beta, beta'); ``bob_plus`` likewise
    with Bob's setting first.
    """

    alice_plus: np.ndarray
    bob_plus: np.ndarray
    max_deviation: float


def no_signaling_report(
    state: GaussianTwoModeState, settings: MeasurementSettings
) -> NoSignalingReport:
    """Marginal P(+) for both parties under all four setting combinations."""
    plus, max_dev = chsh_values(*_setting_grid(state, settings))[3:5]
    plus.setflags(write=False)
    return NoSignalingReport(alice_plus=plus, bob_plus=plus.T, max_deviation=float(max_dev))


def sweep_beta(
    state: GaussianTwoModeState, alpha: float, r: float, grid
) -> list[tuple[float, float]]:
    """Correlation curve E(alpha, beta) over a grid of beta values."""
    grid = list(grid)
    if not grid:
        raise ValueError("beta grid must be non-empty")
    e = correlation_grid(state, alpha, grid, r)
    return list(zip(map(float, grid), e.tolist()))


def quantum_reference_curve(grid, phase: float = 0.0) -> list[tuple[float, float]]:
    """Unit-amplitude sinusoid overlay (plotting reference, not a prediction)."""
    grid = list(grid)
    if not grid:
        raise ValueError("beta grid must be non-empty")
    return [(float(b), math.sin(b - phase)) for b in grid]
