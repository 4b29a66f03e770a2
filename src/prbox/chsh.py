"""Post-selected binned correlations: dark-region quadrant probabilities,
correlation functions, Bell parameter, PR-box fidelity and the non-local
AND-gate success probability.

Detection outcomes are the signs of the two rotated positions; events with
either position inside the dark strip |x| <= r are discarded, and the four
surviving sign combinations are renormalized to a probability table.  The
pair is a zero-mean Gaussian and the strip is symmetric, so a table takes
two orthant masses, each Owen's T closed form in the bulk and a quadrature
of the tail integral where that form cancels.  S, the AND-gate success and
the no-signaling marginals are each one formula over the four tables of
setting_tables, so a caller needing several of them computes the tables once.
correlation_grid gives E over an outer product of angle lists as one array
call, bit-identical to the per-table path; sweep_beta and the optimizer's
grid use it, and bell_S_gradient sums its exact derivatives into grad S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr, owens_t

from .state import BivariateGaussian, GaussianTwoModeState, position_joint_density
from .state import _covariance_terms

# Relative accuracy target of an orthant mass.  Owen's T form errs by about
# 1e-14 of its leading term, so it meets the target while the mass is at
# least CANCELLATION_SHARE of that term; below that the tail is integrated.
ORTHANT_RTOL = 1e-10
CANCELLATION_SHARE = 1e-14 / ORTHANT_RTOL
DEGENERATE_CORR = 1.0 - 1e-12
# A kept mass below the smallest normal double is not resolved.
MIN_NORMAL = float(np.finfo(float).tiny)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class EmptyPostSelectionError(ValueError):
    """Dark region so wide that essentially no probability mass survives."""


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
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"r must be a finite non-negative real, got {self.r}")


REFERENCE_SETTINGS = MeasurementSettings(
    alpha=math.pi,
    alpha_prime=math.pi / 2,
    beta=5 * math.pi / 4,
    beta_prime=3 * math.pi / 4,
)


@dataclass(frozen=True)
class JointProbTable:
    """Renormalized post-selected sign probabilities and the kept fraction."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float
    kept_fraction: float

    def __post_init__(self) -> None:
        for name in ("p_pp", "p_pm", "p_mp", "p_mm"):
            v = getattr(self, name)
            if not (-1e-12 <= v <= 1.0 + 1e-12):
                raise ValueError(f"{name}={v} outside [0, 1]")
        total = self.p_pp + self.p_pm + self.p_mp + self.p_mm
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        if not 0.0 < self.kept_fraction <= 1.0 + 1e-12:
            raise ValueError(f"kept_fraction={self.kept_fraction} outside (0, 1]")


def _upper_orthant(h1: float, h2: float, rho: float) -> float:
    """P(Z1 > h1, Z2 > h2), h1, h2 >= 0, for a standard bivariate normal with
    correlation rho, to about ORTHANT_RTOL relative: the arcsine law where
    h1^2 + h2^2 underflows, Owen's T form (Owen 1956) in the bulk, and where
    that difference cancels, the integral of the density times the
    conditional tail, relative to its integrand at the lower limit."""
    if abs(rho) >= DEGENERATE_CORR:
        # Z2 = Z1 almost surely; Z2 = -Z1 never exceeds h2 when Z1 > h1
        return float(ndtr(-max(h1, h2))) if rho > 0.0 else 0.0
    if h1 * h1 + h2 * h2 == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    s = math.sqrt(1.0 - rho * rho)
    lead = 0.5 * float(ndtr(-h1) + ndtr(-h2))
    t1 = owens_t(h1, (h2 - rho * h1) / (h1 * s))
    t2 = owens_t(h2, (h1 - rho * h2) / (h2 * s))
    bulk = lead - float(t1) - float(t2)
    if bulk > CANCELLATION_SHARE * lead:
        return bulk
    # along the larger threshold the integrand peaks at the lower limit
    h, k = max(h1, h2), min(h1, h2)

    def log_f(z: float) -> float:
        return -0.5 * z * z + float(log_ndtr((rho * z - k) / s))

    # log-derivative at z = h; phi(w) / Phi(w) is the normal hazard at -w
    w = (rho * h - k) / s
    hazard = math.exp(-0.5 * w * w - float(log_ndtr(w))) / math.sqrt(2.0 * math.pi)
    scale = 1.0 / max(h - (rho / s) * hazard, 1.0)
    log_f0 = log_f(h)
    if log_f0 < -746.0:  # exp(log_f0) underflows to zero
        return 0.0
    val, _ = quad(lambda u: math.exp(log_f(h + scale * u) - log_f0), 0.0, math.inf,
                  epsabs=0.0, epsrel=1e-2 * ORTHANT_RTOL, limit=200)
    return math.exp(log_f0) * scale * val / math.sqrt(2.0 * math.pi)


def quadrant_probability(
    bg: BivariateGaussian, sign1: int, sign2: int, r: float
) -> float:
    """Un-normalized mass of bg over {sign1*x1 > r} x {sign2*x2 > r}."""
    if r < 0.0:
        raise ValueError(f"r must be non-negative, got {r}")
    if sign1 not in (-1, 1) or sign2 not in (-1, 1):
        raise ValueError("signs must be +1 or -1")
    return _upper_orthant(r / bg.std1, r / bg.std2, sign1 * sign2 * bg.corr)


def postselected_probs(
    state: GaussianTwoModeState, alpha: float, beta: float, r: float
) -> JointProbTable:
    """Renormalized post-selected sign probabilities at rotation (alpha, beta).

    The joint Gaussian has zero mean and the dark strip is symmetric, so the
    table is inversion symmetric: m_mm = m_pp and m_mp = m_pm, and two
    orthant masses fill it.
    """
    bg = position_joint_density(state, alpha, beta)
    m_pp = quadrant_probability(bg, +1, +1, r)
    m_pm = quadrant_probability(bg, +1, -1, r)
    m_mp, m_mm = m_pm, m_pp
    kept = m_pp + m_pm + m_mp + m_mm
    if not kept >= MIN_NORMAL:
        raise EmptyPostSelectionError(
            f"kept fraction {kept} below the smallest normal double: dark "
            f"region half-width r={r} removes essentially all probability mass"
        )
    return JointProbTable(
        p_pp=m_pp / kept,
        p_pm=m_pm / kept,
        p_mp=m_mp / kept,
        p_mm=m_mm / kept,
        kept_fraction=kept,
    )


def correlation_E(table: JointProbTable) -> float:
    """E = P(+,+) + P(-,-) - P(+,-) - P(-,+)."""
    return table.p_pp + table.p_mm - table.p_pm - table.p_mp


def _upper_orthants(h1, h2, rho, valid) -> np.ndarray:
    """_upper_orthant over arrays: Owen's T form where it holds, and the
    scalar function at every other valid element."""
    s = np.sqrt(1.0 - rho * rho)
    lead = 0.5 * (ndtr(-h1) + ndtr(-h2))
    t1 = owens_t(h1, (h2 - rho * h1) / (h1 * s))
    t2 = owens_t(h2, (h1 - rho * h2) / (h2 * s))
    mass = lead - t1 - t2
    bulk = (abs(rho) < DEGENERATE_CORR) & (h1 * h2 > 0.0)
    for i in zip(*np.nonzero(valid & ~(bulk & (mass > CANCELLATION_SHARE * lead)))):
        mass[i] = _upper_orthant(float(h1[i]), float(h2[i]), float(rho[i]))
    return mass


def correlation_grid(
    state: GaussianTwoModeState, alphas, betas, r: float, gradient: bool = False
):
    """E[i, j] = correlation_E(postselected_probs(state, alphas[i], betas[j], r))
    for two angle sequences, as array operations in the scalar path's order,
    so every element is bit-identical to it.  Where the scalar path would
    raise, the first such element in row-major order is recomputed by
    postselected_probs, which raises its own error.  With gradient=True,
    returns (E, dE/dalpha, dE/dbeta, dE/dr), each of E's shape."""
    a, b, d = _covariance_terms(state)
    ca, sa = np.array([[math.cos(t), math.sin(t)] for t in alphas]).reshape(-1, 2).T
    cb, sb = np.array([[math.cos(t), math.sin(t)] for t in betas]).reshape(-1, 2).T
    v1 = 0.5 * (a * ca * ca + (a / d) * sa * sa)
    v2 = 0.5 * (a * cb * cb + (a / d) * sb * sb)
    cov = 0.5 * (np.outer(b * ca, cb) - np.outer((b / d) * sa, sb))
    valid = np.logical_and.outer(v1 > 0.0, v2 > 0.0) & (r >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.minimum(1.0, np.maximum(-1.0, cov / np.sqrt(np.outer(v1, v2))))
        h1, h2, rho = np.broadcast_arrays(
            (r / np.sqrt(v1))[:, None], (r / np.sqrt(v2))[None, :], rho
        )
        m_pp = _upper_orthants(h1, h2, rho, valid)
        m_pm = _upper_orthants(h1, h2, -rho, valid)
        kept = ((m_pp + m_pm) + m_pm) + m_pp
        p_pp, p_pm = m_pp / kept, m_pm / kept
    total = ((p_pp + p_pm) + p_pm) + p_pp
    ok = valid & (kept >= MIN_NORMAL) & (kept <= 1.0 + 1e-12)
    ok &= abs(total - 1.0) <= 1e-9
    for p in (p_pp, p_pm):
        ok &= (-1e-12 <= p) & (p <= 1.0 + 1e-12)
    if not ok.all():
        i, j = np.unravel_index(np.argmin(ok), ok.shape)
        postselected_probs(state, alphas[i], betas[j], r)
        raise AssertionError(f"only the array table at ({alphas[i]}, {betas[j]}) fails")
    e = ((p_pp + p_pp) - p_pm) - p_pm
    if not gradient:
        return e
    # An orthant of correlation c has dP/dh1 = -phi(h1) Phi(-(h2 - c h1)/s), the
    # same with h1, h2 swapped, and dP/dc = phi2(h1, h2; c) (Plackett 1954).
    # They are taken over kept in log space, so they stay finite wherever kept
    # is a normal double; E = (m_pp - m_pm) / (m_pp + m_pm), kept = 2 (m_pp + m_pm).
    s, log_kept = np.sqrt(1.0 - rho * rho), np.log(kept)

    def over_kept(c):
        d1 = -np.exp(log_ndtr((c * h1 - h2) / s) - 0.5 * h1 * h1 - log_kept)
        d2 = -np.exp(log_ndtr((c * h2 - h1) / s) - 0.5 * h2 * h2 - log_kept)
        dc = np.exp((c * h1 * h2 - 0.5 * (h1 * h1 + h2 * h2)) / (s * s) - log_kept) / s
        return d1 / _SQRT_2PI, d2 / _SQRT_2PI, dc / (2.0 * math.pi)

    (u1, u2, uc), (w1, w2, wc) = over_kept(rho), over_kept(-rho)

    def d_e(dh1, dh2, drho):
        u, w = u1 * dh1 + u2 * dh2 + uc * drho, w1 * dh1 + w2 * dh2 - wc * drho
        return 2.0 * (u * (1.0 - e) - w * (1.0 + e))

    # dv/dt = (a/d - a) sin t cos t; h = r / sqrt(v); rho = cov / sqrt(v1 v2)
    dlv1 = ((0.5 * (a / d - a)) * sa * ca / v1)[:, None]
    dlv2 = ((0.5 * (a / d - a)) * sb * cb / v2)[None, :]
    sq = np.sqrt(np.outer(v1, v2))
    da_cov = -0.5 * (np.outer(b * sa, cb) + np.outer((b / d) * ca, sb))
    db_cov = -0.5 * (np.outer(b * ca, sb) + np.outer((b / d) * sa, cb))
    return (
        e,
        d_e(-h1 * dlv1, 0.0, da_cov / sq - rho * dlv1),
        d_e(0.0, -h2 * dlv2, db_cov / sq - rho * dlv2),
        d_e((1.0 / np.sqrt(v1))[:, None], (1.0 / np.sqrt(v2))[None, :], 0.0),
    )


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


def setting_tables(
    state: GaussianTwoModeState, settings: MeasurementSettings
) -> tuple[JointProbTable, ...]:
    """Post-selected tables of setting_pairs(settings), in that order.
    Every CHSH quantity is a function of these four tables."""
    return tuple(
        postselected_probs(state, a, b, settings.r) for a, b in setting_pairs(settings)
    )


def S_from_tables(tables: tuple[JointProbTable, ...]) -> float:
    """S = E(a,b) + E(a',b) + E(a,b') - E(a',b') from setting_tables order."""
    e_ab, e_apb, e_abp, e_apbp = (correlation_E(t) for t in tables)
    return e_ab + e_apb + e_abp - e_apbp


def bell_S(state: GaussianTwoModeState, settings: MeasurementSettings) -> float:
    """S = E(a,b) + E(a',b) + E(a,b') - E(a',b') from post-selected tables."""
    return S_from_tables(setting_tables(state, settings))


def bell_S_gradient(
    state: GaussianTwoModeState, settings: MeasurementSettings
) -> tuple[float, np.ndarray]:
    """bell_S, bit-identical, and its exact gradient in (alpha, alpha', beta,
    beta', r), from the four setting tables as one correlation_grid call."""
    e, e_a, e_b, e_r = correlation_grid(
        state, (settings.alpha, settings.alpha_prime),
        (settings.beta, settings.beta_prime), settings.r, gradient=True,
    )
    sign = np.array([[1.0, 1.0], [1.0, -1.0]])  # E[i, j] at (alpha_i, beta_j)
    grad = [*(sign * e_a).sum(axis=1), *(sign * e_b).sum(axis=0), (sign * e_r).sum()]
    return float(((e[0, 0] + e[1, 0]) + e[0, 1]) - e[1, 1]), np.array(grad)


def pr_fidelity(s: float) -> float:
    """PR-box success probability implied by a Bell parameter S."""
    if abs(s) > 4.0 + 1e-12:
        raise ValueError(f"|S|={abs(s)} exceeds the algebraic maximum 4")
    return (s + 4.0) / 8.0


def and_gate_from_tables(tables: tuple[JointProbTable, ...]) -> float:
    """AND-gate success from setting_tables order: the average of the
    same-sign probabilities for the three setting pairs with positive target
    correlation and the cross-sign probabilities for (alpha', beta').  Summed
    from table entries, so that P_AND = (4 + S)/8 stays a check."""
    t_ab, t_apb, t_abp, t_apbp = tables
    return 0.25 * (
        t_ab.p_pp
        + t_ab.p_mm
        + t_apb.p_pp
        + t_apb.p_mm
        + t_abp.p_pp
        + t_abp.p_mm
        + t_apbp.p_pm
        + t_apbp.p_mp
    )


def and_gate_success(
    state: GaussianTwoModeState, settings: MeasurementSettings
) -> float:
    """Success probability of the post-selected non-local AND gate."""
    return and_gate_from_tables(setting_tables(state, settings))


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


def no_signaling_from_tables(tables: tuple[JointProbTable, ...]) -> NoSignalingReport:
    """Marginal P(+) for both parties from setting_tables order."""
    alice = np.zeros((2, 2))
    bob = np.zeros((2, 2))
    for k, t in enumerate(tables):
        i, j = k % 2, k // 2
        alice[i, j] = t.p_pp + t.p_pm
        bob[j, i] = t.p_pp + t.p_mp
    dev = float(max(np.max(np.abs(alice - 0.5)), np.max(np.abs(bob - 0.5))))
    alice.setflags(write=False)
    bob.setflags(write=False)
    return NoSignalingReport(alice_plus=alice, bob_plus=bob, max_deviation=dev)


def no_signaling_report(
    state: GaussianTwoModeState, settings: MeasurementSettings
) -> NoSignalingReport:
    """Marginal P(+) for both parties under all four setting combinations."""
    return no_signaling_from_tables(setting_tables(state, settings))


def sweep_beta(
    state: GaussianTwoModeState, alpha: float, r: float, grid
) -> list[tuple[float, float]]:
    """Correlation curve E(alpha, beta) over a grid of beta values."""
    grid = list(grid)
    if not grid:
        raise ValueError("beta grid must be non-empty")
    e = correlation_grid(state, [alpha], grid, r)[0]
    return list(zip(map(float, grid), e.tolist()))


def quantum_reference_curve(grid, phase: float = 0.0) -> list[tuple[float, float]]:
    """Unit-amplitude sinusoid overlay (plotting reference, not a prediction)."""
    grid = list(grid)
    if not grid:
        raise ValueError("beta grid must be non-empty")
    return [(float(b), math.sin(b - phase)) for b in grid]
