"""Post-selected binned correlations: dark-region quadrant probabilities,
correlation functions, Bell parameter, PR-box fidelity and the non-local
AND-gate success probability.

Detection outcomes are the signs of the two rotated positions; events with
either position inside the dark strip |x| <= r are discarded, and the four
surviving sign combinations are renormalized to a probability table.  The
pair is a zero-mean Gaussian and the strip is symmetric, so a table takes
two orthant masses.  S, the AND-gate success and the no-signaling marginals
are each one formula over the four tables of setting_tables, so a caller
needing several of them computes the tables once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from .state import BivariateGaussian, GaussianTwoModeState, position_joint_density

QUAD_ABS_TOL = 1e-12
MIN_KEPT_FRACTION = 1e-12
DEGENERATE_CORR = 1.0 - 1e-12


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

    def is_inversion_symmetric(self, tol: float = 1e-9) -> bool:
        return abs(self.p_pp - self.p_mm) <= tol and abs(self.p_pm - self.p_mp) <= tol


def _upper_orthant(h1: float, h2: float, rho: float) -> float:
    """P(Z1 > h1, Z2 > h2) for standard bivariate normal with correlation rho.

    Reduced to a 1D integral of the normal density times a conditional tail
    CDF, evaluated by adaptive quadrature.
    """
    if rho >= DEGENERATE_CORR:
        # Z2 = Z1 almost surely
        return float(ndtr(-max(h1, h2)))
    if rho <= -DEGENERATE_CORR:
        # Z2 = -Z1: need Z1 > h1 and Z1 < -h2
        return float(max(0.0, ndtr(-h2) - ndtr(h1)))
    s = math.sqrt(1.0 - rho * rho)

    def integrand(z: float) -> float:
        return (
            math.exp(-0.5 * z * z)
            / math.sqrt(2.0 * math.pi)
            * ndtr(-(h2 - rho * z) / s)
        )

    val, _ = quad(integrand, h1, np.inf, epsabs=QUAD_ABS_TOL, epsrel=1e-11, limit=200)
    return float(min(1.0, max(0.0, val)))


def quadrant_probability(
    bg: BivariateGaussian, sign1: int, sign2: int, r: float
) -> float:
    """Un-normalized mass of bg over {sign1*x1 > r} x {sign2*x2 > r}."""
    if r < 0.0:
        raise ValueError(f"r must be non-negative, got {r}")
    if sign1 not in (-1, 1) or sign2 not in (-1, 1):
        raise ValueError("signs must be +1 or -1")
    h1 = r / bg.std1
    h2 = r / bg.std2
    return _upper_orthant(h1, h2, sign1 * sign2 * bg.corr)


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
    if kept < MIN_KEPT_FRACTION:
        raise EmptyPostSelectionError(
            f"kept fraction {kept} below {MIN_KEPT_FRACTION}: dark region "
            f"half-width r={r} removes essentially all probability mass"
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
    return [
        (float(b), correlation_E(postselected_probs(state, alpha, b, r)))
        for b in grid
    ]


def quantum_reference_curve(grid, phase: float = 0.0) -> list[tuple[float, float]]:
    """Unit-amplitude sinusoid overlay (plotting reference, not a prediction)."""
    grid = list(grid)
    if not grid:
        raise ValueError("beta grid must be non-empty")
    return [(float(b), math.sin(b - phase)) for b in grid]
