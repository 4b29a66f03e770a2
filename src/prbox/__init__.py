"""Post-selected PR-box correlations of a two-mode Gaussian photon-pair
state: analytic quadrature path, Monte Carlo oracle, FRFT optics planning,
and settings optimization."""

from .chsh import (
    JointProbTable,
    MeasurementSettings,
    REFERENCE_SETTINGS,
    and_gate_success,
    bell_S,
    correlation_E,
    no_signaling_report,
    postselected_probs,
    pr_fidelity,
    quadrant_probability,
    quantum_reference_curve,
    sign_expectation,
    sweep_beta,
)
from .frft import (
    FrftPlan,
    FrftStage,
    PlanNotFoundError,
    compose_orders,
    frft_distance,
    frft_order_from_distance,
    plan_lens_system,
)
from .montecarlo import (
    CountTable,
    ProbEstimate,
    estimate_probabilities,
    mc_bell_S,
    sample_pairs,
    simulate_counts,
)
from .optimize import SearchResult, maximize_S, tune_r
from .state import (
    BivariateGaussian,
    GaussianTwoModeState,
    NonNormalizableStateError,
    closed_form_R_half_pi,
    closed_form_R_pi,
    position_joint_density,
)

__all__ = [
    "BivariateGaussian",
    "CountTable",
    "FrftPlan",
    "FrftStage",
    "GaussianTwoModeState",
    "JointProbTable",
    "MeasurementSettings",
    "NonNormalizableStateError",
    "REFERENCE_SETTINGS",
    "ProbEstimate",
    "SearchResult",
    "and_gate_success",
    "bell_S",
    "closed_form_R_half_pi",
    "closed_form_R_pi",
    "compose_orders",
    "correlation_E",
    "estimate_probabilities",
    "frft_distance",
    "frft_order_from_distance",
    "maximize_S",
    "mc_bell_S",
    "no_signaling_report",
    "plan_lens_system",
    "position_joint_density",
    "postselected_probs",
    "pr_fidelity",
    "quadrant_probability",
    "quantum_reference_curve",
    "sample_pairs",
    "sign_expectation",
    "simulate_counts",
    "sweep_beta",
    "tune_r",
]

__version__ = "0.1.0"
