"""Two-mode Gaussian photon-pair state and its rotated position marginal.

Conventions: dimensionless quadratures with [x, p] = i and vacuum quadrature
variance 1/2.  The pair is parameterized by two positive widths
(delta, gamma): the momentum-space wavefunction is proportional to
exp(-(q1^2 + q2^2)/(2 delta^2) - q1 q2 / gamma^2), which is normalizable
only for gamma > delta.

Every table starts from one object, the 2x2 covariance of the detected
positions after local phase-space rotations x -> cos(t) x + sin(t) p.
rotated_block writes it in closed form from a = 1/delta^2, b = 1/gamma^2
and d = a^2 - b^2, over finite angles that broadcast as numpy arrays do,
and position_joint_density is its scalar case.  The test suite checks it
against an independently assembled 4x4 phase-space covariance over (x1,
p1, x2, p2), rotated as a matrix, and against brute-force moments of the
wavefunction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DET_GUARD = 1e-14


class NonNormalizableStateError(ValueError):
    """The pair wavefunction is not normalizable (quadratic form not positive
    definite); requires gamma > delta."""


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Photon-pair state parameterized by the widths (delta, gamma).

    ``gamma = inf`` is the separable limit (no q1*q2 coupling).  ``gamma ==
    delta`` is the singular EPR limit: it is accepted at construction, but no
    covariance matrix exists there and position_joint_density refuses it.
    """

    delta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("delta", "gamma"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.gamma < self.delta:
            raise NonNormalizableStateError(
                f"gamma={self.gamma} < delta={self.delta}: the momentum-space "
                "quadratic form is not positive definite, so the pair "
                "wavefunction is not normalizable (gamma > delta required)"
            )


def _covariance_terms(state: GaussianTwoModeState) -> tuple[float, float, float]:
    """Entries a = 1/delta^2 and b = 1/gamma^2 of the momentum-space quadratic
    form A = [[a, b], [b, a]] and d = det A = a^2 - b^2, refusing states at
    or too near the EPR limit, where no covariance matrix exists.  Nearness
    is d / a^2 = 1 - (b/a)^2, which does not depend on the state's scale."""
    if state.gamma <= state.delta:
        raise NonNormalizableStateError(
            f"gamma={state.gamma} <= delta={state.delta}: no covariance "
            "matrix exists (positive definiteness requires gamma > delta)"
        )
    a = 1.0 / state.delta**2
    b = 1.0 / state.gamma**2  # 0.0 at the separable limit gamma = inf
    d = a * a - b * b
    if d < DET_GUARD * a * a:
        raise NonNormalizableStateError(
            f"state too close to the EPR limit: 1 - (b/a)^2 = {d / (a * a)} "
            f"below guard {DET_GUARD}"
        )
    return a, b, d


def _require(*checks) -> None:
    """Raise for the first element, in C order of the broadcast shape, where
    a check (ok, error, message, *values) fails, with the first check that
    fails there: error(message formatted with the values at that element),
    whose ``index`` is that element's index in the broadcast shape."""
    # one all-true test per check; count_nonzero is cheaper than ok.all()
    if all(np.count_nonzero(ok) == ok.size for ok, *_ in checks):
        return
    shape = np.broadcast_shapes(*(np.shape(ok) for ok, *_ in checks))
    oks = np.array([np.broadcast_to(ok, shape).ravel() for ok, *_ in checks])
    at = np.argmin(oks.all(axis=0))
    _, error, message, *values = checks[np.argmin(oks[:, at])]
    exc = error(message.format(*(float(np.broadcast_to(v, shape).flat[at]) for v in values)))
    exc.index = np.unravel_index(at, shape)
    raise exc


def rotated_block(state: GaussianTwoModeState, alpha, beta, gradient: bool = False):
    """Variances var1 and var2 of the detected positions after rotations
    alpha and beta, and their correlation rho, as arrays: var1 has the shape
    of alpha, var2 that of beta, and rho their broadcast shape.  The first
    non-finite angle, in C order, raises a ValueError that names it.

    With a = 1/delta^2, b = 1/gamma^2 and d = a^2 - b^2, the unrotated
    position block is A/2 and the momentum block A^-1/2, with no x-p
    cross-correlations (real wavefunction), so a rotation by t gives
    var(t) = (a cos^2 t + (a/d) sin^2 t) / 2 and
    cov = (b cos(alpha) cos(beta) - (b/d) sin(alpha) sin(beta)) / 2.
    With gradient=True, also d ln sqrt(var1) / d alpha, d ln sqrt(var2) /
    d beta and the derivatives of rho in alpha and in beta.
    """
    a, b, d = _covariance_terms(state)
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    _require((np.isfinite(alpha), ValueError, "alpha must be finite, got {}", alpha),
             (np.isfinite(beta), ValueError, "beta must be finite, got {}", beta))
    ca, sa, cb, sb = np.cos(alpha), np.sin(alpha), np.cos(beta), np.sin(beta)
    v1 = 0.5 * (a * ca * ca + (a / d) * sa * sa)
    v2 = 0.5 * (a * cb * cb + (a / d) * sb * sb)
    sq = np.sqrt(v1 * v2)
    cov = 0.5 * (b * ca * cb - (b / d) * sa * sb)
    rho = np.minimum(1.0, np.maximum(-1.0, cov / sq))
    if not gradient:
        return v1, v2, rho
    # dvar/dt = (a/d - a) sin t cos t
    dlv1 = (0.5 * (a / d - a)) * sa * ca / v1
    dlv2 = (0.5 * (a / d - a)) * sb * cb / v2
    da_cov = -0.5 * (b * sa * cb + (b / d) * ca * sb)
    db_cov = -0.5 * (b * ca * sb + (b / d) * sa * cb)
    return v1, v2, rho, dlv1, dlv2, da_cov / sq - rho * dlv1, db_cov / sq - rho * dlv2


def position_joint_density(
    state: GaussianTwoModeState, alpha: float, beta: float
) -> tuple[float, float, float]:
    """(var1, var2, corr) of the zero-mean joint Gaussian of the detected
    positions after rotations (alpha, beta): rotated_block at scalar angles.
    The variances are positive (a > 0 and a/d > 0) and corr lies in [-1, 1]."""
    return tuple(map(float, rotated_block(state, alpha, beta)))
