"""Two-mode Gaussian photon-pair state: covariance construction, phase-space
rotations and position-space marginals.

Conventions: dimensionless quadratures with [x, p] = i and vacuum quadrature
variance 1/2.  The coordinate order of all 4x4 covariance matrices is
(x1, p1, x2, p2).  The pair is parameterized by two positive widths
(delta, gamma): the momentum-space wavefunction is proportional to
exp(-(q1^2 + q2^2)/(2 delta^2) - q1 q2 / gamma^2), which is normalizable
only for gamma > delta.

position_joint_density writes the rotated position block in closed form.
The 4x4 covariance and rotate_covariance are the full phase-space picture
(Wigner values, purity) and the reference the closed form is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DET_GUARD = 1e-14
PURITY_TOL = 1e-10

# symplectic form for (x1, p1, x2, p2)
_OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


class NonNormalizableStateError(ValueError):
    """The pair wavefunction is not normalizable (quadratic form not positive
    definite); requires gamma > delta."""


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Photon-pair state parameterized by the widths (delta, gamma) and the
    detector length scale ``scale_s`` (millimeters per dimensionless unit).

    ``gamma = inf`` is the separable limit (no q1*q2 coupling).  ``gamma ==
    delta`` is the singular EPR limit: it is accepted at construction so the
    quadratic form can be inspected, but no covariance matrix exists there.
    """

    delta: float
    gamma: float
    scale_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.scale_s > 0.0:
            raise ValueError(f"scale_s must be positive, got {self.scale_s}")
        if self.gamma < self.delta:
            raise NonNormalizableStateError(
                f"gamma={self.gamma} < delta={self.delta}: the momentum-space "
                "quadratic form is not positive definite, so the pair "
                "wavefunction is not normalizable (gamma > delta required)"
            )

    @property
    def is_separable(self) -> bool:
        return math.isinf(self.gamma)


@dataclass(frozen=True)
class BivariateGaussian:
    """Zero-mean joint Gaussian of the two rotated transverse positions."""

    var1: float
    var2: float
    corr: float

    def __post_init__(self) -> None:
        if not self.var1 > 0.0:
            raise ValueError(f"var1 must be positive, got {self.var1}")
        if not self.var2 > 0.0:
            raise ValueError(f"var2 must be positive, got {self.var2}")
        if not abs(self.corr) <= 1.0:
            raise ValueError(f"|corr| must be <= 1, got {self.corr}")

    @property
    def std1(self) -> float:
        return math.sqrt(self.var1)

    @property
    def std2(self) -> float:
        return math.sqrt(self.var2)

    @property
    def cov(self) -> float:
        return self.corr * self.std1 * self.std2

    def covariance(self) -> np.ndarray:
        c = self.cov
        return np.array([[self.var1, c], [c, self.var2]])

    def pdf(self, x1, x2):
        """Joint probability density, broadcasting over array inputs."""
        rho = self.corr
        det = self.var1 * self.var2 * (1.0 - rho * rho)
        if det < DET_GUARD:
            raise ValueError("degenerate bivariate Gaussian (|corr| ~ 1)")
        z1 = np.asarray(x1) / self.std1
        z2 = np.asarray(x2) / self.std2
        q = (z1 * z1 - 2.0 * rho * z1 * z2 + z2 * z2) / (1.0 - rho * rho)
        return np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a 4x4 covariance matrix (two values, sorted)."""
    eigs = np.linalg.eigvals(_OMEGA @ sigma)
    nus = np.sort(np.abs(eigs))
    # eigenvalues come in +-i*nu pairs
    return np.array([nus[0], nus[2]])


@dataclass(frozen=True)
class CovarianceMatrix4:
    """Pure-state 4x4 phase-space covariance over (x1, p1, x2, p2).

    Validated at construction: symmetric, positive definite, and pure (both
    symplectic eigenvalues equal 1/2 within ``PURITY_TOL``).
    """

    sigma: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.array(self.sigma, dtype=float)
        if sigma.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got shape {sigma.shape}")
        if not np.allclose(sigma, sigma.T, atol=1e-10, rtol=0.0):
            raise ValueError("covariance matrix must be symmetric")
        sigma = 0.5 * (sigma + sigma.T)
        if np.any(np.linalg.eigvalsh(sigma) <= 0.0):
            raise ValueError("covariance matrix must be positive definite")
        dev = np.max(np.abs(symplectic_eigenvalues(sigma) - 0.5))
        if dev > PURITY_TOL:
            raise ValueError(
                f"covariance is not pure: max |nu - 1/2| = {dev:.3g} "
                f"> PURITY_TOL = {PURITY_TOL:g}"
            )
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)

    def position_block(self) -> np.ndarray:
        """2x2 covariance of (x1, x2)."""
        return self.sigma[np.ix_([0, 2], [0, 2])]

    def mode_variances(self, mode: int) -> tuple[float, float]:
        """(Var x, Var p) of mode 1 or 2."""
        i = 0 if mode == 1 else 2
        return float(self.sigma[i, i]), float(self.sigma[i + 1, i + 1])


def _quad_form_entries(state: GaussianTwoModeState) -> tuple[float, float]:
    """Diagonal a = 1/delta^2 and off-diagonal b = 1/gamma^2 of A."""
    return 1.0 / state.delta**2, 0.0 if state.is_separable else 1.0 / state.gamma**2


def _covariance_terms(state: GaussianTwoModeState) -> tuple[float, float, float]:
    """(a, b, d = det A = a^2 - b^2), refusing states at or too near the EPR
    limit, where no covariance matrix exists."""
    if state.gamma <= state.delta:
        raise NonNormalizableStateError(
            f"gamma={state.gamma} <= delta={state.delta}: no covariance "
            "matrix exists (positive definiteness requires gamma > delta)"
        )
    a, b = _quad_form_entries(state)
    d = a * a - b * b
    if d < DET_GUARD:
        raise NonNormalizableStateError(
            f"state too close to the EPR limit: det(A)={d} below guard"
        )
    return a, b, d


def quad_form_matrix(state: GaussianTwoModeState) -> np.ndarray:
    """2x2 matrix A of the momentum-space wavefunction exp(-q^T A q / 2)."""
    a, b = _quad_form_entries(state)
    return np.array([[a, b], [b, a]])


def covariance_from_state(state: GaussianTwoModeState) -> CovarianceMatrix4:
    """Phase-space covariance of the pair: momentum block A^-1/2, position
    block A/2, zero cross-correlations (real wavefunction)."""
    a, b, det = _covariance_terms(state)
    sigma = np.zeros((4, 4))
    sigma[0, 0] = sigma[2, 2] = 0.5 * a
    sigma[0, 2] = sigma[2, 0] = 0.5 * b
    sigma[1, 1] = sigma[3, 3] = 0.5 * a / det
    sigma[1, 3] = sigma[3, 1] = -0.5 * b / det
    return CovarianceMatrix4(sigma)


def rotate_covariance(
    cov: CovarianceMatrix4, alpha: float, beta: float
) -> CovarianceMatrix4:
    """Local phase-space rotations x -> cos(t) x + sin(t) p on each mode."""
    rot = np.zeros((4, 4))
    for theta, i in ((alpha, 0), (beta, 2)):
        c, s = math.cos(theta), math.sin(theta)
        rot[i, i] = c
        rot[i, i + 1] = s
        rot[i + 1, i] = -s
        rot[i + 1, i + 1] = c
    sigma = rot @ cov.sigma @ rot.T
    return CovarianceMatrix4(0.5 * (sigma + sigma.T))


def wigner_value(cov: CovarianceMatrix4, point) -> np.ndarray:
    """Normalized Gaussian Wigner density at phase-space point(s) (..., 4)."""
    sigma = cov.sigma
    det = np.linalg.det(sigma)
    if det < DET_GUARD:
        raise ValueError(f"covariance determinant {det} below guard")
    inv = np.linalg.inv(sigma)
    xi = np.asarray(point, dtype=float)
    q = np.einsum("...i,ij,...j->...", xi, inv, xi)
    return np.exp(-0.5 * q) / (4.0 * math.pi**2 * math.sqrt(det))


def position_joint_density(
    state: GaussianTwoModeState, alpha: float, beta: float
) -> BivariateGaussian:
    """Joint Gaussian of the detected positions after rotations (alpha, beta).

    The position block of rotate_covariance(covariance_from_state(state),
    alpha, beta), written in closed form.  With a = 1/delta^2, b = 1/gamma^2
    and d = a^2 - b^2, the unrotated position block is A/2 and the momentum
    block A^-1/2, so a rotation by t gives
    var(t) = (a cos^2 t + (a/d) sin^2 t) / 2 and
    cov = (b cos(alpha) cos(beta) - (b/d) sin(alpha) sin(beta)) / 2.
    """
    a, b, d = _covariance_terms(state)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    v1 = 0.5 * (a * ca * ca + (a / d) * sa * sa)
    v2 = 0.5 * (a * cb * cb + (a / d) * sb * sb)
    cov = 0.5 * (b * ca * cb - (b / d) * sa * sb)
    rho = cov / math.sqrt(v1 * v2)
    rho = min(1.0, max(-1.0, rho))
    return BivariateGaussian(var1=v1, var2=v2, corr=rho)


def _marginal_times_conditional(var1, var2, cov, x1, x2):
    """Bivariate normal density written as marginal(x2) * conditional(x1|x2)."""
    cond_var = var1 - cov * cov / var2
    mu = (cov / var2) * np.asarray(x2)
    m2 = np.exp(-np.asarray(x2) ** 2 / (2.0 * var2)) / math.sqrt(2.0 * math.pi * var2)
    c1 = np.exp(-((np.asarray(x1) - mu) ** 2) / (2.0 * cond_var)) / math.sqrt(
        2.0 * math.pi * cond_var
    )
    return m2 * c1


def closed_form_R_pi(state: GaussianTwoModeState, beta: float, x1, x2):
    """Closed-form joint position density for an imaging system on photon 1
    (rotation pi) and a beta-order transform on photon 2.

    Written directly in (delta, gamma, beta) as a marginal-times-conditional
    factorization; must agree with position_joint_density(state, pi, beta).
    """
    a, b, d = _covariance_terms(state)
    cb, sb = math.cos(beta), math.sin(beta)
    var1 = 0.5 * a
    var2 = 0.5 * a * (cb * cb + sb * sb / d)
    cov = -0.5 * b * cb
    return _marginal_times_conditional(var1, var2, cov, x1, x2)


def closed_form_R_half_pi(state: GaussianTwoModeState, beta: float, x1, x2):
    """Closed-form joint position density for a Fourier-transform system on
    photon 1 (rotation pi/2) and a beta-order transform on photon 2.

    Must agree with position_joint_density(state, pi/2, beta).
    """
    a, b, d = _covariance_terms(state)
    cb, sb = math.cos(beta), math.sin(beta)
    var1 = 0.5 * a / d
    var2 = 0.5 * a * (cb * cb + sb * sb / d)
    cov = -0.5 * b * sb / d
    return _marginal_times_conditional(var1, var2, cov, x1, x2)
