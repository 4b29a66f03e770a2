import math

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from strategies import angles, valid_states
from prbox import (
    BivariateGaussian,
    CovarianceMatrix4,
    GaussianTwoModeState,
    NonNormalizableStateError,
    closed_form_R_half_pi,
    closed_form_R_pi,
    covariance_from_state,
    position_joint_density,
    quad_form_matrix,
    rotate_covariance,
    symplectic_eigenvalues,
    wigner_value,
)

PI = math.pi
STATE = GaussianTwoModeState(delta=0.75, gamma=1.25)
SEPARABLE = GaussianTwoModeState(delta=1.0, gamma=math.inf)


class TestStateConstruction:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            GaussianTwoModeState(delta=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            GaussianTwoModeState(delta=1.0, gamma=-1.0)
        with pytest.raises(ValueError):
            GaussianTwoModeState(delta=1.0, gamma=2.0, scale_s=0.0)

    def test_rejects_gamma_below_delta(self):
        with pytest.raises(NonNormalizableStateError, match="positive definite"):
            GaussianTwoModeState(delta=1.25, gamma=0.75)

    def test_epr_limit_constructible_but_has_no_covariance(self):
        epr = GaussianTwoModeState(delta=1.0, gamma=1.0)
        assert quad_form_matrix(epr) is not None
        with pytest.raises(NonNormalizableStateError):
            covariance_from_state(epr)


class TestQuadFormMatrix:
    def test_separable_identity(self):
        assert np.allclose(quad_form_matrix(SEPARABLE), np.eye(2))

    def test_direct_substitution(self):
        a = quad_form_matrix(STATE)
        expected = np.array([[16.0 / 9.0, 16.0 / 25.0], [16.0 / 25.0, 16.0 / 9.0]])
        assert np.allclose(a, expected, rtol=0, atol=1e-15)

    def test_epr_limit_singular(self):
        a = quad_form_matrix(GaussianTwoModeState(delta=0.8, gamma=0.8))
        assert abs(np.linalg.eigvalsh(a)[0]) < 1e-12


class TestCovarianceFromState:
    def test_separable_is_half_identity(self):
        cov = covariance_from_state(SEPARABLE)
        assert np.allclose(cov.sigma, 0.5 * np.eye(4), rtol=0, atol=1e-15)

    def test_momentum_block_against_wavefunction_moments(self):
        # brute-force second moments of |psi(q1,q2)|^2
        v1, v2, c = oracles.momentum_moments(STATE.delta, STATE.gamma)
        sigma = covariance_from_state(STATE).sigma
        assert sigma[1, 1] == pytest.approx(v1, abs=1e-8)
        assert sigma[3, 3] == pytest.approx(v2, abs=1e-8)
        assert sigma[1, 3] == pytest.approx(c, abs=1e-8)

    def test_position_block_against_fourier_transform_moments(self):
        v1, v2, c = oracles.position_moments(STATE.delta, STATE.gamma)
        sigma = covariance_from_state(STATE).sigma
        assert sigma[0, 0] == pytest.approx(v1, abs=1e-4)
        assert sigma[2, 2] == pytest.approx(v2, abs=1e-4)
        assert sigma[0, 2] == pytest.approx(c, abs=1e-4)

    @settings(max_examples=50, deadline=None)
    @given(valid_states())
    def test_purity(self, state):
        nus = symplectic_eigenvalues(covariance_from_state(state).sigma)
        assert np.all(np.abs(nus - 0.5) < 1e-10)

    def test_impure_matrix_rejected(self):
        with pytest.raises(ValueError, match="pure"):
            CovarianceMatrix4(np.eye(4))


class TestWignerValue:
    def test_peak_value(self):
        cov = covariance_from_state(STATE)
        det = np.linalg.det(cov.sigma)
        expected = 1.0 / (4.0 * PI**2 * math.sqrt(det))
        assert wigner_value(cov, (0, 0, 0, 0)) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_peak(self):
        cov = CovarianceMatrix4(0.5 * np.eye(4))
        assert wigner_value(cov, (0, 0, 0, 0)) == pytest.approx(1.0 / PI**2, rel=1e-12)

    def test_normalization_by_4d_quadrature(self):
        cov = covariance_from_state(STATE)
        stds = np.sqrt(np.diag(cov.sigma))
        grids = [np.linspace(-8.0 * s, 8.0 * s, 61) for s in stds]
        mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)
        w = wigner_value(cov, mesh)
        for g in reversed(grids):
            w = np.trapezoid(w, g, axis=-1)
        assert float(w) == pytest.approx(1.0, abs=1e-6)


class TestRotateCovariance:
    def test_zero_rotation_is_identity(self):
        cov = covariance_from_state(STATE)
        rotated = rotate_covariance(cov, 0.0, 0.0)
        assert np.allclose(rotated.sigma, cov.sigma, rtol=0, atol=1e-15)

    def test_pi_rotation_leaves_covariance_unchanged(self):
        cov = covariance_from_state(STATE)
        rotated = rotate_covariance(cov, PI, PI)
        assert np.allclose(rotated.sigma, cov.sigma, rtol=0, atol=1e-12)

    def test_quarter_rotation_swaps_quadratures(self):
        cov = covariance_from_state(STATE)
        rotated = rotate_covariance(cov, PI / 2.0, 0.0)
        assert rotated.sigma[0, 0] == pytest.approx(cov.sigma[1, 1], rel=1e-12)
        assert rotated.sigma[1, 1] == pytest.approx(cov.sigma[0, 0], rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(valid_states(), angles, angles, angles, angles)
    def test_group_law(self, state, a1, b1, a2, b2):
        cov = covariance_from_state(state)
        two_step = rotate_covariance(rotate_covariance(cov, a1, b1), a2, b2)
        one_step = rotate_covariance(cov, a1 + a2, b1 + b2)
        assert np.allclose(two_step.sigma, one_step.sigma, rtol=0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(valid_states(), angles, angles)
    def test_heisenberg_after_rotation(self, state, alpha, beta):
        rotated = rotate_covariance(covariance_from_state(state), alpha, beta)
        for mode in (1, 2):
            vx, vp = rotated.mode_variances(mode)
            assert vx * vp >= 0.25 - 1e-12


class TestPositionJointDensity:
    def test_separable_has_zero_correlation(self):
        for alpha, beta in [(0.0, 0.0), (0.3, 1.2), (PI, 5 * PI / 4)]:
            assert position_joint_density(SEPARABLE, alpha, beta).corr == 0.0

    def test_unrotated_matches_covariance_blocks(self):
        sigma = covariance_from_state(STATE).sigma
        bg = position_joint_density(STATE, 0.0, 0.0)
        assert bg.var1 == pytest.approx(sigma[0, 0], rel=1e-12)
        assert bg.var2 == pytest.approx(sigma[2, 2], rel=1e-12)
        assert bg.cov == pytest.approx(sigma[0, 2], rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(valid_states(), angles, angles)
    def test_closed_form_matches_rotated_covariance(self, state, alpha, beta):
        block = rotate_covariance(
            covariance_from_state(state), alpha, beta
        ).position_block()
        bg = position_joint_density(state, alpha, beta)
        scale = math.sqrt(block[0, 0] * block[1, 1])
        assert bg.var1 == pytest.approx(block[0, 0], rel=1e-12, abs=0.0)
        assert bg.var2 == pytest.approx(block[1, 1], rel=1e-12, abs=0.0)
        assert bg.cov == pytest.approx(block[0, 1], rel=0.0, abs=1e-12 * scale)

    def test_near_epr_limit_still_has_a_position_block(self):
        # The 4x4 path loses purity to rounding here; the closed form does not.
        state = GaussianTwoModeState(delta=0.75, gamma=0.75001)
        with pytest.raises(ValueError, match="pure"):
            rotate_covariance(covariance_from_state(state), PI, 5 * PI / 4)
        bg = position_joint_density(state, PI, 5 * PI / 4)
        a, b = 0.75**-2, 0.75001**-2
        d = (a - b) * (a + b)
        assert bg.var2 == pytest.approx(0.25 * (a + a / d), rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(valid_states(), angles, angles)
    def test_global_sign_flip_invariance(self, state, alpha, beta):
        bg1 = position_joint_density(state, alpha, beta)
        bg2 = position_joint_density(state, alpha + PI, beta + PI)
        assert bg1.corr == pytest.approx(bg2.corr, abs=1e-12)
        assert bg1.var1 == pytest.approx(bg2.var1, rel=1e-10)

    @pytest.mark.parametrize(
        "alpha,beta", [(0.0, 0.0), (PI, 5 * PI / 4), (PI / 2.0, 0.7)]
    )
    def test_marginalizing_wigner_over_momenta(self, alpha, beta):
        # p-integration of the rotated Wigner function on a grid must land on
        # the joint position density
        cov = rotate_covariance(covariance_from_state(STATE), alpha, beta)
        bg = position_joint_density(STATE, alpha, beta)
        stds = np.sqrt(np.diag(cov.sigma))
        p1 = np.linspace(-8 * stds[1], 8 * stds[1], 201)
        p2 = np.linspace(-8 * stds[3], 8 * stds[3], 201)
        for x1, x2 in [(0.0, 0.0), (0.5, -0.3), (-1.0, 0.8)]:
            pts = np.zeros((len(p1), len(p2), 4))
            pts[..., 0] = x1
            pts[..., 1] = p1[:, None]
            pts[..., 2] = x2
            pts[..., 3] = p2[None, :]
            marginal = np.trapezoid(np.trapezoid(wigner_value(cov, pts), p2), p1)
            assert marginal == pytest.approx(float(bg.pdf(x1, x2)), abs=1e-5)

    def test_density_is_even(self):
        bg = position_joint_density(STATE, PI, 0.4)
        x = np.array([0.3, -1.2, 0.9])
        y = np.array([-0.8, 0.1, 2.0])
        assert np.array_equal(bg.pdf(x, y), bg.pdf(-x, -y))


class TestClosedForms:
    GRID = np.linspace(-2.5, 2.5, 21)

    @pytest.mark.parametrize("beta", [0.0, PI / 4.0, PI / 2.0])
    def test_imaging_form_matches_covariance_path(self, beta):
        bg = position_joint_density(STATE, PI, beta)
        x1, x2 = np.meshgrid(self.GRID, self.GRID, indexing="ij")
        got = closed_form_R_pi(STATE, beta, x1, x2)
        want = bg.pdf(x1, x2)
        assert np.allclose(got, want, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("beta", [0.0, PI / 4.0, PI / 2.0])
    def test_fourier_form_matches_covariance_path(self, beta):
        bg = position_joint_density(STATE, PI / 2.0, beta)
        x1, x2 = np.meshgrid(self.GRID, self.GRID, indexing="ij")
        got = closed_form_R_half_pi(STATE, beta, x1, x2)
        want = bg.pdf(x1, x2)
        assert np.allclose(got, want, rtol=1e-6, atol=0)

    def test_imaging_beta_zero_configuration(self):
        # beta = 0 pairs two imaging-like marginals of variance 1/(2 delta^2)
        bg = position_joint_density(STATE, PI, 0.0)
        assert bg.var1 == pytest.approx(0.5 / STATE.delta**2, rel=1e-12)
        assert bg.var2 == pytest.approx(0.5 / STATE.delta**2, rel=1e-12)
        got = closed_form_R_pi(STATE, 0.0, 0.7, -0.2)
        assert got == pytest.approx(float(bg.pdf(0.7, -0.2)), rel=1e-9)

    @pytest.mark.parametrize("beta", [0.0, PI / 4.0, PI / 2.0, 5 * PI / 4.0])
    def test_normalization(self, beta):
        g = np.linspace(-8.0, 8.0, 401)
        x1, x2 = np.meshgrid(g, g, indexing="ij")
        for form in (closed_form_R_pi, closed_form_R_half_pi):
            vals = form(STATE, beta, x1, x2)
            assert np.all(vals >= 0.0)
            assert np.all(np.isfinite(vals))
            total = np.trapezoid(np.trapezoid(vals, g, axis=1), g)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestBivariateGaussian:
    def test_validation(self):
        with pytest.raises(ValueError):
            BivariateGaussian(var1=-1.0, var2=1.0, corr=0.0)
        with pytest.raises(ValueError):
            BivariateGaussian(var1=1.0, var2=1.0, corr=1.5)

    def test_pdf_peak(self):
        bg = BivariateGaussian(var1=2.0, var2=0.5, corr=0.3)
        det = 2.0 * 0.5 * (1 - 0.09)
        assert float(bg.pdf(0.0, 0.0)) == pytest.approx(
            1.0 / (2 * PI * math.sqrt(det)), rel=1e-12
        )
