import math

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from strategies import angles, valid_states
from prbox.state import GaussianTwoModeState, NonNormalizableStateError, position_joint_density

PI = math.pi
STATE = GaussianTwoModeState(delta=0.75, gamma=1.25)
SEPARABLE = GaussianTwoModeState(delta=1.0, gamma=math.inf)


def oracle_sigma(state, alpha, beta):
    """The oracle's 4x4 covariance over (x1, p1, x2, p2), rotated as a matrix."""
    sigma = oracles.pair_covariance_4x4(state.delta, state.gamma)
    return oracles.rotate_4x4(sigma, alpha, beta)


def cov(block):
    """Covariance of the two positions of a (var1, var2, corr) block."""
    var1, var2, corr = block
    return corr * math.sqrt(var1) * math.sqrt(var2)


def pdf(block, x1, x2):
    """The oracle's density of a (var1, var2, corr) block."""
    return oracles.bivariate_pdf(*block, x1, x2)


def assert_block_matches(block, sigma, rel=1e-12):
    """The closed-form block against the (x1, x2) block of a 4x4 covariance."""
    scale = math.sqrt(sigma[0, 0] * sigma[2, 2])
    assert block[0] == pytest.approx(sigma[0, 0], rel=rel, abs=0.0)
    assert block[1] == pytest.approx(sigma[2, 2], rel=rel, abs=0.0)
    assert cov(block) == pytest.approx(sigma[0, 2], rel=0.0, abs=rel * scale)


class TestStateConstruction:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            GaussianTwoModeState(delta=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            GaussianTwoModeState(delta=1.0, gamma=-1.0)

    def test_rejects_gamma_below_delta(self):
        with pytest.raises(NonNormalizableStateError, match="positive definite"):
            GaussianTwoModeState(delta=1.25, gamma=0.75)

    def test_epr_limit_constructible_but_has_no_covariance(self):
        epr = GaussianTwoModeState(delta=1.0, gamma=1.0)
        with pytest.raises(NonNormalizableStateError):
            position_joint_density(epr, 0.0, 0.0)


class TestQuadFormMatrix:
    """The quadratic form A = [[a, b], [b, a]], a = 1/delta^2, b = 1/gamma^2,
    seen through the unrotated position block A/2 and the momentum block
    A^-1/2 (both quadratures rotated by pi/2)."""

    def test_separable_identity(self):
        for alpha in (0.0, PI / 2.0):
            bg = position_joint_density(SEPARABLE, alpha, alpha)
            assert (*bg[:2], cov(bg)) == pytest.approx((0.5, 0.5, 0.0))

    def test_direct_substitution(self):
        a, b = 16.0 / 9.0, 16.0 / 25.0
        d = a * a - b * b
        x = position_joint_density(STATE, 0.0, 0.0)
        assert x[:2] == pytest.approx((a / 2, a / 2), rel=1e-15)
        assert cov(x) == pytest.approx(b / 2, rel=1e-15)
        p = position_joint_density(STATE, PI / 2.0, PI / 2.0)
        assert p[:2] == pytest.approx((a / d / 2, a / d / 2), rel=1e-14)
        assert cov(p) == pytest.approx(-b / d / 2, rel=1e-14)

    def test_epr_limit_singular(self):
        with pytest.raises(NonNormalizableStateError, match="no covariance"):
            position_joint_density(GaussianTwoModeState(0.8, 0.8), 0.0, 0.0)
        # one ulp above the EPR limit det A is about 1e-15, below the guard
        near = GaussianTwoModeState(0.8, math.nextafter(0.8, 1.0))
        with pytest.raises(NonNormalizableStateError, match="too close"):
            position_joint_density(near, 0.0, 0.0)


class TestCovarianceFromState:
    def test_separable_is_half_identity(self):
        for alpha, beta in [(0.0, 0.0), (0.3, 1.2), (PI, 5 * PI / 4)]:
            var1, var2, _ = position_joint_density(SEPARABLE, alpha, beta)
            assert var1 == pytest.approx(0.5, abs=1e-15)
            assert var2 == pytest.approx(0.5, abs=1e-15)

    def test_momentum_block_against_wavefunction_moments(self):
        # brute-force second moments of |psi(q1,q2)|^2; a pi/2 rotation of
        # both modes maps x to p
        v1, v2, c = oracles.momentum_moments(STATE.delta, STATE.gamma)
        bg = position_joint_density(STATE, PI / 2.0, PI / 2.0)
        assert bg[:2] == pytest.approx((v1, v2), abs=1e-8)
        assert cov(bg) == pytest.approx(c, abs=1e-8)

    def test_position_block_against_fourier_transform_moments(self):
        v1, v2, c = oracles.position_moments(STATE.delta, STATE.gamma)
        bg = position_joint_density(STATE, 0.0, 0.0)
        assert bg[:2] == pytest.approx((v1, v2), abs=1e-4)
        assert cov(bg) == pytest.approx(c, abs=1e-4)

    @settings(max_examples=50, deadline=None)
    @given(valid_states())
    def test_purity(self, state):
        # symplectic spectrum of the oracle covariance over (x1, p1, x2, p2)
        sigma = oracles.pair_covariance_4x4(state.delta, state.gamma)
        omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        nus = np.abs(np.linalg.eigvals(omega @ sigma))
        assert np.all(np.abs(nus - 0.5) < 1e-10)


class TestRotateCovariance:
    def test_zero_rotation_is_identity(self):
        # full turns leave the block as it is
        bg = position_joint_density(STATE, 2 * PI, -2 * PI)
        assert_block_matches(bg, oracle_sigma(STATE, 0.0, 0.0))

    def test_pi_rotation_leaves_covariance_unchanged(self):
        bg = position_joint_density(STATE, PI, PI)
        assert_block_matches(bg, oracle_sigma(STATE, 0.0, 0.0))

    def test_quarter_rotation_swaps_quadratures(self):
        sigma = oracles.pair_covariance_4x4(STATE.delta, STATE.gamma)
        var1, var2, _ = position_joint_density(STATE, PI / 2.0, 0.0)
        assert var1 == pytest.approx(sigma[1, 1], rel=1e-12)
        assert var2 == pytest.approx(sigma[2, 2], rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(valid_states(), angles, angles, angles, angles)
    def test_group_law(self, state, a1, b1, a2, b2):
        # the closed form at summed angles against the oracle rotated twice
        sigma = oracles.pair_covariance_4x4(state.delta, state.gamma)
        two_step = oracles.rotate_4x4(oracles.rotate_4x4(sigma, a1, b1), a2, b2)
        bg = position_joint_density(state, a1 + a2, b1 + b2)
        assert_block_matches(bg, two_step)

    @settings(max_examples=50, deadline=None)
    @given(valid_states(), angles, angles)
    def test_heisenberg_after_rotation(self, state, alpha, beta):
        x1, x2, _ = position_joint_density(state, alpha, beta)
        p1, p2, _ = position_joint_density(state, alpha + PI / 2.0, beta + PI / 2.0)
        assert x1 * p1 >= 0.25 * (1.0 - 1e-12)
        assert x2 * p2 >= 0.25 * (1.0 - 1e-12)


class TestPositionJointDensity:
    def test_separable_has_zero_correlation(self):
        # at delta = 5000, det A = 1/delta^4 = 1.6e-15, yet 1 - (b/a)^2 = 1:
        # as far from the EPR limit as a state can be
        for state in (SEPARABLE, GaussianTwoModeState(5000.0, math.inf)):
            for alpha, beta in [(0.0, 0.0), (0.3, 1.2), (PI, 5 * PI / 4)]:
                assert position_joint_density(state, alpha, beta)[2] == 0.0

    def test_unrotated_matches_covariance_blocks(self):
        sigma = oracles.pair_covariance_4x4(STATE.delta, STATE.gamma)
        assert_block_matches(position_joint_density(STATE, 0.0, 0.0), sigma)

    @settings(max_examples=100, deadline=None)
    @given(valid_states(), angles, angles)
    def test_closed_form_matches_rotated_covariance(self, state, alpha, beta):
        bg = position_joint_density(state, alpha, beta)
        assert_block_matches(bg, oracle_sigma(state, alpha, beta))

    def test_near_epr_limit_still_has_a_position_block(self):
        state = GaussianTwoModeState(delta=0.75, gamma=0.75001)
        _, var2, _ = position_joint_density(state, PI, 5 * PI / 4)
        a, b = 0.75**-2, 0.75001**-2
        d = (a - b) * (a + b)
        assert var2 == pytest.approx(0.25 * (a + a / d), rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(valid_states(), angles, angles)
    def test_global_sign_flip_invariance(self, state, alpha, beta):
        var1, _, corr = position_joint_density(state, alpha, beta)
        flipped_var1, _, flipped_corr = position_joint_density(state, alpha + PI, beta + PI)
        assert corr == pytest.approx(flipped_corr, abs=1e-12)
        assert var1 == pytest.approx(flipped_var1, rel=1e-10)

    @pytest.mark.parametrize(
        "alpha,beta", [(0.0, 0.0), (PI, 5 * PI / 4), (PI / 2.0, 0.7)]
    )
    def test_marginalizing_wigner_over_momenta(self, alpha, beta):
        # p-integration of the oracle's rotated Wigner function on a grid
        # must land on the joint position density
        sigma = oracle_sigma(STATE, alpha, beta)
        inv = np.linalg.inv(sigma)
        norm = 4.0 * PI**2 * math.sqrt(np.linalg.det(sigma))
        bg = position_joint_density(STATE, alpha, beta)
        stds = np.sqrt(np.diag(sigma))
        p1 = np.linspace(-8 * stds[1], 8 * stds[1], 201)
        p2 = np.linspace(-8 * stds[3], 8 * stds[3], 201)
        for x1, x2 in [(0.0, 0.0), (0.5, -0.3), (-1.0, 0.8)]:
            axes = (np.array([x1]), p1, np.array([x2]), p2)
            wigner = oracles._gauss_density_4d(inv, norm, axes)[0, :, 0, :]
            marginal = np.trapezoid(np.trapezoid(wigner, p2), p1)
            assert marginal == pytest.approx(float(pdf(bg, x1, x2)), abs=1e-5)

    def test_density_is_even(self):
        bg = position_joint_density(STATE, PI, 0.4)
        x = np.array([0.3, -1.2, 0.9])
        y = np.array([-0.8, 0.1, 2.0])
        assert np.array_equal(pdf(bg, x, y), pdf(bg, -x, -y))


class TestClosedForms:
    GRID = np.linspace(-2.5, 2.5, 21)

    @pytest.mark.parametrize("beta", [0.0, PI / 4.0, PI / 2.0])
    def test_imaging_form_matches_covariance_path(self, beta):
        bg = position_joint_density(STATE, PI, beta)
        x1, x2 = np.meshgrid(self.GRID, self.GRID, indexing="ij")
        got = oracles.closed_form_R_pi(STATE.delta, STATE.gamma, beta, x1, x2)
        want = pdf(bg, x1, x2)
        assert np.allclose(got, want, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("beta", [0.0, PI / 4.0, PI / 2.0])
    def test_fourier_form_matches_covariance_path(self, beta):
        bg = position_joint_density(STATE, PI / 2.0, beta)
        x1, x2 = np.meshgrid(self.GRID, self.GRID, indexing="ij")
        got = oracles.closed_form_R_half_pi(STATE.delta, STATE.gamma, beta, x1, x2)
        want = pdf(bg, x1, x2)
        assert np.allclose(got, want, rtol=1e-6, atol=0)

    def test_imaging_beta_zero_configuration(self):
        # beta = 0 pairs two imaging-like marginals of variance 1/(2 delta^2)
        bg = position_joint_density(STATE, PI, 0.0)
        assert bg[:2] == pytest.approx((0.5 / STATE.delta**2,) * 2, rel=1e-12)
        got = oracles.closed_form_R_pi(STATE.delta, STATE.gamma, 0.0, 0.7, -0.2)
        assert got == pytest.approx(float(pdf(bg, 0.7, -0.2)), rel=1e-9)

    @pytest.mark.parametrize("beta", [0.0, PI / 4.0, PI / 2.0, 5 * PI / 4.0])
    def test_normalization(self, beta):
        g = np.linspace(-8.0, 8.0, 401)
        x1, x2 = np.meshgrid(g, g, indexing="ij")
        for form in (oracles.closed_form_R_pi, oracles.closed_form_R_half_pi):
            vals = form(STATE.delta, STATE.gamma, beta, x1, x2)
            assert np.all(vals >= 0.0)
            assert np.all(np.isfinite(vals))
            total = np.trapezoid(np.trapezoid(vals, g, axis=1), g)
            assert total == pytest.approx(1.0, abs=1e-6)

