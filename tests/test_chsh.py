import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import REFERENCE_SETTINGS
from strategies import angles, dark_widths, valid_states
from prbox import chsh
from prbox.chsh import (
    DEGENERATE_CORR,
    ORTHANT_RTOL,
    EmptyPostSelectionError,
    MeasurementSettings,
    and_gate_success,
    bell_S,
    bell_S_gradient,
    chsh_values,
    correlation_grid,
    no_signaling_report,
    postselected_probs,
    pr_fidelity,
    quadrant_probability,
    setting_pairs,
    setting_tables,
    sweep_beta,
)
from prbox.montecarlo import setting_estimates, simulate_counts
from prbox.state import GaussianTwoModeState, position_joint_density

PI = math.pi
STATE = GaussianTwoModeState(delta=0.75, gamma=1.25)
SEPARABLE = GaussianTwoModeState(delta=1.0, gamma=math.inf)
NEAR_EPR = GaussianTwoModeState(delta=0.75, gamma=0.75001)


def orthant(block, sign1, sign2, r):
    """Mass of a (var1, var2, corr) block over {sign1*x1 > r} x {sign2*x2 > r}:
    quadrant_probability at the thresholds r / std and the signed correlation."""
    var1, var2, corr = block
    h1, h2, rho = np.array([[r / math.sqrt(var1)], [r / math.sqrt(var2)], [sign1 * sign2 * corr]])
    return float(quadrant_probability(h1, h2, rho)[0])


class TestQuadrantProbability:
    def test_uncorrelated_r_zero_quadrants(self):
        bg = (1.3, 0.4, 0.0)
        for s1 in (1, -1):
            for s2 in (1, -1):
                assert orthant(bg, s1, s2, 0.0) == pytest.approx(
                    0.25, abs=1e-10
                )

    def test_perfectly_correlated(self):
        bg = (1.0, 1.0, 1.0)
        assert orthant(bg, 1, 1, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert orthant(bg, 1, -1, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.95, -0.5, 0.0, 0.3, 0.8, 0.999])
    def test_orthant_identity(self, rho):
        bg = (0.7, 2.1, rho)
        expected = 0.25 + math.asin(rho) / (2.0 * PI)
        assert orthant(bg, 1, 1, 0.0) == pytest.approx(expected, abs=1e-9)

    def test_against_monte_carlo(self):
        bg = (0.9, 1.7, 0.55)
        analytic = orthant(bg, 1, 1, 0.0)
        est, se = oracles.mc_quadrant_probability(
            *bg, 1, 1, 0.0, n=10_000_000, seed=20260823
        )
        assert abs(est - analytic) < 4.0 * se


def assert_orthants_match_oracle(block, r):
    """Both sign patterns of orthant within 1e-9 relative of
    the 40-digit oracle; a mass below the normal doubles must underflow."""
    var1, var2, corr = block
    h1, h2 = r / math.sqrt(var1), r / math.sqrt(var2)
    for sign2 in (1, -1):
        want = oracles.mp_upper_orthant(h1, h2, sign2 * corr)
        got = orthant(block, 1, sign2, r)
        if want < sys.float_info.min:
            assert got < sys.float_info.min
        else:
            assert abs(got - want) <= 1e-9 * want, (h1, h2, sign2 * corr)


def tail_branch(monkeypatch, h1, h2, rho):
    """Mask of the elements of one quadrant_probability call that take the
    tail rule."""
    with monkeypatch.context() as m:
        m.setattr(chsh, "_tail_orthants", lambda h1, h2, rho: np.full(len(h1), -1.0))
        return quadrant_probability(h1, h2, rho) == -1.0


def assert_tail_matches_oracle(h1, h2, rho, got):
    """got within ORTHANT_RTOL relative of the 40-digit oracle, or exactly 0
    where the oracle is below 1e-300."""
    for args, g in zip(zip(h1.tolist(), h2.tolist(), rho.tolist()), got.tolist()):
        want = oracles.mp_upper_orthant(*args)
        if not (want < 1e-300 and g == 0.0):
            assert abs(g - want) <= ORTHANT_RTOL * want, (args, g, want)


# (h1, h2, rho) samplers that reach the tail rule: moderate thresholds at any
# correlation, thresholds up to 30, and correlations from 1 - 1e-1 to 1 - 1e-8
TAIL_SAMPLERS = {
    "moderate": lambda rng, n: (*rng.uniform(0, 9, (2, n)), rng.uniform(-1, 1, n)),
    "far": lambda rng, n: (*rng.uniform(0, 30, (2, n)), rng.uniform(-1, 1, n) * (1 - 1e-8)),
    "near_one": lambda rng, n: (*rng.uniform(0, 35, (2, n)), 1 - 10.0 ** rng.uniform(-8, -1, n)),
}


class TestOrthantAccuracy:
    @pytest.mark.parametrize(
        "h,k", [(0.0, 0.0), (0.5, 2.0), (3.0, 6.0), (8.0, 8.0), (12.0, 3.0)]
    )
    def test_oracle_matches_independent_product(self, h, k):
        # at rho = 0 the orthant is the product of the two normal tails
        with mpmath.workdps(40):
            want = float(mpmath.ncdf(-h) * mpmath.ncdf(-k))
        assert oracles.mp_upper_orthant(h, k, 0.0) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("rho", [-0.9, 0.3])
    def test_oracle_matches_arcsine_law(self, rho):
        want = 0.25 + math.asin(rho) / (2.0 * PI)
        assert oracles.mp_upper_orthant(0.0, 0.0, rho) == pytest.approx(want, rel=1e-14)

    @settings(max_examples=15, deadline=None)
    @given(valid_states(), angles, angles, st.floats(min_value=0.0, max_value=8.0))
    @example(GaussianTwoModeState(delta=1.0, gamma=2.0), 0.0, 0.0, 5e-324)
    def test_relative_accuracy_up_to_r_8(self, state, alpha, beta, r):
        assert_orthants_match_oracle(position_joint_density(state, alpha, beta), r)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0])
    def test_relative_accuracy_at_reference_settings(self, r):
        # (a, b') and (a', b') repeat these masses, the latter with the
        # sign of the correlation flipped
        for alpha, beta in setting_pairs(REFERENCE_SETTINGS)[:2]:
            assert_orthants_match_oracle(position_joint_density(STATE, alpha, beta), r)

    @pytest.mark.parametrize("sampler", sorted(TAIL_SAMPLERS))
    def test_tail_rule_matches_oracle(self, monkeypatch, sampler):
        h1, h2, rho = TAIL_SAMPLERS[sampler](np.random.default_rng(20261018), 100)
        tail = tail_branch(monkeypatch, h1, h2, rho)
        keep = np.flatnonzero(tail)[:20]
        assert len(keep) == 20
        got = quadrant_probability(h1, h2, rho)
        assert_tail_matches_oracle(h1[keep], h2[keep], rho[keep], got[keep])

    def test_tail_rule_at_reference_settings(self, monkeypatch):
        # at r = 4 both orthants of all four setting pairs take the tail rule
        bgs = [position_joint_density(STATE, a, b) for a, b in setting_pairs(REFERENCE_SETTINGS)]
        h1 = np.array([4.0 / math.sqrt(var1) for var1, _, _ in bgs for _ in (1, -1)])
        h2 = np.array([4.0 / math.sqrt(var2) for _, var2, _ in bgs for _ in (1, -1)])
        rho = np.array([sign * corr for _, _, corr in bgs for sign in (1, -1)])
        assert tail_branch(monkeypatch, h1, h2, rho).all()
        assert_tail_matches_oracle(h1, h2, rho, quadrant_probability(h1, h2, rho))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tail_extremes_are_finite_and_warning_free(self, monkeypatch):
        # log f(h) below -746 (the first four), h up to 40, and |rho| just
        # below DEGENERATE_CORR
        near = float(np.nextafter(DEGENERATE_CORR, 0.0))
        h1 = np.array([40.0, 40.0, 39.0, 40.0, 25.0, 25.0, 12.0, 3.0])
        h2 = np.array([40.0, 1.0, 38.5, 0.0, 20.0, 25.0, 11.0, 2.0])
        rho = np.array([0.0, -0.9, 0.5, near, near, -near, -near, -near])
        assert tail_branch(monkeypatch, h1, h2, rho).all()
        mass = quadrant_probability(h1, h2, rho)
        assert np.isfinite(mass).all() and (mass >= 0.0).all()
        assert (mass[:4] == 0.0).all()
        # thresholds whose squares overflow only give zero masses
        h1, h2, rho = np.array([[1e200, 1e200], [3.0, 1e200], [0.5, -0.5]])[..., None]
        assert (chsh._tail_orthants(h1, h2, rho) == 0.0).all()


class TestPostselectedProbs:
    def test_r_zero_keeps_everything(self):
        p_pp, p_pm, kept = postselected_probs(STATE, PI, 5 * PI / 4, 0.0)
        assert kept == pytest.approx(1.0, abs=1e-9)
        assert p_pp + p_pm + p_pm + p_pp == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (PI, 5 * PI / 4)])
    def test_separable_uniform(self, alpha, beta, r):
        p_pp, p_pm, _ = postselected_probs(SEPARABLE, alpha, beta, r)
        for p in (p_pp, p_pm):
            assert p == pytest.approx(0.25, abs=1e-10)

    def test_large_r_tail_dominance(self):
        var1, var2, corr = position_joint_density(STATE, PI, 5 * PI / 4)
        assert corr > 0
        r = 3.0 * math.sqrt(max(var1, var2))
        p_pp, _, kept = postselected_probs(STATE, PI, 5 * PI / 4, r)
        assert p_pp + p_pp > 0.99
        # cross-check the kept mass against direct sampling
        est, se = oracles.mc_quadrant_probability(
            var1, var2, corr, 1, 1, r, n=10_000_000, seed=7
        )
        assert abs(est - p_pp * kept) < 4.0 * se

    def test_empty_postselection_rejected(self):
        with pytest.raises(EmptyPostSelectionError):
            postselected_probs(STATE, PI, 5 * PI / 4, 40.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_threshold_with_overflowing_square_rejected_without_warning(self):
        with pytest.raises(EmptyPostSelectionError, match=r"r=1e\+200 "):
            postselected_probs(STATE, PI, 3.9, 1e200)

    @settings(max_examples=25, deadline=None)
    @given(valid_states(), angles, angles, dark_widths)
    def test_table_invariants(self, state, alpha, beta, r):
        p_pp, p_pm, kept = postselected_probs(state, alpha, beta, r)
        assert p_pp + p_pm + p_pm + p_pp == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < kept <= 1.0 + 1e-12

    def test_kept_fraction_strictly_decreasing_in_r(self):
        kfs = [
            postselected_probs(STATE, PI, 5 * PI / 4, r)[2]
            for r in np.linspace(0.0, 3.0, 13)
        ]
        assert all(a > b for a, b in zip(kfs, kfs[1:]))


class TestCorrelationE:
    @pytest.mark.parametrize("rho", [-0.9, -0.2, 0.0, 0.35, 0.95])
    def test_arcsine_law_at_r_zero(self, rho):
        bg = (1.0, 1.0, rho)
        masses = {
            (s1, s2): orthant(bg, s1, s2, 0.0)
            for s1 in (1, -1)
            for s2 in (1, -1)
        }
        e = masses[1, 1] + masses[-1, -1] - masses[1, -1] - masses[-1, 1]
        assert e == pytest.approx((2.0 / PI) * math.asin(rho), abs=1e-9)


class TestSignExpectation:
    def test_separable_vanishes(self):
        for a, b in [(0.0, 0.0), (1.0, 2.0), (PI, 5 * PI / 4)]:
            assert oracles.sign_expectation(SEPARABLE, a, b) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(valid_states(), angles, angles)
    def test_matches_postselection_free_limit(self, state, alpha, beta):
        e0 = float(correlation_grid(state, alpha, beta, 0.0))
        assert oracles.sign_expectation(state, alpha, beta) == pytest.approx(e0, abs=1e-8)

    @pytest.mark.parametrize(
        "alpha,beta", [(PI, 5 * PI / 4), (PI / 2, 5 * PI / 4), (0.4, 2.1)]
    )
    def test_against_4d_quadrature(self, alpha, beta):
        want = oracles.sign_expectation_quadrature(
            STATE.delta, STATE.gamma, alpha, beta
        )
        assert oracles.sign_expectation(STATE, alpha, beta) == pytest.approx(want, abs=1e-5)


class TestBellParameter:
    def test_separable_gives_zero(self):
        assert bell_S(SEPARABLE, REFERENCE_SETTINGS, 0.0) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(valid_states(), angles, angles, angles, angles, dark_widths)
    def test_algebraic_bound(self, state, a, ap, b, bp, r):
        settings_ = MeasurementSettings(a, ap, b, bp)
        assert abs(bell_S(state, settings_, r)) <= 4.0 + 1e-9

    def test_reference_settings_no_violation_without_postselection(self):
        assert bell_S(STATE, REFERENCE_SETTINGS, 0.0) <= 2.0

    def test_reference_settings_violation_with_postselection(self):
        s = bell_S(STATE, REFERENCE_SETTINGS, 2.0)
        assert s > 2.0 * math.sqrt(2.0)


class TestPrFidelity:
    def test_tsirelson_anchor(self):
        assert pr_fidelity(2.0 * math.sqrt(2.0)) == pytest.approx(0.854, abs=1e-3)

    def test_classical_anchor(self):
        assert pr_fidelity(2.0) == 0.75

    def test_experimental_anchor(self):
        assert pr_fidelity(3.42) == pytest.approx(0.9275, abs=5e-4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pr_fidelity(4.5)


class TestAndGate:
    def test_separable_is_coin_flip(self):
        p_and = and_gate_success(*setting_tables(SEPARABLE, REFERENCE_SETTINGS, 0.0)[:2])
        assert p_and == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(valid_states(), angles, angles, angles, angles, dark_widths)
    def test_equals_fidelity_of_bell_parameter(self, state, a, ap, b, bp, r):
        settings_ = MeasurementSettings(a, ap, b, bp)
        p_and = and_gate_success(*setting_tables(state, settings_, r)[:2])
        assert p_and == pytest.approx(
            pr_fidelity(bell_S(state, settings_, r)), abs=1e-9
        )

    def test_beats_communication_threshold_at_large_r(self):
        assert and_gate_success(*setting_tables(STATE, REFERENCE_SETTINGS, 2.0)[:2]) > 0.908


class TestNoSignaling:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.5])
    def test_all_marginals_half(self, r):
        plus, max_dev = no_signaling_report(*setting_tables(STATE, REFERENCE_SETTINGS, r)[:2])
        assert max_dev <= 1e-9
        assert np.allclose(plus, 0.5, atol=1e-9)
        assert np.allclose(plus.T, 0.5, atol=1e-9)

    def test_marginals_independent_of_partner_setting(self):
        plus, _ = no_signaling_report(*setting_tables(STATE, REFERENCE_SETTINGS, 0.8)[:2])
        # Alice's P(+) at her setting alpha against beta and beta'
        assert plus[0, 0] == pytest.approx(plus[0, 1], abs=1e-9)
        # Bob's, plus.T, at his setting beta' against alpha and alpha'
        assert plus.T[1, 0] == pytest.approx(plus.T[1, 1], abs=1e-9)


class TestSweep:
    GRID = np.linspace(0.0, 2.0 * PI, 49)

    def test_r_zero_curve_bounded_by_arcsine_law(self):
        curve = sweep_beta(STATE, PI, 0.0, self.GRID)
        max_corr = max(
            abs(position_joint_density(STATE, PI, b)[2]) for b in self.GRID
        )
        bound = (2.0 / PI) * math.asin(max_corr) + 1e-9
        assert all(abs(e) <= bound for _, e in curve)

    def test_large_r_approaches_square_wave(self):
        beta_plateau = 5 * PI / 4  # plateau point of the imaging-arm curve
        e0 = abs(float(correlation_grid(STATE, PI, beta_plateau, 0.0)))
        e_large = abs(float(correlation_grid(STATE, PI, beta_plateau, 2.5)))
        assert e_large > e0
        assert e_large > 0.95

    def test_periodicity_in_beta(self):
        e1 = float(correlation_grid(STATE, PI, 0.7, 0.5))
        e2 = float(correlation_grid(STATE, PI, 0.7 + 2.0 * PI, 0.5))
        assert e1 == pytest.approx(e2, abs=1e-10)

    def test_postselection_strengthens_correlation(self):
        vals = [
            abs(float(correlation_grid(STATE, PI, 5 * PI / 4, r)))
            for r in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_beta(STATE, PI, 0.0, [])


wide_angle = st.floats(min_value=-10.0, max_value=15.0)
wide_angles = st.lists(wide_angle, min_size=1, max_size=4)
angle_pairs = st.lists(wide_angle, min_size=2, max_size=2)
grid_states = st.one_of(valid_states(), st.sampled_from([SEPARABLE, NEAR_EPR]))
r_lists = st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0)),
                   min_size=1, max_size=5)
REF_ALPHAS = [PI, PI / 2]
REF_BETAS = [5 * PI / 4, 3 * PI / 4]
# the reference alphas on the axis before the betas'
REF_ALPHA_COLUMN = np.array(REF_ALPHAS)[:, None]


class TestCorrelationGrid:
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(valid_states(), st.sampled_from([SEPARABLE, NEAR_EPR])),
        wide_angles,
        wide_angles,
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0)),
    )
    # the arcsine law, Owen's T and the tail rule each fill the table; at
    # r = 4 and 6 every element takes the tail rule
    @example(STATE, REF_ALPHAS, REF_BETAS, 0.0)
    @example(STATE, REF_ALPHAS, REF_BETAS, 1.0)
    @example(STATE, REF_ALPHAS, REF_BETAS, 4.0)
    @example(STATE, REF_ALPHAS, REF_BETAS, 6.0)
    @example(NEAR_EPR, [-2.5, PI, 7.0], [-0.3, 5 * PI / 4, 13.0], 2.0)
    @example(SEPARABLE, [0.0, -PI], [PI / 2, 2.0 * PI + 1.0], 0.5)
    def test_bit_identical_to_scalar_path(self, state, alphas, betas, r):
        # every element of one batched call equals the scalar call, which
        # guards the stacking of the +rho and -rho orthants and the batched
        # tail rule
        grid = correlation_grid(state, np.array(alphas)[:, None], betas, r)
        assert grid.shape == (len(alphas), len(betas))
        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                assert grid[i, j] == float(correlation_grid(state, a, b, r))

    @pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
    def test_reference_grid_matches_oracle(self, r):
        # one 2x2 call; at r = 2 and 3 its elements mix Owen's T and the tail
        # rule, and at r = 4 every element takes the tail
        p_pp, p_pm, kept = chsh.postselected_tables(STATE, REF_ALPHA_COLUMN, REF_BETAS, r)
        for i, j in np.ndindex(2, 2):
            var1, var2, rho = position_joint_density(STATE, REF_ALPHAS[i], REF_BETAS[j])
            for p, corr in ((p_pp[i, j], rho), (p_pm[i, j], -rho)):
                want = oracles.mp_upper_orthant(r / math.sqrt(var1), r / math.sqrt(var2), corr)
                assert abs(p * kept[i, j] - want) <= 1e-9 * want

    def test_sweep_matches_scalar_loop(self):
        grid = [-1.0, 0.0, 2.5, 7.5]
        curve = sweep_beta(NEAR_EPR, PI / 2, 1.5, grid).tolist()
        assert curve == [
            [b, float(correlation_grid(NEAR_EPR, PI / 2, b, 1.5))] for b in grid
        ]
        assert all(type(e) is float for _, e in curve)

    # the arcsine law, Owen's T and the tail rule
    @pytest.mark.parametrize("r", [0.0, 1.0, 4.0])
    def test_sweep_curves_equal_single_curve_calls(self, r):
        # one call over an (alpha, r) grid has a curve of (beta, E) points at
        # each (alpha, r), bit for bit the curve of a call at that pair
        alphas, rs = np.array([PI, PI / 2, 0.3])[:, None], np.array([r, 2.0])
        grid = [-1.0, 2.5, 7.5]
        curves = sweep_beta(STATE, alphas, rs, grid)
        assert curves.shape == (3, 2, 3, 2)
        for i, j in np.ndindex(3, 2):
            assert np.array_equal(curves[i, j], sweep_beta(STATE, alphas[i, 0], rs[j], grid))
        assert (curves[..., 0] == grid).all()

    @settings(max_examples=30, deadline=None)
    @given(grid_states, wide_angles, wide_angles, r_lists)
    # rungs through the arcsine law, Owen's T and the tail rule; a repeated r
    @example(STATE, REF_ALPHAS, REF_BETAS, [0.0, 1.0, 4.0, 6.0])
    @example(NEAR_EPR, [-2.5, PI, 7.0], [-0.3, 5 * PI / 4], [2.0, 0.5, 2.0])
    def test_r_sequence_rows_equal_scalar_calls(self, state, alphas, betas, r_list):
        alphas = np.array(alphas)[:, None]
        batched = chsh.postselected_tables(state, alphas, betas, np.array(r_list)[:, None, None])
        for i, r in enumerate(r_list):
            scalar = chsh.postselected_tables(state, alphas, betas, r)
            for k in range(3):
                assert batched[k].shape == (len(r_list), len(alphas), len(betas))
                assert np.array_equal(batched[k][i], scalar[k])

    @settings(max_examples=30, deadline=None)
    @given(grid_states, angle_pairs, angle_pairs, r_lists)
    @example(STATE, REF_ALPHAS, REF_BETAS, [0.0, 1.0, 4.0, 6.0])
    @example(NEAR_EPR, [-2.5, PI], [-0.3, 5 * PI / 4], [2.0, 0.5, 2.0])
    def test_chsh_values_equal_table_formulas(self, state, alphas, betas, r_list):
        # every rung equals the textbook formulas over four postselected_probs
        # tables, bit for bit, as chsh_values keeps their operation order
        e, s, p_and, max_dev, kept_pct = chsh_values(
            *chsh.postselected_tables(
                state, np.array(alphas)[:, None], betas, np.array(r_list)[:, None, None]))
        (a, ap), (b, bp) = alphas, betas
        for n, r in enumerate(r_list):
            tables = [postselected_probs(state, x, y, r)
                      for x, y in ((a, b), (ap, b), (a, bp), (ap, bp))]
            # each table is (p_pp, p_pm, kept), with p_mm = p_pp and p_mp = p_pm
            (pp_ab, _, _), (pp_apb, _, _), (pp_abp, _, _), (_, pm_apbp, _) = tables
            e_ab, e_apb, e_abp, e_apbp = (p_pp + p_pp - p_pm - p_pm for p_pp, p_pm, _ in tables)
            alice, bob = np.zeros((2, 2)), np.zeros((2, 2))
            for k, (p_pp, p_pm, _) in enumerate(tables):
                i, j = k % 2, k // 2
                assert e[n, i, j] == p_pp + p_pp - p_pm - p_pm
                alice[i, j] = p_pp + p_pm  # P(+,+) + P(+,-)
                bob[j, i] = p_pp + p_pm  # P(+,+) + P(-,+)
            assert s[n] == e_ab + e_apb + e_abp - e_apbp
            assert p_and[n] == 0.25 * (
                pp_ab + pp_ab + pp_apb + pp_apb + pp_abp + pp_abp + pm_apbp + pm_apbp
            )
            assert max_dev[n] == max(np.max(np.abs(alice - 0.5)), np.max(np.abs(bob - 0.5)))
            assert kept_pct[n] == 100.0 * sum(kept for _, _, kept in tables) / 4.0

    @settings(max_examples=30, deadline=None)
    @given(grid_states, angles, angles, angles, angles,
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=6.0)))
    # Owen's T, and the tail rule, which every table takes at r = 4 and 6
    @example(STATE, PI, PI / 2, 5 * PI / 4, 3 * PI / 4, 1.0)
    @example(STATE, PI, PI / 2, 5 * PI / 4, 3 * PI / 4, 4.0)
    @example(STATE, PI, PI / 2, 5 * PI / 4, 3 * PI / 4, 6.0)
    @example(NEAR_EPR, 0.3, 2.0, 5.0, 1.0, 6.0)
    def test_bell_S_paths_equal_chsh_values(self, state, a, ap, b, bp, r):
        # bell_S and bell_S_gradient skip the rest of chsh_values, yet give
        # its S bit for bit; and_gate_success still reads its P_AND
        settings_ = MeasurementSettings(a, ap, b, bp)
        values = chsh_values(*chsh.setting_tables(state, settings_, r))
        assert bell_S(state, settings_, r) == values[1]
        assert bell_S_gradient(state, settings_, r)[0] == values[1]
        assert and_gate_success(*chsh.setting_tables(state, settings_, r)[:2]) == values[2]

    @settings(max_examples=30, deadline=None)
    @given(grid_states, wide_angles, wide_angles, r_lists, st.booleans())
    # the arcsine law, Owen's T and the tail rule (every element at r = 4 and 6)
    @example(STATE, REF_ALPHAS, REF_BETAS, [0.0, 1.0, 4.0, 6.0], False)
    @example(STATE, REF_ALPHAS, REF_BETAS, [0.0, 1.0, 4.0, 6.0], True)
    def test_values_do_not_depend_on_operand_layout(self, state, alphas, betas, r_list, gradient):
        # numpy's SIMD loops on contiguous arrays may round differently from
        # its strided ones, so broadcast, zero-stride and contiguous full-shape
        # operands must give the same bits
        operands = np.array(alphas)[:, None], np.array(betas), np.array(r_list)[:, None, None]
        full = np.broadcast_shapes(*(x.shape for x in operands))
        views = [np.broadcast_to(x, full) for x in operands]
        want = chsh.postselected_tables(state, *operands, gradient)
        for layout in (views, [x.copy() for x in views]):
            got = chsh.postselected_tables(state, *layout, gradient)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_r_sequence_raises_the_first_failing_rung(self):
        # the kept fraction underflows at r = 20 and at r = 30
        with pytest.raises(EmptyPostSelectionError) as rung:
            bell_S(STATE, REFERENCE_SETTINGS, 20.0)
        with pytest.raises(EmptyPostSelectionError) as ladder:
            chsh.postselected_tables(
                STATE, REF_ALPHA_COLUMN, REF_BETAS, np.array([1.0, 20.0, 30.0])[:, None, None])
        assert str(ladder.value) == str(rung.value)
        assert "r=20.0 " in str(ladder.value)

    @pytest.mark.parametrize("gradient", [False, True])
    def test_r_sequence_raises_in_the_order_of_a_loop(self, monkeypatch, gradient):
        # the rung at r = 2 is made to fail the p_pm check, and the rung at
        # r = 30 fails the kept check, which comes first in a call; a loop
        # over the rungs meets r = 2 first
        at_2 = 2.0 / np.sqrt(chsh.rotated_block(STATE, REF_ALPHAS, REF_BETAS)[0])
        orthants = chsh.quadrant_probability

        def negative_m_pm_at_2(h1, h2, rho):
            # the thresholds carry the (m_pp, m_pm) pair on their leading axis
            m = orthants(h1, h2, rho)
            m[1] = np.where(np.isin(h1[1], at_2), -1e-3 * m[1], m[1])
            return m

        monkeypatch.setattr(chsh, "quadrant_probability", negative_m_pm_at_2)
        with pytest.raises(ValueError) as rung:
            chsh.postselected_tables(STATE, REF_ALPHA_COLUMN, REF_BETAS, 2.0, gradient)
        with pytest.raises(ValueError) as ladder:
            chsh.postselected_tables(
                STATE, REF_ALPHA_COLUMN, REF_BETAS, np.array([1.0, 2.0, 30.0])[:, None, None],
                gradient)
        assert str(rung.value).startswith("p_pm=-")
        assert str(ladder.value) == str(rung.value)

    @settings(max_examples=30, deadline=None)
    @given(grid_states, st.lists(st.tuples(angles, angles, angles, angles, dark_widths),
                                 min_size=1, max_size=8))
    # the arcsine law, Owen's T and the tail rule in one call
    @example(STATE, [(PI, PI / 2, 5 * PI / 4, 3 * PI / 4, r) for r in (0.0, 1.0, 4.0, 6.0)])
    def test_batched_gradient_equals_single_calls(self, state, quadruples):
        # K quadruples on a leading axis: each slice equals, bit for bit, the
        # call that bell_S_gradient makes for that quadruple
        a, ap, b, bp, r = np.array(quadruples).T
        batched = chsh.postselected_tables(
            state, np.stack([a, ap], axis=-1)[:, :, None], np.stack([b, bp], axis=-1)[:, None, :],
            r[:, None, None], gradient=True,
        )
        for k, quadruple in enumerate(quadruples):
            single = chsh.setting_tables(
                state, MeasurementSettings(*quadruple[:4]), quadruple[4], gradient=True)
            for got, want in zip(batched, single):
                assert np.array_equal(got[..., k, :, :], want)

    @pytest.mark.parametrize("gradient", [False, True])
    def test_two_dimensional_r_is_refused_naming_r(self, gradient):
        r = [[1, 2], [3]]
        message = f"r must have an array shape, got ragged r={r!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chsh.postselected_tables(STATE, REF_ALPHA_COLUMN, REF_BETAS, r, gradient=gradient)

    def test_sweep_raises_the_scalar_error(self):
        grid = [-1.0, 0.5, 7.0]
        with pytest.raises(EmptyPostSelectionError) as scalar:
            postselected_probs(STATE, PI, grid[0], 40.0)
        with pytest.raises(EmptyPostSelectionError) as swept:
            sweep_beta(STATE, PI, 40.0, grid)
        assert str(swept.value) == str(scalar.value)


BAD_R_ENTRY_POINTS = {
    "postselected_probs": lambda r: postselected_probs(STATE, PI, 5 * PI / 4, r),
    "correlation_grid": lambda r: correlation_grid(STATE, REF_ALPHA_COLUMN, REF_BETAS, r),
    "r_sequence": lambda r: chsh.postselected_tables(
        STATE, REF_ALPHA_COLUMN, REF_BETAS, np.array([1.0, r])[:, None, None]),
    "sweep_beta": lambda r: sweep_beta(STATE, PI, r, [0.0, 1.0]),
    "simulate_counts": lambda r: simulate_counts(STATE, PI, 5 * PI / 4, r, 100, 1),
    # a MeasurementSettings holds angles only, so these check the r they are passed
    "bell_S": lambda r: bell_S(STATE, REFERENCE_SETTINGS, r),
    "bell_S_gradient": lambda r: bell_S_gradient(STATE, REFERENCE_SETTINGS, r),
    # P_AND and the marginals at r read the tables of setting_tables at r
    "and_gate_success": lambda r: and_gate_success(
        *setting_tables(STATE, REFERENCE_SETTINGS, r)[:2]),
    "no_signaling_report": lambda r: no_signaling_report(
        *setting_tables(STATE, REFERENCE_SETTINGS, r)[:2]),
    "setting_estimates": lambda r: list(setting_estimates(STATE, REFERENCE_SETTINGS, r, 100, 1)),
}


@pytest.mark.parametrize("entry", BAD_R_ENTRY_POINTS)
@pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
def test_bad_dark_width_names_r(entry, r):
    # one message for scalar and array r alike
    message = f"r must be a finite non-negative real, got {r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BAD_R_ENTRY_POINTS[entry](r)


# each takes (alpha, beta); sweep_beta's beta is its grid
BAD_ANGLE_ENTRY_POINTS = {
    "postselected_probs": lambda a, b: postselected_probs(STATE, a, b, 1.0),
    "correlation_grid": lambda a, b: correlation_grid(STATE, [[0.0], [a]], [0.5, b], 1.0),
    "sweep_beta": lambda a, b: sweep_beta(STATE, a, 1.0, [0.0, b]),
    "position_joint_density": lambda a, b: position_joint_density(STATE, a, b),
    "simulate_counts": lambda a, b: simulate_counts(STATE, a, b, 1.0, 100, 1),
    "postselected_tables": lambda a, b: chsh.postselected_tables(
        STATE, [[0.0], [a]], [0.5, b], np.array([1.0, 2.0])[:, None, None], gradient=True),
}


@pytest.mark.parametrize("entry", BAD_ANGLE_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_bad_angle_names_the_angle(entry, bad, name):
    # raised before any cosine of the angle is taken, so with no RuntimeWarning
    angles = {"alpha": PI, "beta": 5 * PI / 4, name: bad}
    message = f"{name} must be finite, got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BAD_ANGLE_ENTRY_POINTS[entry](angles["alpha"], angles["beta"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "alpha_prime", "beta", "beta_prime"])
def test_measurement_settings_refuse_a_non_finite_angle(bad, name):
    angles = dict(vars(REFERENCE_SETTINGS), **{name: bad})
    message = f"{name} must be finite, got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MeasurementSettings(**angles)


def test_bad_angles_raise_the_first_in_c_order_after_r():
    # (alpha, beta) = (nan, 0) at element [1, 0], (0, inf) at [0, 1]
    alpha, beta = [[0.0], [math.nan]], [0.0, math.inf]
    with pytest.raises(ValueError, match="^beta must be finite, got inf$"):
        chsh.postselected_tables(STATE, alpha, beta, 1.0)
    with pytest.raises(ValueError, match="^r must be a finite non-negative real, got -1.0$"):
        chsh.postselected_tables(STATE, alpha, beta, -1.0)


def _difference(f, x: float, h: float, forward: bool = False) -> float:
    """Richardson-extrapolated difference quotient of f at x, central or, for
    r near 0 where f is undefined below x, forward; both err by O(h^4)."""

    def quotient(h):
        if forward:
            return (-3.0 * f(x) + 4.0 * f(x + h) - f(x + 2.0 * h)) / (2.0 * h)
        return (f(x + h) - f(x - h)) / (2.0 * h)

    return (4.0 * quotient(h / 2.0) - quotient(h)) / 3.0


GRADIENT_FIELDS = ("alpha", "alpha_prime", "beta", "beta_prime", "r")


class TestBellSGradient:
    @settings(max_examples=60, deadline=None)
    @given(valid_states(), angles, angles, angles, angles,
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)))
    @example(STATE, PI, PI / 2, 5 * PI / 4, 3 * PI / 4, 1.0)
    @example(GaussianTwoModeState(1.5, 1.78125), 0.0, 0.0, 0.0, 1.0, 3.0)
    def test_matches_differences_of_bell_S(self, state, a, ap, b, bp, r):
        point = (a, ap, b, bp, r)
        s, grad = bell_S_gradient(state, MeasurementSettings(a, ap, b, bp), r)
        assert s == bell_S(state, MeasurementSettings(a, ap, b, bp), r)
        h = 1e-3  # balances the O(h^4) error against 1e-10 noise in the masses
        for i, (name, g) in enumerate(zip(GRADIENT_FIELDS, grad)):
            x = point[i]

            def along(v, i=i):
                moved = (*point[:i], v, *point[i + 1:])
                return bell_S(state, MeasurementSettings(*moved[:4]), moved[4])

            want = _difference(along, x, h, forward=(name == "r" and x < h))
            assert abs(g - want) <= 1e-6 * max(abs(want), 1.0), name

    @settings(max_examples=40, deadline=None)
    @given(angles, angles, angles, angles, st.floats(min_value=0.0, max_value=12.0))
    @example(PI, PI / 2, 5 * PI / 4, 3 * PI / 4, 12.0)
    def test_finite_wherever_bell_S_is(self, a, ap, b, bp, r):
        settings_ = MeasurementSettings(a, ap, b, bp)
        try:
            want = bell_S(STATE, settings_, r)
        except EmptyPostSelectionError:
            with pytest.raises(EmptyPostSelectionError):
                bell_S_gradient(STATE, settings_, r)
            return
        s, grad = bell_S_gradient(STATE, settings_, r)
        assert s == want
        assert np.isfinite(grad).all()

    @settings(max_examples=30, deadline=None)
    @given(angles, angles, angles, angles, dark_widths)
    def test_zero_on_the_separable_state(self, a, ap, b, bp, r):
        s, grad = bell_S_gradient(SEPARABLE, MeasurementSettings(a, ap, b, bp), r)
        assert s == 0.0
        assert (grad == 0.0).all()


class TestMonteCarloAgreement:
    def test_quadrant_probabilities_20_random_cases(self):
        rng = np.random.default_rng(42)
        failures = 0
        for case in range(20):
            delta = rng.uniform(0.5, 1.4)
            gamma = delta * rng.uniform(1.2, 3.0)
            state = GaussianTwoModeState(delta, gamma)
            alpha = rng.uniform(0.0, 2.0 * PI)
            beta = rng.uniform(0.0, 2.0 * PI)
            r = rng.uniform(0.0, 1.5)
            s1, s2 = rng.choice([-1, 1], size=2)
            bg = position_joint_density(state, alpha, beta)
            analytic = orthant(bg, int(s1), int(s2), r)
            est, se = oracles.mc_quadrant_probability(
                *bg, int(s1), int(s2), r, 10_000_000, 1000 + case
            )
            if abs(est - analytic) >= 4.0 * max(se, 1e-12):
                failures += 1
        # binomial slack on the 4-sigma test itself
        assert failures <= 1
