import math
from dataclasses import replace

import numpy as np
import pytest

import prbox.optimize
from prbox import (
    GaussianTwoModeState,
    REFERENCE_SETTINGS,
    bell_S,
    maximize_S,
    pr_fidelity,
    tune_r,
)

PI = math.pi
TSIRELSON = 2.0 * math.sqrt(2.0)
STATE = GaussianTwoModeState(delta=0.75, gamma=1.25)
SEPARABLE = GaussianTwoModeState(delta=1.0, gamma=math.inf)
STRONG = GaussianTwoModeState(delta=0.5, gamma=0.6)


class TestMaximizeS:
    def test_separable_objective_zero(self):
        result = maximize_S(SEPARABLE, r=0.0, angle_grid_step=PI / 4)
        assert result.objective == pytest.approx(0.0, abs=1e-9)

    def test_respects_tsirelson_at_r_zero(self):
        for delta, ratio in [(0.75, 5 / 3), (0.5, 1.3), (1.2, 2.4)]:
            state = GaussianTwoModeState(delta, delta * ratio)
            result = maximize_S(state, r=0.0, angle_grid_step=PI / 8, refine_tol=1e-3)
            assert result.objective <= TSIRELSON + 1e-6

    def test_postselection_breaks_tsirelson(self):
        result = maximize_S(STATE, r=2.0, angle_grid_step=PI / 8, refine_tol=1e-3)
        assert result.objective > TSIRELSON

    def test_objective_reproducible(self):
        result = maximize_S(STATE, r=1.0, angle_grid_step=PI / 6, refine_tol=1e-3)
        assert bell_S(STATE, result.settings) == pytest.approx(
            result.objective, abs=1e-8
        )
        assert result.objective <= 4.0

    def test_deterministic(self):
        a = maximize_S(STATE, r=0.5, angle_grid_step=PI / 6, refine_tol=1e-3)
        b = maximize_S(STATE, r=0.5, angle_grid_step=PI / 6, refine_tol=1e-3)
        assert a == b

    def test_refinement_improves_on_grid(self):
        coarse = maximize_S(STATE, r=1.5, angle_grid_step=PI / 4, refine_tol=1e-4)
        assert coarse.converged
        assert coarse.iterations > 0

    @pytest.mark.parametrize("step,tol", [(0.0, 1e-3), (-0.1, 1e-3), (PI / 2, 0.0)])
    def test_rejects_nonpositive_step_or_tolerance(self, step, tol):
        with pytest.raises(ValueError, match="must be positive"):
            maximize_S(STATE, r=1.0, angle_grid_step=step, refine_tol=tol)

    def test_tolerance_below_float_resolution_returns(self):
        # the golden-section bracket stops shrinking near 1e-16 rad
        result = maximize_S(
            STATE, r=1.0, angle_grid_step=PI / 2, refine_tol=1e-300, max_sweeps=1
        )
        assert not result.converged


class TestTableReuse:
    @pytest.fixture
    def computed(self, monkeypatch):
        """(alpha, beta) of every table maximize_S computes, in call order."""
        pairs = []
        scalar = prbox.optimize.postselected_probs

        def counting(state, alpha, beta, r):
            pairs.append((alpha, beta))
            return scalar(state, alpha, beta, r)

        monkeypatch.setattr(prbox.optimize, "postselected_probs", counting)
        return pairs

    def test_each_table_computed_once_per_call(self, computed):
        first = maximize_S(STATE, r=1.0, angle_grid_step=PI / 6, refine_tol=1e-3)
        n = len(computed)
        # every refinement step computes the two tables its moved angle changes
        assert n >= 2 * (first.iterations - 12 * 12)
        assert len(set(computed)) == n
        # a second call recomputes every table: nothing is kept across calls
        second = maximize_S(STATE, r=1.0, angle_grid_step=PI / 6, refine_tol=1e-3)
        assert computed[n:] == computed[:n]
        assert first == second

    # exact results of the per-table search: reusing tables moves no bit
    @pytest.mark.parametrize(
        "state,angles,objective,iterations,converged",
        [
            (
                STRONG,
                (1.7287172502856785, 3.9929749995356163, 4.020295109513608,
                 4.88267547869755),
                3.8296235347770566, 2284, False,
            ),
            (
                STATE,
                (3.141563744782534, 1.5708252356021557, 4.240377975388208,
                 2.0427495141768595),
                2.9422724926900723, 728, True,
            ),
        ],
    )
    def test_pinned_default_search(self, state, angles, objective, iterations, converged):
        result = maximize_S(state, r=1.0)
        got = result.settings
        assert (got.alpha, got.alpha_prime, got.beta, got.beta_prime) == angles
        assert result.objective == objective
        assert (result.iterations, result.converged) == (iterations, converged)


class TestTuneR:
    def test_target_at_r_zero_returns_zero(self):
        f0 = pr_fidelity(bell_S(STATE, REFERENCE_SETTINGS))
        assert tune_r(STATE, REFERENCE_SETTINGS, f0, r_max=3.0) == 0.0

    def test_communication_threshold_reachable(self):
        r_star = tune_r(STATE, REFERENCE_SETTINGS, 0.908, r_max=3.0)
        f_star = pr_fidelity(bell_S(STATE, replace(REFERENCE_SETTINGS, r=r_star)))
        assert f_star == pytest.approx(0.908, abs=1e-3)

    def test_93_percent_reachable_below_r_three(self):
        r_star = tune_r(STATE, REFERENCE_SETTINGS, 0.93, r_max=3.0)
        assert 0.0 < r_star <= 3.0
        f_star = pr_fidelity(bell_S(STATE, replace(REFERENCE_SETTINGS, r=r_star)))
        assert f_star == pytest.approx(0.93, abs=1e-3)

    def test_unreachable_target_names_maximum(self):
        with pytest.raises(ValueError, match="maximum achievable"):
            tune_r(STATE, REFERENCE_SETTINGS, 0.999, r_max=1.0)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            tune_r(STATE, REFERENCE_SETTINGS, 1.5, r_max=2.0)
        with pytest.raises(ValueError):
            tune_r(STATE, REFERENCE_SETTINGS, 0.9, r_max=-1.0)
