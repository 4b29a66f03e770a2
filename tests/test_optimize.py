import math
from dataclasses import replace

import numpy as np
import pytest

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
