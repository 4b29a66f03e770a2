import importlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import prbox.optimize
from prbox import (
    GaussianTwoModeState,
    REFERENCE_SETTINGS,
    bell_S,
    maximize_S,
    pr_fidelity,
    tune_r,
)
from prbox.cli import main
from prbox.optimize import grid_argmax

PI = math.pi
TSIRELSON = 2.0 * math.sqrt(2.0)
STATE = GaussianTwoModeState(delta=0.75, gamma=1.25)
SEPARABLE = GaussianTwoModeState(delta=1.0, gamma=math.inf)
STRONG = GaussianTwoModeState(delta=0.5, gamma=0.6)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
        # no quasi-Newton step is ever shorter than 1e-300 rad
        result = maximize_S(
            STATE, r=1.0, angle_grid_step=PI / 2, refine_tol=1e-300, max_steps=1
        )
        assert not result.converged

    @pytest.mark.parametrize("state", [STATE, STRONG, SEPARABLE])
    def test_converges_at_r_one(self, state):
        result = maximize_S(state, r=1.0)
        assert result.converged
        assert result.objective == bell_S(state, result.settings)

    def test_strong_state_reaches_its_local_maximum(self):
        # the maximum a Nelder-Mead search on the benchmark oracle finds
        assert maximize_S(STRONG, r=1.0).objective >= 3.82965

    def test_flat_objective_converges_at_its_grid_point(self):
        result = maximize_S(SEPARABLE, r=1.0, angle_grid_step=PI / 4)
        got = result.settings
        assert (got.alpha, got.alpha_prime, got.beta, got.beta_prime) == (0.0,) * 4
        # the 8 x 8 grid's tables and one gradient, which is exactly zero
        assert (result.iterations, result.converged) == (8 * 8 + 1, True)

    # exact results of the default search
    @pytest.mark.parametrize(
        "state,angles,objective,iterations",
        [
            (
                STRONG,
                (1.735021612120813, 4.007116444720559, 4.007116557359884,
                 4.876614303498357),
                3.829651382418481, 601,
            ),
            (
                STATE,
                (3.1415926535897953, 1.5707963267949006, 4.240398906198902,
                 2.042786400980682),
                2.942272496376899, 583,
            ),
        ],
    )
    def test_pinned_default_search(self, state, angles, objective, iterations):
        result = maximize_S(state, r=1.0)
        got = result.settings
        assert (got.alpha, got.alpha_prime, got.beta, got.beta_prime) == angles
        assert result.objective == objective
        assert (result.iterations, result.converged) == (iterations, True)


def _s4(e):
    """S over the whole 4-D grid, summed as grid_argmax sums it."""
    return (e[:, None, :, None] + e[None, :, :, None]) + (
        e[:, None, None, :] - e[None, :, None, :]
    )


def _matrices(elements):
    return st.integers(min_value=1, max_value=7).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=elements)
    )


class TestGridArgmax:
    @settings(max_examples=200, deadline=None)
    @given(_matrices(st.integers(min_value=-2, max_value=2).map(float)))
    @example(np.zeros((3, 3)))
    @example(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    def test_equals_the_4d_argmax_on_exact_sums(self, e):
        # integer-valued E: every sum is exact, so ties are exact ties
        s4 = _s4(e)
        want = np.unravel_index(int(np.argmax(s4)), s4.shape)
        assert grid_argmax(e) == tuple(int(v) for v in want)

    @settings(max_examples=200, deadline=None)
    @given(_matrices(st.floats(min_value=-1.0, max_value=1.0)))
    @example(np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.5], [-1.0, 0.0, 1e-38]]))
    def test_attains_the_4d_maximum(self, e):
        # where rounding absorbs a difference in one term (1e-38 + 1.5 == 1.5),
        # the 4-D argmax may take another of the tied points
        s4 = _s4(e)
        assert s4[grid_argmax(e)] == s4.max()


class TestDeterminism:
    def test_result_depends_only_on_the_arguments(self):
        args = dict(r=1.0, angle_grid_step=PI / 6, refine_tol=1e-3)
        first = maximize_S(STATE, **args)
        maximize_S(STRONG, **args)
        assert maximize_S(STATE, **args) == first
        assert maximize_S(GaussianTwoModeState(0.75, 1.25), **args) == first


class TestBenchmarkChecks:
    """The `search` workload's outputs pass the benchmark's own checks, which
    include that a converged search is a local maximum of the oracle's S."""

    @pytest.mark.parametrize("name", ["optimize_paper", "optimize_strong"])
    def test_search_output_is_a_local_maximum(self, name, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        (inv,) = [i for i in workloads.search(seed=1).invocations if i.name == name]
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.json"
        cfg.write_text(workloads.config_text(inv.config))
        argv = ["--config", str(cfg), "--format", "json", "--out", str(out)]
        assert main([inv.command, *argv]) == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        inv.check(doc)


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

    @pytest.fixture
    def bounded(self, monkeypatch):
        """Fail, rather than hang, a search past 200 gradient evaluations."""
        evaluated = []
        kernel = prbox.optimize.bell_S_gradient

        def counting(state, settings):
            evaluated.append(settings.r)
            assert len(evaluated) <= 200, "bracket search does not end"
            return kernel(state, settings)

        monkeypatch.setattr(prbox.optimize, "bell_S_gradient", counting)

    @pytest.mark.parametrize("r_tol", [0.0, -1.0, math.nan])
    def test_rejects_degenerate_r_tol(self, bounded, r_tol):
        with pytest.raises(ValueError, match="r_tol"):
            tune_r(STATE, REFERENCE_SETTINGS, 0.9, r_max=3.0, r_tol=r_tol)

    def test_r_tol_below_double_spacing_ends(self, bounded):
        r_star = tune_r(STATE, REFERENCE_SETTINGS, 0.9, r_max=3.0, r_tol=1e-300)
        assert 0.0 < r_star < 3.0
        assert r_star == pytest.approx(
            tune_r(STATE, REFERENCE_SETTINGS, 0.9, r_max=3.0), abs=1e-4)

    @pytest.mark.parametrize("target", [0.6, 0.8, 0.9275, 0.95])
    def test_root_within_r_tol(self, target):
        r_star = tune_r(STATE, REFERENCE_SETTINGS, target, r_max=3.0, r_tol=1e-4)

        def fidelity(r):
            return pr_fidelity(bell_S(STATE, replace(REFERENCE_SETTINGS, r=r)))

        assert fidelity(max(0.0, r_star - 1e-4)) <= target <= fidelity(r_star + 1e-4)

    def test_newton_needs_few_evaluations(self, monkeypatch):
        evaluated = []
        kernel = prbox.optimize.bell_S_gradient

        def counting(state, settings):
            evaluated.append(settings.r)
            return kernel(state, settings)

        monkeypatch.setattr(prbox.optimize, "bell_S_gradient", counting)
        tune_r(STATE, REFERENCE_SETTINGS, 0.9275, r_max=3.0)
        # a few Newton steps inside the bracket, where bisection to 1e-4
        # would take 15 midpoints
        assert len(evaluated) <= 5

    def test_non_monotone_fidelity_is_refused(self, monkeypatch):
        # S(r) = -2 + r + 2 sin(20 r) falls below S(0) inside [0, 3]
        def wavy(state, settings):
            return -2.0 + settings.r + 2.0 * math.sin(20.0 * settings.r)

        def wavy_gradient(state, settings):
            slope = 1.0 + 40.0 * math.cos(20.0 * settings.r)
            return wavy(state, settings), np.array([0.0] * 4 + [slope])

        monkeypatch.setattr(prbox.optimize, "bell_S", wavy)
        monkeypatch.setattr(prbox.optimize, "bell_S_gradient", wavy_gradient)
        with pytest.raises(ValueError, match="not monotone"):
            tune_r(STATE, REFERENCE_SETTINGS, 0.5, r_max=3.0)
