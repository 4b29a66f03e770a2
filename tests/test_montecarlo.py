import importlib
import json
import math
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from prbox.chsh import (
    DEGENERATE_CORR,
    REFERENCE_SETTINGS,
    MeasurementSettings,
    bell_S,
    postselected_probs,
    setting_pairs,
)
from prbox.cli import main
from prbox.montecarlo import (
    BLOCK_SIZE,
    CHUNK_SIZE,
    MIN_KEPT_COUNT,
    CountTable,
    InsufficientCountsError,
    ProbEstimate,
    _cholesky_factor,
    derive_setting_seed,
    estimate_probabilities,
    mc_bell_S,
    setting_estimates,
    simulate_counts,
)
from prbox.state import BivariateGaussian, GaussianTwoModeState, position_joint_density

PI = math.pi
STATE = GaussianTwoModeState(delta=0.75, gamma=1.25)
SEPARABLE = GaussianTwoModeState(delta=1.0, gamma=math.inf)
BG = (1.2, 0.6, 0.45)  # var1, var2, corr
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestSamplePairs:
    """The oracle sampler that TestExactReference bins."""

    def test_deterministic_stream(self):
        a, b = (oracles.sample_pairs(*BG, 100, seed=11) for _ in range(2))
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a, b = (oracles.sample_pairs(*BG, 100, seed) for seed in (1, 2))
        assert not np.array_equal(a, b)

    def test_zero_mean(self):
        n = 400_000
        x = oracles.sample_pairs(*BG, n, seed=3)
        for col in (0, 1):
            assert abs(float(np.mean(x[:, col]))) < 4.0 * math.sqrt(BG[col] / n)

    def test_sample_correlation(self):
        n = 400_000
        x = oracles.sample_pairs(*BG, n, seed=4)
        rho_hat = float(np.corrcoef(x[:, 0], x[:, 1])[0, 1])
        # Fisher-z interval
        z = 0.5 * math.log((1 + rho_hat) / (1 - rho_hat))
        z0 = 0.5 * math.log((1 + BG[2]) / (1 - BG[2]))
        assert abs(z - z0) < 4.0 / math.sqrt(n - 3)

    def test_rejects_degenerate_correlation(self):
        # the package's sampler refuses, through simulate_counts: |corr| is
        # 1 - 2e-13 here, a state the EPR guard still accepts
        near = GaussianTwoModeState(delta=1.0, gamma=1.0 + 1e-13)
        with pytest.raises(ValueError, match="too close to 1 for sampling"):
            simulate_counts(near, 0.0, 0.0, 0.5, 10, seed=0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_refuses_exactly_past_the_degenerate_threshold(self, sign):
        # the analytic orthant takes its degenerate form from DEGENERATE_CORR
        # on; sampling still accepts that correlation and refuses the next one
        _cholesky_factor(BivariateGaussian(1.0, 1.0, sign * DEGENERATE_CORR))
        past = sign * float(np.nextafter(DEGENERATE_CORR, 1.0))
        with pytest.raises(ValueError, match="too close to 1 for sampling"):
            _cholesky_factor(BivariateGaussian(1.0, 1.0, past))


class TestSimulateCounts:
    def test_count_table_invariant(self):
        c = simulate_counts(STATE, PI, 5 * PI / 4, 0.7, 300_000, seed=5)
        assert c.n_pp + c.n_pm + c.n_mp + c.n_mm + c.n_discarded == c.n_total

    def test_no_discards_at_r_zero(self):
        c = simulate_counts(STATE, PI, 5 * PI / 4, 0.0, 200_000, seed=6)
        assert c.n_discarded == 0

    def test_separable_quadrants_uniform(self):
        n = 1_000_000
        c = simulate_counts(SEPARABLE, 0.3, 1.1, 0.0, n, seed=7)
        for count in (c.n_pp, c.n_pm, c.n_mp, c.n_mm):
            assert abs(count - n / 4) < 4.0 * math.sqrt(n)

    def test_kept_fraction_matches_analytic(self):
        n = 1_000_000
        c = simulate_counts(STATE, PI, 5 * PI / 4, 0.8, n, seed=8)
        kf_analytic = postselected_probs(STATE, PI, 5 * PI / 4, 0.8)[2]
        kf_hat = c.n_kept / n
        se = math.sqrt(kf_analytic * (1 - kf_analytic) / n)
        assert abs(kf_hat - kf_analytic) < 4.0 * se

    def test_bit_identical_under_seed_reuse(self):
        a = simulate_counts(STATE, PI, 5 * PI / 4, 0.5, 600_000, seed=9)
        b = simulate_counts(STATE, PI, 5 * PI / 4, 0.5, 600_000, seed=9)
        assert a == b

    def test_invariant_to_worker_count(self):
        kwargs = dict(alpha=PI, beta=5 * PI / 4, r=0.5, n=777_777, seed=10)
        one = simulate_counts(STATE, workers=1, **kwargs)
        four = simulate_counts(STATE, workers=4, **kwargs)
        assert one == four

    @pytest.mark.parametrize("n", [0, -3, True, False, 2.5, 1e6, "10"])
    def test_rejects_n_that_is_not_a_positive_integer(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1"):
            simulate_counts(STATE, PI, 5 * PI / 4, 0.5, n, seed=1)

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2"])
    def test_rejects_workers_that_is_not_a_positive_integer(self, workers):
        with pytest.raises(ValueError, match=r"^workers must be an integer >= 1"):
            simulate_counts(STATE, PI, 5 * PI / 4, 0.5, 1000, seed=1, workers=workers)

    def test_accepts_numpy_integers(self):
        kwargs = dict(alpha=PI, beta=5 * PI / 4, r=0.5, seed=1)
        want = simulate_counts(STATE, n=30_000, workers=2, **kwargs)
        got = simulate_counts(STATE, n=np.int64(30_000), workers=np.int32(2), **kwargs)
        assert got == want

    def test_memory_does_not_scale_with_n(self):
        # numpy reports its buffers to tracemalloc, so the peak is deterministic;
        # binning whole 250k-pair chunks at once peaks at about 10 MB
        simulate_counts(STATE, PI, 5 * PI / 4, 0.5, 1000, seed=1)
        tracemalloc.start()
        try:
            simulate_counts(STATE, PI, 5 * PI / 4, 0.5, 1_000_000, seed=1, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_estimated_kept_fraction_decreases_with_r(self):
        n = 1_000_000
        kfs = [
            simulate_counts(STATE, PI, 5 * PI / 4, r, n, seed=11).n_kept / n
            for r in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5)
        ]
        assert all(a > b for a, b in zip(kfs, kfs[1:]))


def _sign_binned(x: np.ndarray, r: float) -> dict:
    """Counts of (n, 2) pairs binned by sign after discarding |x| <= r, in
    plain numpy: the reference the blocked binning must equal exactly."""
    kept = (np.abs(x[:, 0]) > r) & (np.abs(x[:, 1]) > r)
    up1, up2 = x[:, 0] > 0, x[:, 1] > 0
    return {
        "n_pp": int(np.count_nonzero(kept & up1 & up2)),
        "n_pm": int(np.count_nonzero(kept & up1 & ~up2)),
        "n_mp": int(np.count_nonzero(kept & ~up1 & up2)),
        "n_mm": int(np.count_nonzero(kept & ~up1 & ~up2)),
        "n_discarded": int(np.count_nonzero(~kept)),
    }


class TestExactReference:
    """simulate_counts equals sign-binning the oracle sample_pairs count for
    count, across block and chunk boundaries, dark strips from none to nearly
    everything, and worker counts.  This also pins the per-chunk seeds, and
    that successive ``out=`` draws of one generator continue the stream a
    single draw gives."""

    ALPHA, BETA, SEED = PI, 5 * PI / 4, 21

    @pytest.fixture(scope="class")
    def pairs(self):
        bg = position_joint_density(STATE, self.ALPHA, self.BETA)
        return cache(lambda n: oracles.sample_pairs(bg.var1, bg.var2, bg.corr, n, self.SEED))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("r", [0.0, 0.5, 2.0, 6.0])
    @pytest.mark.parametrize(
        "n", [1, BLOCK_SIZE - 1, BLOCK_SIZE + 1, CHUNK_SIZE + 12_345, 777_777]
    )
    def test_counts_equal_binning_of_sample_pairs(self, pairs, n, r, workers):
        got = simulate_counts(STATE, self.ALPHA, self.BETA, r, n, self.SEED, workers)
        want = _sign_binned(pairs(n), r)
        assert {key: getattr(got, key) for key in want} == want
        assert (got.n_total, got.seed) == (n, self.SEED)


@st.composite
def count_tables(draw):
    """CountTables with at least MIN_KEPT_COUNT kept events of up to 10^12."""
    n_total = draw(st.integers(MIN_KEPT_COUNT, 10**12))
    kept = draw(st.integers(MIN_KEPT_COUNT, n_total))
    cuts = sorted(draw(st.lists(st.integers(0, kept), min_size=3, max_size=3)))
    n = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, kept])]
    seed = draw(st.integers(0, (1 << 64) - 1))
    return CountTable(*n, n_discarded=n_total - kept, seed=seed, n_total=n_total)


class TestEstimateProbabilities:
    @settings(max_examples=200, deadline=None)
    @given(count_tables())
    @example(CountTable(250, 250, 250, 250, n_discarded=0, seed=0, n_total=1000))
    @example(CountTable(MIN_KEPT_COUNT, 0, 0, 0, n_discarded=10**12 - 100, seed=3, n_total=10**12))
    def test_fields_equal_the_binomial_rule_per_outcome(self, c):
        kept, n = c.n_kept, c.n_total
        p_pp, p_pm, p_mp, p_mm = c.n_pp / kept, c.n_pm / kept, c.n_mp / kept, c.n_mm / kept
        kf = kept / n
        assert estimate_probabilities(c) == ProbEstimate(
            p_pp=p_pp,
            p_pm=p_pm,
            p_mp=p_mp,
            p_mm=p_mm,
            se_pp=math.sqrt(p_pp * (1.0 - p_pp) / kept),
            se_pm=math.sqrt(p_pm * (1.0 - p_pm) / kept),
            se_mp=math.sqrt(p_mp * (1.0 - p_mp) / kept),
            se_mm=math.sqrt(p_mm * (1.0 - p_mm) / kept),
            kept_fraction=kf,
            kept_fraction_se=math.sqrt(kf * (1.0 - kf) / n),
            n_kept=kept,
            seed=c.seed,
        )

    def test_uniform_counts(self):
        c = CountTable(250, 250, 250, 250, n_discarded=0, seed=0, n_total=1000)
        est = estimate_probabilities(c)
        for p in (est.p_pp, est.p_pm, est.p_mp, est.p_mm):
            assert p == 0.25
        assert est.se_pp == pytest.approx(0.0137, abs=2e-4)
        assert est.kept_fraction == 1.0

    def test_insufficient_counts_rejected(self):
        c = CountTable(20, 20, 20, 20, n_discarded=920, seed=0, n_total=1000)
        with pytest.raises(InsufficientCountsError, match="100"):
            estimate_probabilities(c)

    def test_marginals_near_half(self):
        c = simulate_counts(STATE, PI, 5 * PI / 4, 0.5, 1_000_000, seed=12)
        est = estimate_probabilities(c)
        se = math.sqrt(0.25 / est.n_kept)
        assert abs((est.p_pp + est.p_pm) - 0.5) < 4.0 * se
        assert abs((est.p_pp + est.p_mp) - 0.5) < 4.0 * se

    def test_probability_matrix_structure(self):
        # 4 settings x 4 outcomes, as in the coincidence experiment
        combos = [
            (REFERENCE_SETTINGS.alpha, REFERENCE_SETTINGS.beta),
            (REFERENCE_SETTINGS.alpha_prime, REFERENCE_SETTINGS.beta),
            (REFERENCE_SETTINGS.alpha, REFERENCE_SETTINGS.beta_prime),
            (REFERENCE_SETTINGS.alpha_prime, REFERENCE_SETTINGS.beta_prime),
        ]
        matrix = []
        for k, (a, b) in enumerate(combos):
            c = simulate_counts(STATE, a, b, 0.5, 200_000, derive_setting_seed(13, k))
            est = estimate_probabilities(c)
            matrix.append([est.p_pp, est.p_pm, est.p_mp, est.p_mm])
        assert len(matrix) == 4
        for row in matrix:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)


class TestSettingEstimates:
    def test_yields_estimates_in_setting_pairs_order_with_sub_seeds(self):
        ests = list(setting_estimates(STATE, REFERENCE_SETTINGS, 0.4, 20_000, seed=17))
        assert len(ests) == 4
        for k, ((a, b), est) in enumerate(zip(setting_pairs(REFERENCE_SETTINGS), ests)):
            assert isinstance(est, ProbEstimate)
            assert est.seed == derive_setting_seed(17, k)
            counts = simulate_counts(STATE, a, b, 0.4, 20_000, est.seed)
            assert est == estimate_probabilities(counts)


class TestMcBellS:
    def test_separable_consistent_with_zero(self):
        s, se = mc_bell_S(SEPARABLE, REFERENCE_SETTINGS, 0.3, 200_000, seed=14)
        assert abs(s) < 4.0 * se

    def test_matches_analytic(self):
        rng = np.random.default_rng(99)
        for _ in range(3):
            delta = rng.uniform(0.6, 1.2)
            state = GaussianTwoModeState(delta, delta * rng.uniform(1.3, 2.5))
            settings = MeasurementSettings(
                alpha=rng.uniform(0, 2 * PI),
                alpha_prime=rng.uniform(0, 2 * PI),
                beta=rng.uniform(0, 2 * PI),
                beta_prime=rng.uniform(0, 2 * PI),
            )
            r = rng.uniform(0.0, 1.0)
            s_mc, se = mc_bell_S(state, settings, r, 1_000_000, seed=int(rng.integers(1 << 32)))
            assert abs(s_mc - bell_S(state, settings, r)) < 4.0 * se

    def test_equals_the_sum_over_simulated_settings(self):
        s_val = var = 0.0
        for k, ((a, b), w) in enumerate(zip(setting_pairs(REFERENCE_SETTINGS), (1, 1, 1, -1))):
            c = simulate_counts(STATE, a, b, 0.4, 50_000, derive_setting_seed(16, k))
            est = estimate_probabilities(c)
            s_val += w * est.correlation_E
            var += est.correlation_E_se**2
        assert mc_bell_S(STATE, REFERENCE_SETTINGS, 0.4, 50_000, seed=16) == (s_val, math.sqrt(var))

    def test_tsirelson_violation_significant(self):
        s_mc, se = mc_bell_S(STATE, REFERENCE_SETTINGS, 2.0, 10_000_000, seed=15)
        assert s_mc - 2.0 * math.sqrt(2.0) > 5.0 * se


class TestBenchmarkChecks:
    """The `sample` workload's r = 0.75 outputs pass the benchmark's own check
    and do not depend on the worker count."""

    def test_sample_outputs_pass_and_match_across_workers(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        sample = workloads.sample(seed=1)
        names = ("mc_r0.75_w1", "mc_r0.75_w2")
        assert names in sample.twins
        outputs = []
        for inv in [i for i in sample.invocations if i.name in names]:
            cfg, out = tmp_path / f"{inv.name}.cfg", tmp_path / f"{inv.name}.json"
            cfg.write_text(workloads.config_text(inv.config))
            argv = ["--config", str(cfg), "--format", "json", "--out", str(out)]
            assert main([inv.command, *argv]) == 0
            inv.check(json.loads(out.read_text()))
            outputs.append(out.read_bytes())
        assert len(outputs) == 2 and outputs[0] == outputs[1]
