import importlib
import json
import math
import tracemalloc
import warnings
from collections import Counter
from functools import cache
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import binomtest, kstest

import oracles
import prbox.montecarlo as montecarlo
from oracles import REFERENCE_SETTINGS
from prbox.chsh import (
    DEGENERATE_CORR,
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
    _bin_chunk,
    _cholesky_factor,
    _tail_rate,
    _tail_round,
    derive_setting_seed,
    estimate_probabilities,
    mc_bell_S,
    setting_estimates,
    simulate_counts,
)
from prbox.state import GaussianTwoModeState, position_joint_density

PI = math.pi
STATE = GaussianTwoModeState(delta=0.75, gamma=1.25)
SEPARABLE = GaussianTwoModeState(delta=1.0, gamma=math.inf)
BG = (1.2, 0.6, 0.45)  # var1, var2, corr
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestSamplePairs:
    """The oracle sampler that TestExactReference bins."""

    def test_deterministic_stream(self):
        a, b = (oracles.sample_pairs(*BG, 0.5, 100, seed=11) for _ in range(2))
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a, b = (oracles.sample_pairs(*BG, 0.5, 100, seed) for seed in (1, 2))
        assert not np.array_equal(a, b)

    def test_zero_mean(self):
        n = 400_000
        x = oracles.sample_pairs(*BG, 0.0, n, seed=3)
        assert x.shape == (n, 2)
        for col in (0, 1):
            assert abs(float(np.mean(x[:, col]))) < 4.0 * math.sqrt(BG[col] / n)

    def test_sample_correlation(self):
        n = 400_000
        x = oracles.sample_pairs(*BG, 0.0, n, seed=4)
        rho_hat = float(np.corrcoef(x[:, 0], x[:, 1])[0, 1])
        # Fisher-z interval
        z = 0.5 * math.log((1 + rho_hat) / (1 - rho_hat))
        z0 = 0.5 * math.log((1 + BG[2]) / (1 - BG[2]))
        assert abs(z - z0) < 4.0 / math.sqrt(n - 3)

    def test_draws_second_positions_only_outside_the_strip(self):
        n = 400_000
        for r in (0.3, 1.6):  # outside shares 0.78 and 0.14
            x = oracles.sample_pairs(*BG, r, n, seed=5)
            assert np.all(np.abs(x[:, 0]) > r)
            share = math.erfc(r / math.sqrt(2.0 * BG[0]))  # P(|x1| > r)
            assert abs(len(x) / n - share) < 4.0 * math.sqrt(share * (1.0 - share) / n)

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
        _cholesky_factor((1.0, 1.0, sign * DEGENERATE_CORR))
        past = sign * float(np.nextafter(DEGENERATE_CORR, 1.0))
        with pytest.raises(ValueError, match="too close to 1 for sampling"):
            _cholesky_factor((1.0, 1.0, past))


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


class TestMostPairsSkipTheSecondDraw:
    """At r = 1.5 and 2 most first positions fall inside the dark strip, so
    most pairs draw neither normal: only the outside ones are drawn, the
    first from the tail by exponential rejection; the counts still follow
    the orthant masses of the independent oracle, as they do where most or
    all first positions fall outside.  At r = 2 a cross-sign cell expects about 0.1 of its 13 kept
    events, where the normal tail of 4 standard errors misstates the odds of
    one event, so each count takes the exact binomial test at that
    two-sided level."""

    LEVEL = math.erfc(4.0 / math.sqrt(2.0))

    def assert_counts_match_the_mp_oracle(self, c, alpha, beta, r):
        kept, *p = oracles.postselected_probs_mp(STATE.delta, STATE.gamma, alpha, beta, r)
        assert binomtest(c.n_kept, c.n_total, kept).pvalue > self.LEVEL
        for count, p_k in zip((c.n_pp, c.n_pm, c.n_mp, c.n_mm), p):
            assert c.n_kept == 0 or binomtest(count, c.n_kept, p_k).pvalue > self.LEVEL

    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_counts_match_the_mp_oracle(self, r):
        for k, (a, b) in enumerate(setting_pairs(REFERENCE_SETTINGS)):
            var = min(position_joint_density(STATE, a, b)[:2])  # of the position drawn first
            assert math.erf(r / math.sqrt(2.0 * var)) > 0.5  # P(|x| <= r)
            c = simulate_counts(STATE, a, b, r, 1_000_000, derive_setting_seed(32, k))
            self.assert_counts_match_the_mp_oracle(c, a, b, r)

    @pytest.mark.parametrize("share", [0.77, 1.0])
    def test_counts_match_the_mp_oracle_at_high_outside_shares(self, share):
        # (alpha, beta) at the r where the outside share 2q of the position
        # drawn first, x2 from r > 0 on, is 0.77, where the rejection rounds
        # accept about 0.9 of their proposals, or 1 (r = 0), where every pair
        # is outside and they accept 0.76
        a, b = REFERENCE_SETTINGS.alpha, REFERENCE_SETTINGS.beta
        l00 = math.sqrt(min(position_joint_density(STATE, a, b)[:2]))
        r = l00 * float(ndtri(1.0 - share / 2.0))
        assert 2.0 * ndtr(-r / l00) == pytest.approx(share) and (r == 0.0) == (share == 1.0)
        c = simulate_counts(STATE, a, b, r, 1_000_000, seed=33)
        self.assert_counts_match_the_mp_oracle(c, a, b, r)

    def test_counts_at_r_3_match_the_mp_oracle(self):
        # 10^8 pairs a setting: at most about 1.2e4 pairs, those of (alpha,
        # beta) whose x2, drawn first, is outside, draw about two exponentials
        # and a second normal each, where drawing every first normal would
        # take 10^8.  (alpha', beta) keeps about 0.03 events, too few for
        # estimate_probabilities, so the counts are tested
        for k, (a, b) in enumerate(setting_pairs(REFERENCE_SETTINGS)):
            c = simulate_counts(STATE, a, b, 3.0, 10**8, derive_setting_seed(34, k))
            self.assert_counts_match_the_mp_oracle(c, a, b, 3.0)

    @pytest.mark.parametrize("t", [37.0, 38.0, 40.0, math.inf])
    def test_far_out_strips_discard_every_pair_without_overflow(self, t):
        # t = r / l00, with l00 the sd of x2, which is drawn first; 1e200
        # stands in for t = inf.  The outside share 2q is about 1e-299 at t
        # = 37 and rounds to 0 from t = 37.7, where exp(lam t - lam^2 / 2)
        # of the rejection's acceptance overflows.  The mp oracle's kept
        # fraction is at most that share, so a kept event would fail its
        # binomial test: every pair must be discarded
        a, b = REFERENCE_SETTINGS.alpha, REFERENCE_SETTINGS.beta
        l00 = math.sqrt(min(position_joint_density(STATE, a, b)[:2]))
        r = 1e200 if math.isinf(t) else t * l00
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = simulate_counts(STATE, a, b, r, 1_000_000, seed=35, workers=2)
        assert c == CountTable(0, 0, 0, 0, 1_000_000, seed=35, n_total=1_000_000)


def _sign_binned(x: np.ndarray, r: float, n: int) -> dict:
    """Counts of n pairs binned by sign after discarding |x| <= r, given the
    (m, 2) pairs the oracle drew, in plain numpy: the reference the blocked
    binning must equal exactly."""
    kept = (np.abs(x[:, 0]) > r) & (np.abs(x[:, 1]) > r)
    up1, up2 = x[:, 0] > 0, x[:, 1] > 0
    return {
        "n_pp": int(np.count_nonzero(kept & up1 & up2)),
        "n_pm": int(np.count_nonzero(kept & up1 & ~up2)),
        "n_mp": int(np.count_nonzero(kept & ~up1 & up2)),
        "n_mm": int(np.count_nonzero(kept & ~up1 & ~up2)),
        "n_discarded": n - int(np.count_nonzero(kept)),
    }


@cache
def _binned_oracle(alpha: float, beta: float, r: float, n: int, seed: int, x2_first: bool) -> dict:
    """_sign_binned of the oracle sample_pairs at setting (alpha, beta), drawn
    in the order given: x2 first is the oracle on (var2, var1, corr) with
    its two columns swapped back."""
    var1, var2, corr = position_joint_density(STATE, alpha, beta)
    if x2_first:
        return _sign_binned(oracles.sample_pairs(var2, var1, corr, r, n, seed)[:, ::-1], r, n)
    return _sign_binned(oracles.sample_pairs(var1, var2, corr, r, n, seed), r, n)


def _assert_counts_equal_binning(alpha, beta, r, n, seed, workers, x2_first):
    got = simulate_counts(STATE, alpha, beta, r, n, seed, workers)
    want = _binned_oracle(alpha, beta, r, n, seed, x2_first)
    assert {key: getattr(got, key) for key in want} == want
    assert (got.n_total, got.seed) == (n, seed)


class TestExactReference:
    """simulate_counts equals sign-binning the oracle sample_pairs count for
    count, in both draw orders, across block and chunk boundaries, dark
    strips from none to nearly everything, and worker counts.  This also
    pins the per-chunk seeds, the stream rule (the binomial outside count
    and its first positions by rounds of exponential rejection, with their
    sign split, then a second normal for each), the rounds' sizes, and that
    successive ``out=`` draws of one generator continue the stream that
    plain draws give.  (pi, 5pi/4) has var1 = 0.889 > var2 = 0.606, so from
    r > 0 on it draws x2 first; (pi/2, 5pi/4) has var1 = 0.323 < var2 and
    draws x1 first at every r."""

    SEED = 21
    # outside shares of x2 of (pi, 5pi/4): 1 (r = 0, where x1 is drawn first
    # and every pair is outside, so s = m), 0.67, 0.61, 0.52, 0.35, 0.27,
    # 0.010 and 1.3e-14; of x1 of (pi/2, 5pi/4): 1, 0.56, 0.48, 0.38, 0.20,
    # 0.13, 4.3e-4 and 5e-26
    R_VALUES = (0.0, 0.33, 0.4, 0.5, 0.73, 0.86, 2.0, 6.0)
    N_VALUES = (1, BLOCK_SIZE - 1, BLOCK_SIZE + 1, CHUNK_SIZE + 12_345, 777_777)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("r", R_VALUES)
    @pytest.mark.parametrize("n", N_VALUES)
    def test_counts_equal_binning_of_sample_pairs(self, n, r, workers):
        _assert_counts_equal_binning(PI, 5 * PI / 4, r, n, self.SEED, workers, x2_first=r > 0.0)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("r", R_VALUES)
    @pytest.mark.parametrize("n", N_VALUES)
    def test_counts_equal_binning_where_x1_is_drawn_first(self, n, r, workers):
        _assert_counts_equal_binning(PI / 2, 5 * PI / 4, r, n, self.SEED, workers, x2_first=False)


class _CountingRng:
    """A chunk's generator that logs each draw as (method, size), and a
    binomial draw as (method, trials, result), with its probability in
    shares.  With a stub, the first of each round's two exponential draws,
    the proposals E, is filled with the stub instead of drawn.  With up
    set, every sign split after the first binomial draw, the outside count,
    gives all k plus signs (up True) or none (up False) instead of drawing."""

    def __init__(self, rng, stub=None, up=None):
        self.rng, self.stub, self.up, self.log, self.shares = rng, stub, up, [], []

    def binomial(self, n, p):
        self.shares.append(p)
        split = self.up is not None and bool(self.log)
        self.log.append(("binomial", n, (n if self.up else 0) if split else self.rng.binomial(n, p)))
        return self.log[-1][2]

    def standard_exponential(self, out):
        proposals = self.stub is not None and self.drawn["standard_exponential"] % 2 == 0
        self.log.append(("standard_exponential", out.size))
        if proposals:
            out[:] = self.stub
            return out
        return self.rng.standard_exponential(out=out)

    def standard_normal(self, out):
        self.log.append(("standard_normal", out.size))
        return self.rng.standard_normal(out=out)

    @property
    def drawn(self) -> Counter:
        """Number of calls per method."""
        return Counter(method for method, *_ in self.log)


class TestDrawsPerChunk:
    """Exact draws of one chunk of M pairs, through a logging proxy of its
    generator.  The chunk draws one binomial count s, then per round n
    proposals, each of two exponentials E and E', one binomial sign split of
    the k it takes, and k second normals, with the k summing to s."""

    M, SEED = 100_000, 3
    BLOCK = position_joint_density(STATE, PI, 5 * PI / 4)  # outside share 0.75 at r = 0.3

    def chunk(self, monkeypatch, r, stub=None, up=None):
        make, rngs, rounds = montecarlo._chunk_rng, [], []
        monkeypatch.setattr(
            montecarlo, "_chunk_rng",
            lambda seed, idx: rngs.append(_CountingRng(make(seed, idx), stub, up)) or rngs[-1],
        )
        tail_round = montecarlo._tail_round
        monkeypatch.setattr(
            montecarlo, "_tail_round",
            lambda *args: rounds.append((z0 := tail_round(*args)).copy()) or z0,
        )
        counts = _bin_chunk((self.SEED, 0, self.M, _cholesky_factor(self.BLOCK), r))
        (rng,) = rngs
        return rng, rounds, counts

    def test_tail_rule_draws_only_outside_pairs(self, monkeypatch):
        for r in (0.0, 0.3, 2.0):  # outside shares 1 (so s = M), 0.75 and 0.034
            with monkeypatch.context() as patch:
                rng, rounds, (kept, *_) = self.chunk(patch, r)
            (method, m, s), *log = rng.log
            share = 2.0 * ndtr(-r / math.sqrt(self.BLOCK[0]))
            assert (method, m) == ("binomial", self.M) and 0 < kept <= s
            assert abs(s - share * self.M) <= 4.0 * math.sqrt(self.M * share * (1.0 - share))
            groups = [log[i : i + 4] for i in range(0, len(log), 4)]
            assert len(groups) == len(rounds) > 1 and sum(map(len, rounds)) == s
            for z0, (e, e_accept, split, z1) in zip(rounds, groups):
                k, n = len(z0), e[1]
                assert e == e_accept == ("standard_exponential", n) and k <= n <= BLOCK_SIZE
                assert split[:2] == ("binomial", k) and z1 == ("standard_normal", k)

    def test_proposals_on_the_edge_give_finite_draws_outside(self, monkeypatch):
        # every proposal E stubbed to 0.0 lands on the strip's edge t = r /
        # l00 = 1: each z0 must still be finite and outside the strip, the
        # first k_plus of a round positive and the rest negative
        t = 1.0
        r = t * math.sqrt(self.BLOCK[0])
        rng, rounds, (kept, up1, _, _) = self.chunk(monkeypatch, r, stub=0.0)
        splits = [plus for method, _, *plus in rng.log[1:] if method == "binomial"]
        assert len(splits) == len(rounds) > 0
        for z0, (plus,) in zip(rounds, splits):
            assert np.all(np.isfinite(z0)) and np.all(np.abs(z0) > t)
            assert np.all(z0[:plus] > 0) and np.all(z0[plus:] < 0)
        assert 0 < up1 < kept

    @pytest.mark.parametrize("u, up", [(0.0, False), (0.5, True)])
    def test_boundary_uniforms_give_finite_draws_outside(self, monkeypatch, u, up):
        # every proposal E stubbed to u, on the strip's edge t = r / l00 = 1
        # (u = 0) or just past it, and every sign split forced to one end of
        # Binomial(k, 1/2): each z0 must be finite, outside the strip and of
        # the forced sign, which the first position l00 z0 shares
        t = 1.0
        rng, rounds, (kept, up1, _, _) = self.chunk(monkeypatch, t * math.sqrt(self.BLOCK[0]), u, up)
        z0 = np.concatenate(rounds)
        assert len(z0) == rng.log[0][2] > 0
        assert np.all(np.isfinite(z0)) and np.all(np.abs(z0) > t) and np.all((z0 > 0) == up)
        assert kept > 0 and up1 == (kept if up else 0)


class TestDrawOrder:
    """simulate_counts draws first the position of larger threshold r / sd,
    which the strip discards more often: a chunk's first binomial draw, its
    outside count, takes the smaller outside share 2 Phi(-max(t1, t2)).  At
    r = 0, where every pair is outside, and where var1 == var2, it draws x1
    first, the stream the sampler drew before it chose an order."""

    N = BLOCK_SIZE + 1

    def first_shares(self, monkeypatch, alpha, beta, r):
        """The outside share of the first binomial draw of each chunk."""
        make, rngs = montecarlo._chunk_rng, []
        monkeypatch.setattr(
            montecarlo, "_chunk_rng",
            lambda seed, idx: rngs.append(_CountingRng(make(seed, idx))) or rngs[-1],
        )
        simulate_counts(STATE, alpha, beta, r, CHUNK_SIZE + self.N, seed=37, workers=2)
        return [rng.shares[0] for rng in rngs]

    @pytest.mark.parametrize("r", [0.3, 0.75, 1.0, 1.5, 2.0])
    def test_first_draw_takes_the_smaller_outside_share(self, monkeypatch, r):
        blocks = [position_joint_density(STATE, a, b) for a, b in setting_pairs(REFERENCE_SETTINGS)]
        assert sorted(var1 < var2 for var1, var2, _ in blocks) == [False, False, True, True]
        for (a, b), (var1, var2, _) in zip(setting_pairs(REFERENCE_SETTINGS), blocks):
            t = max(r / math.sqrt(var1), r / math.sqrt(var2))
            with monkeypatch.context() as patch:
                assert self.first_shares(patch, a, b, r) == [2.0 * float(ndtr(-t))] * 2

    def test_r_zero_draws_x1_first(self):
        for a, b in setting_pairs(REFERENCE_SETTINGS):
            _assert_counts_equal_binning(a, b, 0.0, self.N, 38, 1, x2_first=False)

    def test_equal_variances_draw_x1_first(self):
        var1, var2, _ = position_joint_density(STATE, 5 * PI / 4, 5 * PI / 4)
        assert var1 == var2
        _assert_counts_equal_binning(5 * PI / 4, 5 * PI / 4, 1.0, self.N, 38, 1, x2_first=False)


class TestTailRound:
    """One round of the exponential rejection alone, with every
    proposal it accepts returned: its values follow N(0, 1) truncated to
    |z| > t, and it accepts at Robert's rate A(t)."""

    N = 60_000
    LEVEL = TestMostPairsSkipTheSecondDraw.LEVEL

    @staticmethod
    def acceptance_mp(t: float) -> float:
        """A(t) = sqrt(2 pi) lam Phi(-t) exp(lam t - lam^2 / 2) with the optimal
        rate lam = (t + sqrt(t^2 + 4)) / 2, in 30-digit mpmath."""
        with mpmath.workdps(30):
            lam = (t + mpmath.sqrt(t * t + 4)) / 2
            scale = mpmath.sqrt(2 * mpmath.pi) * lam * mpmath.ncdf(-t)
            return float(scale * mpmath.exp(lam * t - lam**2 / 2))

    @pytest.mark.parametrize("t", [0.0, 0.2, 0.52, 0.8, 2.0, 8.0])
    def test_accepted_values_follow_the_truncated_normal_at_rate_A(self, t):
        lam, _ = _tail_rate(t, float(ndtr(-t)))
        rng = np.random.default_rng(36)
        z = _tail_round(rng, t, lam, self.N, np.empty((4, self.N)), np.empty(self.N, dtype=bool))
        assert kstest(np.abs(z), lambda v: 1.0 - ndtr(-v) / ndtr(-t)).pvalue > self.LEVEL
        assert binomtest(len(z), self.N, self.acceptance_mp(t)).pvalue > self.LEVEL
        assert binomtest(np.count_nonzero(z > 0), len(z), 0.5).pvalue > self.LEVEL

    @pytest.mark.parametrize("t", [0.0, 0.52, 8.0, 37.6])
    def test_rate_equals_A(self, t):
        # 37.6 is near the last t where Phi(-t) is not 0 in double precision
        q = float(ndtr(-t))
        assert q > 0.0 and _tail_rate(t, q)[1] == pytest.approx(self.acceptance_mp(t), rel=1e-12)


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
        ests = list(setting_estimates(SEPARABLE, REFERENCE_SETTINGS, 0.3, 200_000, seed=14))
        s, se = mc_bell_S(ests)
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
            seed = int(rng.integers(1 << 32))
            s_mc, se = mc_bell_S(list(setting_estimates(state, settings, r, 1_000_000, seed)))
            assert abs(s_mc - bell_S(state, settings, r)) < 4.0 * se

    def test_equals_the_sum_over_simulated_settings(self):
        s_val = var = 0.0
        for k, ((a, b), w) in enumerate(zip(setting_pairs(REFERENCE_SETTINGS), (1, 1, 1, -1))):
            c = simulate_counts(STATE, a, b, 0.4, 50_000, derive_setting_seed(16, k))
            est = estimate_probabilities(c)
            s_val += w * est.correlation_E
            var += est.correlation_E_se**2
        ests = list(setting_estimates(STATE, REFERENCE_SETTINGS, 0.4, 50_000, seed=16))
        assert mc_bell_S(ests) == (s_val, math.sqrt(var))

    def test_tsirelson_violation_significant(self):
        ests = list(setting_estimates(STATE, REFERENCE_SETTINGS, 2.0, 10_000_000, seed=15))
        s_mc, se = mc_bell_S(ests)
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
