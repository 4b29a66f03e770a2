"""Stochastic oracle: samples photon-pair positions from the rotated joint
Gaussian, applies dark-region discarding and sign binning, and estimates the
post-selected probabilities with binomial errors.

Sampling is chunked with per-chunk seeds derived deterministically from
(seed, chunk index), so results are bit-identical for a given seed
regardless of how many workers execute the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chsh import _check_r, setting_pairs
from .state import BivariateGaussian, GaussianTwoModeState, position_joint_density

CHUNK_SIZE = 250_000
MIN_KEPT_COUNT = 100
_SEED_MASK = (1 << 64) - 1


class InsufficientCountsError(ValueError):
    """Too few kept events for a meaningful probability estimate."""


@dataclass(frozen=True)
class CountTable:
    """Raw coincidence counts for one setting pair."""

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    n_discarded: int
    seed: int
    n_total: int

    def __post_init__(self) -> None:
        counts = (self.n_pp, self.n_pm, self.n_mp, self.n_mm, self.n_discarded)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        if sum(counts) != self.n_total:
            raise ValueError(
                f"counts sum to {sum(counts)}, expected n_total={self.n_total}"
            )

    @property
    def n_kept(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


@dataclass(frozen=True)
class ProbEstimate:
    """Estimated post-selected probabilities with binomial standard errors."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float
    se_pp: float
    se_pm: float
    se_mp: float
    se_mm: float
    kept_fraction: float
    kept_fraction_se: float
    n_kept: int
    seed: int

    @property
    def correlation_E(self) -> float:
        return self.p_pp + self.p_mm - self.p_pm - self.p_mp

    @property
    def correlation_E_se(self) -> float:
        p_same = self.p_pp + self.p_mm
        return 2.0 * math.sqrt(max(p_same * (1.0 - p_same), 0.0) / self.n_kept)


def _cholesky_factor(bg: BivariateGaussian) -> tuple[float, float, float]:
    """Entries (L00, L10, L11) of the lower Cholesky factor of bg's covariance."""
    rho = bg.corr
    if abs(rho) > 1.0 - 1e-12:
        raise ValueError(f"|corr|={abs(rho)} too close to 1 for sampling")
    return bg.std1, bg.std2 * rho, bg.std2 * math.sqrt(1.0 - rho * rho)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence((seed & _SEED_MASK, chunk_index))
    return np.random.default_rng(ss)


def _chunk_sizes(n: int) -> list[int]:
    full, rem = divmod(n, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rem] if rem else [])


def _sample_chunk(seed: int, idx: int, m: int, chol) -> tuple[np.ndarray, np.ndarray]:
    """Positions (x1, x2) of the idx-th chunk of m pairs.  The factor is
    applied elementwise: a 2x2 matrix product starts a second BLAS thread,
    doubling CPU time for a few percent of wall time."""
    l00, l10, l11 = chol
    z = _chunk_rng(seed, idx).standard_normal((m, 2))
    return l00 * z[:, 0], l10 * z[:, 0] + l11 * z[:, 1]


def sample_pairs(bg: BivariateGaussian, n: int, seed: int) -> np.ndarray:
    """n i.i.d. position pairs from bg as an (n, 2) array; seed-deterministic."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    chol = _cholesky_factor(bg)
    chunks = [
        np.column_stack(_sample_chunk(seed, idx, m, chol))
        for idx, m in enumerate(_chunk_sizes(n))
    ]
    return np.concatenate(chunks)


def _bin_chunk(args) -> np.ndarray:
    seed, idx, m, chol, r = args
    x1, x2 = _sample_chunk(seed, idx, m, chol)
    kept = (np.abs(x1) > r) & (np.abs(x2) > r)
    up1 = x1 > 0
    up2 = x2 > 0
    return np.array(
        [
            int(np.count_nonzero(kept & up1 & up2)),
            int(np.count_nonzero(kept & up1 & ~up2)),
            int(np.count_nonzero(kept & ~up1 & up2)),
            int(np.count_nonzero(kept & ~up1 & ~up2)),
            int(m - np.count_nonzero(kept)),
        ],
        dtype=np.int64,
    )


def simulate_counts(
    state: GaussianTwoModeState,
    alpha: float,
    beta: float,
    r: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> CountTable:
    """Sample n pairs, discard dark-region hits, bin the rest by sign."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_r(r)
    bg = position_joint_density(state, alpha, beta)
    chol = _cholesky_factor(bg)
    jobs = [(seed, idx, m, chol, r) for idx, m in enumerate(_chunk_sizes(n))]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_bin_chunk, jobs))
    else:
        partials = [_bin_chunk(j) for j in jobs]
    totals = np.sum(partials, axis=0)
    return CountTable(
        n_pp=int(totals[0]),
        n_pm=int(totals[1]),
        n_mp=int(totals[2]),
        n_mm=int(totals[3]),
        n_discarded=int(totals[4]),
        seed=seed,
        n_total=n,
    )


def estimate_probabilities(counts: CountTable) -> ProbEstimate:
    """Normalize kept counts to probabilities with binomial standard errors."""
    kept = counts.n_kept
    if kept < MIN_KEPT_COUNT:
        raise InsufficientCountsError(
            f"only {kept} kept events; need at least {MIN_KEPT_COUNT}"
        )

    def est(c: int) -> tuple[float, float]:
        p = c / kept
        return p, math.sqrt(p * (1.0 - p) / kept)

    p_pp, se_pp = est(counts.n_pp)
    p_pm, se_pm = est(counts.n_pm)
    p_mp, se_mp = est(counts.n_mp)
    p_mm, se_mm = est(counts.n_mm)
    kf = kept / counts.n_total
    kf_se = math.sqrt(kf * (1.0 - kf) / counts.n_total)
    return ProbEstimate(
        p_pp=p_pp,
        p_pm=p_pm,
        p_mp=p_mp,
        p_mm=p_mm,
        se_pp=se_pp,
        se_pm=se_pm,
        se_mp=se_mp,
        se_mm=se_mm,
        kept_fraction=kf,
        kept_fraction_se=kf_se,
        n_kept=kept,
        seed=counts.seed,
    )


def derive_setting_seed(seed: int, index: int) -> int:
    """Stable 64-bit sub-seed for the index-th measurement setting."""
    ss = np.random.SeedSequence((seed & _SEED_MASK, 0x5E77, index))
    return int(ss.generate_state(1, np.uint64)[0])


def mc_bell_S(
    state: GaussianTwoModeState,
    settings,
    n: int,
    seed: int,
    workers: int = 1,
) -> tuple[float, float]:
    """Bell parameter estimate and standard error from four simulated tables."""
    s_val = 0.0
    var = 0.0
    weights = (1.0, 1.0, 1.0, -1.0)
    for k, ((a, b), w) in enumerate(zip(setting_pairs(settings), weights)):
        sub_seed = derive_setting_seed(seed, k)
        counts = simulate_counts(state, a, b, settings.r, n, sub_seed, workers)
        est = estimate_probabilities(counts)
        s_val += w * est.correlation_E
        var += est.correlation_E_se**2
    return s_val, math.sqrt(var)
