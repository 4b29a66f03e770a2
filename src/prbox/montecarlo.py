"""Stochastic oracle: samples photon-pair positions from the rotated joint
Gaussian, applies dark-region discarding and sign binning, and estimates the
post-selected probabilities with binomial errors.

Sampling is chunked with per-chunk seeds derived deterministically from
(seed, chunk index), so results are bit-identical for a given seed
regardless of how many workers execute the chunks.  Each chunk is drawn and
sign-binned block by block into reused buffers, so counts are bit-identical to
binning the test oracle ``sample_pairs`` (tests/oracles.py) and memory does not
scale with CHUNK_SIZE.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chsh import CHSH_SIGN, DEGENERATE_CORR, _check_r, setting_columns, setting_pairs
from .state import BivariateGaussian, GaussianTwoModeState, position_joint_density

CHUNK_SIZE = 250_000
BLOCK_SIZE = 16_384
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
    if abs(rho) > DEGENERATE_CORR:
        raise ValueError(f"|corr|={abs(rho)} too close to 1 for sampling")
    return bg.std1, bg.std2 * rho, bg.std2 * math.sqrt(1.0 - rho * rho)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence((seed & _SEED_MASK, chunk_index))
    return np.random.default_rng(ss)


def _chunk_sizes(n: int, size: int = CHUNK_SIZE) -> list[int]:
    full, rem = divmod(n, size)
    return [size] * full + ([rem] if rem else [])


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _bin_chunk(args) -> np.ndarray:
    """Counts (kept, kept & up1, kept & up2, kept & up1 & up2) of one chunk, up
    meaning x > 0.  Binned block by block into reused buffers, bit-identical to
    binning the chunk's rows of the oracle ``sample_pairs`` in tests/oracles.py
    (successive ``out=`` draws continue one stream), in memory that does not
    scale with CHUNK_SIZE."""
    seed, idx, m, (l00, l10, l11), r = args
    rng = _chunk_rng(seed, idx)
    z = np.empty((BLOCK_SIZE, 2))
    floats = np.empty((3, BLOCK_SIZE))
    flags = np.empty((4, BLOCK_SIZE), dtype=bool)
    c = np.zeros(4, dtype=np.int64)
    for k in _chunk_sizes(m, BLOCK_SIZE):
        x1, x2, t = floats[:, :k]
        kept, up1, up2, both = flags[:, :k]
        z0, z1 = rng.standard_normal(out=z[:k]).T
        np.multiply(l00, z0, out=x1)
        np.add(np.multiply(l10, z0, out=x2), np.multiply(l11, z1, out=t), out=x2)
        np.greater(np.abs(x1, out=t), r, out=kept)
        np.logical_and(kept, np.greater(np.abs(x2, out=t), r, out=up1), out=kept)
        np.logical_and(kept, np.greater(x1, 0.0, out=up1), out=up1)
        np.logical_and(kept, np.greater(x2, 0.0, out=up2), out=up2)
        np.logical_and(up1, up2, out=both)
        c += [np.count_nonzero(v) for v in (kept, up1, up2, both)]
    return c


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
    _check_count("n", n)
    _check_count("workers", workers)
    _check_r(r)
    bg = position_joint_density(state, alpha, beta)
    chol = _cholesky_factor(bg)
    jobs = [(seed, idx, m, chol, r) for idx, m in enumerate(_chunk_sizes(n))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        partials = list(pool.map(_bin_chunk, jobs))
    n_kept, c1, c2, c12 = (int(c) for c in np.sum(partials, axis=0))
    return CountTable(
        c12, c1 - c12, c2 - c12, n_kept - c1 - c2 + c12, n - n_kept, seed=seed, n_total=n
    )


def estimate_probabilities(counts: CountTable) -> ProbEstimate:
    """Normalize kept counts to probabilities with binomial standard errors."""
    kept = counts.n_kept
    if kept < MIN_KEPT_COUNT:
        raise InsufficientCountsError(
            f"only {kept} kept events; need at least {MIN_KEPT_COUNT}"
        )
    p = [c / kept for c in (counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm)]
    se = [math.sqrt(x * (1.0 - x) / kept) for x in p]
    kf = kept / counts.n_total
    kf_se = math.sqrt(kf * (1.0 - kf) / counts.n_total)
    return ProbEstimate(*p, *se, kf, kf_se, kept, counts.seed)


def derive_setting_seed(seed: int, index: int) -> int:
    """Stable 64-bit sub-seed for the index-th measurement setting."""
    ss = np.random.SeedSequence((seed & _SEED_MASK, 0x5E77, index))
    return int(ss.generate_state(1, np.uint64)[0])


def setting_estimates(state: GaussianTwoModeState, settings, r, n, seed, workers=1):
    """Yield the ProbEstimate of each setting pair at r, in setting_pairs order."""
    for k, (a, b) in enumerate(setting_pairs(settings)):
        sub_seed = derive_setting_seed(seed, k)
        yield estimate_probabilities(simulate_counts(state, a, b, r, n, sub_seed, workers))


def mc_bell_S(
    state: GaussianTwoModeState,
    settings,
    r: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> tuple[float, float]:
    """Bell parameter estimate and standard error from four simulated tables at r."""
    ests = list(setting_estimates(state, settings, r, n, seed, workers))
    s = [float(sign) * est.correlation_E for sign, est in zip(setting_columns(CHSH_SIGN), ests)]
    v = [est.correlation_E_se**2 for est in ests]  # left to right; sum() compensates from 3.12
    return s[0] + s[1] + s[2] + s[3], math.sqrt(v[0] + v[1] + v[2] + v[3])
