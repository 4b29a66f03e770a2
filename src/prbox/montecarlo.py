"""Stochastic oracle: samples photon-pair positions from the rotated joint
Gaussian, applies dark-region discarding and sign binning, and estimates the
post-selected probabilities with binomial errors.

Sampling is chunked with per-chunk seeds derived deterministically from
(seed, chunk index), so results are bit-identical for a given seed
regardless of how many workers execute the chunks.  The seed contract's
stream rule is stated per round of at most BLOCK_SIZE draws, so memory
does not scale with CHUNK_SIZE.  A pair with either position inside the dark
strip is discarded.  The position the strip discards more often, of larger
threshold r / sd, is drawn first (x1 at r = 0 or equal variances), and a
chunk draws only the pairs it puts outside: their number, those first
positions from their law outside the strip by exponential rejection (Robert
1995, Stat. Comput. 5, 121), and their second positions.  The stream depends
on r, so the rungs of one seed do not bin the same pairs.  Counts are
bit-identical to binning the test oracle ``sample_pairs`` (tests/oracles.py)
on the block in draw order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .chsh import _SQRT_2PI, CHSH_SIGN, DEGENERATE_CORR, _check_r, setting_columns, setting_pairs
from .state import GaussianTwoModeState, position_joint_density

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


def _cholesky_factor(block: tuple[float, float, float]) -> tuple[float, float, float]:
    """Entries (L00, L10, L11) of the lower Cholesky factor of the covariance
    of a (var1, var2, corr) block."""
    var1, var2, rho = block
    if abs(rho) > DEGENERATE_CORR:
        raise ValueError(f"|corr|={abs(rho)} too close to 1 for sampling")
    std2 = math.sqrt(var2)
    return math.sqrt(var1), std2 * rho, std2 * math.sqrt(1.0 - rho * rho)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence((seed & _SEED_MASK, chunk_index))
    return np.random.default_rng(ss)


def _chunk_sizes(n: int) -> list[int]:
    full, rem = divmod(n, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rem] if rem else [])


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _tail_rate(t: float, q: float) -> tuple[float, float]:
    """Robert's (1995, Stat. Comput. 5, 121) optimal exponential rate lam for
    N(0, 1) truncated to z > t, with q = Phi(-t) > 0, and its acceptance
    A(t) = sqrt(2 pi) lam q exp(lam t - lam^2 / 2), summed in logs because
    the exponential alone overflows from t = 37.7, where q reaches 1e-309."""
    lam = (t + math.hypot(t, 2.0)) / 2.0
    return lam, math.exp(math.log(_SQRT_2PI * lam * q) + lam * (t - 0.5 * lam))


def _tail_round(rng: np.random.Generator, t: float, lam: float, left: int, buf, ok) -> np.ndarray:
    """One round of exponential rejection for N(0, 1) truncated to |z| > t:
    of n = len(ok) proposals x = t + E / lam, the first `left` with E' >=
    (x - lam)^2 / 2, in draw order, as a view of buf[0], each moved just past
    t where rounding put it on t; of those k, the first k_plus ~ Binomial(k,
    1/2) keep their sign and the rest are negated.  E and E' are standard
    exponentials drawn into buf[1] and buf[2], a (4, n) array; buf[3] is
    scratch."""
    z, x, e2, d = buf
    rng.standard_exponential(out=x)
    rng.standard_exponential(out=e2)
    np.add(np.multiply(x, 1.0 / lam, out=x), t, out=x)
    np.subtract(x, lam, out=d)
    np.multiply(np.multiply(d, d, out=d), 0.5, out=d)
    accepted = np.count_nonzero(np.less_equal(d, e2, out=ok))
    k = min(accepted, left)
    x = np.compress(ok, x, out=e2[:accepted])[:k]
    z = np.maximum(x, math.nextafter(t, math.inf), out=z[:k])
    plus = rng.binomial(k, 0.5)
    np.negative(z[plus:], out=z[plus:])
    return z


def _bin_chunk(args) -> np.ndarray:
    """Counts (kept, kept & up1, kept & up2, kept & up1 & up2) of one chunk, up
    meaning x > 0, with 1 the position drawn first, l00 z0, and 2 the one
    drawn second, l10 z0 + l11 z1; the first lies outside the strip with
    probability 2q.  The chunk draws its outside count s ~ Binomial(m, 2q)
    (s = m at r = 0); then, while some are left, one _tail_round of
    min(BLOCK_SIZE, ceil(left / A(t))) proposals gives the next outside z0,
    t = r / l00, and one second normal z1 per value, in order; successive
    ``out=`` draws continue one stream.  Bit-identical to binning the
    chunk's pairs of the oracle ``sample_pairs`` in tests/oracles.py, in
    reused buffers of BLOCK_SIZE."""
    seed, idx, m, (l00, l10, l11), r = args
    rng = _chunk_rng(seed, idx)
    buf = np.empty((4, BLOCK_SIZE))
    flags = np.empty((4, BLOCK_SIZE), dtype=bool)
    c = np.zeros(4, dtype=np.int64)
    t = r / l00
    q = float(ndtr(-t))
    left = rng.binomial(m, 2.0 * q)
    if left:  # then q > 0, as _tail_rate needs
        lam, rate = _tail_rate(t, q)
    while left:
        n = min(BLOCK_SIZE, math.ceil(left / rate))
        z = _tail_round(rng, t, lam, left, buf[:, :n], flags[0, :n])
        s = len(z)
        left -= s
        x2, tmp = buf[2:, :s]
        kept, up1, up2, both = flags[:, :s]  # kept overwrites the acceptance flags
        np.multiply(l11, rng.standard_normal(out=x2), out=x2)
        np.add(np.multiply(l10, z, out=tmp), x2, out=x2)
        np.greater(np.abs(x2, out=tmp), r, out=kept)
        np.logical_and(kept, np.greater(z, 0.0, out=up1), out=up1)  # the first has z's sign
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
    """Sample n pairs, discard dark-region hits, bin the rest by sign, drawing
    first the position of larger threshold r / sd (x1 at r = 0 or var1 <= var2)."""
    _check_count("n", n)
    _check_count("workers", workers)
    _check_r(r)
    var1, var2, corr = position_joint_density(state, alpha, beta)
    swap = r > 0.0 and var2 < var1
    chol = _cholesky_factor((var2, var1, corr) if swap else (var1, var2, corr))
    jobs = [(seed, idx, m, chol, r) for idx, m in enumerate(_chunk_sizes(n))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        partials = list(pool.map(_bin_chunk, jobs))
    n_kept, c1, c2, c12 = (int(c) for c in np.sum(partials, axis=0))
    if swap:  # exchanging the parties exchanges n_pm and n_mp only
        c1, c2 = c2, c1
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


def mc_bell_S(estimates) -> tuple[float, float]:
    """Bell parameter estimate and standard error from the four ProbEstimates
    of one r, a sequence in setting_pairs order."""
    s = [float(c) * e.correlation_E for c, e in zip(setting_columns(CHSH_SIGN), estimates)]
    v = [e.correlation_E_se**2 for e in estimates]  # left to right; sum() compensates from 3.12
    return s[0] + s[1] + s[2] + s[3], math.sqrt(v[0] + v[1] + v[2] + v[3])
