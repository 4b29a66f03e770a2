"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written without calling the package's own
covariance/marginalization machinery: moments come from direct numerical
integration of the pair wavefunction, and sign-correlation values from
tensor-product Gauss-Legendre quadrature of the 4D Gaussian phase-space
density, split per quadrant so every integrand is smooth, and orthant masses
from a 40-digit mpmath integral.  The one exception is sign_expectation,
Sheppard's law over the package's rotated block: it checks the orthant kernel
at r = 0 and, against the 4D quadrature, the block itself.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr

from prbox.chsh import MeasurementSettings
from prbox.montecarlo import BLOCK_SIZE, CHUNK_SIZE
from prbox.state import rotated_block

# The paper's measurement angles, which are also RunConfig's defaults.
REFERENCE_SETTINGS = MeasurementSettings(
    alpha=math.pi,
    alpha_prime=math.pi / 2,
    beta=5 * math.pi / 4,
    beta_prime=3 * math.pi / 4,
)


def quad_form_terms(delta: float, gamma: float):
    """a = 1/delta^2, b = 1/gamma^2 and d = a^2 - b^2 of the form [[a, b], [b, a]]."""
    a = 1.0 / delta**2
    b = 0.0 if math.isinf(gamma) else 1.0 / gamma**2
    return a, b, a * a - b * b


def momentum_moments(delta: float, gamma: float, lim: float = 10.0, n: int = 1201):
    """(Var q1, Var q2, Cov) of |psi(q1, q2)|^2 by 2D trapezoid integration."""
    q = np.linspace(-lim, lim, n)
    q1, q2 = np.meshgrid(q, q, indexing="ij")
    b = 0.0 if math.isinf(gamma) else 1.0 / gamma**2
    dens = np.exp(-((q1**2 + q2**2) / delta**2) - 2.0 * b * q1 * q2)
    norm = np.trapezoid(np.trapezoid(dens, q, axis=1), q)
    v1 = np.trapezoid(np.trapezoid(dens * q1**2, q, axis=1), q) / norm
    v2 = np.trapezoid(np.trapezoid(dens * q2**2, q, axis=1), q) / norm
    c = np.trapezoid(np.trapezoid(dens * q1 * q2, q, axis=1), q) / norm
    return float(v1), float(v2), float(c)


def position_moments(
    delta: float,
    gamma: float,
    q_lim: float = 10.0,
    n_q: int = 401,
    x_lim: float = 8.0,
    n_x: int = 161,
):
    """(Var x1, Var x2, Cov) of the position density obtained by numerically
    Fourier-transforming the momentum-space wavefunction."""
    q = np.linspace(-q_lim, q_lim, n_q)
    x = np.linspace(-x_lim, x_lim, n_x)
    q1, q2 = np.meshgrid(q, q, indexing="ij")
    b = 0.0 if math.isinf(gamma) else 1.0 / gamma**2
    psi = np.exp(-0.5 * ((q1**2 + q2**2) / delta**2) - b * q1 * q2)
    dq = q[1] - q[0]
    kernel = np.exp(1j * np.outer(q, x)) * dq  # (n_q, n_x)
    phi = kernel.T @ psi @ kernel
    dens = np.abs(phi) ** 2
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    norm = np.trapezoid(np.trapezoid(dens, x, axis=1), x)
    v1 = np.trapezoid(np.trapezoid(dens * x1**2, x, axis=1), x) / norm
    v2 = np.trapezoid(np.trapezoid(dens * x2**2, x, axis=1), x) / norm
    c = np.trapezoid(np.trapezoid(dens * x1 * x2, x, axis=1), x) / norm
    return float(v1), float(v2), float(c)


def pair_covariance_4x4(delta: float, gamma: float) -> np.ndarray:
    """Reference covariance over (x1, p1, x2, p2) assembled from scratch."""
    a, b, d = quad_form_terms(delta, gamma)
    sigma = np.zeros((4, 4))
    sigma[0, 0] = sigma[2, 2] = 0.5 * a
    sigma[0, 2] = sigma[2, 0] = 0.5 * b
    sigma[1, 1] = sigma[3, 3] = 0.5 * a / d
    sigma[1, 3] = sigma[3, 1] = -0.5 * b / d
    return sigma


def rotate_4x4(sigma: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    rot = np.zeros((4, 4))
    for theta, i in ((alpha, 0), (beta, 2)):
        c, s = math.cos(theta), math.sin(theta)
        rot[i : i + 2, i : i + 2] = [[c, s], [-s, c]]
    return rot @ sigma @ rot.T


def bivariate_pdf(var1: float, var2: float, corr: float, x1, x2):
    """Zero-mean bivariate normal density, broadcasting over x1 and x2."""
    det = var1 * var2 * (1.0 - corr * corr)
    z1 = np.asarray(x1) / math.sqrt(var1)
    z2 = np.asarray(x2) / math.sqrt(var2)
    q = (z1 * z1 - 2.0 * corr * z1 * z2 + z2 * z2) / (1.0 - corr * corr)
    return np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))


def _marginal_times_conditional(var1, var2, cov, x1, x2):
    """Bivariate normal density written as marginal(x2) * conditional(x1|x2)."""
    x1, x2 = np.asarray(x1), np.asarray(x2)
    cond_var = var1 - cov * cov / var2
    m2 = np.exp(-x2**2 / (2.0 * var2)) / math.sqrt(2.0 * math.pi * var2)
    c1 = np.exp(-((x1 - (cov / var2) * x2) ** 2) / (2.0 * cond_var))
    return m2 * c1 / math.sqrt(2.0 * math.pi * cond_var)


def closed_form_R_pi(delta: float, gamma: float, beta: float, x1, x2):
    """Closed-form joint position density for an imaging system on photon 1
    (rotation pi) and a beta-order transform on photon 2, written directly in
    (delta, gamma, beta) as a marginal-times-conditional factorization."""
    a, b, d = quad_form_terms(delta, gamma)
    cb, sb = math.cos(beta), math.sin(beta)
    var2 = 0.5 * a * (cb * cb + sb * sb / d)
    return _marginal_times_conditional(0.5 * a, var2, -0.5 * b * cb, x1, x2)


def closed_form_R_half_pi(delta: float, gamma: float, beta: float, x1, x2):
    """Closed-form joint position density for a Fourier-transform system on
    photon 1 (rotation pi/2) and a beta-order transform on photon 2."""
    a, b, d = quad_form_terms(delta, gamma)
    cb, sb = math.cos(beta), math.sin(beta)
    var2 = 0.5 * a * (cb * cb + sb * sb / d)
    return _marginal_times_conditional(0.5 * a / d, var2, -0.5 * b * sb / d, x1, x2)


def sign_expectation(state, alpha: float, beta: float) -> float:
    """<sgn(x1) sgn(x2)> without post-selection: Sheppard's (2/pi) asin rho,
    over the rho of the package's rotated block."""
    rho = float(rotated_block(state, alpha, beta)[2])
    return (2.0 / math.pi) * math.asin(rho)


def sample_pairs(
    var1: float, var2: float, corr: float, r: float, n: int, seed: int
) -> np.ndarray:
    """Of n pairs from the zero-mean bivariate normal, those whose first
    position lies outside the dark strip |x| <= r, as an (m, 2) array in
    draw order; the other n - m pairs never get a second position.  The
    first column is the position drawn first, of variance var1: where
    simulate_counts draws x2 first it equals this on (var2, var1, corr),
    with the two columns swapped back.

    Chunk k, of m <= CHUNK_SIZE pairs, draws from default_rng(SeedSequence((
    seed mod 2^64, k))).  With x1 = l00 z0, x2 = l10 z0 + l11 z1, t = r / l00 and
    q = Phi(-t), so that 2q is the outside share of x1, the chunk draws its
    outside count s ~ Binomial(m, 2q), which is m at r = 0.  Then, while some
    of the s are left, a round draws min(BLOCK_SIZE, ceil(left / A))
    exponentials E, then as many E', and takes |z0| = t + E / lam from the
    first `left` proposals with E' >= (|z0| - lam)^2 / 2, or just past t
    where that rounds to t (Robert 1995, with lam = (t + sqrt(t^2 + 4)) / 2
    and A = sqrt(2 pi) lam q exp(lam t - lam^2 / 2) its acceptance).  Of the
    k it takes, a Binomial(k, 1/2) count from the front keep their sign and
    the rest are negated; then the round draws its k second normals z1."""
    std2 = math.sqrt(var2)
    l00, l10, l11 = math.sqrt(var1), std2 * corr, std2 * math.sqrt(1.0 - corr * corr)
    t = r / l00
    q = float(ndtr(-t))
    pairs = []
    for k, start in enumerate(range(0, n, CHUNK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence((seed % 2**64, k)))
        left = rng.binomial(min(CHUNK_SIZE, n - start), 2.0 * q)
        if left:
            lam = (t + math.hypot(t, 2.0)) / 2.0
            rate = math.sqrt(2.0 * math.pi) * lam * q * math.exp(lam * t - lam * lam / 2.0)
        while left > 0:
            size = min(BLOCK_SIZE, math.ceil(left / rate))
            e, e_accept = rng.standard_exponential(size), rng.standard_exponential(size)
            z0 = t + e * (1.0 / lam)
            z0 = z0[e_accept >= (z0 - lam) ** 2 / 2.0][:left]
            z0 = np.where(z0 > t, z0, np.nextafter(t, math.inf))
            plus = rng.binomial(len(z0), 0.5)
            z0[plus:] = -z0[plus:]
            z1 = rng.standard_normal(len(z0))
            pairs.append(np.column_stack((l00 * z0, l10 * z0 + l11 * z1)))
            left -= len(z0)
    return np.concatenate(pairs) if pairs else np.empty((0, 2))


def _gauss_density_4d(inv: np.ndarray, norm: float, axes) -> np.ndarray:
    """Gaussian density on a sparse 4D tensor grid."""
    g = [a.reshape([-1 if k == j else 1 for k in range(4)]) for j, a in enumerate(axes)]
    quad = np.zeros(tuple(len(a) for a in axes))
    for i in range(4):
        quad = quad + inv[i, i] * g[i] ** 2
        for j in range(i + 1, 4):
            quad = quad + 2.0 * inv[i, j] * g[i] * g[j]
    return np.exp(-0.5 * quad) / norm


def sign_expectation_quadrature(
    delta: float, gamma: float, alpha: float, beta: float, n: int = 48
) -> float:
    """<sgn(x1) sgn(x2)> by per-quadrant 4D Gauss-Legendre quadrature of the
    rotated phase-space density (coordinate order x1, p1, x2, p2)."""
    sigma = rotate_4x4(pair_covariance_4x4(delta, gamma), alpha, beta)
    inv = np.linalg.inv(sigma)
    norm = 4.0 * math.pi**2 * math.sqrt(np.linalg.det(sigma))
    stds = np.sqrt(np.diag(sigma))
    nodes, weights = leggauss(n)

    def axis(lo: float, hi: float):
        half = 0.5 * (hi - lo)
        return lo + half * (nodes + 1.0), weights * half

    lims = 9.0 * stds
    x1, w_x1 = axis(0.0, lims[0])
    p1, w_p1 = axis(-lims[1], lims[1])
    p2, w_p2 = axis(-lims[3], lims[3])

    def quadrant_mass(x2_sign: float) -> float:
        x2, w_x2 = axis(0.0, lims[2])
        dens = _gauss_density_4d(inv, norm, (x1, p1, x2_sign * x2, p2))
        return float(np.einsum("ijkl,i,j,k,l->", dens, w_x1, w_p1, w_x2, w_p2))

    m_pp = quadrant_mass(+1.0)
    m_pm = quadrant_mass(-1.0)
    return 2.0 * (m_pp - m_pm)


def mc_quadrant_probability(
    var1: float,
    var2: float,
    corr: float,
    sign1: int,
    sign2: int,
    r: float,
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the un-normalized quadrant mass and its
    standard error, sampled straight from numpy's multivariate normal."""
    rng = np.random.default_rng(seed)
    cov = np.array(
        [[var1, corr * math.sqrt(var1 * var2)], [corr * math.sqrt(var1 * var2), var2]]
    )
    chol = np.linalg.cholesky(cov)
    hits = 0
    remaining = n
    while remaining > 0:
        m = min(remaining, 2_000_000)
        x = rng.standard_normal((m, 2)) @ chol.T
        hits += int(np.count_nonzero((sign1 * x[:, 0] > r) & (sign2 * x[:, 1] > r)))
        remaining -= m
    p = hits / n
    return p, math.sqrt(max(p * (1.0 - p), 1e-300) / n)


def mp_upper_orthant(h: float, k: float, rho: float, dps: int = 40) -> float:
    """P(Z1 > h, Z2 > k) for a standard bivariate normal with correlation
    rho and h, k >= 0, as the integral over z > h of the normal density
    times the conditional tail of Z2, in dps-digit mpmath.

    The roles of h and k are swapped if needed so that the integrand peaks
    at the lower limit.  mpmath's quadrature tolerance is absolute, so the
    integrand is divided by its value there, and breakpoints are placed on
    the scale of its log-derivative, which resolves masses of any size.
    """
    with mpmath.workdps(dps):
        h, k = max(h, k), min(h, k)
        mh, mk, mr = mpmath.mpf(h), mpmath.mpf(k), mpmath.mpf(rho)
        s = mpmath.sqrt(1 - mr * mr)

        def f(z):
            return mpmath.npdf(z) * mpmath.ncdf((mr * z - mk) / s)

        w = (mr * mh - mk) / s
        rate = mh - (mr / s) * mpmath.npdf(w) / mpmath.ncdf(w)
        scale = 1 / max(rate, 1)
        f0 = f(mh)
        tail = mpmath.quad(
            lambda u: f(mh + scale * u) / f0, [0, 1, 4, 16, 64, 256, mpmath.inf]
        )
        return float(f0 * scale * tail)


def postselected_probs_mp(
    delta: float, gamma: float, alpha: float, beta: float, r: float, dps: int = 40
):
    """(kept fraction, p_pp, p_pm, p_mp, p_mm) at dark-strip half-width r,
    from the rotated 4x4 covariance and mp_upper_orthant at dps digits: the
    two positions are a zero-mean normal, so m_mm = m_pp and m_mp = m_pm."""
    sigma = rotate_4x4(pair_covariance_4x4(delta, gamma), alpha, beta)
    rho = sigma[0, 2] / math.sqrt(sigma[0, 0] * sigma[2, 2])
    h, k = r / math.sqrt(sigma[0, 0]), r / math.sqrt(sigma[2, 2])
    same, cross = mp_upper_orthant(h, k, rho, dps), mp_upper_orthant(h, k, -rho, dps)
    kept = 2.0 * (same + cross)
    return kept, same / kept, cross / kept, cross / kept, same / kept


def and_gate_from_tables(p_pp, p_pm):
    """Success probability of the post-selected non-local AND gate, summed
    from tables whose last two axes are (alpha, alpha') x (beta, beta'), as
    postselected_tables returns them.  Inputs x, y pick alpha' and beta';
    the gate wins when the output signs differ exactly when x AND y, so with
    p_mm = p_pp and p_mp = p_pm a table wins with 2 p_pp, or 2 p_pm at
    (alpha', beta'), and each of the four inputs has weight 1/4."""
    p_pp, p_pm = np.asarray(p_pp), np.asarray(p_pm)
    wins = p_pp[..., 0, 0] + p_pp[..., 1, 0] + p_pp[..., 0, 1] + p_pm[..., 1, 1]
    return 0.5 * wins
