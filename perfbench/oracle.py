"""Independent reference values for the benchmark's output checks.

Nothing here calls prbox.  The rotated position block comes from its closed
form in (delta, gamma, alpha, beta), and orthant masses come from Owen's T
function (Owen 1956, Ann. Math. Stat. 27) in the bulk.  Where the Owen's T
form cancels, which happens for the small cross-sign masses of wide dark
strips, the mass is integrated again in mpmath at 20 digits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
from scipy.special import ndtr, owens_t

# Below this share of its leading term, the Owen's T difference has lost
# more than six of its sixteen digits; such masses are recomputed in mpmath.
CANCELLATION_SHARE = 1e-6
MP_DIGITS = 20


def position_block(
    delta: float, gamma: float, alpha: float, beta: float
) -> tuple[float, float, float]:
    """(var1, var2, cov) of the two positions after rotations (alpha, beta).

    With a = 1/delta^2, b = 1/gamma^2 and d = a^2 - b^2:
    var(t) = (a cos^2 t + (a/d) sin^2 t) / 2 and
    cov = (b cos(alpha) cos(beta) - (b/d) sin(alpha) sin(beta)) / 2.
    """
    a = 1.0 / delta**2
    b = 0.0 if math.isinf(gamma) else 1.0 / gamma**2
    d = a * a - b * b

    def var(t: float) -> float:
        return 0.5 * (a * math.cos(t) ** 2 + (a / d) * math.sin(t) ** 2)

    cov = 0.5 * (
        b * math.cos(alpha) * math.cos(beta)
        - (b / d) * math.sin(alpha) * math.sin(beta)
    )
    return var(alpha), var(beta), cov


def mp_upper_orthant(h: float, k: float, rho: float) -> float:
    """P(Z1 > h, Z2 > k) for a standard bivariate normal, by mpmath quadrature
    of the density of Z1 times the conditional tail of Z2.

    The integrand falls off from z = h at the rate of its log-derivative
    there; the breakpoints are placed on that scale so that the quadrature
    resolves masses of any size.
    """
    with mpmath.workdps(MP_DIGITS):
        mh, mk, mr = mpmath.mpf(h), mpmath.mpf(k), mpmath.mpf(rho)
        s = mpmath.sqrt(1 - mr * mr)

        def integrand(z):
            return mpmath.npdf(z) * mpmath.ncdf(-(mk - mr * z) / s)

        w = (mk - mr * mh) / s
        rate = mh - (mr / s) * mpmath.npdf(w) / mpmath.ncdf(-w)
        scale = 1 / max(rate, 1)
        points = [mh + scale * t for t in (0, 1, 4, 16, 64)] + [mpmath.inf]
        return float(mpmath.quad(integrand, points))


def owen_upper_orthant(h: float, k: float, rho: float) -> float:
    """P(Z1 > h, Z2 > k) for h, k > 0 from Owen's T function:
    (Phi(-h) + Phi(-k))/2 - T(h, (k - rho h)/(h s)) - T(k, (h - rho k)/(k s))
    with s = sqrt(1 - rho^2)."""
    s = math.sqrt(1.0 - rho * rho)
    return float(
        0.5 * (ndtr(-h) + ndtr(-k))
        - owens_t(h, (k - rho * h) / (h * s))
        - owens_t(k, (h - rho * k) / (k * s))
    )


def upper_orthant(h: float, k: float, rho: float) -> float:
    """P(Z1 > h, Z2 > k) for a standard bivariate normal with h, k >= 0."""
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    val = owen_upper_orthant(h, k, rho)
    if val > CANCELLATION_SHARE * 0.5 * (ndtr(-h) + ndtr(-k)):
        return val
    return mp_upper_orthant(h, k, rho)


@dataclass(frozen=True)
class Table:
    """Post-selected sign probabilities of one setting pair."""

    p_same: float  # p_pp = p_mm
    p_cross: float  # p_pm = p_mp
    kept_fraction: float

    @property
    def E(self) -> float:
        return 2.0 * (self.p_same - self.p_cross)


@functools.lru_cache(maxsize=8192)
def table(delta: float, gamma: float, alpha: float, beta: float, r: float) -> Table:
    """Renormalized table over |x1| > r, |x2| > r.

    The state is zero-mean and the strip symmetric, so m_pp = m_mm and
    m_pm = m_mp, and every post-selected marginal is exactly 1/2.
    """
    var1, var2, cov = position_block(delta, gamma, alpha, beta)
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    rho = max(-1.0, min(1.0, cov / (s1 * s2)))
    h, k = r / s1, r / s2
    m_same = upper_orthant(h, k, rho)
    m_cross = upper_orthant(h, k, -rho)
    kept = 2.0 * (m_same + m_cross)
    return Table(
        p_same=m_same / kept,
        p_cross=m_cross / kept,
        kept_fraction=kept,
    )


def bell_S(
    delta: float, gamma: float, angles: tuple[float, float, float, float], r: float
) -> float:
    """S = E(a,b) + E(a',b) + E(a,b') - E(a',b')."""
    a, ap, b, bp = angles
    return (
        table(delta, gamma, a, b, r).E
        + table(delta, gamma, ap, b, r).E
        + table(delta, gamma, a, bp, r).E
        - table(delta, gamma, ap, bp, r).E
    )


def arcsine_S(delta: float, gamma: float, angles) -> float:
    """S at r = 0 from the arcsine law E = (2/pi) asin(rho)."""
    a, ap, b, bp = angles

    def e(x: float, y: float) -> float:
        var1, var2, cov = position_block(delta, gamma, x, y)
        return (2.0 / math.pi) * math.asin(cov / math.sqrt(var1 * var2))

    return e(a, b) + e(ap, b) + e(a, bp) - e(ap, bp)
