"""Lens-system planning for optical fractional Fourier transforms.

A single lens of focal length f placed symmetrically at distance
z = 2 f sin^2(theta/2) from input and output planes realizes a theta-order
FRFT, i.e. a phase-space rotation by theta.  A single symmetric stage is
realizable for theta in (0, pi); larger rotations are composed from several
stages using FRFT additivity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

# realizable single-stage order range (open: sin(theta) > 0 needed)
MAX_STAGE_ORDER = math.pi - 1e-9
MIN_STAGE_ORDER = 1e-9


class PlanNotFoundError(ValueError):
    """No lens arrangement reaches the target rotation within tolerance."""


def frft_distance(order: float, focal_cm: float) -> float:
    """Symmetric lens distance z = 2 f sin^2(theta/2) in centimeters."""
    if not 0.0 < order < math.tau:
        raise ValueError(f"order must be in (0, 2*pi), got {order}")
    if not focal_cm > 0.0:
        raise ValueError(f"focal length must be positive, got {focal_cm}")
    return 2.0 * focal_cm * math.sin(0.5 * order) ** 2


def compose_orders(orders) -> float:
    """Sum of FRFT orders modulo 2*pi (additivity of the FRFT)."""
    orders = list(orders)
    if not orders:
        raise ValueError("orders must be non-empty")
    return math.fsum(orders) % math.tau


@dataclass(frozen=True)
class FrftStage:
    """One symmetric-lens FRFT stage, its distance z_cm = frft_distance."""

    order: float
    focal_cm: float
    z_cm: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "z_cm", frft_distance(self.order, self.focal_cm))


@dataclass(frozen=True)
class FrftPlan:
    """Ordered lens stages composing a target rotation."""

    stages: tuple[FrftStage, ...]
    target_order: float
    angle_tol: float = 1e-9

    def __post_init__(self) -> None:
        dev = _angle_deviation(self.composed_order, self.target_order)
        if dev > self.angle_tol:
            raise ValueError(
                f"composed order deviates from target by {dev} rad "
                f"(tolerance {self.angle_tol})"
            )

    @property
    def composed_order(self) -> float:
        return compose_orders(s.order for s in self.stages) if self.stages else 0.0

    @property
    def total_z_cm(self) -> float:
        return math.fsum(s.z_cm for s in self.stages)


def _angle_deviation(a: float, b: float) -> float:
    """Distance between two angles modulo 2*pi."""
    d = (a - b) % math.tau
    return min(d, math.tau - d)


def plan_lens_system(
    target: float,
    inventory,
    max_stages: int = 2,
    angle_tol: float = 1e-6,
) -> FrftPlan:
    """Search lens assignments realizing the target rotation.

    Each focal length in the inventory is a physical lens usable at most
    once.  A k-stage plan turns the first k-1 stages by pi/2 (the standard
    Fourier lens arrangement) and the last by the remainder.  The fewest
    stages win, then the shortest total z over the lens permutations, with
    ties within 1e-12 cm going to the first in sorted order.
    """
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    if not (angle_tol > 0.0 and math.isfinite(angle_tol)):
        raise ValueError(f"angle_tol must be finite and positive, got {angle_tol}")
    inventory = [float(f) for f in inventory]
    if not inventory:
        raise ValueError("lens inventory is empty")
    if any(f <= 0.0 for f in inventory):
        raise ValueError("focal lengths must be positive")
    if max_stages < 1:
        raise ValueError(f"max_stages must be >= 1, got {max_stages}")

    reduced = target % math.tau
    if reduced <= angle_tol or math.tau - reduced <= angle_tol:
        return FrftPlan(stages=(), target_order=target, angle_tol=angle_tol)

    k_limit = min(max_stages, len(inventory))
    for k in range(1, k_limit + 1):
        orders = [math.pi / 2.0] * (k - 1) + [reduced - (k - 1) * (math.pi / 2.0)]
        if not MIN_STAGE_ORDER < orders[-1] < MAX_STAGE_ORDER:
            continue
        best = None
        for focals in sorted(set(itertools.permutations(inventory, k))):
            stages = tuple(FrftStage(order=o, focal_cm=f) for o, f in zip(orders, focals))
            plan = FrftPlan(stages=stages, target_order=target, angle_tol=angle_tol)
            if best is None or plan.total_z_cm < best.total_z_cm - 1e-12:
                best = plan
        return best
    # Every stage count failed: one stage would turn by at most MIN_STAGE_ORDER,
    # or the last of k_limit stages by at least MAX_STAGE_ORDER.  Within
    # angle_tol of that bound, the bound and not the distance is the cause.
    k = k_limit if reduced >= MAX_STAGE_ORDER else 1
    last = reduced - (k - 1) * (math.pi / 2.0)
    deviation = last - MAX_STAGE_ORDER
    if deviation > angle_tol:
        cause = f"best achievable deviation with {k_limit} stage(s) is {deviation:.6g} rad"
    else:
        cause = (f"the last of {k} stage(s) would need order {last!r} rad, outside the "
                 f"open range ({MIN_STAGE_ORDER}, {MAX_STAGE_ORDER}) of one stage")
    raise PlanNotFoundError(f"no plan within {angle_tol} rad of target {target}: {cause}")
