import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbox.frft import (
    FrftPlan,
    FrftStage,
    PlanNotFoundError,
    compose_orders,
    frft_distance,
    plan_lens_system,
)

PI = math.pi

# the six lens-bench rows: (order, focal length cm, bench distance cm)
BENCH_ROWS = [
    (PI / 2, 25.0, 25.0),
    (29 * PI / 50, 20.0, 25.0),
    (PI / 2, 25.0, 25.0),
    (3 * PI / 4, 15.0, 25.6),
    (PI / 2, 50.0, 50.0),
    (37 * PI / 50, 30.0, 50.6),
]


class TestFrftDistance:
    @pytest.mark.parametrize(
        "order,f,z",
        [
            (PI / 2, 25.0, 25.0),
            (3 * PI / 4, 15.0, 25.607),
            (29 * PI / 50, 20.0, 24.978),
            (37 * PI / 50, 30.0, 50.537),
        ],
    )
    def test_known_distances(self, order, f, z):
        assert frft_distance(order, f) == pytest.approx(z, abs=5e-3)

    def test_monotone_in_order(self):
        zs = [frft_distance(t, 20.0) for t in [0.1, 0.5, 1.0, 2.0, 3.0, PI]]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            frft_distance(0.0, 25.0)
        with pytest.raises(ValueError):
            frft_distance(2 * PI, 25.0)
        with pytest.raises(ValueError):
            frft_distance(PI / 2, -1.0)

    @settings(max_examples=50)
    @given(
        st.floats(min_value=1e-3, max_value=PI - 1e-3),
        st.floats(min_value=1.0, max_value=100.0),
    )
    def test_roundtrip_with_inverse(self, order, f):
        z = frft_distance(order, f)
        assert 2.0 * math.asin(math.sqrt(z / (2.0 * f))) == pytest.approx(order, rel=1e-9)


class TestComposeOrders:
    def test_reference_compositions(self):
        assert compose_orders([PI / 2, 29 * PI / 50]) == pytest.approx(27 * PI / 25)
        assert compose_orders([PI / 2, 3 * PI / 4]) == pytest.approx(5 * PI / 4)

    def test_single_order(self):
        assert compose_orders([1.234]) == pytest.approx(1.234)

    def test_wraps_modulo_two_pi(self):
        assert compose_orders([3 * PI / 2, 3 * PI / 2]) == pytest.approx(PI)

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=5))
    def test_order_independent(self, orders):
        assert compose_orders(orders) == pytest.approx(
            compose_orders(list(reversed(orders))), abs=1e-9
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose_orders([])


class TestStageAndPlan:
    @pytest.mark.parametrize(
        "order,focal",
        [(0.0, 25.0), (-1.0, 25.0), (2 * PI, 25.0), (math.nan, 25.0),
         (PI / 2, 0.0), (PI / 2, -1.0), (PI / 2, math.nan), (0.0, -1.0)],
    )
    def test_stage_refuses_what_frft_distance_refuses(self, order, focal):
        with pytest.raises(ValueError) as expected:
            frft_distance(order, focal)
        with pytest.raises(ValueError) as got:
            FrftStage(order=order, focal_cm=focal)
        assert str(got.value) == str(expected.value)

    def test_plan_checks_composition(self):
        stage = FrftStage(order=PI / 2, focal_cm=25.0)
        with pytest.raises(ValueError, match="deviates"):
            FrftPlan(stages=(stage,), target_order=PI)


class TestPlanner:
    def test_two_stage_bench_layout(self):
        plan = plan_lens_system(5 * PI / 4, [25.0, 15.0], max_stages=2)
        assert len(plan.stages) == 2
        first, second = plan.stages
        assert first.order == pytest.approx(PI / 2)
        assert first.focal_cm == 25.0
        assert first.z_cm == pytest.approx(25.0, abs=0.05)
        assert second.order == pytest.approx(3 * PI / 4)
        assert second.focal_cm == 15.0
        assert second.z_cm == pytest.approx(25.6, abs=0.05)

    def test_single_stage_fourier(self):
        plan = plan_lens_system(PI / 2, [50.0], max_stages=1)
        assert len(plan.stages) == 1
        assert plan.stages[0].focal_cm == 50.0
        assert plan.stages[0].z_cm == pytest.approx(50.0, abs=1e-9)

    def test_zero_target_is_identity(self):
        plan = plan_lens_system(0.0, [25.0], max_stages=2)
        assert plan.stages == ()
        assert plan.composed_order == 0.0

    def test_empty_inventory_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            plan_lens_system(PI / 2, [], max_stages=1)

    @pytest.mark.parametrize(
        "target,angle_tol,name",
        [(math.nan, 1e-6, "target"), (math.inf, 1e-6, "target"),
         (5 * PI / 4, math.nan, "angle_tol"), (5 * PI / 4, math.inf, "angle_tol"),
         (5 * PI / 4, 0.0, "angle_tol"), (5 * PI / 4, -1e-6, "angle_tol")],
    )
    def test_non_finite_target_or_tolerance_rejected(self, target, angle_tol, name):
        with pytest.raises(ValueError, match=name) as info:
            plan_lens_system(target, [25.0, 15.0], max_stages=2, angle_tol=angle_tol)
        assert not isinstance(info.value, PlanNotFoundError)

    def test_unreachable_target_reports_best_deviation(self):
        with pytest.raises(PlanNotFoundError, match="deviation"):
            plan_lens_system(3 * PI / 2, [25.0], max_stages=1)

    def test_composed_order_matches_target(self):
        for target in [0.3, PI / 2, PI - 0.1, 5 * PI / 4, 7 * PI / 4]:
            plan = plan_lens_system(target, [25.0, 15.0, 30.0], max_stages=3)
            assert plan.composed_order == pytest.approx(target % (2 * PI), abs=1e-9)

    def test_superset_inventory_never_worse(self):
        # with one lens the target is unreachable; adding lenses fixes it
        with pytest.raises(PlanNotFoundError):
            plan_lens_system(5 * PI / 4, [25.0], max_stages=3)
        plan = plan_lens_system(5 * PI / 4, [25.0, 15.0], max_stages=3)
        assert plan.composed_order == pytest.approx(5 * PI / 4)

    def test_prefers_fewer_stages(self):
        plan = plan_lens_system(3 * PI / 4, [25.0, 15.0], max_stages=2)
        assert len(plan.stages) == 1

    def test_ties_broken_by_total_distance(self):
        plan = plan_lens_system(3 * PI / 4, [25.0, 15.0], max_stages=1)
        # a single 3pi/4 stage is cheaper with the shorter lens
        assert plan.stages[0].focal_cm == 15.0


# The README recipe's inventory and stage limit, with each target's plan as
# (order, focal length cm, z cm) per stage, or its error message.
RECIPE_INVENTORY = [25.0, 15.0, 20.0, 50.0, 30.0]
RECIPE_PLANS = [
    (PI / 2, 3, [(PI / 2, 15.0, 15.0)]),
    (29 * PI / 50, 3, [(1.8221237390820801, 15.0, 18.730348307472823)]),
    (5 * PI / 4, 3, [(PI / 2, 20.0, 20.0), (2.356194490192345, 15.0, 25.606601717798213)]),
    (62 * PI / 50, 3, [(PI / 2, 20.0, 20.0), (2.3247785636564466, 15.0, 25.268206588930326)]),
    # the last stage turns just past or short of a quarter, so it takes the
    # shortest or the longest of the three lenses
    (3 * PI / 2 + 1e-13, 3,
     [(PI / 2, 20.0, 20.0), (PI / 2, 25.0, 25.0), (1.570796326794997, 15.0, 15.000000000001506)]),
    (3 * PI / 2 - 1e-13, 3,
     [(PI / 2, 15.0, 15.0), (PI / 2, 20.0, 20.0), (1.5707963267947962, 25.0, 24.999999999997492)]),
    (7 * PI / 4, 2,
     "no plan within 1e-06 rad of target 5.497787143782138: best achievable "
     "deviation with 2 stage(s) is 0.785398 rad"),
]


@pytest.mark.parametrize("target,max_stages,expected", RECIPE_PLANS)
def test_recipe_plans_are_pinned(target, max_stages, expected):
    if isinstance(expected, str):
        with pytest.raises(PlanNotFoundError, match=f"^{re.escape(expected)}$"):
            plan_lens_system(target, RECIPE_INVENTORY, max_stages=max_stages)
        return
    plan = plan_lens_system(target, RECIPE_INVENTORY, max_stages=max_stages)
    assert [(s.order, s.focal_cm) for s in plan.stages] == [(o, f) for o, f, _ in expected]
    assert [s.z_cm for s in plan.stages] == pytest.approx([z for _, _, z in expected], rel=1e-12)
    assert plan.total_z_cm == pytest.approx(math.fsum(z for _, _, z in expected), rel=1e-12)


@pytest.mark.parametrize(
    "target,angle_tol,cause",
    [
        # one stage would turn by less than the smallest order
        (5e-10, 1e-12,
         "the last of 1 stage(s) would need order 5e-10 rad, outside the open "
         "range (1e-09, 3.141592652589793) of one stage"),
        # the last stage would turn by pi, past the largest order by 1e-9 rad
        (3 * PI / 2, 1e-12, "best achievable deviation with 2 stage(s) is 1e-09 rad"),
    ],
)
def test_refusal_never_reads_zero(target, angle_tol, cause):
    expected = f"no plan within {angle_tol} rad of target {target}: {cause}"
    with pytest.raises(PlanNotFoundError, match=f"^{re.escape(expected)}$"):
        plan_lens_system(target, [25.0, 15.0], max_stages=2, angle_tol=angle_tol)
