"""Tests of the benchmark's oracle and output checks.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import json
import math

import numpy as np
import pytest

import check
import oracle
import workloads
from prbox import cli

REF = workloads.REF_STATE
ANGLES = workloads.REF_ANGLES


@pytest.mark.parametrize(
    "h,k,rho",
    [(0.4, 0.7, 0.3), (1.2, 0.4, -0.6), (2.0, 2.0, 0.5), (3.0, 1.0, -0.2), (0.9, 1.6, 0.95)],
)
def test_owens_t_matches_mpmath_in_the_bulk(h, k, rho):
    want = oracle.mp_upper_orthant(h, k, rho)
    assert oracle.owen_upper_orthant(h, k, rho) == pytest.approx(want, rel=1e-12)
    assert oracle.upper_orthant(h, k, rho) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "h,k,rho", [(3.5, 3.2, -0.3), (2.6, 3.1, -0.5), (5.0, 4.5, 0.1)]
)
def test_owens_t_matches_mpmath_in_the_tail(h, k, rho):
    # Small masses next to their leading term (Phi(-h) + Phi(-k))/2: the
    # Owen's T difference keeps its absolute accuracy of a few ulps of the
    # leading term, and agrees with mpmath to that.
    want = oracle.mp_upper_orthant(h, k, rho)
    lead = 0.25 * (math.erfc(h / math.sqrt(2)) + math.erfc(k / math.sqrt(2)))
    assert want < 1e-3 * lead
    assert abs(oracle.owen_upper_orthant(h, k, rho) - want) <= 1e-14 * lead


def test_deep_tail_goes_to_mpmath():
    # P(Z1 > 6, Z2 > 6) with rho = -0.5 is about 1e-25 of Phi(-6): the
    # Owen's T difference is rounding noise there, the mpmath value is not.
    h = k = 6.0
    got = oracle.upper_orthant(h, k, -0.5)
    assert got == oracle.mp_upper_orthant(h, k, -0.5)
    assert 0.0 < got < 1e-30


def test_position_block_matches_rotated_covariance():
    delta, gamma = 0.6, 0.9
    a, b = 1 / delta**2, 1 / gamma**2
    d = a * a - b * b
    sigma = np.array([
        [a / 2, 0, b / 2, 0],
        [0, a / (2 * d), 0, -b / (2 * d)],
        [b / 2, 0, a / 2, 0],
        [0, -b / (2 * d), 0, a / (2 * d)],
    ])
    for alpha, beta in [(0.3, 2.0), (math.pi / 2, 5 * math.pi / 4), (4.0, 1.1)]:
        rot = np.zeros((4, 4))
        for t, i in ((alpha, 0), (beta, 2)):
            rot[i:i + 2, i:i + 2] = [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
        s = rot @ sigma @ rot.T
        want = (s[0, 0], s[2, 2], s[0, 2])
        assert oracle.position_block(delta, gamma, alpha, beta) == pytest.approx(want, rel=1e-13)


def test_arcsine_law_is_the_r_zero_limit():
    assert oracle.bell_S(*REF, ANGLES, 0.0) == pytest.approx(
        oracle.arcsine_S(*REF, ANGLES), rel=1e-13)


def _run(tmp_path, command, values):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(workloads.config_text(values))
    out = tmp_path / f"{command}.json"
    assert cli.main([command, "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def chsh_doc(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("chsh"), "chsh",
                {"delta": REF[0], "gamma": REF[1], "r": (0.0, 1.0, 2.5)})


def test_chsh_output_passes(chsh_doc):
    check.check_chsh(chsh_doc, *REF, ANGLES, (0.0, 1.0, 2.5))


def test_chsh_rejects_shifted_S(chsh_doc):
    bad = json.loads(json.dumps(chsh_doc))
    bad["results"][1]["S"] += 1e-3
    with pytest.raises(check.CheckError, match="S"):
        check.check_chsh(bad, *REF, ANGLES, (0.0, 1.0, 2.5))


def test_chsh_rejects_non_monotone_ladder(chsh_doc):
    with pytest.raises(check.CheckError):
        check.check_chsh(chsh_doc, *REF, ANGLES, (0.0, 2.5, 1.0))


def test_sweep_rejects_a_flipped_point(tmp_path):
    grid = [i * 2 * math.pi / 12 for i in range(13)]
    doc = _run(tmp_path, "sweep", {"delta": REF[0], "gamma": REF[1], "r": (1.0,),
                                   "sweep_alphas": (math.pi,), "sweep_steps": 13})
    check.check_sweep(doc, *REF, (math.pi,), (1.0,), grid)
    doc["curves"][0]["points"][5][1] *= -1
    with pytest.raises(check.CheckError, match="E"):
        check.check_sweep(doc, *REF, (math.pi,), (1.0,), grid)


@pytest.fixture(scope="module")
def mc_doc(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("mc"), "mc",
                {"delta": REF[0], "gamma": REF[1], "r": (1.0,), "mc_n": 200_000,
                 "mc_seed": 5})


def test_mc_output_passes(mc_doc):
    check.check_mc(mc_doc, *REF, ANGLES, (1.0,), 200_000)


def test_mc_rejects_p_pp_swapped_with_p_pm(mc_doc):
    bad = json.loads(json.dumps(mc_doc))
    m = bad["matrices"][0]
    m["p_pp"], m["p_pm"] = m["p_pm"], m["p_pp"]
    with pytest.raises(check.CheckError, match="p_p"):
        check.check_mc(bad, *REF, ANGLES, (1.0,), 200_000)


def _optimize_doc(angles, r, s=None, **extra):
    s = oracle.bell_S(*REF, angles, r) if s is None else s
    return {"alpha_rad": angles[0], "alpha_prime_rad": angles[1], "beta_rad": angles[2],
            "beta_prime_rad": angles[3], "r": r, "S": s, "fidelity": (s + 4) / 8,
            "converged": True, "iterations": 10, **extra}


def test_optimize_rejects_a_point_off_the_maximum():
    # The search's own answer at r = 1 is near (0, 3pi/2, 1.099, 5.184).
    best = (2.89e-05, 4.71242, 1.09879, 5.18434)
    check.check_optimize(_optimize_doc(best, 1.0), *REF, 1.0)
    off = (best[0], best[1], best[2] + 0.05, best[3])
    with pytest.raises(check.CheckError, match="rises"):
        check.check_optimize(_optimize_doc(off, 1.0), *REF, 1.0)


def test_optimize_rejects_a_wrong_tuned_r():
    best = (2.89e-05, 4.71242, 1.09879, 5.18434)
    good = _optimize_doc(best, 1.0, tuned_r=1.39732, target_fidelity=0.9275)
    check.check_optimize(good, *REF, 1.0, ANGLES, 0.9275)
    good["tuned_r"] = 1.41
    with pytest.raises(check.CheckError, match="tuned_r"):
        check.check_optimize(good, *REF, 1.0, ANGLES, 0.9275)
