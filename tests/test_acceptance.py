"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion report."""

import math

import numpy as np

import oracles
from oracles import REFERENCE_SETTINGS
from prbox.chsh import (
    MeasurementSettings,
    and_gate_success,
    bell_S,
    correlation_grid,
    no_signaling_report,
    postselected_probs,
    pr_fidelity,
    setting_tables,
)
from prbox.frft import frft_distance
from prbox.montecarlo import (
    derive_setting_seed,
    estimate_probabilities,
    simulate_counts,
)
from prbox.optimize import maximize_S, tune_r
from prbox.state import GaussianTwoModeState, position_joint_density

PI = math.pi
TSIRELSON = 2.0 * math.sqrt(2.0)
STATE = GaussianTwoModeState(delta=0.75, gamma=1.25)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_state(rng) -> GaussianTwoModeState:
    delta = rng.uniform(0.5, 1.4)
    return GaussianTwoModeState(delta, delta * rng.uniform(1.2, 3.0))


def random_settings(rng, r_max: float = 1.5) -> tuple[MeasurementSettings, float]:
    """Random angles, then a random dark width r in [0, r_max)."""
    settings = MeasurementSettings(
        alpha=rng.uniform(0, 2 * PI),
        alpha_prime=rng.uniform(0, 2 * PI),
        beta=rng.uniform(0, 2 * PI),
        beta_prime=rng.uniform(0, 2 * PI),
    )
    return settings, rng.uniform(0.0, r_max)


def test_criterion_1_lens_table_reproduction():
    rows = [
        (PI / 2, 25.0, 25.0),
        (29 * PI / 50, 20.0, 25.0),
        (PI / 2, 25.0, 25.0),
        (3 * PI / 4, 15.0, 25.6),
        (PI / 2, 50.0, 50.0),
        (37 * PI / 50, 30.0, 50.6),
    ]
    deviations = [abs(frft_distance(t, f) - z) for t, f, z in rows]
    ok = all(d <= 0.05 for d in deviations)
    # note: the last row's printed 50.6 cm is inconsistent with
    # 2 f sin^2(theta/2) at theta=37*pi/50, f=30 cm, which gives 50.54 cm;
    # the formula value is kept and this row fails the 0.05 cm tolerance
    report(
        1,
        "lens table distances within 0.05 cm",
        ok,
        "max deviation {:.3f} cm".format(max(deviations)),
    )


def test_criterion_2_fidelity_anchors():
    ok = (
        abs(pr_fidelity(TSIRELSON) - 0.854) <= 1e-3
        and pr_fidelity(2.0) == 0.75
        and abs(pr_fidelity(3.42) - 0.9275) <= 5e-4
    )
    report(2, "fidelity anchors 0.854 / 0.750 / 0.9275", ok)


def test_criterion_3_and_gate_identity():
    rng = np.random.default_rng(301)
    worst = 0.0
    for _ in range(100):
        state = random_state(rng)
        settings, r = random_settings(rng)
        lhs = and_gate_success(*setting_tables(state, settings, r)[:2])
        rhs = (4.0 + bell_S(state, settings, r)) / 8.0
        worst = max(worst, abs(lhs - rhs))
    report(
        3,
        "P_AND = (4+S)/8 over 100 random cases",
        worst <= 1e-9,
        f"max |diff| {worst:.2e}",
    )


def test_criterion_4_arcsine_law_consistency():
    rng = np.random.default_rng(401)
    worst = 0.0
    for _ in range(50):
        state = random_state(rng)
        alpha, beta = rng.uniform(0, 2 * PI, size=2)
        _, _, rho = position_joint_density(state, alpha, beta)
        e_sign = oracles.sign_expectation(state, alpha, beta)
        e_zero = float(correlation_grid(state, alpha, beta, 0.0))
        worst = max(
            worst,
            abs(e_sign - (2.0 / PI) * math.asin(rho)),
            abs(e_sign - e_zero),
        )
    ok = worst <= 1e-8
    worst_quad = 0.0
    for _ in range(5):
        state = random_state(rng)
        alpha, beta = rng.uniform(0, 2 * PI, size=2)
        want = oracles.sign_expectation_quadrature(
            state.delta, state.gamma, alpha, beta
        )
        worst_quad = max(worst_quad, abs(oracles.sign_expectation(state, alpha, beta) - want))
    ok = ok and worst_quad <= 1e-5
    report(
        4,
        "sign expectation matches arcsine law, r=0 tables, and 4D quadrature",
        ok,
        f"max diffs {worst:.2e} / {worst_quad:.2e}",
    )


def test_criterion_5_tsirelson_respect_at_r_zero():
    rng = np.random.default_rng(501)
    worst = -np.inf
    for _ in range(10):
        result = maximize_S(
            random_state(rng), r=0.0, angle_grid_step=PI / 8, refine_tol=1e-3
        )
        worst = max(worst, result.objective)
    s_ref = bell_S(STATE, REFERENCE_SETTINGS, 0.0)
    ok = worst <= TSIRELSON + 1e-6 and s_ref <= 2.0
    report(
        5,
        "no Tsirelson violation without post-selection",
        ok,
        f"max optimized S {worst:.4f}, S at reference settings {s_ref:.4f}",
    )


def test_criterion_6_tsirelson_violation_with_postselection():
    s2 = bell_S(STATE, REFERENCE_SETTINGS, 2.0)
    ok = s2 > TSIRELSON
    # plateau of the sweep curves grows toward 1 with r
    beta_plateau = 5 * PI / 4
    plateau = [
        abs(float(correlation_grid(STATE, PI, beta_plateau, r)))
        for r in (0.75, 1.0, 2.0)
    ]
    ok = ok and plateau[0] < plateau[1] < plateau[2] <= 1.0
    s_curve = [bell_S(STATE, REFERENCE_SETTINGS, r) for r in (0.5, 1.0, 1.5, 2.0)]
    h_curve = []
    for r in (0.5, 1.0, 1.5, 2.0):
        kept = [
            postselected_probs(STATE, a, b, r)[2]
            for a, b in [
                (REFERENCE_SETTINGS.alpha, REFERENCE_SETTINGS.beta),
                (REFERENCE_SETTINGS.alpha_prime, REFERENCE_SETTINGS.beta),
                (REFERENCE_SETTINGS.alpha, REFERENCE_SETTINGS.beta_prime),
                (REFERENCE_SETTINGS.alpha_prime, REFERENCE_SETTINGS.beta_prime),
            ]
        ]
        h_curve.append(sum(kept) / 4.0)
    ok = ok and all(a < b for a, b in zip(s_curve, s_curve[1:]))
    ok = ok and all(a > b for a, b in zip(h_curve, h_curve[1:]))
    r_star = tune_r(STATE, REFERENCE_SETTINGS, 0.908, r_max=3.0)
    s_star = bell_S(STATE, REFERENCE_SETTINGS, r_star)
    ok = ok and r_star <= 3.0 and s_star > 3.266 - 0.01
    report(
        6,
        "post-selection surpasses Tsirelson and the 90.8% threshold",
        ok,
        f"S(r=2)={s2:.3f}, plateau |E|={plateau}, r*={r_star:.3f}",
    )


def test_criterion_7_no_signaling_marginals():
    rng = np.random.default_rng(701)
    worst = 0.0
    for _ in range(5):
        state = random_state(rng)
        settings, r = random_settings(rng)
        worst = max(worst, no_signaling_report(*setting_tables(state, settings, r)[:2])[1])
    ok = worst <= 1e-9
    # Monte Carlo marginals at n = 1e6
    mc_ok = True
    for k, (a, b) in enumerate(
        [
            (REFERENCE_SETTINGS.alpha, REFERENCE_SETTINGS.beta),
            (REFERENCE_SETTINGS.alpha_prime, REFERENCE_SETTINGS.beta_prime),
        ]
    ):
        counts = simulate_counts(
            STATE, a, b, 1.0, 1_000_000, derive_setting_seed(702, k)
        )
        est = estimate_probabilities(counts)
        se = math.sqrt(0.25 / est.n_kept)
        for marg in (est.p_pp + est.p_pm, est.p_pp + est.p_mp):
            mc_ok = mc_ok and abs(marg - 0.5) < 4.0 * se
    report(
        7,
        "post-selected marginals equal 1/2 (analytic 1e-9, MC 4 sigma)",
        ok and mc_ok,
        f"max analytic deviation {worst:.2e}",
    )


def test_criterion_8_monte_carlo_vs_quadrature():
    rng = np.random.default_rng(801)
    failures = 0
    for case in range(50):
        state = random_state(rng)
        alpha, beta = rng.uniform(0, 2 * PI, size=2)
        r = rng.uniform(0.0, 1.2)
        counts = simulate_counts(state, alpha, beta, r, 1_000_000, seed=8000 + case)
        est = estimate_probabilities(counts)
        e_analytic = float(correlation_grid(state, alpha, beta, r))
        if abs(est.correlation_E - e_analytic) > 4.0 * max(
            est.correlation_E_se, 1e-12
        ):
            failures += 1
    a = simulate_counts(STATE, PI, 5 * PI / 4, 0.5, 700_000, seed=808, workers=1)
    b = simulate_counts(STATE, PI, 5 * PI / 4, 0.5, 700_000, seed=808, workers=3)
    c = simulate_counts(STATE, PI, 5 * PI / 4, 0.5, 700_000, seed=808, workers=1)
    deterministic = a == b == c
    report(
        8,
        "MC agrees with quadrature (>=48/50 within 4 se) and is reproducible",
        failures <= 2 and deterministic,
        f"{failures} outliers, deterministic={deterministic}",
    )


def test_criterion_9_closed_form_cross_check():
    grid = np.linspace(-2.5, 2.5, 21)
    x1, x2 = np.meshgrid(grid, grid, indexing="ij")
    forms = ((PI, oracles.closed_form_R_pi), (PI / 2, oracles.closed_form_R_half_pi))
    worst = 0.0
    for beta in (0.0, PI / 4, PI / 2):
        for alpha, form in forms:
            want = oracles.bivariate_pdf(*position_joint_density(STATE, alpha, beta), x1, x2)
            got = form(STATE.delta, STATE.gamma, beta, x1, x2)
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
    report(
        9,
        "closed forms match the covariance path within relative 1e-6",
        worst <= 1e-6,
        f"max relative deviation {worst:.2e}",
    )
