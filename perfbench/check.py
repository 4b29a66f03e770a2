"""Checks of prbox-sim outputs against the independent values in oracle.py
and against properties the physics fixes.

Every check raises ``CheckError`` naming the first value that is wrong.
Nothing here reads a stored copy of earlier output.
"""

from __future__ import annotations

import math

import oracle

# A value printed at 6 significant digits is off by at most 5e-6 of itself;
# 1e-5 of itself plus 1e-9 leaves room for the program's own quadrature error.
SIG6_REL = 1e-5
SIG6_ABS = 1e-9
# Correlations in `chsh` output are printed at 3 decimals.
E_ABS = 5e-4 + 1e-7
TSIRELSON = 2.0 * math.sqrt(2.0)
# Bisection tolerance of tune_r (r_tol) in its default call.
TUNE_R_TOL = 1e-4
# Angle step of the local-maximum check.
PERTURBATION = 1e-3
# How far S may rise under that step.  A converged search claims a local
# maximum; an unconverged one claims it only to the 6 digits it prints.
CONVERGED_SLACK = 1e-9
# Monte Carlo estimates must lie within this many standard errors.
MC_Z = 5.0


class CheckError(AssertionError):
    """A prbox-sim output disagrees with the independent computation."""


def _close6(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= SIG6_REL * abs(want) + SIG6_ABS:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def check_chsh(doc: dict, delta: float, gamma: float, angles, r_values) -> None:
    """`prbox-sim chsh --format json` over a ladder of r values."""
    a, ap, b, bp = angles
    rows = doc["results"]
    _require(len(rows) == len(r_values), f"{len(rows)} chsh rows for {len(r_values)} r")
    prev_s = -math.inf
    for row, r in zip(rows, r_values):
        where = f"chsh r={r}"
        _close6(row["r"], r, f"{where} r")
        tabs = {
            "ab": oracle.table(delta, gamma, a, b, r),
            "apb": oracle.table(delta, gamma, ap, b, r),
            "abp": oracle.table(delta, gamma, a, bp, r),
            "apbp": oracle.table(delta, gamma, ap, bp, r),
        }
        for key, t in tabs.items():
            _require(
                abs(row[f"E_{key}"] - t.E) <= E_ABS,
                f"{where} E_{key}: got {row[f'E_{key}']}, expected {t.E}",
            )
        s = tabs["ab"].E + tabs["apb"].E + tabs["abp"].E - tabs["apbp"].E
        _close6(row["S"], s, f"{where} S")
        kept = 100.0 * sum(t.kept_fraction for t in tabs.values()) / 4.0
        _close6(row["H_ave_pct"], kept, f"{where} H_ave_pct")
        _close6(row["P_AND"], (4.0 + row["S"]) / 8.0, f"{where} P_AND = (4+S)/8")
        _close6(row["fidelity"], (row["S"] + 4.0) / 8.0, f"{where} fidelity = (S+4)/8")
        for key, v in row.items():
            if key.startswith(("A_plus_", "B_plus_")):
                _close6(v, 0.5, f"{where} marginal {key}")
        _require(row["max_marginal_dev"] <= 1e-9, f"{where} max_marginal_dev")
        _require(row["S"] <= 4.0, f"{where} S={row['S']} above 4")
        _require(
            row["S"] >= prev_s - SIG6_REL * abs(prev_s),
            f"{where} S={row['S']} below the previous rung's {prev_s}",
        )
        prev_s = row["S"]
        if r == 0.0:
            _close6(row["S"], oracle.arcsine_S(delta, gamma, angles), f"{where} arcsine S")
            _require(row["S"] <= TSIRELSON, f"{where} S above 2*sqrt(2) at r = 0")


def check_sweep(doc: dict, delta: float, gamma: float, alphas, r_values, grid) -> None:
    """`prbox-sim sweep --format json`: one E(beta) curve per (alpha, r)."""
    curves = doc["curves"]
    _require(
        len(curves) == len(alphas) * len(r_values),
        f"{len(curves)} sweep curves for {len(alphas)} alphas x {len(r_values)} r",
    )
    pairs = [(al, r) for al in alphas for r in r_values]
    for curve, (alpha, r) in zip(curves, pairs):
        where = f"sweep alpha={alpha} r={r}"
        _close6(curve["alpha_rad"], alpha, f"{where} alpha")
        _close6(curve["r"], r, f"{where} r")
        pts = curve["points"]
        _require(len(pts) == len(grid), f"{where}: {len(pts)} points")
        for (beta, e), want_beta in zip(pts, grid):
            _close6(beta, want_beta, f"{where} beta")
            _close6(e, oracle.table(delta, gamma, alpha, want_beta, r).E,
                    f"{where} E(beta={want_beta})")
        _close6(pts[-1][0] - pts[0][0], 2.0 * math.pi, f"{where} beta span")
        _close6(pts[-1][1], pts[0][1], f"{where} E(2pi) = E(0)")


def check_optimize(doc: dict, delta: float, gamma: float, r: float,
                   ref_angles=None, target_fidelity: float = 0.0) -> None:
    """`prbox-sim optimize --format json`: a local maximum of S, and tuned_r
    (when a target fidelity is set) reaching that fidelity at ref_angles."""
    angles = (doc["alpha_rad"], doc["alpha_prime_rad"], doc["beta_rad"],
              doc["beta_prime_rad"])
    _close6(doc["r"], r, "optimize r")
    s = oracle.bell_S(delta, gamma, angles, r)
    _close6(doc["S"], s, "optimize S")
    _close6(doc["fidelity"], (doc["S"] + 4.0) / 8.0, "optimize fidelity = (S+4)/8")
    _require(isinstance(doc["converged"], bool), "optimize converged is not a bool")
    _require(isinstance(doc["iterations"], int) and doc["iterations"] > 0,
             "optimize iterations is not a positive integer")
    slack = CONVERGED_SLACK if doc["converged"] else SIG6_REL / 2 * abs(s)
    for axis in range(4):
        for step in (-PERTURBATION, PERTURBATION):
            moved = list(angles)
            moved[axis] += step
            s_moved = oracle.bell_S(delta, gamma, tuple(moved), r)
            _require(
                s_moved <= s + slack,
                f"optimize: S={s} rises to {s_moved} when angle {axis} moves by {step}",
            )
    if target_fidelity > 0.0:
        _close6(doc["target_fidelity"], target_fidelity, "optimize target_fidelity")
        tuned = doc["tuned_r"]

        def fidelity(x: float) -> float:
            return (oracle.bell_S(delta, gamma, ref_angles, x) + 4.0) / 8.0

        _require(
            fidelity(max(0.0, tuned - TUNE_R_TOL)) <= target_fidelity
            <= fidelity(tuned + TUNE_R_TOL),
            f"optimize: tuned_r={tuned} misses fidelity {target_fidelity} by more "
            f"than its bisection tolerance (fidelity there {fidelity(tuned)})",
        )
    elif "tuned_r" in doc:
        raise CheckError("optimize printed tuned_r without a target fidelity")


def check_mc(doc: dict, delta: float, gamma: float, angles, r_values, n: int) -> None:
    """`prbox-sim mc --format json`: every estimate within MC_Z standard
    errors of the analytic table, with errors taken from the analytic value."""
    a, ap, b, bp = angles
    combos = [("ab", a, b), ("apb", ap, b), ("abp", a, bp), ("apbp", ap, bp)]
    mats = doc["matrices"]
    _require(len(mats) == 4 * len(r_values), f"{len(mats)} mc matrices")
    expected = [(r, c) for r in r_values for c in combos]
    for m, (r, (label, alpha, beta)) in zip(mats, expected):
        where = f"mc r={r} {label}"
        _require(m["setting"] == label, f"{where}: setting {m['setting']}")
        _require(m["n"] == n, f"{where}: n={m['n']}")
        _close6(m["r"], r, f"{where} r")
        _close6(m["alpha_rad"], alpha, f"{where} alpha")
        _close6(m["beta_rad"], beta, f"{where} beta")
        t = oracle.table(delta, gamma, alpha, beta, r)
        kf_se = math.sqrt(t.kept_fraction * (1.0 - t.kept_fraction) / n)
        _require(
            abs(m["kept_fraction"] - t.kept_fraction) <= MC_Z * kf_se,
            f"{where} kept_fraction {m['kept_fraction']} vs {t.kept_fraction}",
        )
        n_kept = round(m["kept_fraction"] * n)
        want = {"p_pp": t.p_same, "p_mm": t.p_same, "p_pm": t.p_cross, "p_mp": t.p_cross}
        for key, p in want.items():
            se = math.sqrt(p * (1.0 - p) / n_kept)
            _require(
                abs(m[key] - p) <= MC_Z * se + SIG6_REL * p,
                f"{where} {key}: got {m[key]}, expected {p} +- {MC_Z} x {se}",
            )
        _close6(sum(m[k] for k in want), 1.0, f"{where} probabilities sum")
