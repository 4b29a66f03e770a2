#!/usr/bin/env python3
"""Tabulate S, the AND-gate success probability, the box fidelity and the
average kept fraction as the dark width r grows, then cross-check one row
with the Monte Carlo sampler.

Usage:
    python3 scripts/chsh_trend.py --r 0 0.75 1 2 3
"""

import argparse
import math

import numpy as np

from prbox.chsh import REFERENCE_SETTINGS, chsh_values, pr_fidelity, setting_tables
from prbox.montecarlo import mc_bell_S
from prbox.state import GaussianTwoModeState


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=0.75)
    ap.add_argument("--gamma", type=float, default=1.25)
    ap.add_argument("--r", type=float, nargs="+",
                    default=[0.0, 0.75, 1.0, 2.0, 3.0])
    ap.add_argument("--mc-n", type=int, default=2_000_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    state = GaussianTwoModeState(args.delta, args.gamma)
    print(f"{'r':>5} {'H_ave_%':>8} {'S':>7} {'P_AND':>7} {'fidelity':>9}")
    ref = REFERENCE_SETTINGS
    _, s_values, p_and, _, kept_pct = chsh_values(
        *setting_tables(state, ref, np.array(args.r)[:, None, None]))
    s_values = s_values.tolist()
    for r, s, p, kept in zip(args.r, s_values, p_and.tolist(), kept_pct.tolist()):
        print(f"{r:5.2f} {kept:8.2f} {s:7.3f} {p:7.4f} {pr_fidelity(s):9.4f}")

    r_check = args.r[len(args.r) // 2]
    s_mc, se = mc_bell_S(state, ref, r_check, args.mc_n, seed=args.seed)
    s_exact = s_values[len(args.r) // 2]
    print(
        f"\nMC check at r={r_check:g}: S = {s_mc:.4f} +/- {se:.4f} "
        f"(analytic {s_exact:.4f}, "
        f"{abs(s_mc - s_exact) / se:.1f} se away)"
    )
    tsirelson = 2.0 * math.sqrt(2.0)
    beyond = [r for r, s in zip(args.r, s_values) if s > tsirelson]
    if beyond:
        print(f"Tsirelson bound 2*sqrt(2) exceeded for r >= {min(beyond):g}")


if __name__ == "__main__":
    main()
