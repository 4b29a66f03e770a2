"""The benchmark's workloads: prbox-sim invocations, their configs and the
check each output must pass.

Reference state and settings are the paper's: delta = 0.75, gamma = 1.25 and
(alpha, alpha', beta, beta') = (pi, pi/2, 5pi/4, 3pi/4).  The seed moves the
interior rungs of the `table` r ladder and sets the `sample` Monte Carlo
seed; the other inputs are fixed by the results they reproduce.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import check

REF_STATE = (0.75, 1.25)
REF_ANGLES = (math.pi, math.pi / 2, 5 * math.pi / 4, 3 * math.pi / 4)
STRONG_STATE = (0.5, 0.6)
# S = 3.42, the paper's headline violation, is fidelity (4 + S) / 8.
PAPER_FIDELITY = 0.9275
SWEEP_ALPHAS = (math.pi, math.pi / 2)
SWEEP_R = (0.75, 1.0, 2.0)
SWEEP_STEPS = 97
LADDER_RUNGS = 31
LADDER_TOP = 3.0
MC_N = 1_000_000
MC_R = (0.75, 1.0, 1.5, 2.0)
MC_WORKERS = (1, 2)

# Messages of the two faults the workloads keep: the quadrature cannot
# resolve the kept mass at r = 4, and plain sampling keeps about 13 events
# of 10^6 for (alpha', beta) at r = 2.
EMPTY_POSTSELECTION = "kept fraction"
INSUFFICIENT_COUNTS = "kept events"


@dataclass(frozen=True)
class Invocation:
    """One prbox-sim call: `prbox-sim <command> --config <file> --format json
    --out <file>`.

    ``fault`` names the message of a known fault that makes the call fail
    every time.  Such a call is counted as failed and never timed; if it
    succeeds, its output must still pass ``check``.
    """

    name: str
    command: str
    config: dict
    check: Callable[[dict], None]
    fault: str | None = None


@dataclass(frozen=True)
class Workload:
    invocations: list[Invocation]
    # Pairs of invocation names whose outputs must be byte-identical.
    twins: list[tuple[str, str]] = field(default_factory=list)


def config_text(values: dict) -> str:
    """key = value lines; floats are written exactly."""
    lines = []
    for key, v in values.items():
        if isinstance(v, tuple):
            v = ", ".join(repr(float(x)) for x in v)
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def _state(delta_gamma) -> dict:
    return {"delta": delta_gamma[0], "gamma": delta_gamma[1]}


def r_ladder(seed: int) -> tuple[float, ...]:
    """0 to LADDER_TOP in LADDER_RUNGS rungs; interior rungs jittered by seed."""
    rng = random.Random(seed)
    step = LADDER_TOP / (LADDER_RUNGS - 1)
    inner = [step * (i + rng.uniform(-0.3, 0.3)) for i in range(1, LADDER_RUNGS - 1)]
    return (0.0, *inner, LADDER_TOP)


def table(seed: int) -> Workload:
    ladder = r_ladder(seed)
    grid = [i * (2 * math.pi) / (SWEEP_STEPS - 1) for i in range(SWEEP_STEPS)]
    return Workload([
        Invocation(
            "chsh_ladder", "chsh", {**_state(REF_STATE), "r": ladder},
            lambda doc: check.check_chsh(doc, *REF_STATE, REF_ANGLES, ladder),
        ),
        Invocation(
            "sweep", "sweep",
            {**_state(REF_STATE), "r": SWEEP_R, "sweep_alphas": SWEEP_ALPHAS,
             "sweep_steps": SWEEP_STEPS},
            lambda doc: check.check_sweep(doc, *REF_STATE, SWEEP_ALPHAS, SWEEP_R, grid),
        ),
        Invocation(
            "chsh_r4", "chsh", {**_state(REF_STATE), "r": (4.0,)},
            lambda doc: check.check_chsh(doc, *REF_STATE, REF_ANGLES, (4.0,)),
            fault=EMPTY_POSTSELECTION,
        ),
    ])


def search(seed: int) -> Workload:
    return Workload([
        Invocation(
            "optimize_paper", "optimize",
            {**_state(REF_STATE), "r": (1.0,), "target_fidelity": PAPER_FIDELITY},
            lambda doc: check.check_optimize(
                doc, *REF_STATE, 1.0, REF_ANGLES, PAPER_FIDELITY),
        ),
        Invocation(
            "optimize_strong", "optimize", {**_state(STRONG_STATE), "r": (1.0,)},
            lambda doc: check.check_optimize(doc, *STRONG_STATE, 1.0),
        ),
    ])


def sample(seed: int) -> Workload:
    invocations = []
    for r in MC_R:
        for workers in MC_WORKERS:
            invocations.append(Invocation(
                f"mc_r{r}_w{workers}", "mc",
                {**_state(REF_STATE), "r": (r,), "mc_n": MC_N, "mc_seed": seed,
                 "mc_workers": workers},
                lambda doc, r=r: check.check_mc(doc, *REF_STATE, REF_ANGLES, (r,), MC_N),
                fault=INSUFFICIENT_COUNTS if r == 2.0 else None,
            ))
    twins = [(f"mc_r{r}_w1", f"mc_r{r}_w2") for r in MC_R]
    return Workload(invocations, twins)


WORKLOADS = {"table": table, "search": search, "sample": sample}
