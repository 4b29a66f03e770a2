"""Host speed, sampled while the benchmark times prbox-sim.

The host this benchmark was built on runs in phases: for seconds to minutes
at a time every kind of work takes up to twice as long, and CPU time grows
with wall time, so no choice of clock hides it.  A window of under a minute
can fall wholly in a slow phase, so no statistic over one run's samples
holds still.  Instead a fixed probe runs every INTERVAL_S while calls are
timed, and each call's wall time is scaled by how long the probe took
around and during it.  The probe does the kinds of work prbox-sim does
(interpreted arithmetic, 2x2 numpy arrays, scipy.special) but never touches
prbox, so a change to prbox moves the scaled times as it moves the wall
times.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy.special import ndtr

# Rounds of one probe, and its thread CPU time at the reference speed;
# scaled times are the times the host would take at that speed.
PROBE_N = 300
PROBE_REF_S = 1e-3
INTERVAL_S = 0.05
# Probes this close to a call count towards its speed, widened until there
# are at least MIN_PROBES of them.
MARGIN_S = 0.25
MIN_PROBES = 5


def probe(n: int = PROBE_N) -> float:
    """Thread CPU time of n rounds of small-array and special-function work."""
    c0 = time.thread_time()
    acc = 0.0
    for i in range(n):
        x = np.array([[1.0 + i * 1e-6, 0.2], [0.2, 1.0]])
        acc += float((x @ x)[0, 0]) + float(ndtr(0.1 * (i % 7))) + math.exp(-0.5 * (i % 11))
    return time.thread_time() - c0


class Sampler:
    """Runs `probe` on a SIGALRM timer for the life of a `with` block.

    The probe runs on the main thread between bytecodes, so it samples the
    speed the timed code sees; its own wall time is taken out of each call.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.cpu: list[float] = []
        self.wall: list[float] = []

    def _tick(self, signum, frame) -> None:
        w0 = time.perf_counter()
        self.cpu.append(probe())
        self.at.append(w0)
        self.wall.append(time.perf_counter() - w0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] less the probes inside it, at reference speed."""
        busy = sum(w for at, w in zip(self.at, self.wall) if t0 <= at < t1)
        margin = MARGIN_S
        near = []
        while len(near) < MIN_PROBES and margin < 1e3:
            near = [c for at, c in zip(self.at, self.cpu)
                    if t0 - margin <= at < t1 + margin]
            margin *= 2
        return (t1 - t0 - busy) * PROBE_REF_S / statistics.mean(near)
