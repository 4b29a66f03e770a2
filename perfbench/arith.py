"""Host speed probe for set-up timing, standard library only.

A fresh interpreter runs it before importing anything else, so that its
imports are what the set-up time measures; see speed.py for why times are
scaled.
"""

import math
import time

# Rounds of the probe, and its thread CPU time at the reference speed.
ARITH_PROBE_N = 50_000
ARITH_PROBE_REF_S = 1e-2


def arith_probe(n: int = ARITH_PROBE_N) -> float:
    """Thread CPU time of n rounds of float arithmetic."""
    c0 = time.thread_time()
    acc = 0.0
    for i in range(n):
        acc += math.exp(-0.5 * (i % 11)) * (i % 7) + math.sqrt(i + 1.0)
    return time.thread_time() - c0
