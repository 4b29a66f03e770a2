"""Layer spans for the traced pass, recorded from outside the package.

Each traced public function of prbox is replaced by a wrapper in its home
module and in every module that imported it by name, so calls between
modules and calls inside one module are both seen.  A span's self time is
its wall time minus the wall time of its direct child spans.  The patches
exist only inside ``Tracer.patched()``; untraced passes run the package as
it is.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (home module, function) pairs wrapped in the traced pass.
TRACED = (
    ("prbox.state", "position_joint_density"),
    ("prbox.chsh", "quadrant_probability"),
    ("prbox.chsh", "postselected_probs"),
    ("prbox.chsh", "bell_S"),
    ("prbox.chsh", "and_gate_success"),
    ("prbox.chsh", "no_signaling_report"),
    ("prbox.chsh", "sweep_beta"),
    ("prbox.optimize", "maximize_S"),
    ("prbox.optimize", "tune_r"),
    ("prbox.montecarlo", "simulate_counts"),
    ("prbox.montecarlo", "estimate_probabilities"),
)
# Modules that import traced functions by name.
IMPORTERS = ("prbox.chsh", "prbox.optimize", "prbox.montecarlo", "prbox.cli")


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Span totals and layer counters, kept until the next ``reset()``."""

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.spans = 0
        self.tables: set = set()
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span called ``name``."""
        observe = _OBSERVERS.get(name)
        want_cpu = name in _CPU_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            self._stack.append(frame)
            cpu0 = time.process_time() if want_cpu else 0.0
            t0 = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dt = time.perf_counter() - t0
                if want_cpu:
                    self.counters[name + ".cpu_s"] += time.process_time() - cpu0
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_s += dt
                else:
                    self.top_level_s += dt
                self.spans += 1
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - frame.child_s
                if observe is not None:
                    observe(self, args, kwargs, result, exc)

        return wrapper

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(f.name == name for f in self._stack)

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        undo = []
        try:
            for home_name, fn_name in TRACED:
                home = importlib.import_module(home_name)
                orig = getattr(home, fn_name)
                wrapped = self.wrap(f"{home_name.split('.')[1]}.{fn_name}", orig)
                for mod_name in {home_name, *IMPORTERS}:
                    mod = importlib.import_module(mod_name)
                    if getattr(mod, fn_name, None) is orig:
                        setattr(mod, fn_name, wrapped)
                        undo.append((mod, fn_name, orig))
            yield self
        finally:
            for mod, fn_name, orig in reversed(undo):
                setattr(mod, fn_name, orig)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _observe_table(tr, args, kwargs, result, exc):
    state = _arg(args, kwargs, 0, "state")
    key = (state, _arg(args, kwargs, 1, "alpha"), _arg(args, kwargs, 2, "beta"),
           _arg(args, kwargs, 3, "r"))
    tr.tables.add(key)


def _observe_bell_S(tr, args, kwargs, result, exc):
    if tr.inside("optimize.tune_r"):
        tr.counters["tune_r.bell_S_calls"] += 1


def _observe_maximize(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counters["maximize_S.evaluations"] += result.iterations
        tr.counters["maximize_S.converged"] += int(result.converged)


def _observe_simulate(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counters["mc.drawn"] += result.n_total
        tr.counters["mc.kept"] += result.n_kept


def _observe_estimate(tr, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "InsufficientCountsError":
        tr.counters["mc.insufficient_counts"] += 1


_CPU_SPANS = {"montecarlo.simulate_counts"}
_OBSERVERS = {
    "chsh.postselected_probs": _observe_table,
    "chsh.bell_S": _observe_bell_S,
    "optimize.maximize_S": _observe_maximize,
    "montecarlo.simulate_counts": _observe_simulate,
    "montecarlo.estimate_probabilities": _observe_estimate,
}


def span_cost_s(n: int = 20_000) -> float:
    """Wall time one span adds, measured on a wrapped no-op."""

    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        best = min(best, (time.perf_counter() - t0 - bare) / n)
    return max(best, 0.0)


def layer_metrics(tr: Tracer, cli_self_s: float, span_cost: float) -> dict[str, float]:
    """Per-layer metrics of everything ``tr`` recorded."""
    calls, total, own, c = tr.calls, tr.total_s, tr.self_s, tr.counters
    pp_calls = calls["chsh.postselected_probs"]
    mc_s = total["montecarlo.simulate_counts"]
    drawn = c["mc.drawn"]
    return {
        "state.position_joint_density.calls": calls["state.position_joint_density"],
        "state.position_joint_density.s": total["state.position_joint_density"],
        "chsh.postselected_probs.calls": pp_calls,
        "chsh.postselected_probs.self_s": own["chsh.postselected_probs"],
        "chsh.quadrant_probability.calls": calls["chsh.quadrant_probability"],
        "chsh.quadrant_probability.s": total["chsh.quadrant_probability"],
        "chsh.table_distinct_ratio": len(tr.tables) / pp_calls if pp_calls else 0.0,
        "chsh.no_signaling_report.s": total["chsh.no_signaling_report"],
        "chsh.and_gate_success.s": total["chsh.and_gate_success"],
        "chsh.sweep_beta.s": total["chsh.sweep_beta"],
        "chsh.bell_S.calls": calls["chsh.bell_S"],
        "chsh.bell_S.s": total["chsh.bell_S"],
        "optimize.maximize_S.s": total["optimize.maximize_S"],
        "optimize.maximize_S.evaluations": c["maximize_S.evaluations"],
        "optimize.maximize_S.converged": c["maximize_S.converged"],
        "optimize.tune_r.s": total["optimize.tune_r"],
        "optimize.tune_r.bell_S_calls": c["tune_r.bell_S_calls"],
        "montecarlo.simulate_counts.s": mc_s,
        "montecarlo.samples_per_s": drawn / mc_s if mc_s else 0.0,
        "montecarlo.kept_per_sample": c["mc.kept"] / drawn if drawn else 0.0,
        "montecarlo.cpu_per_wall": c["montecarlo.simulate_counts.cpu_s"] / mc_s if mc_s else 0.0,
        "montecarlo.insufficient_counts": c["mc.insufficient_counts"],
        "cli.self_s": cli_self_s,
        "trace.overhead_s": tr.spans * span_cost,
    }
