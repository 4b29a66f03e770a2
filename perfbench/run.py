"""End-to-end and per-layer benchmark of prbox-sim.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it reports setup_s, call_s and peak_rss_mb; with
``--trace 1`` it reports the per-layer metrics of traced rounds.  The last
line of stdout is the result; the line before it is the run's manifest.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import speed
from arith import ARITH_PROBE_REF_S
from spans import Tracer, layer_metrics, span_cost_s
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# Fresh interpreters launched per run to time set-up and imports.
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT_S = 60

# Set-up is timed from the parent's launch to the child's "ready"; the
# child probes the host's speed before its imports and after, and the
# first probe's wall time is taken out.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
from arith import arith_probe
w0 = time.monotonic()
before = arith_probe()
spent = time.monotonic() - w0
import prbox.cli
from prbox.config import load_config
for path in sys.argv[3:]:
    load_config(path)
ready = time.monotonic()
print(ready, spent, before, arith_probe())
"""


class Invoker:
    """Runs prbox-sim invocations in-process and checks their outputs."""

    def __init__(self, workload, run_dir: Path) -> None:
        from prbox import cli

        self.main = cli.main
        self.workload = workload
        self.errors: list[str] = []
        self.argv = {}
        self.reference: dict[str, bytes | None] = {}
        self.exit_codes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        for inv in workload.invocations:
            cfg = run_dir / f"{inv.name}.cfg"
            cfg.write_text(config_text(inv.config), encoding="utf-8")
            out = run_dir / f"{inv.name}.json"
            self.argv[inv.name] = [inv.command, "--config", str(cfg), "--format",
                                   "json", "--out", str(out)]

    def config_paths(self) -> list[str]:
        return [argv[2] for argv in self.argv.values()]

    def call(self, inv) -> tuple[int, str, float, float]:
        """(exit code, stderr, start, end) of one invocation."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.main(self.argv[inv.name])
            t1 = time.perf_counter()
        self.attempted += 1
        self.failed += code != 0
        return code, err.getvalue(), t0, t1

    def _output(self, inv) -> bytes:
        return Path(self.argv[inv.name][-1]).read_bytes()

    def first(self, inv) -> None:
        """Run, check against the oracle and keep the output."""
        code, err, _, _ = self.call(inv)
        self.exit_codes[inv.name] = code
        if code != 0:
            self.reference[inv.name] = None
            if inv.fault is None or inv.fault not in err:
                self.errors.append(f"{inv.name}: exit {code}: {err.strip()}")
            return
        out = self._output(inv)
        self.reference[inv.name] = out
        try:
            inv.check(json.loads(out))
        except (check.CheckError, KeyError, TypeError, ValueError) as exc:
            self.errors.append(f"{inv.name}: {type(exc).__name__}: {exc}")

    def again(self, inv) -> tuple[bool, float, float]:
        """Run once more; the output must match the first run byte for byte.
        Returns (failed, start, end)."""
        code, err, t0, t1 = self.call(inv)
        if code != self.exit_codes[inv.name]:
            self.errors.append(f"{inv.name}: exit {code}, first run {self.exit_codes[inv.name]}")
        elif code == 0 and self._output(inv) != self.reference[inv.name]:
            self.errors.append(f"{inv.name}: output differs from its first run")
        return code != 0, t0, t1

    def check_twins(self) -> None:
        for a, b in self.workload.twins:
            ra, rb = self.reference[a], self.reference[b]
            if ra is not None and rb is not None and ra != rb:
                self.errors.append(f"{a} and {b}: outputs differ")


def _setup_once(args: list[str]) -> tuple[float, float]:
    """(wall, scaled) seconds of one set-up in a fresh interpreter."""
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    ready, spent, before, after = map(float, proc.stdout.split())
    wall = ready - t0 - spent
    return wall, wall * ARITH_PROBE_REF_S / (0.5 * (before + after))


def setup_seconds(config_paths: list[str]) -> tuple[list[float], list[float]]:
    """Wall and scaled times from a fresh interpreter to prbox.cli imported
    and every config of the workload parsed, SETUP_LAUNCHES times."""
    args = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), *config_paths]
    runs = [_setup_once(args) for _ in range(SETUP_LAUNCHES)]
    return [w for w, _ in runs], [s for _, s in runs]


def import_seconds() -> dict[str, float]:
    """Median cumulative import times of prbox and scipy.integrate from
    `python -X importtime`."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import prbox"
    samples: dict[str, list[float]] = {"prbox": [], "scipy.integrate": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(float(parts[1]) * 1e-6)
    return {
        "setup.import_prbox_s": statistics.median(samples["prbox"]),
        "setup.import_scipy_integrate_s": statistics.median(samples["scipy.integrate"]),
    }


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, invoker) -> dict:
    """Versions, host, seed and the exit code of every invocation."""
    import mpmath
    import numpy
    import prbox
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "versions": {"prbox": prbox.__version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__,
                     "python": platform.python_version()},
        "nproc": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "invocations": [
            {"name": inv.name, "argv": invoker.argv[inv.name],
             "exit_code": invoker.exit_codes[inv.name]}
            for inv in invoker.workload.invocations
        ],
        "errors": invoker.errors,
    }


def untraced(invoker, seconds: float) -> tuple[dict, dict]:
    """Whole rounds until `seconds` have passed.

    Returns the end-to-end metrics other than set-up, and per invocation
    that is meant to succeed and did, its wall and scaled times.
    """
    spans: dict[str, list[tuple[float, float]]] = {}
    rounds = 0
    with speed.Sampler() as sampler:
        deadline = time.perf_counter() + seconds
        while rounds == 0 or time.perf_counter() < deadline:
            for inv in invoker.workload.invocations:
                failed, t0, t1 = invoker.again(inv)
                if not failed and inv.fault is None:
                    spans.setdefault(inv.name, []).append((t0, t1))
            rounds += 1
    if not spans:
        raise RuntimeError("no invocation succeeded: " + "; ".join(invoker.errors))
    walls = {k: [t1 - t0 for t0, t1 in v] for k, v in spans.items()}
    scaled = {k: [sampler.scaled(t0, t1) for t0, t1 in v] for k, v in spans.items()}
    metrics = {
        "call_s": statistics.mean(statistics.median(v) for v in scaled.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"call_wall_s": statistics.mean(statistics.median(v) for v in walls.values()),
               "wall_s": walls, "scaled_s": scaled}
    return metrics, samples


def traced(invoker, seconds: float) -> tuple[dict, dict]:
    """Whole traced rounds until `seconds` have passed.

    Returns the median over rounds of each per-layer metric, and the spans
    of the first traced round.
    """
    tr = Tracer()
    cost = span_cost_s()
    per_round: list[dict[str, float]] = []
    first: dict = {}
    deadline = time.perf_counter() + seconds
    with tr.patched():
        while not per_round or time.perf_counter() < deadline:
            tr.reset()
            cli_self = 0.0
            for inv in invoker.workload.invocations:
                top0 = tr.top_level_s
                _, t0, t1 = invoker.again(inv)
                top = tr.top_level_s - top0
                cli_self += (t1 - t0) - top
                if not per_round:
                    first[inv.name] = {"wall_s": t1 - t0, "top_level_s": top,
                                       "cli.self_s": (t1 - t0) - top}
            if not per_round:
                first["layers"] = {"calls": dict(tr.calls), "total_s": dict(tr.total_s),
                                   "self_s": dict(tr.self_s), "spans": tr.spans}
            per_round.append(layer_metrics(tr, cli_self, cost))
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    return metrics, {"traced_rounds": len(per_round), "first_round": first}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import prbox
    except ImportError as exc:
        print(f"perfbench: cannot import prbox from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(prbox.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: prbox comes from {prbox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    workload = WORKLOADS[args.workload](args.seed)
    run_dir = RUNS / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        invoker = Invoker(workload, run_dir)
        if args.trace:
            metrics = import_seconds()
            extra: dict = {}
        else:
            walls, scaled = setup_seconds(invoker.config_paths())
            metrics = {"setup_s": statistics.median(scaled)}
            extra = {"setup_wall_s": walls, "setup_scaled_s": scaled}
        for inv in workload.invocations:
            invoker.first(inv)
        invoker.check_twins()
        measured, details = (traced if args.trace else untraced)(invoker, args.seconds)
        metrics.update(measured)
        info = {**manifest(args, invoker), **extra, **details}
        RUNS.joinpath(f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"manifest": info, "metrics": metrics}, indent=2))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for err in invoker.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"manifest": info}))
    print(json.dumps({
        "correct": not invoker.errors,
        "attempted": invoker.attempted,
        "failed": invoker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
