import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _compare_outputs(other_src, *flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), str(other_src),
         "--workload", "table", "--seeds", "1", *flags],
        capture_output=True, text=True, timeout=300,
    )


def test_compare_outputs_passes_on_the_same_tree():
    proc = _compare_outputs(ROOT / "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "0 of 6 outputs differ\n"


def test_compare_outputs_runs_each_call_at_each_precision():
    # precision 1 and 17 are where the JSON writer rewrites most float tokens
    proc = _compare_outputs(ROOT / "src", "--precision", "1", "17")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "0 of 12 outputs differ\n"


def test_compare_outputs_names_the_json_outputs_of_a_changed_tree(tmp_path):
    shutil.copytree(ROOT / "src" / "prbox", tmp_path / "prbox",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "prbox" / "cli.py"
    text = cli.read_text()
    assert 'SCHEMA_VERSION = "2"' in text
    cli.write_text(text.replace('SCHEMA_VERSION = "2"', 'SCHEMA_VERSION = "3"'))
    proc = _compare_outputs(tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "differs: table seed 1 chsh_ladder json (files)",
        "differs: table seed 1 sweep json (files)",
        "differs: table seed 1 chsh_r4 json (files)",
        "3 of 6 outputs differ",
    ]


# per-layer metrics that a traced workload must read above zero, as its
# invocations run the orthant, sweep, AND-gate and marginal layers
TRACED_NONZERO = {
    "table": ("chsh.quadrant_probability.calls", "chsh.sweep_beta.s",
              "chsh.and_gate_success.s", "chsh.no_signaling_report.s"),
    "search": ("chsh.quadrant_probability.calls",),
}


@pytest.mark.parametrize(
    "workload,trace,failed_share",
    [("search", 1, 0.0), ("sample", 1, 0.25), ("table", 1, 0.0), ("table", 0, 0.0)],
    ids=["search", "sample", "table", "table-untraced"],
)
def test_benchmark_workload_runs_and_checks(tmp_path, workload, trace, failed_share):
    # a copy, as perfbench/run.py writes .perfbench_runs/ under its checkout;
    # the traced pass calls bell_S, tune_r and maximize_S (search), the
    # Monte Carlo layers (sample) and the chsh and sweep layers (table)
    # through its wrappers; one sample invocation in four runs short of kept
    # counts and exits 3 by design; the untraced pass, with its set-up
    # launches, is the one whose metrics the benchmark compares
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_runs")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] <= failed_share * result["attempted"], proc.stderr
    if not trace:
        for name in ("setup_s", "call_s", "peak_rss_mb"):
            assert math.isfinite(result["metrics"][name]["value"]), name
    else:
        for name in TRACED_NONZERO.get(workload, ()):
            assert result["metrics"][name]["value"] > 0.0, name
