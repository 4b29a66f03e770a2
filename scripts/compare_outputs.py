#!/usr/bin/env python3
"""Check that another prbox source tree prints the same bytes as this one.

Usage:
    python3 scripts/compare_outputs.py OTHER_SRC [--workload W] [--seeds 1 2]
                                       [--precision P [P ...]]

OTHER_SRC is a directory that holds a ``prbox`` package, such as the ``src``
of another checkout.  Every invocation of ``perfbench/workloads.py`` (of all
workloads, or of W) at each seed is run in JSON and in CSV through
``prbox.cli.main``, once with this checkout's ``src`` and once with
OTHER_SRC.  Each tree runs in its own subprocess, and each call in an empty
directory with the relative paths ``--config run.cfg --out out.<format>``,
so the ``reproduce`` field of ``optimize`` is the same in both.  Every call
whose exit code, stderr or output bytes differ is listed, and the script
exits 1 if any do.  With ``--precision``, each call is run once per P, with
``precision = P`` appended to its config; by default the configs set no
precision.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, config_text  # noqa: E402


def run_calls(workloads: list[str], seeds: list[int], precisions: list) -> dict:
    """Run each call in a new subdirectory of the working directory with the
    prbox on sys.path: its exit code, stdout, stderr and output file digests."""
    from prbox.cli import main

    results = {}
    for name in workloads:
        for seed in seeds:
            for inv in WORKLOADS[name](seed).invocations:
                for precision, fmt in itertools.product(precisions, ("json", "csv")):
                    call = f"{name} seed {seed} {inv.name} {fmt}"
                    text = config_text(inv.config)
                    if precision is not None:
                        call += f" precision {precision}"
                        text += f"precision = {precision}\n"
                    work = Path(str(len(results)))
                    work.mkdir()
                    os.chdir(work)
                    Path("run.cfg").write_text(text)
                    out, err = io.StringIO(), io.StringIO()
                    argv = [inv.command, "--config", "run.cfg", "--format", fmt,
                            "--out", f"out.{fmt}"]
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = main(argv)
                        except SystemExit as exc:
                            code = exc.code
                    files = {
                        str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(Path().rglob("*"))
                        if p.is_file() and p.name != "run.cfg"
                    }
                    os.chdir("..")
                    results[call] = {
                        "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "files": files,
                    }
    return results


def results_of(src: Path, workloads: list[str], seeds: list[int], precisions: list) -> dict:
    """run_calls on the prbox under src, in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    argv = [sys.executable, str(Path(__file__).resolve()), "--run-here",
            "--workload", *workloads, "--seeds", *map(str, seeds)]
    if precisions != [None]:
        argv += ["--precision", *map(str, precisions)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"running the calls on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("other_src", nargs="?", type=Path, help="the other tree's src directory")
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--precision", type=int, nargs="+", default=[None],
                    help="append precision = P to every config, once per P")
    ap.add_argument("--run-here", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.run_here:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            print(json.dumps(run_calls(args.workload, args.seeds, args.precision)))
        return 0
    if args.other_src is None:
        ap.error("OTHER_SRC is required")
    ours = results_of(ROOT / "src", args.workload, args.seeds, args.precision)
    theirs = results_of(args.other_src.resolve(), args.workload, args.seeds, args.precision)
    differing = [call for call in ours if ours[call] != theirs.get(call)]
    for call in differing:
        fields = [k for k in ours[call] if ours[call][k] != theirs.get(call, {}).get(k)]
        print(f"differs: {call} ({', '.join(fields)})")
    print(f"{len(differing)} of {len(ours)} outputs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
