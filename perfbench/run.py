#!/usr/bin/env python3
"""Benchmark of cavityxxz: three workloads, timed end to end and, traced, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads: point_xy, ed_oracle and cavity_pair.  Untraced, the
result carries wall_s, cpu_s, setup_s and peak_rss_mb; traced, the per-layer
metrics and the tracing overhead.  The last line of standard output is the
result as one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Every workload runs in a fresh process, which pins BLAS and OpenMP to one
thread before it imports numpy.  Set-up time is measured in SETUP_PROBES
extra processes that only import the program and build the inputs, plus the
measuring process itself, and the median is reported.  The probes run half
before and half after the measuring process, so that the median spans the
run rather than one moment of it.  Exits non-zero, printing no result, when the
program is missing, a worker fails, or the run outlasts 3 * seconds + 60 s.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point_xy", "ed_oracle", "cavity_pair")
SETUP_PROBES = 4  # half before the measuring process, half after it


def _worker(args: list, deadline: float) -> tuple:
    """Run worker.py to completion; returns (log lines, result dict)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"worker {' '.join(args)} overran the deadline")
    if proc.returncode != 0:
        sys.exit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A guard against hangs, not a cap on the run: the timed loop takes
    # --seconds, the set-up probes and the checks take the rest.
    deadline = time.monotonic() + 3 * args.seconds + 60

    if not (ROOT / "src" / "cavityxxz" / "__init__.py").is_file():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'cavityxxz'} is missing")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_PROBES // 2

    def probe_setups():
        return [_worker(common + ["--setup-only"], deadline)[1]["setup_s"] for _ in range(probes)]

    setups = probe_setups()
    log, result = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                          deadline)
    setups += [result.pop("setup_s")] + probe_setups()
    for line in log:
        print(line)
    if not args.trace:
        print("setup_s samples " + json.dumps(setups))
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
