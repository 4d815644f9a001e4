"""One workload in a fresh process: set-up, a closed timed loop, then the checks.

Started by run.py; not meant to be run by hand.  BLAS and OpenMP are pinned to
one thread before numpy is imported.  The last line of standard output is one
JSON object for run.py; the lines before it are log lines.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"


def _import_program():
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import cavityxxz

    if Path(cavityxxz.__file__).resolve().parent != src / "cavityxxz":
        raise SystemExit(f"cavityxxz imported from {cavityxxz.__file__}, not from {src}")


def _timed_round(wl, inputs, tracer=None) -> dict:
    """One operation, traced when ``tracer`` is given.

    Returns its wall and CPU seconds, its outputs or the exception it raised,
    and, traced, the layer metrics.
    """
    if tracer is not None:
        tracer.reset()
        tracer.install()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result = wl.run(inputs)
    except Exception as exc:  # counted as a failed operation
        result = exc
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    if not isinstance(result, Exception):
        try:
            result = wl.outputs(result)
        except Exception as exc:  # a result without the expected fields
            result = exc
    return {"wall": wall, "cpu": cpu, "traced": tracer is not None, "out": result,
            "layers": tracer.metrics() if tracer is not None else None}


def _loop(wl, inputs, seconds, tracer=None) -> list:
    """Closed loop: one operation at a time until the next would overrun ``seconds``.

    Untraced, every round is timed.  Traced, rounds go in pairs, untraced then
    traced, so the difference of their wall times is the tracing overhead.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(_timed_round(wl, inputs))
        if tracer is not None:
            rounds.append(_timed_round(wl, inputs, tracer))
        elapsed = time.perf_counter() - start
        per_round = elapsed / sum(not r["traced"] for r in rounds)
        if elapsed + per_round > seconds:
            return rounds


def _timing_rounds(rounds, traced: bool) -> list:
    """The rounds, traced or not, whose times go into the medians: those that
    passed, or all of them when none did (the run is then incorrect)."""
    kind = [r for r in rounds if r["traced"] == traced]
    return [r for r in kind if r["ok"]] or kind


def _layer_metrics(rounds):
    """Median over traced rounds of every layer metric, plus the tracing overhead."""
    plain = [r["wall"] for r in _timing_rounds(rounds, False)]
    traced = _timing_rounds(rounds, True)
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        values = [r["layers"][name][0] for r in traced if name in r["layers"]]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    wall_traced = statistics.median(r["wall"] for r in traced)
    metrics["trace.wall_s"] = {"value": wall_traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall_traced - statistics.median(plain), "unit": "s"}
    return metrics


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree; read from files, no git call."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_program()
    import numpy
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    rounds = _loop(wl, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans()))

    # Checks, outside the timed interval: the reference is built once.  An
    # operation that raises or fails a check is failed and makes the run
    # incorrect; its time is left out of the medians.
    import scipy

    ref = wl.reference(inputs)
    for r in rounds:
        out = r["out"]
        if isinstance(out, Exception):
            r["ok"] = False
            print(f"operation raised {type(out).__name__}: {out}", file=sys.stderr)
            continue
        try:
            problems = wl.check(out, ref)
        except Exception as exc:  # an output the checks cannot read
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        r["ok"] = not problems
        if problems:
            print("check failed: " + "; ".join(problems), file=sys.stderr)
    failed = sum(not r["ok"] for r in rounds)
    good = [r for r in rounds if r["ok"]]
    env = {"threads": {v: os.environ[v] for v in THREAD_VARS}, "host": os.uname().nodename,
           "git_sha": _git_sha(), "python": sys.version.split()[0],
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    print("env " + json.dumps(env))
    print("round wall_s " + json.dumps([r["wall"] for r in rounds if not r["traced"]]))
    if good:
        print("physics " + json.dumps(wl.physics(good[0]["out"]), default=float))
    if tracer is not None:
        metrics = _layer_metrics(rounds)
    else:
        timed = _timing_rounds(rounds, False)
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in timed), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in timed), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": len(rounds), "failed": failed,
                      "setup_s": setup_s, "metrics": metrics}))


if __name__ == "__main__":
    main()
