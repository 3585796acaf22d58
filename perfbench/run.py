"""kmalg benchmark.

    python3 perfbench/run.py --workload {catalog,jacobi,gram} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Each measurement happens in a
fresh child interpreter (perfbench/child.py), started one at a time; see
README.md for the workloads, the metrics and the no-reuse rule.

Every time is read from the children's work clock (child.WorkClock):
seconds of work at a fixed reference speed, so that the host's changes
of speed cancel out.

--trace 0 prints the end-to-end metrics: OP_CHILDREN[workload] children
each set up and run the same op stream, and more children only set up
until there are SETUP_SAMPLES cold set-ups.  setup_s is the median over
the set-ups; each op's time is its median over the children, and run_s
is the median over timed streams of the sum of their ops' times.
--trace 1 prints the per-layer metrics: an untraced child and then a
traced child each run one timed stream (SECONDS 0); their time ratio is
trace.overhead_ratio.

Before and after the run the calibration loop is timed in wall time and
printed on a line of its own, beside the run, with each child's raw wall
time and calibration samples; nothing is gated on them.  The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from child import calibration_loop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog", "jacobi", "gram")
SETUP_SAMPLES = 8
# Fresh children that each run the same op stream, one after the other,
# so that every op has that many samples to take the median of.  No op
# repeats inside a child.  jacobi's one child fills --seconds with passes
# of distinct triples; catalog and gram are single fixed commands.
OP_CHILDREN = {"catalog": 2, "jacobi": 1, "gram": 3}
DEADLINE_S = 170  # a run must end within 180 s


class RunError(Exception):
    pass


def calibrate():
    """Wall seconds for a fixed Fraction loop with no kmalg in it."""
    t0 = time.perf_counter()
    calibration_loop(20000)
    return time.perf_counter() - t0


def child(deadline, mode, workload, seed, seconds):
    """Run one child to completion and return its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, str(seed), str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise RunError(f"{mode} child ran past the deadline") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} child exited {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RunError(f"{mode} child printed no result") from exc


def p95(values):
    """Nearest-rank 95th percentile."""
    return sorted(values)[math.ceil(len(values) * 0.95) - 1]


def end_to_end(deadline, workload, seed, seconds, record):
    n = OP_CHILDREN[workload]
    runs = [child(deadline, "run", workload, seed, seconds / n) for _ in range(n)]
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child(deadline, "setup", workload, seed, 0)["setup_s"])
    # op j of timed stream i: its median over the children that ran it
    streams = [[statistics.median(times) for times in zip(*ops)]
               for ops in zip(*(r["op_ms"] for r in runs))]
    op_ms = [t for ops in streams for t in ops]
    failed = sum(r["failed"] for r in runs)
    attempted = sum(len(ops) for r in runs for ops in r["op_ms"])
    record.update(setup_samples_s=setups, stream_s=[r["stream_s"] for r in runs],
                  clocks=[r["clock"] for r in runs],
                  errors=[e for r in runs for e in r["errors"]])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(sum(ops) / 1000 for ops in streams), "s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.p95": (p95(op_ms), "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    return attempted, failed, metrics, True


def per_layer(deadline, workload, seed, seconds, record):
    untraced = child(deadline, "run", workload, seed, 0)
    traced = child(deadline, "traced", workload, seed, 0)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    untraced_s, traced_s = untraced["stream_s"][0], traced["stream_s"][0]
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    record.update(untraced_run_s=untraced_s, traced_run_s=traced_s,
                  clocks=[untraced["clock"], traced["clock"]],
                  leftover_wrappers=traced["leftover_wrappers"],
                  errors=untraced["errors"] + traced["errors"])
    attempted = len(untraced["op_ms"][0]) + len(traced["op_ms"][0])
    failed = untraced["failed"] + traced["failed"]
    return attempted, failed, metrics, not traced["leftover_wrappers"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + DEADLINE_S
    src = os.path.join(ROOT, "src", "kmalg")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"error: no kmalg sources under {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)  # every child then imports cached bytecode

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "calibration_before_s": calibrate()}
    measure = per_layer if args.trace else end_to_end
    try:
        attempted, failed, metrics, healthy = measure(
            deadline, args.workload, args.seed, args.seconds, record)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["calibration_after_s"] = calibrate()
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0 and healthy,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
