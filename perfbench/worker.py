"""One workload process: set up, then run whole passes of the operation list.

Started by run.py, which passes --t0. Modes:
  setup    set up (imports, inputs, one untimed warm-up operation), report
           the set-up time and exit;
  measure  set up, then repeat passes of the list, untraced, for
           --seconds to the nearest whole pass, timing each operation and
           each pass;
  trace    set up, run one untraced pass, then one traced pass, and report
           the per-layer split of the traced pass.
The last line of standard output is one JSON object.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import kidecomp  # noqa: F401  (importing it is part of set-up)
import tracing
from checks import CheckFailed
from workloads import OUT, WORKLOADS, cli_env

IMPORT_PROBES = 3


def run_pass(workload, tally):
    """One pass of the list; returns its wall time and adds to `tally`.

    An operation that raises counts as failed; one whose output fails its
    check counts as failed and as a wrong output.
    """
    start = time.perf_counter()
    for op in workload.ops:
        t = time.perf_counter()
        try:
            out = op.call()
        except Exception as err:
            tally["latencies"].append(time.perf_counter() - t)
            tally["raised"].append(f"{op.name}: {type(err).__name__}: {err}")
            continue
        tally["latencies"].append(time.perf_counter() - t)
        try:
            op.check(out)
        except CheckFailed as err:
            tally["wrong"].append(f"{op.name}: {err}")
    tally["attempted"] += len(workload.ops)
    return time.perf_counter() - start


def new_tally():
    return {"attempted": 0, "latencies": [], "raised": [], "wrong": []}


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def import_seconds():
    """Median time of `import kidecomp` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import kidecomp; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() just before the process was started")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.mode)
    try:
        workload.ops[0].call()  # the untimed warm-up operation
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if args.mode == "measure":
            result.update(measure(workload, args.seconds))
        elif args.mode == "trace":
            result.update(traced(workload, args.workload, args.seed))
    finally:
        workload.close()
    print(json.dumps(result))


def measure(workload, seconds):
    """Whole passes until `seconds` have passed, to the nearest whole pass."""
    tally, passes = new_tally(), []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.mean(passes) / 2 < seconds:
        passes.append(run_pass(workload, tally))
    return dict(tally, passes=passes, peak_rss_mb=peak_rss_mb(workload.children_rss))


def traced(workload, name, seed):
    tally = new_tally()
    plain_wall = run_pass(workload, tally)
    tracer = tracing.Tracer()
    with tracer:
        traced_wall = run_pass(workload, tally)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.import_s"] = import_seconds()
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    OUT.mkdir(exist_ok=True)
    t_first = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[n, s - t_first, e - t_first, p] for n, s, e, p in tracer.spans]
    (OUT / f"trace-{name}-seed{seed}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "fields": ["name", "start_s", "end_s", "parent"], "spans": spans})
    )
    return dict(tally, metrics=metrics, untraced_pass_s=plain_wall, traced_pass_s=traced_wall)


if __name__ == "__main__":
    sys.exit(main())
