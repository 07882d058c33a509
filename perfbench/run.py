"""Benchmark command for kidecomp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nothing is installed. Each workload runs in
its own process (perfbench/worker.py) with the checkout's `src` first on
PYTHONPATH, one client in a closed loop.

--trace 0 starts the workload process SETUPS times. Every start sets up
(interpreter, `import kidecomp`, seeded inputs, one untimed warm-up
operation) and the median of their set-up times is `setup_s`. The last start
then repeats whole passes of the workload's fixed operation list, untraced,
until S seconds have passed, and gives `run_s` (median pass wall time,
checks included), `op_p50_ms` (median operation latency) and `peak_rss_mb`.

--trace 1 starts one workload process that runs one untraced and one traced
pass and prints the per-layer split of the traced pass, the time of
`import kidecomp` in a fresh interpreter and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a copy goes to
.perfbench-out/. Exit code 2 means the checkout has no kidecomp sources.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OUT, ROOT, SRC, WORKLOADS, cli_env

HERE = Path(__file__).resolve().parent
SETUPS = 3
TIME_LIMIT_S = 170  # the whole run, all workload processes included


def start_worker(args, mode, deadline):
    """Run one workload process to its end and return its JSON report.

    The process gets its own process group, so that on a timeout it is
    killed together with any `kidecomp` child it started.
    """
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--t0", repr(t0),
    ]  # fmt: skip
    proc = subprocess.Popen(
        cmd, env=cli_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} worker ({mode}) did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: {args.workload} worker ({mode}) exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def untraced(args, deadline):
    setups = [start_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUPS - 1)]
    res = start_worker(args, "measure", deadline)
    setups.append(res["setup_s"])
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(res["passes"]), "unit": "s"},
        "op_p50_ms": {"value": 1000.0 * statistics.median(res["latencies"]), "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    info = {"passes": len(res["passes"]), "operations": len(res["latencies"]), "setups_s": setups}
    return res, metrics, info


def traced(args, deadline):
    res = start_worker(args, "trace", deadline)
    metrics = {}
    for name, value in res["metrics"].items():
        unit = "count" if name.endswith(".calls") else "%" if name.endswith("_pct") else "s"
        metrics[name] = {"value": value, "unit": unit}
    info = {"untraced_pass_s": res["untraced_pass_s"], "traced_pass_s": res["traced_pass_s"]}
    return res, metrics, info


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "kidecomp" / "__init__.py").is_file():
        print(f"perfbench: no kidecomp sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    res, metrics, info = (traced if args.trace else untraced)(args, deadline)
    for kind in ("raised", "wrong"):
        for line in res[kind]:
            print(f"perfbench: {kind}: {line}", file=sys.stderr)
    result = {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": len(res["raised"]) + len(res["wrong"]),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, **info)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
