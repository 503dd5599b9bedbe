"""Benchmark of the bosonic-ds stability chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) in a fresh worker process with the BLAS
thread count pinned before numpy loads, checks every output, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are setup_s, sweep_s and
peak_rss_mib; with ``--trace 1`` they are the per-layer numbers from a run
whose traced rounds alternate with untraced ones.  Exits 1 when any case
fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5          # set-up is measured this many times, the median reported
DEADLINE_S = 170.0      # the whole command ends well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pinned_env() -> dict:
    """Environment with every BLAS pool capped at the CPUs this process may
    use, set before the worker's numpy loads."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, deadline: float, *extra: str) -> dict:
    """Run one worker to completion and return its JSON result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before the worker started")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra, "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=pinned_env(),
                          cwd=ROOT, timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit so that the running worker is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
        result = spawn(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": statistics.median(setups + [result["setup_s"]]), **metrics}
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(("_evals", "_calls")):
        return "count"
    if name.endswith("_share"):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
