"""Run one workload k times, each in a fresh process with its own seed, and
print each metric's median and quartiles.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 0]

Each run measures for BENCHMARK.json's run_seconds with tracing off.  The
spread column is (Q3 - Q1) / median, as statistics.quantiles(n=4) gives the
quartiles, and is compared with a third of the metric's bound in
BENCHMARK.json; the bounds there were set from this output.  The last line
is the same table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, failed, attempted = {}, [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"seed {seed}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted.append(result["attempted"])
        failed.append(result["failed"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: exit {proc.returncode} " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    table = {name: summarize(vals) for name, vals in values.items()}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    steady = True
    for name, row in table.items():
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            ok = row["spread"] < bound / 3
            steady &= ok
            mark = "ok" if ok else "WIDE"
        print(f"{name:40s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
              f"{row['spread']:8.4f} {'' if bound is None else f'{bound / 3:8.4f}'} {mark}")
    print(f"failed/attempted per run: {sorted(set(zip(failed, attempted)))}")
    print(json.dumps({"workload": args.workload, "seconds": seconds, "runs": args.runs,
                      "first_seed": args.first_seed, "metrics": table}))
    return 0 if steady and not any(failed) else 1


if __name__ == "__main__":
    sys.exit(main())
