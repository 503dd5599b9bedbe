"""One benchmark process: set up, run whole sweeps of a workload through
``bosonic_ds.cli.main``, and check every output.

Started by run.py with the BLAS thread count already pinned in the
environment.  Prints one JSON line with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import bosonic_ds from the checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bosonic_ds" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bosonic_ds sources under {src}")
    sys.path.insert(0, str(src))
    import bosonic_ds.cli
    if Path(bosonic_ds.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: bosonic_ds imported from {bosonic_ds.cli.__file__}")
    return bosonic_ds.cli


def clear_memos() -> None:
    """Empty every per-process memo of the program, as a fresh invocation
    would have them, so no case reuses what an earlier case built."""
    for name, mod in list(sys.modules.items()):
        if name == "bosonic_ds" or name.startswith("bosonic_ds."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Runner:
    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.refs = {}

    def prepare(self, case) -> None:
        if case.command == "ds-run":
            (self.workdir / f"{case.name}.cfg.json").write_text(json.dumps(case.config()))

    def argv(self, case) -> list:
        if case.command == "ds-run":
            return ["ds-run", "--config", str(self.workdir / f"{case.name}.cfg.json"),
                    "--out", str(self.workdir / f"{case.name}.report.json")]
        return ["witness", "--state", case.state1.spec, "--theta", repr(case.theta),
                "--cutoff", str(case.cutoff)]

    def run(self, case) -> tuple:
        """(seconds, exit code or None if it raised, captured stdout)."""
        report = self.workdir / f"{case.name}.report.json"
        if report.exists():
            report.unlink()
        argv = self.argv(case)
        clear_memos()
        buf = io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except Exception as exc:   # noqa: BLE001 - a raising case is a failed case
            print(f"perfbench: {case.name} raised {exc!r}", file=sys.stderr)
        return time.perf_counter() - start, code, buf.getvalue()

    def check(self, case, code, stdout: str) -> list:
        if code is None:
            return ["raised"]
        if case.command == "witness":
            want = self.refs.get(case.name)
            if want is None and case.state1.family == "fock":
                out = oracle.splitter_output(case.state1.pops, case.state1.pops, case.theta)
                want = self.refs[case.name] = (oracle.epsilon(out), out.cut)
            return checks.check_witness(stdout, code, case.state1.family, *(want or ()))
        try:
            report = json.loads((self.workdir / f"{case.name}.report.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"no report: {exc}"]
        ref = self.refs.get(case.name)
        if ref is None:
            ref = self.refs[case.name] = oracle.ds_run_reference(
                case.state1.pops, case.state2.pops, case.theta)
        return checks.check_ds_run(report, ref, code, case.modes, case.cutoff)


def sweep(runner: Runner, cases: list, tally: dict, tracer=None) -> list:
    """Run every case once; return each case's time."""
    times = []
    for case in cases:
        if tracer is not None:
            tracer.case = case.name
        seconds, code, stdout = runner.run(case)
        times.append(seconds)
        problems = runner.check(case, code, stdout)
        tally["attempted"] += 1
        if problems:
            tally["failed"] += 1
            print(f"perfbench: {case.name} failed: {'; '.join(problems)}", file=sys.stderr)
    return times


def sweep_time(rounds: list) -> float:
    """Sum over cases of each case's median time across rounds: one sweep,
    with a burst of contention in one round filtered out."""
    return sum(statistics.median(times) for times in zip(*rounds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before this process was started")
    args = parser.parse_args(argv)

    cli = import_program()
    out_dir = ROOT / "perfbench" / "out"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cases = workloads.cases(args.workload, args.seed)
        runner = Runner(cli, workdir)
        for case in cases:
            runner.prepare(case)
        warm = workloads.warmup(args.workload)
        runner.prepare(warm)
        _, code, _ = runner.run(warm)
        if code != 0:
            raise SystemExit(f"perfbench: warm-up call exited {code}")
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tally = {"attempted": 0, "failed": 0}
        plain, traced = [], []
        tracer = spans.Tracer() if args.trace else None
        per_round = []
        start = time.perf_counter()
        # Whole rounds until the time is up; a traced run alternates untraced
        # and traced rounds so that the overhead is measured in one process.
        while (time.perf_counter() - start < args.seconds or not plain
               or (tracer is not None and not traced)):
            if tracer is None or len(traced) >= len(plain):
                plain.append(sweep(runner, cases, tally))
                continue
            first = len(tracer.spans)
            tracer.install()
            tracemalloc.start()
            try:
                traced.append(sweep(runner, cases, tally, tracer))
            finally:
                tracemalloc.stop()
                tracer.uninstall()
            per_round.append(tracer.totals(first))

        result = dict(tally, rounds=len(plain) + len(traced), setup_s=setup_s)
        if tracer is None:
            result["metrics"] = {
                "sweep_s": sweep_time(plain),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            result["metrics"] = traced_metrics(per_round, plain, traced)
            write_trace(out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                        args, tracer, result["metrics"], plain, traced)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_metrics(per_round: list, plain: list, traced: list) -> dict:
    """Medians over traced rounds of each per-layer total, plus the traced
    sweep time, the tracing overhead and the share of it the layers cover."""
    metrics = {name: statistics.median(r[name] for r in per_round)
               for name in spans.metric_names()}
    traced_s = sweep_time(traced)
    self_sum = statistics.median(sum(r[f"{layer}_s"] for layer in spans.LAYERS)
                                 for r in per_round)
    metrics["trace.sweep_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - sweep_time(plain)
    metrics["trace.self_share"] = self_sum / traced_s
    return metrics


def write_trace(path: Path, args, tracer, metrics: dict, plain: list, traced: list) -> None:
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    records = [{"case": s[0], "name": s[1], "start": s[2] - t0, "end": s[3] - t0,
                "parent": s[4], "peak_bytes": s[5]} for s in tracer.spans]
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "untraced_case_s": plain, "traced_case_s": traced,
        "per_layer": metrics, "spans": records}, indent=1))


if __name__ == "__main__":
    sys.exit(main())
