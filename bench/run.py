#!/usr/bin/env python3
"""Benchmark of the deskdpr pipeline, timed from outside its public functions.

One workload, one process:

    python3 bench/run.py --workload serve --seed 3 --seconds 10 --trace 0

prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Every
workload, untraced and then traced, each in its own process:

    python3 bench/run.py --workload all

prints every metric by name with its unit and the tracing overhead.
See bench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RUNS_DIR = BENCH_DIR / ".runs"
# Set-up repeats at least SETUP_REPEATS times and until SETUP_SECONDS
# are spent, so a set-up of a few milliseconds still yields a steady median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
DEFAULT_SEED = 0


def import_program() -> None:
    """Import deskdpr from this checkout's sources, never from elsewhere."""
    package = SRC_DIR / "deskdpr"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no deskdpr sources at {package}")
    sys.path.insert(0, str(SRC_DIR))
    import deskdpr

    if Path(deskdpr.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported deskdpr from {deskdpr.__file__}, expected {package}")


def program_fingerprint() -> str:
    """sha256 over the program's sources, so outputs are compared only
    between runs of the same program."""
    h = hashlib.sha256()
    for path in sorted((SRC_DIR / "deskdpr").rglob("*.py")):
        h.update(path.relative_to(SRC_DIR).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]()
    workdir = RUNS_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    try:
        setup_times = []
        ctx = None
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            ctx = None
            gc.collect()
            start = time.perf_counter()
            ctx = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - start)

        ledger = workloads.Ledger()
        digests = workloads.DigestBook(RUNS_DIR / "digests" / f"{name}-seed{seed}-{program_fingerprint()}.json")
        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.install()
        round_times: list[float] = []
        figures: list[dict] = []
        while not round_times or sum(round_times) < seconds:
            gc.collect()
            round_dir = workdir / f"round{len(round_times)}"
            start = time.perf_counter()
            if tracer:
                with tracer.round():
                    out = workload.round(ctx, ledger, round_dir)
            else:
                out = workload.round(ctx, ledger, round_dir)
            round_times.append(time.perf_counter() - start)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            figures.append(workload.check(ctx, out, digests))
            out = None
            shutil.rmtree(round_dir, ignore_errors=True)
        if tracer:
            tracer.uninstall()
            tracer.write(RUNS_DIR / "traces" / f"{name}-seed{seed}.json")
        digests.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op in ledger.ops:
        for problem in op.problems[:3]:
            print(f"{name}: {op.kind} failed: {problem}", file=sys.stderr)
    if tracer:
        values = {**tracer.layer_metrics(len(round_times)), **workloads.stage_metrics(ledger, figures)}
        for missing in tracer.missing:
            print(f"{name}: traced function {missing} is missing", file=sys.stderr)
    else:
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "task_s": (statistics.median(round_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()}
    return {
        "correct": ledger.failed == 0,
        "attempted": len(ledger.ops),
        "failed": ledger.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, each run in its own process."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}): exited {proc.returncode}")
                status = 1
                continue
            results[trace] = json.loads(lines[-1])
        for trace, result in results.items():
            label = "per-layer, traced" if trace else "end-to-end"
            print(f"== {name} ({label}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for key, metric in result["metrics"].items():
                print(f"  {key:28s} {metric['value']:>14.6g} {metric['unit']}")
            status |= 0 if result["correct"] else 1
        if len(results) == 2:
            plain = results[0]["metrics"]["task_s"]["value"]
            traced = results[1]["metrics"]["trace.task_s"]["value"]
            print(f"  {'trace.overhead_s':28s} {traced - plain:>14.6g} s "
                  f"({100 * (traced - plain) / plain:+.1f}% of task_s)")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="pipeline, dataprep, serve, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole rounds until this many seconds are timed (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args()
    import_program()
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
