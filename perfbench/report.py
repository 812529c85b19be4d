#!/usr/bin/env python3
"""Run benchmark workloads and print every metric by name, with its unit.

    python3 perfbench/report.py                      # all workloads, seed 0
    python3 perfbench/report.py --seeds 0 1 2 3 4 --workloads solve-2d
    python3 perfbench/report.py --trace              # per-layer metrics too

Each (workload, seed) is one ``run.py`` process.  For every metric the table
gives the median over seeds and, with more than one seed, the spread: the
distance between the first and third quartiles as a share of the median.
``failed_frac`` is failed over attempted jobs.  By default the BENCHMARK.json
workloads run, followed by ``cli-defaults``, which keeps the known defects of
the default CLI flags in view (see NOTES.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]] + ["cli-defaults"])
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--trace", action="store_true", help="also run the traced runs")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        for trace in ((0, 1) if args.trace else (0,)):
            runs = []
            for seed in args.seeds:
                runs.append(run_one(workload, seed, spec["run_seconds"], trace))
                print(f"# {workload} seed={seed} trace={trace} done", file=sys.stderr, flush=True)
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"\n== {workload} (trace {trace}, seeds {args.seeds}) ==")
            print(f"{'metric':44s} {'median':>14s} {'unit':8s} {'spread':>8s} {'bound':>6s}")
            for name, first in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                bound = f"{bounds[name]:.2f}" if name in bounds else ""
                print(f"{name:44s} {statistics.median(values):>14.6g} {first['unit']:8s} "
                      f"{spread(values):>8.3f} {bound:>6s}")
            print(f"{'failed_frac':44s} {failed / attempted:>14.6g} {'ratio':8s} "
                  f"({failed}/{attempted} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
