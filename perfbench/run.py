#!/usr/bin/env python3
"""fracsobolev benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload sweep-1d --seed 0 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
workload's job list is run again and again, each job starting when the
previous one ends, for about ``--seconds`` seconds and at least twice.
Every job checks its own outputs; a failed check or a library error counts
as a failed job.  BLAS and OpenMP are pinned to one thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, computed from spans recorded around every public library
function (see spans.py); spans are written to ``perfbench/out/``.

Times are taken on a shared host whose speed swings by up to half within a
run, so every timed stretch is scaled to a fixed reference speed measured
while it runs (see speed.py); the raw wall times go to the result file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record with
sample counts, per-pass figures, failed checks and machine facts goes to
``perfbench/out/result-<workload>-seed<seed>-trace<trace>.json``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from proc import run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREAD_SETTINGS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
MIN_PASSES = 2
SETUP_SAMPLES = 7
PROBE_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, warm up and exit (used to time set-up)")
    return p.parse_args(argv)


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Largest ru_maxrss of this process and of any child it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_pass(jobs, index, sampler, tracer=None):
    """Run the job list once; returns the wall time of the pass, each job's
    wall and CPU time at the reference speed and its raw wall time, and the
    failures of each job."""
    latencies, cpu_times, raw, failures = [], [], [], []
    t0 = time.perf_counter()
    for j, (name, fn) in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"{index}/{j}:{name}"
        lo, cpu0, start = sampler.mark(), cpu_seconds(), time.perf_counter()
        try:
            failed = fn()
        except Exception:
            failed = ["library error: " + traceback.format_exc().strip().splitlines()[-1]]
        seconds, cpu, hi = time.perf_counter() - start, cpu_seconds() - cpu0, sampler.mark()
        latencies.append(sampler.scale(lo, hi, seconds))
        cpu_times.append(sampler.scale(lo, hi, cpu))
        raw.append(seconds)
        failures.append([f"{name}: {msg}" for msg in failed])
    return {"wall_s": time.perf_counter() - t0, "job_s": latencies, "job_cpu_s": cpu_times,
            "job_raw_s": raw, "failures": failures, "traced": tracer is not None}


def per_job_median(passes, key):
    """Each job's median time over the passes, in job-list order."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def child_seconds(argv, sampler):
    """Wall time of one child process, from spawn to exit, at the reference
    speed; the child must exit 0.  The time includes the speed sample that
    falls due while the child runs, which ``scale`` takes out again."""
    lo, start = sampler.mark(), time.perf_counter()
    code, stderr, _ = run_child(argv, ROOT, os.environ)
    seconds, hi = time.perf_counter() - start, sampler.mark()
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}:\n{stderr}")
    return sampler.scale(lo, hi, seconds)


def probe_seconds(code):
    """Seconds that ``code`` writes to stderr, run in a fresh interpreter."""
    status, stderr, _ = run_child([sys.executable, "-c", code], ROOT, os.environ)
    if status != 0:
        raise RuntimeError(f"probe {code!r} exited {status}:\n{stderr}")
    return float(stderr.split()[-1])


def machine_facts():
    import numpy
    import scipy
    facts = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
             "cpu_model": platform.processor() or platform.machine(),
             "caches": {}, "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "threads": {k: os.environ.get(k) for k in THREAD_SETTINGS}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            facts["caches"][f"L{level}-{kind}"] = size
    except OSError:
        pass
    try:
        import numpy.fft._pocketfft_umath  # noqa: F401
        facts["fft_backend"] = "numpy pocketfft (numpy.fft._pocketfft_umath)"
    except ImportError:
        facts["fft_backend"] = "numpy.fft"
    try:
        facts["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    return facts


def measure(jobs, seconds, sampler, tracer=None):
    """Closed loop over the job list for about ``seconds``: another pass
    starts only if a median pass still fits.  With a tracer, passes
    alternate untraced and traced, untraced first."""
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            lo, counts0 = len(tracer.spans), tracer.counts.copy()
        try:
            p = run_pass(jobs, len(passes), sampler, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            p["spans"] = (lo, len(tracer.spans))
            p["counts"] = tracer.counts - counts0
        passes.append(p)
        typical = statistics.median(q["wall_s"] for q in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - t0 + typical > seconds:
            return passes


def end_to_end(args, jobs, setup_times, sampler):
    passes = measure(jobs, args.seconds, sampler)
    latencies = per_job_median(passes, "job_s")
    values = {"setup_s": statistics.median(setup_times),
              "wall_s": math.fsum(latencies),
              "job_p50_s": statistics.median(latencies),
              "cpu_s": math.fsum(per_job_median(passes, "job_cpu_s")),
              "peak_rss_mb": peak_rss_mb()}
    samples = {"setup_s": len(setup_times), "passes": len(passes), "jobs_per_pass": len(jobs),
               "setup_samples_s": setup_times, "median_job_s": latencies,
               "raw_wall_s": math.fsum(per_job_median(passes, "job_raw_s"))}
    return passes, values, samples


def per_layer(args, jobs, sampler):
    import spans
    tracer = spans.Tracer()
    passes = measure(jobs, args.seconds, sampler, tracer)
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        lo, hi = p["spans"]
        m = spans.layer_metrics(tracer.spans, lo, hi, p["counts"])
        m.update(spans.cli_call_times(tracer.spans, lo, hi))
        per_pass.append(m)
    # Counts repeat exactly for a fixed seed; times are medians over passes.
    values = {k: (v if isinstance(v, int) else statistics.median(m[k] for m in per_pass))
              for k, v in per_pass[0].items()}
    repeat = all(m[k] == v for m in per_pass for k, v in per_pass[0].items()
                 if isinstance(v, int))
    values["cli.interpreter_s"] = statistics.median(
        child_seconds([sys.executable, "-c", "pass"], sampler)
        for _ in range(PROBE_SAMPLES))
    values["cli.import_s"] = statistics.median(
        probe_seconds("import sys, time; t = time.perf_counter(); import fracsobolev.cli; "
                      "print(time.perf_counter() - t, file=sys.stderr)")
        for _ in range(PROBE_SAMPLES))
    values["trace.overhead_frac"] = (math.fsum(per_job_median(traced, "job_s"))
                                     / math.fsum(per_job_median(plain, "job_s")) - 1.0)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    samples = {"traced_passes": len(traced), "untraced_passes": len(plain),
               "counts_repeat": repeat}
    return passes, values, samples


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(THREAD_SETTINGS)  # before numpy is first imported
    src = ROOT / "src"
    if not (src / "fracsobolev" / "__init__.py").is_file():
        print(f"run.py: no fracsobolev sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)

    import workloads
    from speed import DEFAULT_PARTS, SpeedSampler, pin_to_one_cpu
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_specs()
    OUT.mkdir(exist_ok=True)
    ctx = workloads.Context(root=ROOT, out_dir=OUT, env=dict(os.environ),
                            in_process=bool(args.trace))
    build = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        build(args.seed, ctx)
        return 0

    pin_to_one_cpu()
    with SpeedSampler(workloads.REFERENCE_PARTS.get(args.workload, DEFAULT_PARTS)) as sampler:
        if args.trace:
            passes, values, samples = per_layer(args, build(args.seed, ctx), sampler)
            units = layer_units
        else:
            me = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                  "--seed", str(args.seed), "--setup-only"]
            setup_times = [child_seconds(me, sampler) for _ in range(SETUP_SAMPLES)]
            passes, values, samples = end_to_end(args, build(args.seed, ctx), setup_times,
                                                 sampler)
            units = e2e_units
        samples["speed_samples"] = len(sampler.samples)
    missing = set(units) - set(values)
    if missing:
        print(f"run.py: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 3

    failures = [fs for p in passes for fs in p["failures"]]
    attempted, failed = len(failures), sum(1 for fs in failures if fs)
    for msg in sorted({m for fs in failures for m in fs}):
        print(f"FAILED CHECK {msg}", file=sys.stderr)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    facts = machine_facts()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "samples": samples,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "passes": [{k: p[k] for k in ("wall_s", "job_s", "job_cpu_s", "job_raw_s",
                                            "failures", "traced")}
                         for p in passes],
              "machine": facts}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} samples={samples}")
    print(f"# machine {json.dumps(facts)}")
    for k in units:
        print(f"{k:44s} {values[k]:>16.6g} {units[k]}")
    print(f"{'failed_frac':44s} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
