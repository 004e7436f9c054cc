"""diffuniq benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdict-deck --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload, single-threaded.  Untraced (``--trace 0``),
it runs passes over the workload's job list while another pass of the
median length fits in ``--seconds`` (at least one pass), and reports the
median CPU time of a pass rescaled to the reference host speed
``pass_cpu_s`` (see ``hostspeed``), the import time ``setup_s`` (median of
fresh interpreters, rescaled the same way), and ``peak_rss_mb``.  The plain
median wall time of a pass is printed as ``wall_s``.  Traced
(``--trace 1``), it runs one untraced pass and two traced passes, fails if
the traced counts differ, and reports the per-layer metrics of the first
traced pass with the tracing overhead.  The last line of standard output is
one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("verdict-deck", "operator-sweep", "crosscheck")


def _import_package():
    if not (SRC / "diffuniq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no diffuniq sources under {SRC}")
    # single-threaded: OpenBLAS would start a worker pool when numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))


def machine(seed):
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed}


def measure_setup(samples=SETUP_SAMPLES):
    """Median CPU time of ``import diffuniq`` in fresh interpreters, each
    rescaled by the host speed measured just before and after it."""
    import hostspeed

    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t0 = time.process_time(); import diffuniq; "
            "print(time.process_time() - t0)")
    times = []
    for _ in range(samples):
        before = hostspeed.speed_factor()
        out = subprocess.run([sys.executable, "-E", "-c", code, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        factor = (before + hostspeed.speed_factor()) / 2.0
        times.append(float(out.stdout) / factor)
    return statistics.median(times)


def run_pass(jobs):
    """Run every job once; returns (CPU seconds, wall seconds, failed jobs)."""
    failed = []
    c0, t0 = time.process_time(), time.perf_counter()
    for job in jobs:
        try:
            ok = bool(job.check(job.run(), job.expect))
        except Exception:  # a job that raises is a failed job; go on
            print(f"job {job.name!r} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            ok = False
        if not ok:
            failed.append(job)
    return time.process_time() - c0, time.perf_counter() - t0, failed


def _summary(failed, attempted):
    lines = [f"failed_frac {len(failed) / attempted:.4f} ratio "
             f"({len(failed)} of {attempted} jobs attempted)"]
    for job in dict.fromkeys(failed):
        note = " (known failure)" if job.known_failure else ""
        lines.append(f"failed job: {job.name}, {failed.count(job)} times{note}")
    return lines


def run_untraced(jobs, seconds):
    import hostspeed

    scaled, walls, factors, failed = [], [], [], []
    deadline = time.perf_counter() + seconds
    # another pass only if one more of the median length still fits
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        with hostspeed.SpeedProbe() as probe:
            cpu, wall, bad = run_pass(jobs)
        factors.append(probe.factor())
        scaled.append((cpu - probe.spent) / factors[-1])
        walls.append(wall)
        failed += bad
    attempted = len(jobs) * len(walls)
    setup = measure_setup()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"pass_cpu_s": (statistics.median(scaled), "s"),
               "setup_s": (setup, "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    notes = [f"wall_s {statistics.median(walls)!r} s (median wall time of a "
             f"pass, not rescaled)",
             f"passes {len(walls)}: pass_cpu_s {[round(x, 3) for x in scaled]}, "
             f"wall {[round(w, 3) for w in walls]}, host slow-down "
             f"{[round(f, 3) for f in factors]}; setup_s is the median of "
             f"{SETUP_SAMPLES} imports"]
    return metrics, failed, attempted, notes + _summary(failed, attempted)


def run_traced(jobs):
    import tracing

    _, untraced_wall, failed = run_pass(jobs)
    results = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            _, wall, bad = run_pass(jobs)
        failed += bad
        results.append(tracer.metrics(wall, untraced_wall))
    first, second = (tracing.counts(r) for r in results)
    if first != second:
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        sys.exit(f"perfbench: traced counts differ between two runs of one "
                 f"seed: {diff}")
    attempted = 3 * len(jobs)
    return results[0], failed, attempted, _summary(failed, attempted)


def run_one(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns the result object of the last output line
    and the lines for people."""
    import workloads

    jobs = workloads.build(workload, seed, tiny)
    if trace:
        metrics, failed, attempted, notes = run_traced(jobs)
    else:
        metrics, failed, attempted, notes = run_untraced(jobs, seconds)
    lines = [json.dumps({"machine": machine(seed), "workload": workload,
                         "trace": trace})]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": all(job.known_failure for job in failed),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines + notes


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for workload in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        print(f"== {workload} (exit {out.returncode})")
        print(out.stdout.rstrip() or out.stderr.rstrip())
        status = status or out.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    if args.workload == "all":
        return run_all(args)
    result, lines = run_one(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
