"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For each workload it checks that an untraced run fails only known-failure
jobs and reports the end-to-end metrics of BENCHMARK.json, that a traced run
(whose two traced passes must report identical counts) reports its per-layer
metrics, and that a deliberately wrong expected verdict raises
``failed_frac``.  Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

FLIP = {"Unique": "NotUnique", "NotUnique": "Unique"}
SEED = 7


def _check(ok, what):
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        sys.exit(1)


def main():
    run._import_package()
    import workloads

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    for name in run.WORKLOAD_NAMES:
        result, _ = run.run_one(name, SEED, 0.0, trace=0, tiny=True)
        _check(result["correct"] and set(result["metrics"]) == end_to_end,
               f"{name}: untraced run correct, {result['failed']} known "
               f"failures of {result['attempted']}, metrics {sorted(end_to_end)}")

        result, _ = run.run_one(name, SEED, 0.0, trace=1, tiny=True)
        _check(set(result["metrics"]) == per_layer,
               f"{name}: traced counts repeat, {len(per_layer)} per-layer metrics")

        jobs = workloads.build(name, SEED, tiny=True)
        _, _, failed = run.run_pass(jobs)
        i = next(i for i, job in enumerate(jobs) if job.expect in FLIP)
        wrong = list(jobs)
        wrong[i] = dataclasses.replace(jobs[i], expect=FLIP[jobs[i].expect])
        _, _, failed_wrong = run.run_pass(wrong)
        _check(len(failed_wrong) == len(failed) + 1 and wrong[i] in failed_wrong,
               f"{name}: wrong expected verdict for {jobs[i].name!r} raises "
               f"failed_frac {len(failed) / len(jobs):.3f} -> "
               f"{len(failed_wrong) / len(jobs):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
