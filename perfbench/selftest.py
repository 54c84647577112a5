"""Self-test of the benchmark at tiny sizes (about two minutes).

Usage::

    python3 perfbench/selftest.py

For every workload, runs the whole traced measurement (``run.measure``
with ``--trace 1``) on the tiny argv of ``run.TINY`` and checks:

* every run passed its digest and count checks, including the traced
  run against the untraced ones and ``campaign`` against its sequential
  uncached twin;
* span accounting: every span lies inside its parent (or, at top level,
  inside its process's lifetime) and starts after its previous sibling
  ended.  Then no self time is negative, and the CLI process's layer
  self times add up to the traced wall time by construction, so neither
  is checked separately;
* the per-layer metrics are exactly those listed in ``BENCHMARK.json``.

It also checks that ``BENCHMARK.json`` names the workloads and metrics
``run.py`` reports, and that ``run.py`` fails without printing a result
in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run as bench

SEED = 3


def check_benchmark_json(failures) -> None:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != bench.END_TO_END_UNITS:
        failures.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != bench.per_layer_units():
        failures.append("BENCHMARK.json per_layer differs from run.per_layer_units()")


def check_workload(workload: str, failures) -> None:
    scratch = os.path.join(bench.SCRATCH, f"selftest-{os.getpid()}-{workload}")
    os.makedirs(scratch)
    try:
        checker, metrics, facts = bench.measure(
            workload, SEED, 0.0, True, scratch, sizes=bench.TINY
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if checker.failed or metrics is None:
        failures.append(f"{workload}: {checker.failed} of {checker.attempted} runs failed")
        return
    if facts["misnested_spans"]:
        failures.append(f"{workload}: {facts['misnested_spans']} spans misnested")
    if facts["missing_boundaries"]:
        failures.append(f"{workload}: boundaries not found {facts['missing_boundaries']}")
    if set(metrics) != set(bench.per_layer_units()):
        failures.append(f"{workload}: per-layer metric names differ")
    bench.log(f"{workload}: {checker.attempted} runs ok")


def check_fails_without_program(failures) -> None:
    """``run.py`` beside only BENCHMARK.json exits nonzero and prints no result."""
    scratch = os.path.join(bench.SCRATCH, f"selftest-{os.getpid()}-bare")
    try:
        shutil.copytree(bench.HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), scratch)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "kv", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        failures.append("run.py without the program did not fail cleanly")


def main() -> int:
    failures = []
    check_benchmark_json(failures)
    check_fails_without_program(failures)
    for workload in bench.WORKLOADS:
        check_workload(workload, failures)
    for failure in failures:
        bench.log(f"FAIL {failure}")
    bench.log("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
