"""Record the expected stdout digest and exact counts per (command, seed).

Usage::

    python3 perfbench/golden.py --seeds 0-31

For each seed and the sequential form of each workload's command (see
``run.sequential``), runs the command once untraced and once under the
full probe, checks that both print the same bytes and count the same
operations and events, and stores the stdout sha256 and the exact
counts in ``golden.json``.  Seeds not given keep their entries; commands
no workload runs any more are dropped.  ``run.py`` checks every run
against these.
Re-record only for a change that is meant to alter the program's output,
and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run as bench


def _seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(argv, seed: int, scratch: str):
    """The golden entry of one (command, seed), or raise if runs disagree."""
    samples = []
    for mode in ("light", "full"):
        run_dir = os.path.join(scratch, f"{seed}-{mode}")
        os.makedirs(run_dir)
        try:
            samples.append(bench.spawn(bench.command(argv, seed, run_dir), run_dir, mode))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    light, full = samples
    for sample in samples:
        text = sample["stdout"].decode("utf-8", errors="replace")
        problem = bench.output_problem(sample["argv"], text)
        if sample["exit_code"] != 0 or problem is not None:
            raise SystemExit(f"{' '.join(sample['argv'])}: {problem or sample['stderr']}")
    counts = bench.exact_counts(full, bench.layer_report(full))
    light_counts = bench.exact_counts(light)
    if light["sha256"] != full["sha256"] or any(
        counts[key] != value for key, value in light_counts.items()
    ):
        raise SystemExit(f"{' '.join(argv)} seed {seed}: traced run differs")
    return {"sha256": light["sha256"], "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 1,5,9")
    args = parser.parse_args()
    old = bench.load_golden()
    entries = {}
    scratch = os.path.join(bench.SCRATCH, f"golden-{os.getpid()}")
    os.makedirs(scratch)
    try:
        for workload, argv in bench.WORKLOADS.items():
            argv = bench.sequential(argv)
            key = bench.golden_key(argv)
            table = entries[key] = old.get(key, {})
            for seed in _seeds(args.seeds):
                table[str(seed)] = record(argv, seed, scratch)
                bench.log(f"{workload} seed {seed}: {table[str(seed)]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    entries = {
        key: dict(sorted(table.items(), key=lambda item: int(item[0])))
        for key, table in sorted(entries.items())
    }
    with open(bench.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({"format": 1, "entries": entries}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
