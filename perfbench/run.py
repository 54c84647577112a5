"""End-to-end benchmark of the ``deepnote`` CLI with a per-layer split.

Usage::

    python3 perfbench/run.py --workload kv|fleet|campaign \\
        --seed N --seconds S --trace 0|1

Every timed run spawns a cold ``python3`` process that runs the real
CLI entry point (``repro.cli.main``) with the workload's argv and the
seed as ``--seed``, and times it from spawn to exit.  Runs repeat, one
at a time, for ``--seconds`` seconds; times are medians over them (the
operation rate is total operations over total time), scaled to a
reference host speed (see :func:`reference_loop`).
Each run's stdout sha256 and simulated operation and event counts are
checked against the expected ones (``golden.json``, or for a seed not recorded
there, against the first good run, after the sequential uncached twin
of a pooled workload), and a run that differs counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one
run with a span at every layer boundary (see ``probe.py``), one run
under ``-X importtime`` and one pair of small ``figure2`` runs with and
without the program's own ``--trace``, and prints the per-layer metrics.
The last line of stdout is the JSON result; the line before it records
the host.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import pickle
import re
import select
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")
GOLDEN = os.path.join(HERE, "golden.json")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")

#: Replaced by the run's own fresh directory in every argv part.
RUN_DIR = "{run_dir}"
CACHE_DIR = RUN_DIR + "/cache"

#: Runner flags of the campaign form: a 2-worker pool with retries, a
#: journal and a fresh cache.  Without them the command is its own
#: sequential, uncached twin, whose output it must reproduce.
POOL = ["--workers", "2", "--max-retries", "2", "--cache-dir", CACHE_DIR]

#: Workload -> deepnote argv (``--seed`` is appended).
WORKLOADS = {
    "kv": ["table2", "--duration", "0.7"],
    "fleet": ["fleet", "--racks", "20", "--towers", "50", "--duration", "120"],
    "campaign": ["figure2", "--runtime", "5", *POOL],
}

#: Tiny sizes of each workload: the untimed warm-up run and the self-test.
TINY = {
    "kv": ["table2", "--duration", "0.02"],
    "fleet": ["fleet", "--racks", "2", "--towers", "5", "--duration", "20"],
    "campaign": ["figure2", "--runtime", "0.05", *POOL],
}

#: The program-traced figure2 pair behind ``obs.trace_overhead``: small,
#: because the program's own tracer makes the run many times slower.
OBS_ARGV = ["figure2", "--runtime", "0.5"]

MIN_SAMPLES = 4
#: The host-speed reference (see :func:`reference_loop`): loop length and
#: its median time on the development host (2-vCPU Xeon, Python 3.11).
REF_LOOP_N = 400_000
REF_LOOP_S = 0.04
SAMPLE_TIMEOUT_S = 60.0
#: Sampling stops this long after ``--seconds`` even below MIN_SAMPLES.
OVERRUN_S = 45.0

LAYERS = (
    "import", "cli", "hdd", "vecphys", "workloads", "core", "core.fleet",
    "storage.kv", "storage.fs", "storage.block", "storage.raid", "sim",
    "rng", "runtime", "obs", "render", "exit",
)

#: Per-layer metrics beyond ``<layer>.calls/.self_s/.share``: name -> unit.
LAYER_EXTRAS = {
    "import.total_s": "s",
    "import.repro_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "hdd.commands": "count",
    "hdd.retries": "count",
    "hdd.attempt_success_ratio": "ratio",
    "hdd.drives_built": "count",
    "vecphys.closed_form_ratio": "ratio",
    "core.fleet.build_s": "s",
    "core.fleet.racks_built": "count",
    "storage.kv.gets": "count",
    "storage.kv.puts": "count",
    "storage.kv.sst_reads_per_get": "ratio",
    "storage.kv.flushes": "count",
    "storage.kv.compactions": "count",
    "storage.kv.write_amp": "ratio",
    "storage.fs.journal_commits": "count",
    "storage.block.writes": "count",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "rng.forks": "count",
    "runtime.wait_s": "s",
    "runtime.points": "count",
    "runtime.cache_puts": "count",
    "runtime.journal_appends": "count",
    "exit.teardown_s": "s",
    "obs.trace_overhead": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.run_fail_frac": "ratio",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "run_ok_frac": "ratio",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(LAYER_EXTRAS)
    return units


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- commands and expected outputs ---------------------------------------------


def command(argv, seed: int, run_dir: str):
    """The deepnote argv for one run, with its seed and run directory."""
    filled = [part.replace(RUN_DIR, run_dir) for part in argv]
    return filled + ["--seed", str(seed)]


def sequential(argv):
    """``argv`` without the runner flags: its sequential, uncached twin."""
    if argv[-len(POOL):] == POOL:
        return argv[:-len(POOL)]
    return argv


def golden_key(argv) -> str:
    return " ".join(sequential(argv))


def load_golden():
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["entries"]


_FIGURE2_ROW = re.compile(r"^\d+\s+\S+\s+\S+\s+\S+\s*$", re.M)
_FLEET_LINE = re.compile(r"^fleet: (\d+) drives, (\d+) ops", re.M)


def output_problem(argv, text: str):
    """Why ``text`` is not a well-formed output of ``argv`` (None if it is)."""
    if argv[0] == "figure2":
        rows = len(_FIGURE2_ROW.findall(text))
        # Two panels (write, read), each a row per default tone.
        if "Figure 2a" not in text or "Figure 2b" not in text or rows != 64:
            return f"figure2 output has {rows} table rows, expected 64"
    elif argv[0] == "table2":
        rows = [line for line in text.splitlines() if " cm " in line]
        if not text.startswith("Table 2") or "No Attack" not in text or len(rows) != 6:
            return f"table2 output has {len(rows)} distance rows, expected 6"
    elif argv[0] == "fleet":
        match = _FLEET_LINE.search(text)
        option = dict(zip(argv[1::2], argv[2::2]))
        drives = int(option["--racks"]) * int(option["--towers"]) * int(
            option.get("--bays", "5")
        )
        if match is None or int(match.group(1)) != drives or int(match.group(2)) == 0:
            return f"fleet output does not report {drives} drives with ops"
    return None


# -- one process ------------------------------------------------------------------


def _kill_group(pgid: int) -> None:
    """SIGKILL a run's process group and wait until it is empty."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(argv, run_dir: str, mode: str = "light", python_flags=()):
    """Run one probe process to exit; returns its timings and outputs.

    The process gets its own session, stdout/stderr go to files in
    ``run_dir``, and ``wait4`` gives its peak RSS, which on Linux is the
    largest of the process and every descendant it reaped (the pool
    workers).
    """
    os.makedirs(run_dir, exist_ok=True)
    out_path = os.path.join(run_dir, "stdout")
    err_path = os.path.join(run_dir, "stderr")
    cmd = [sys.executable, *python_flags, PROBE, mode, run_dir, "--", *argv]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    t_spawn = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, cmd, os.environ, file_actions=actions, setsid=True
    )
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], SAMPLE_TIMEOUT_S)
        timed_out = not ready
        if timed_out:
            os.killpg(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        t_exit = time.perf_counter()
    finally:
        os.close(pidfd)
    _kill_group(pid)
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    main, workers = _load_probe(run_dir)
    return {
        "argv": argv,
        "t_spawn": t_spawn,
        "t_exit": t_exit,
        "wall_s": t_exit - t_spawn,
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "stderr": stderr,
        "main": main,
        "workers": workers,
    }


def _load_probe(run_dir: str):
    main, workers = None, []
    for name in sorted(os.listdir(run_dir)):
        if not name.startswith("probe-"):
            continue
        # Written by probe.py in a process this benchmark started.
        with open(os.path.join(run_dir, name), "rb") as handle:
            try:
                payload = pickle.load(handle)
            except (EOFError, pickle.UnpicklingError):
                continue  # cut short by a kill: the run fails its check
        if payload["role"] == "main":
            main = payload
        else:
            workers.append(payload)
    return main, workers


def sample_ops(sample) -> int:
    """Simulated operations of a run, over the CLI process and its workers."""
    processes = [sample["main"], *sample["workers"]]
    return sum(p["ops"] for p in processes if p is not None)


def sample_events(sample) -> int:
    """Scheduler events a run fired, over the CLI process and its workers."""
    processes = [sample["main"], *sample["workers"]]
    return sum(p["counts"]["sim.events"] for p in processes if p is not None)


def timings(sample):
    """End-to-end timings of one run (None where the probe is missing)."""
    main = sample["main"]
    if main is None or main["first_op_t"] is None:
        return None
    return {
        "wall_s": sample["wall_s"],
        "setup_s": main["first_op_t"] - sample["t_spawn"],
        "sim_s": main["main_return_t"] - main["first_op_t"],
        "ops": sample_ops(sample),
        "peak_rss_mb": sample["rss_mb"],
        "teardown_s": sample["t_exit"] - main["main_return_t"],
    }


def reference_loop() -> float:
    """Seconds this host now takes for a fixed pure-Python loop.

    On a shared host the CPU alternates between fast and slow spells of
    seconds to minutes, and process CPU time slows with wall time, so
    the cause is core speed, not scheduling.  The loop runs in this
    process before the first timed run and after each one; end-to-end
    times are scaled by ``REF_LOOP_S`` over the mean of the two loops
    around their run, i.e. reported at the speed at which the loop takes
    ``REF_LOOP_S``.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_N):
        total += i * i % 7
    return time.perf_counter() - t0


# -- layer accounting ---------------------------------------------------------------


def layer_report(sample):
    """Per-layer calls/self/inclusive time and counts from a full-probe run.

    A span's self time is its duration minus its children's.  In the
    CLI process the spans nest under a synthetic ``cli`` root (spawn to
    ``cli.main`` return) followed by an ``exit`` span (return to exit),
    so its self times add up to the traced wall time by construction.
    Worker spans add their own self times on top.  What can go wrong is
    the nesting, so ``misnested_spans`` counts every span that does not
    lie inside its parent (at top level, inside its process's lifetime)
    or that starts before its previous sibling ended: with none, no self
    time is negative and no time is counted twice.
    """
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive = dict.fromkeys(LAYERS, 0.0)
    by_name_calls = {}
    by_name_time = {}
    counts = {}
    wait_s = 0.0
    main = sample["main"]
    misnested = 0
    for process in [main, *sample["workers"]]:
        table = process["name_table"]
        names, parents = process["names"], process["parents"]
        starts, ends = process["starts"], process["ends"]
        child = [0.0] * len(starts)
        top_level = 0.0
        # Spans are stored in start order: a sibling follows its elder.
        last_end = {}
        for i in range(len(starts)):
            duration = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
                outer = (starts[parent], ends[parent])
            else:
                top_level += duration
                outer = (sample["t_spawn"], process["main_return_t"] or sample["t_exit"])
            elder_end = last_end.get(parent, outer[0])
            if not outer[0] <= elder_end <= starts[i] <= ends[i] <= outer[1]:
                misnested += 1
            last_end[parent] = ends[i]
        for i in range(len(starts)):
            name, layer = table[names[i]]
            duration = ends[i] - starts[i]
            own = duration - child[i]
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + own
            parent = parents[i]
            if parent < 0 or table[names[parent]][1] != layer:
                inclusive[layer] = inclusive.get(layer, 0.0) + duration
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
            by_name_time[name] = by_name_time.get(name, 0.0) + duration
            if process is main and name in ("wait", "as_completed"):
                wait_s += duration
        for key, value in process["counts"].items():
            counts[key] = counts.get(key, 0) + value
        if process is main:
            root = main["main_return_t"] - sample["t_spawn"]
            calls["cli"] += 1
            self_s["cli"] += root - top_level
    calls["exit"] += 1
    self_s["exit"] += sample["t_exit"] - main["main_return_t"]
    return {
        "calls": calls,
        "self_s": self_s,
        "inclusive_s": inclusive,
        "name_calls": by_name_calls,
        "name_time": by_name_time,
        "counts": counts,
        "wait_s": wait_s,
        "misnested_spans": misnested,
    }


def exact_counts(sample, report=None):
    """The counts that must repeat exactly, recorded in ``golden.json``.

    Untraced runs have ``sim_ops`` and ``sim.events``; the traced run
    has them all.
    """
    counts = {"sim_ops": sample_ops(sample), "sim.events": sample_events(sample)}
    if report is not None:
        n = report["name_calls"]
        counts["hdd.commands"] = sum(
            n.get(name, 0)
            for name in ("HardDiskDrive.read", "HardDiskDrive.write", "HardDiskDrive.flush")
        )
        counts["hdd.retries"] = report["counts"].get("hdd.retries", 0)
        counts["storage.kv.gets"] = n.get("DB.get", 0)
        counts["storage.kv.puts"] = n.get("DB.put", 0)
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(report, traced_wall, counts, import_split, teardown_s,
                      obs_overhead, untraced_wall, fail_frac):
    n, c = report["name_calls"], report["counts"]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = report["calls"][layer]
        values[f"{layer}.self_s"] = report["self_s"][layer]
        values[f"{layer}.share"] = report["self_s"][layer] / traced_wall
    commands, retries = counts["hdd.commands"], counts["hdd.retries"]
    gets = counts["storage.kv.gets"]
    values.update(import_split)
    values.update({
        "hdd.commands": commands,
        "hdd.retries": retries,
        "hdd.attempt_success_ratio": _ratio(commands, commands + retries),
        "hdd.drives_built": n.get("HardDiskDrive.__init__", 0),
        "vecphys.closed_form_ratio": _ratio(
            c.get("vecphys.closed_form", 0), n.get("FioTester.run", 0)
        ),
        "core.fleet.build_s": report["name_time"].get("FleetSim.__init__", 0.0),
        "core.fleet.racks_built": n.get("FleetRack.__init__", 0),
        "storage.kv.gets": gets,
        "storage.kv.puts": counts["storage.kv.puts"],
        "storage.kv.sst_reads_per_get": _ratio(n.get("SSTableReader.get", 0), gets),
        "storage.kv.flushes": n.get("DB.flush", 0),
        "storage.kv.compactions": n.get("Compactor.run", 0),
        "storage.kv.write_amp": _ratio(
            c.get("storage.block.bytes_written", 0), c.get("storage.kv.user_bytes", 0)
        ),
        "storage.fs.journal_commits": n.get("Journal.commit", 0),
        "storage.block.writes": n.get("BlockDevice.write_block", 0),
        "sim.events": counts["sim.events"],
        "sim.events_per_s": _ratio(counts["sim.events"], report["inclusive_s"]["sim"]),
        "rng.forks": n.get("ReproRandom.fork", 0),
        "runtime.wait_s": report["wait_s"],
        "runtime.points": c.get("runtime.points", 0),
        "runtime.cache_puts": n.get("ResultCache.put", 0),
        "runtime.journal_appends": n.get("CampaignJournal.record_ok", 0),
        "exit.teardown_s": teardown_s,
        "obs.trace_overhead": obs_overhead,
        "bench.trace_overhead": traced_wall / untraced_wall,
        "bench.run_fail_frac": fail_frac,
    })
    return values


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)\s*$")


def import_split(stderr: str):
    """``-X importtime`` self times summed by top-level package."""
    by_package = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        package = match.group(3).partition(".")[0]
        by_package[package] = by_package.get(package, 0) + int(match.group(1))
    return {
        "import.total_s": sum(by_package.values()) / 1e6,
        "import.repro_s": by_package.get("repro", 0) / 1e6,
        "import.numpy_s": by_package.get("numpy", 0) / 1e6,
        "import.scipy_s": by_package.get("scipy", 0) / 1e6,
    }


# -- the benchmark run ---------------------------------------------------------------


class Checker:
    """Counts runs and checks each against the expected digest and counts."""

    def __init__(self, expected=None) -> None:
        self.expected = expected  # {"sha256": ..., "counts": {...}} or None
        self.attempted = 0
        self.failed = 0

    def absorb(self, other: "Checker", sample) -> None:
        """Check ``sample`` against ``other``'s expectation; count it here."""
        ok = other.check(sample, label=" ".join(sample["argv"]))
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, sample, counts=None, label: str = "run") -> bool:
        """Record one run; returns True if it matched."""
        self.attempted += 1
        problem = None
        if sample["timed_out"]:
            problem = f"timed out after {SAMPLE_TIMEOUT_S:.0f} s"
        elif sample["exit_code"] != 0:
            problem = f"exit code {sample['exit_code']}: {sample['stderr'][-400:]}"
        elif sample["main"] is None:
            problem = "probe wrote no result"
        else:
            text = sample["stdout"].decode("utf-8", errors="replace")
            problem = output_problem(sample["argv"], text)
        if counts is None and sample["main"] is not None:
            counts = exact_counts(sample)
        if problem is None and self.expected is None:
            self.expected = {"sha256": sample["sha256"], "counts": dict(counts)}
        elif problem is None:
            if sample["sha256"] != self.expected["sha256"]:
                problem = "stdout digest differs from the expected one"
            else:
                for key, value in counts.items():
                    want = self.expected["counts"].get(key)
                    if want is not None and want != value:
                        problem = f"{key} is {value}, expected {want}"
                        break
        if problem is not None:
            self.failed += 1
            log(f"  {label} FAILED: {problem}")
            return False
        return True


def host_facts():
    from importlib import metadata

    facts = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "revision": _git_revision(),
    }
    for package in ("numpy", "scipy"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = None
    return facts


def _git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: str,
            sizes=None):
    """Run the workload; returns (checker, metrics, facts).

    ``sizes`` maps each workload to its argv (default :data:`WORKLOADS`;
    the self-test passes :data:`TINY`).
    """
    argv = (sizes or WORKLOADS)[workload]
    counter = [0]

    def run(argv, tag: str, mode: str = "light", python_flags=()):
        # Every run gets a fresh directory for its cache, trace and
        # probe files, deleted as soon as the run has been read.
        counter[0] += 1
        run_dir = os.path.join(scratch, f"{counter[0]:03d}-{tag}")
        os.makedirs(run_dir)
        try:
            filled = command(argv, seed, run_dir)
            return spawn(filled, run_dir, mode=mode, python_flags=python_flags)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    golden = load_golden()
    expected = golden.get(golden_key(argv), {}).get(str(seed))
    checker = Checker(expected)

    checker.absorb(Checker(), run(TINY[workload], "warm-up"))
    if expected is None and sequential(argv) != argv:
        checker.check(run(sequential(argv), "twin"), label="sequential twin")
    log(f"{workload} seed {seed}: expected digest "
        f"{'from golden.json' if expected else 'from this run'}")

    samples = []
    ref_before = reference_loop()
    t_begin = time.perf_counter()
    while True:
        sample = run(argv, "timed")
        ref_after = reference_loop()
        ok = checker.check(sample, label=f"run {len(samples) + 1}")
        t = timings(sample)
        if t is not None:
            t["ref_s"] = (ref_before + ref_after) / 2
            t["scale"] = REF_LOOP_S / t["ref_s"]
            samples.append((ok, t))
        ref_before = ref_after
        elapsed = time.perf_counter() - t_begin
        typical = statistics.median(s["wall_s"] for _, s in samples) if samples else 0.0
        log(f"  run {len(samples)}: wall {sample['wall_s']:.3f} s"
            + (f", setup {t['setup_s']:.3f} s, sim {t['sim_s']:.3f} s,"
               f" reference loop {t['ref_s']:.4f} s" if t else ""))
        if len(samples) >= MIN_SAMPLES and elapsed + typical > seconds:
            break
        if elapsed > seconds + OVERRUN_S or (not samples and elapsed > seconds):
            break
    good = [t for ok, t in samples if ok] or [t for _, t in samples]
    if not good:
        return checker, None, {"samples": 0}

    def median_of(key, scaled=False):
        return statistics.median(t[key] * (t["scale"] if scaled else 1.0) for t in good)

    def ops_per_s(scaled):
        # Throughput over every run: sub-second sim spans fall into a
        # fast and a slow cluster, and their median jumps between them.
        span_s = sum(t["sim_s"] * (t["scale"] if scaled else 1.0) for t in good)
        return _ratio(sum(t["ops"] for t in good), span_s)

    facts = {
        "samples": len(good),
        "reference_loop_s": median_of("ref_s"),
        "unscaled": {
            "wall_s": median_of("wall_s"),
            "setup_s": median_of("setup_s"),
            "sim_ops_per_s": ops_per_s(scaled=False),
        },
    }
    if not trace:
        metrics = {
            "wall_s": median_of("wall_s", scaled=True),
            "setup_s": median_of("setup_s", scaled=True),
            "sim_ops_per_s": ops_per_s(scaled=True),
            "peak_rss_mb": median_of("peak_rss_mb"),
            "run_ok_frac": 1.0 - checker.failed / checker.attempted,
        }
        return checker, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, facts

    traced = run(argv, "traced", mode="full")
    report = layer_report(traced) if traced["main"] is not None else None
    traced_counts = exact_counts(traced, report) if report else None
    checker.check(traced, traced_counts, label="traced run")
    imports = run(argv, "importtime", python_flags=("-X", "importtime"))
    checker.check(imports, label="-X importtime run")
    obs_checker = Checker()
    obs_plain = run(OBS_ARGV, "obs-plain")
    checker.absorb(obs_checker, obs_plain)
    obs_traced = run(OBS_ARGV + ["--trace", RUN_DIR + "/trace.json"], "obs-traced")
    checker.absorb(obs_checker, obs_traced)
    if report is None:
        return checker, None, facts
    fail_frac = checker.failed / checker.attempted
    metrics = per_layer_metrics(
        report,
        traced["wall_s"],
        traced_counts,
        import_split(imports["stderr"]),
        median_of("teardown_s"),
        obs_traced["wall_s"] / obs_plain["wall_s"],
        median_of("wall_s"),
        fail_frac,
    )
    units = per_layer_units()
    facts["misnested_spans"] = report["misnested_spans"]
    facts["missing_boundaries"] = traced["main"]["missing"]
    return checker, {k: (metrics[k], units[k]) for k in units}, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        log(f"perfbench: no deepnote sources under {SRC}")
        return 2
    # Byte-compile once, so no timed run pays for writing .pyc files.
    compileall.compile_dir(SRC, quiet=2)
    scratch = os.path.join(SCRATCH, str(os.getpid()))
    os.makedirs(scratch)
    try:
        checker, metrics, facts = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another invocation's directory is still in it
    if metrics is None:
        log("perfbench: no run produced timings")
        return 1
    print(json.dumps({"host": host_facts(), "workload": args.workload,
                      "seed": args.seed, **facts}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
