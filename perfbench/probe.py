"""Child side of the benchmark: runs ``repro.cli.main`` under probes.

Usage::

    python3 perfbench/probe.py MODE OUT_DIR -- DEEPNOTE_ARGV...

``MODE`` is ``light`` or ``full``:

* ``light`` wraps only the simulated-operation entry points
  (``FioTester.run``, ``DbBench.*``, ``FleetSim.run``,
  ``SweepRunner.map``).  The first call marks the end of set-up, the
  returned results give the simulated operation count and the
  scheduler's own counter gives the events ``FleetSim.run`` fired.
  Timed runs use this mode.
* ``full`` additionally records a span at every layer boundary listed
  in :data:`BOUNDARIES` and one span per module import.  Spans stay in
  memory and are written to ``OUT_DIR`` when the process ends; forked
  pool workers write their own file.

Patches are applied when a target module finishes executing, through a
finder placed first on ``sys.meta_path``, so nothing is imported ahead
of the program's own import order.  Wrappers only observe: they read
attributes and results and never change arguments, state or RNG draws.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: (module, attribute path, layer) for every wrapped layer boundary.
BOUNDARIES = (
    ("repro.hdd.drive", "HardDiskDrive.__init__", "hdd"),
    ("repro.hdd.drive", "HardDiskDrive.read", "hdd"),
    ("repro.hdd.drive", "HardDiskDrive.write", "hdd"),
    ("repro.hdd.drive", "HardDiskDrive.flush", "hdd"),
    ("repro.vecphys", "sweep_surface", "vecphys"),
    ("repro.vecphys", "run_sequential_static", "vecphys"),
    ("repro.vecphys", "rack_attack", "vecphys"),
    ("repro.vecphys", "fleet_surface", "vecphys"),
    ("repro.workloads.fio", "FioTester.run", "workloads"),
    ("repro.workloads.db_bench", "DbBench.fill_seq", "workloads"),
    ("repro.workloads.db_bench", "DbBench.read_random", "workloads"),
    ("repro.workloads.db_bench", "DbBench.read_while_writing", "workloads"),
    ("repro.core.attack", "AttackSession.__init__", "core"),
    ("repro.core.attack", "AttackSession.baseline", "core"),
    ("repro.core.attack", "AttackSession.frequency_sweep", "core"),
    ("repro.core.attack", "AttackSession.range_test", "core"),
    ("repro.core.coupling", "AttackCoupling.apply", "core"),
    ("repro.core.coupling", "AttackCoupling.vibration_at_drive", "core"),
    ("repro.core.fieldcache", "AcousticFieldCache.get", "core"),
    ("repro.core.fieldcache", "AcousticFieldCache.put", "core"),
    ("repro.core.fleet", "FleetSim.__init__", "core.fleet"),
    ("repro.core.fleet", "FleetSim.run", "core.fleet"),
    ("repro.core.fleet", "FleetRack.__init__", "core.fleet"),
    ("repro.core.fleet", "FleetRack.service_tick", "core.fleet"),
    ("repro.storage.kv.db", "DB.get", "storage.kv"),
    ("repro.storage.kv.db", "DB.put", "storage.kv"),
    ("repro.storage.kv.db", "DB.write", "storage.kv"),
    ("repro.storage.kv.db", "DB.flush", "storage.kv"),
    ("repro.storage.kv.sstable", "SSTableReader.get", "storage.kv"),
    ("repro.storage.kv.compaction", "Compactor.run", "storage.kv"),
    ("repro.storage.fs.journal", "Journal.commit", "storage.fs"),
    ("repro.storage.block", "BlockDevice.read_block", "storage.block"),
    ("repro.storage.block", "BlockDevice.write_block", "storage.block"),
    ("repro.storage.raid", "RaidGroup.__init__", "storage.raid"),
    ("repro.storage.raid", "RaidGroup.fail_member", "storage.raid"),
    ("repro.storage.raid", "RaidGroup.restore_member", "storage.raid"),
    ("repro.storage.raid", "RaidGroup.finalize", "storage.raid"),
    ("repro.sim.events", "EventScheduler.run", "sim"),
    ("repro.sim.events", "EventScheduler.run_until", "sim"),
    ("repro.sim.events", "EventScheduler.step", "sim"),
    ("repro.rng", "ReproRandom.fork", "rng"),
    ("repro.runtime.runner", "SweepRunner.map", "runtime"),
    ("repro.runtime.cache", "ResultCache.put", "runtime"),
    ("repro.runtime.journal", "CampaignJournal.record_ok", "runtime"),
    ("repro.runtime.transport", "pack_outcomes", "runtime"),
    ("repro.runtime.transport", "maybe_unpack", "runtime"),
    ("concurrent.futures", "wait", "runtime"),
    ("concurrent.futures", "as_completed", "runtime"),
    ("repro.obs.trace", "Tracer.record", "obs"),
    ("repro.obs.metrics", "MetricsRegistry.counter", "obs"),
    ("repro.experiments.figure2", "Figure2Result.render", "render"),
    ("repro.experiments.figure2", "Figure2Result.to_csv", "render"),
    ("repro.experiments.table2", "Table2Result.render", "render"),
    ("repro.core.fleet", "FleetResult.render", "render"),
)


def _op_count(attribute):
    return lambda result: getattr(result, attribute, 0)


#: The simulated-operation entry points: the first call to any of them
#: ends set-up, and the count function reads the operations a call
#: simulated from its result (None: the entry point only dispatches).
OP_ENTRIES = {
    ("repro.workloads.fio", "FioTester.run"): _op_count("completed_ops"),
    ("repro.workloads.db_bench", "DbBench.fill_seq"): _op_count("ops"),
    ("repro.workloads.db_bench", "DbBench.read_random"): _op_count("ops"),
    ("repro.workloads.db_bench", "DbBench.read_while_writing"): _op_count("ops"),
    ("repro.core.fleet", "FleetSim.run"): _op_count("ops"),
    ("repro.runtime.runner", "SweepRunner.map"): None,
}


def _retries_before(args, kwargs):
    return args[0].controller.retries


def _count_retries(rec, token, args, kwargs, result):
    rec.counts["hdd.retries"] += args[0].controller.retries - token


def _count_closed_form(rec, token, args, kwargs, result):
    if result is not None:
        rec.counts["vecphys.closed_form"] += 1


def _count_points(rec, token, args, kwargs, result):
    specs = args[2] if len(args) > 2 else kwargs.get("specs", ())
    rec.counts["runtime.points"] += len(specs)


def _count_event(rec, token, args, kwargs, result):
    if result:
        rec.counts["sim.events"] += 1


def _count_block_bytes(rec, token, args, kwargs, result):
    data = args[2] if len(args) > 2 else kwargs.get("data", b"")
    rec.counts["storage.block.bytes_written"] += len(data)


def _count_user_bytes(rec, token, args, kwargs, result):
    key = args[1] if len(args) > 1 else kwargs.get("key", b"")
    value = args[2] if len(args) > 2 else kwargs.get("value", b"")
    rec.counts["storage.kv.user_bytes"] += len(key) + len(value)


#: Counters read at a boundary: attribute path -> (before, after).
COUNTERS = {
    "HardDiskDrive.read": (_retries_before, _count_retries),
    "HardDiskDrive.write": (_retries_before, _count_retries),
    "HardDiskDrive.flush": (_retries_before, _count_retries),
    "run_sequential_static": (None, _count_closed_form),
    "SweepRunner.map": (None, _count_points),
    "EventScheduler.step": (None, _count_event),
    "BlockDevice.write_block": (None, _count_block_bytes),
    "DB.put": (None, _count_user_bytes),
}


def _fired_before(args, kwargs):
    return args[0].scheduler.fired


def _count_fired(rec, token, args, kwargs, result):
    rec.counts["sim.events"] += args[0].scheduler.fired - token


#: Counters the light probe reads at an operation entry point.  They
#: read a count the program keeps anyway, so timed runs pay nothing for
#: them; in full mode ``EventScheduler.step`` counts the same events.
LIGHT_COUNTERS = {
    "FleetSim.run": (_fired_before, _count_fired),
}

COUNTER_NAMES = (
    "hdd.retries",
    "vecphys.closed_form",
    "runtime.points",
    "sim.events",
    "storage.block.bytes_written",
    "storage.kv.user_bytes",
)


class Recorder:
    """Spans and counters of one process, kept in flat arrays.

    Span ``i`` has name index ``names[i]``, parent span ``parents[i]``
    (-1 for a top-level span) and ``starts[i]``/``ends[i]`` on the
    system-wide monotonic clock, so spans from the benchmark parent,
    this process and its pool workers share one time base.  Only the
    main thread records spans; other threads call straight through.
    """

    def __init__(self, full: bool) -> None:
        self.full = full
        self.name_table = []  # [(name, layer)]
        self.name_ids = {}
        self.role = "main"
        self._clear()

    def _clear(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.main_ident = threading.get_ident()
        self.first_op_t = None
        self.ops = 0

    def name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        nid = self.name_ids.get(key)
        if nid is None:
            nid = len(self.name_table)
            self.name_table.append(key)
            self.name_ids[key] = nid
        return nid

    def open(self, nid: int) -> int:
        index = len(self.starts)
        self.names.append(nid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        if self.stack[-1] == index:
            self.stack.pop()
        elif index in self.stack:
            # A lazily executed import closes out of order.
            self.stack.remove(index)

    def on_main_thread(self) -> bool:
        return threading.get_ident() == self.main_ident

    def reset_for_worker(self) -> None:
        """Start empty in a forked pool worker and flush at its exit."""
        self._clear()
        self.role = "worker"
        import multiprocessing.util

        multiprocessing.util.Finalize(None, self.write, exitpriority=100)

    def write(self, main_return_t=None) -> None:
        payload = {
            "role": self.role,
            "pid": os.getpid(),
            "full": self.full,
            "name_table": self.name_table,
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "counts": self.counts,
            "first_op_t": self.first_op_t,
            "ops": self.ops,
            "main_return_t": main_return_t,
            "missing": MISSING,
        }
        path = os.path.join(OUT_DIR, f"probe-{self.role}-{os.getpid()}.pkl")
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


REC: Recorder
OUT_DIR = ""
MISSING = []


def _wrap(fn, name: str, layer: str, op_count, counter):
    """A wrapper for ``fn`` that records what the probe mode asks for."""
    rec = REC
    is_op = op_count is not False
    perf_counter = time.perf_counter
    before, after = counter if counter is not None else (None, None)

    if not rec.full:
        # Light mode wraps only operation entry points.
        def light(*args, **kwargs):
            if rec.first_op_t is None:
                rec.first_op_t = perf_counter()
            token = before(args, kwargs) if before is not None else None
            result = fn(*args, **kwargs)
            if after is not None:
                after(rec, token, args, kwargs, result)
            if op_count is not None:
                rec.ops += op_count(result)
            return result

        return light

    nid = rec.name_id(name, layer)

    def full(*args, **kwargs):
        if not rec.on_main_thread():
            return fn(*args, **kwargs)
        if is_op and rec.first_op_t is None:
            rec.first_op_t = perf_counter()
        token = before(args, kwargs) if before is not None else None
        result = None
        index = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(index)
            if after is not None:
                after(rec, token, args, kwargs, result)
            if is_op and op_count is not None and result is not None:
                rec.ops += op_count(result)

    if name == "as_completed":
        # A generator: time each wait for the next finished future.
        def iterate(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                main = rec.on_main_thread()
                index = rec.open(nid) if main else -1
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if main:
                        rec.close(index)
                yield item

        return iterate
    return full


def _patch_module(module) -> None:
    """Wrap every boundary that lives in ``module``."""
    for module_name, path, layer in _BOUNDARIES_BY_MODULE.get(module.__name__, ()):
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            MISSING.append(f"{module_name}:{path}")
            continue
        op_count = OP_ENTRIES.get((module_name, path), False)
        counters = COUNTERS if REC.full else LIGHT_COUNTERS
        wrapped = _wrap(fn, path, layer, op_count, counters.get(path))
        setattr(owner, attr, wrapped)


def _hook_multiprocessing(module) -> None:
    # Pool workers are forked by multiprocessing, which clears its
    # finalizer registry and then runs the after-fork hooks; the hook
    # empties the recorder and registers its exit flush.
    module.register_after_fork(REC, Recorder.reset_for_worker)


class _TimedLoader:
    """Delegating loader: times the import in full mode, then patches."""

    def __init__(self, loader, name: str, nid) -> None:
        self._loader = loader
        self._name = name
        self._nid = nid
        self._span = -1

    def create_module(self, spec):
        if self._nid is not None and REC.on_main_thread():
            self._span = REC.open(self._nid)
        try:
            return self._loader.create_module(spec)
        except BaseException:
            self._close()
            raise

    def exec_module(self, module) -> None:
        # Hand the real loader back to the module before it runs, so
        # nothing after the import sees this wrapper.
        module.__loader__ = self._loader
        if module.__spec__ is not None:
            module.__spec__.loader = self._loader
        try:
            self._loader.exec_module(module)
        finally:
            self._close()
        action = _ON_IMPORT.pop(self._name, None)
        if action is not None:
            action(module)

    def _close(self) -> None:
        if self._span >= 0:
            REC.close(self._span)
            self._span = -1

    def __getattr__(self, name):
        return getattr(self._loader, name)


class _ProbeFinder:
    """First finder on ``sys.meta_path``; wraps the loaders it needs."""

    def find_spec(self, fullname, path=None, target=None):
        if not REC.full and fullname not in _ON_IMPORT:
            return None
        spec = None
        for finder in sys.meta_path:
            find = getattr(finder, "find_spec", None)
            if finder is self or find is None:
                continue
            spec = find(fullname, path, target)
            if spec is not None:
                break
        if spec is None or not hasattr(spec.loader, "exec_module"):
            return spec
        nid = None
        if REC.full:
            nid = REC.name_id("import " + fullname.partition(".")[0], "import")
        spec.loader = _TimedLoader(spec.loader, fullname, nid)
        return spec


#: module name -> what to do once it has executed (each runs once).
_ON_IMPORT = {}
_BOUNDARIES_BY_MODULE = {}


def install(full: bool, out_dir: str) -> Recorder:
    """Set up the recorder and the finder that patches on import."""
    global REC, OUT_DIR
    REC = Recorder(full)
    OUT_DIR = out_dir
    wanted = BOUNDARIES if full else [
        (module, path, "workloads") for (module, path) in OP_ENTRIES
    ]
    for module, path, layer in wanted:
        _BOUNDARIES_BY_MODULE.setdefault(module, []).append((module, path, layer))
        _ON_IMPORT[module] = _patch_module
    _ON_IMPORT["multiprocessing.util"] = _hook_multiprocessing
    for name in sorted(_ON_IMPORT):
        if name in sys.modules:
            _ON_IMPORT.pop(name)(sys.modules[name])
    sys.meta_path.insert(0, _ProbeFinder())
    return REC


def main(argv) -> None:
    mode, out_dir, sep, *cli_argv = argv
    if mode not in ("light", "full") or sep != "--":
        raise SystemExit("usage: probe.py light|full OUT_DIR -- ARGV...")
    install(mode == "full", out_dir)
    # Import repro from the checkout's src/, not from this directory.
    sys.path[0] = SRC
    status = 1
    try:
        from repro.cli import main as cli_main

        status = cli_main(cli_argv)
    finally:
        main_return_t = time.perf_counter()
        REC.write(main_return_t)
    sys.exit(status)


if __name__ == "__main__":
    main(sys.argv[1:])
