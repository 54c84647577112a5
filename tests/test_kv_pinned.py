"""Exact kv outputs, pinned so that hot-path rewrites cannot drift.

A small write buffer makes one ``fill_seq`` + ``read_while_writing``
run flush many times, serve reads from SSTables and compact L0 into
L1.  A tail of deletes, overwrites and snapshot reads then exercises
tombstones in both the memtable and the tables.  Every pinned figure
was recorded before the memtable, SSTable probe and DB.get/put were
rewritten for speed; any change to them is a behaviour change.
"""

import dataclasses
import hashlib

import pytest

from repro.hdd.drive import HardDiskDrive
from repro.rng import make_rng
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS
from repro.storage.kv.db import DB, Options
from repro.storage.kv.sstable import SSTableReader
from repro.workloads.db_bench import DbBench, DbBenchConfig

FILL = {
    "workload": "fillseq",
    "ops": 2000,
    "reads": 0,
    "writes": 2000,
    "bytes_moved": 160000,
    "elapsed_s": 0.20730631335751246,
    "aborted": False,
    "abort_reason": "",
}
READ_WHILE_WRITING = {
    "workload": "readwhilewriting",
    "ops": 1136,
    "reads": 852,
    "writes": 284,
    "bytes_moved": 90880,
    "elapsed_s": 0.05002436184261891,
    "aborted": False,
    "abort_reason": "",
}
STATS = {
    "puts": 2305,
    "gets": 1041,
    "deletes": 21,
    "get_hits": 996,
    "flushes": 14,
    "wal_syncs": 0,
    "bytes_written": 183812,
    "bytes_read": 61896,
}
SCAN_SHA256 = "710a63d360891f2033eaf5f2fa7a1eddfb96b886bb3870c16503eaef3ff519ba"
TAIL_SHA256 = "9aad23cffadd4a1dc21c9efd21cbfc0b39ce2076dac6d6216a8bfeb8abbb9677"
LEVELS = "L0:2 L1:3"
COMPACTIONS = 3
SSTABLE_NUMBER = 11
SSTABLE_SHA256 = "7e4521b1ea1eeef68e6c2428c4da3a1ab807a6fb49cb9bda92a023c2ace6de47"


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(4, "little"))
        h.update(chunk)
    return h.hexdigest()


@pytest.fixture(scope="module")
def run():
    sst_gets = [0]
    original = SSTableReader.get

    def counting_get(self, key, snapshot=None):
        sst_gets[0] += 1
        return original(self, key, snapshot)

    SSTableReader.get = counting_get
    try:
        rng = make_rng(5).fork("kv-pinned")
        drive = HardDiskDrive(rng=rng.fork("drive"))
        fs = SimFS.mkfs(BlockDevice(drive), commit_interval_s=3600.0)
        fs.mkdir("/db")
        db = DB.open(
            fs,
            "/db",
            options=Options(write_buffer_size=16 << 10, l0_compaction_trigger=4),
            rng=rng.fork("db"),
        )
        bench = DbBench(
            db, DbBenchConfig(num_preload=2000, duration_s=0.05), rng=rng.fork("bench")
        )
        fill = bench.fill_seq()
        rww = bench.read_while_writing()
        flushes_after_bench = db.stats.flushes
        sst_gets_after_bench = sst_gets[0]

        # Tail: a snapshot, then deletes and overwrites on both sides of a
        # flush, read back with and without the snapshot.
        keys = [bench._key(i) for i in range(0, 2300, 37)]
        snap = db.snapshot()
        for i, key in enumerate(keys):
            if i % 3 == 0:
                db.delete(key)
            elif i % 3 == 1:
                db.put(key, b"new-" + key)
        reads_unflushed = [db.get(k) or b"<none>" for k in keys]
        db.flush()
        reads = [db.get(k) or b"<none>" for k in keys]
        reads_snap = [db.get(k, snapshot=snap) or b"<none>" for k in keys]
        db.release_snapshot(snap)
    finally:
        SSTableReader.get = original

    first_l1 = min(db.versions.files_at(1), key=lambda m: m.number)
    return {
        "fill": dataclasses.asdict(fill),
        "rww": dataclasses.asdict(rww),
        "stats": dataclasses.asdict(db.stats),
        "flushes_after_bench": flushes_after_bench,
        "sst_gets_after_bench": sst_gets_after_bench,
        "compactions": db.compactor.compactions_run,
        "levels": db.level_summary(),
        "scan": _digest(k + b"=" + v for k, v in db.scan()),
        "tail": _digest(reads_unflushed + reads + reads_snap),
        "sstable_number": first_l1.number,
        "sstable": hashlib.sha256(
            fs.read_file(db.versions.table_path(first_l1.number))
        ).hexdigest(),
    }


def test_branches_ran(run):
    assert run["flushes_after_bench"] >= 3
    assert run["sst_gets_after_bench"] > 0
    assert run["compactions"] >= 1


def test_bench_results(run):
    assert run["fill"] == FILL
    assert run["rww"] == READ_WHILE_WRITING


def test_db_stats(run):
    assert run["stats"] == STATS
    assert run["compactions"] == COMPACTIONS
    assert run["levels"] == LEVELS


def test_scan_and_tail_reads(run):
    assert run["scan"] == SCAN_SHA256
    assert run["tail"] == TAIL_SHA256


def test_sstable_bytes(run):
    assert run["sstable_number"] == SSTABLE_NUMBER
    assert run["sstable"] == SSTABLE_SHA256
