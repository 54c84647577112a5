"""Pinned fleet outputs: the service loop and rack layout must not drift.

The values below were recorded before the fleet racks were slimmed to a
single reference tower and the service loop was rewritten; both changes
are required to leave every rendered byte and every outcome field
(latency sums included) exactly as they were.  Between them the two
specs drive all three service branches:

* ``RAID5`` at 8 cm stalls bay 4 only: the raid5 groups run degraded but
  online, so stalled-bay ops are served through reconstruction, while
  bays 0-3 sit at 0 < p < 1 and retry.
* ``JBOD`` runs the same tone over independent disks: every op on the
  stalled bay fails.  ``max_attempts=1000`` makes exhausted retries
  practically impossible, so its errors come from the stalled bay alone.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.fleet import AttackWindow, FleetSim, FleetSpec, run_fleet
from repro.hdd.drive import HardDiskDrive
from repro.runtime import SweepRunner

RAID5 = FleetSpec(
    racks=2,
    towers_per_rack=3,
    bays=5,
    raid="raid5",
    duration_s=8.0,
    request_rate_hz=40.0,
    rebuild_s=2.0,
    seed=5,
    attacks=(AttackWindow(1.0, 3.0, 650.0, 139.0, 0.08),),
)

JBOD = FleetSpec(
    racks=2,
    towers_per_rack=2,
    bays=5,
    raid="none",
    duration_s=6.0,
    request_rate_hz=30.0,
    rebuild_s=1.0,
    max_attempts=1000,
    seed=9,
    attacks=(AttackWindow(1.0, 2.0, 650.0, 139.0, 0.08),),
)

PINNED = {
    "raid5": (
        RAID5,
        "51390582d1ca86ffe064bd5ac7bf2450e9a1e30c59bddb8bd958fd482a032f59",
        [
            {
                "rack": 0, "towers": 3, "drives": 15, "ops_ok": 293,
                "ops_degraded": 11, "ops_error": 27, "downtime_s": 0.0,
                "degraded_s": 15.0, "groups_degraded": 3, "groups_offline": 0,
                "rebuilds": 3, "stalled_bays_peak": 1, "p_write_min": 0.0,
                "latency_sum_s": 3.3920000000000026, "latency_max_s": 0.08,
                "events": 28,
            },
            {
                "rack": 1, "towers": 3, "drives": 15, "ops_ok": 303,
                "ops_degraded": 7, "ops_error": 17, "downtime_s": 0.0,
                "degraded_s": 15.0, "groups_degraded": 3, "groups_offline": 0,
                "rebuilds": 3, "stalled_bays_peak": 1, "p_write_min": 0.0,
                "latency_sum_s": 3.5760000000000027, "latency_max_s": 0.08,
                "events": 28,
            },
        ],
    ),
    "jbod": (
        JBOD,
        "039495a99ea63e74ed1af912ab8b813eddb6a04ef97b793b93946cab888ceab7",
        [
            {
                "rack": 0, "towers": 2, "drives": 10, "ops_ok": 175,
                "ops_degraded": 0, "ops_error": 5, "downtime_s": 0.0,
                "degraded_s": 6.0, "groups_degraded": 2, "groups_offline": 2,
                "rebuilds": 2, "stalled_bays_peak": 1, "p_write_min": 0.0,
                "latency_sum_s": 4.504000000000002, "latency_max_s": 0.752,
                "events": 22,
            },
            {
                "rack": 1, "towers": 2, "drives": 10, "ops_ok": 175,
                "ops_degraded": 0, "ops_error": 5, "downtime_s": 0.0,
                "degraded_s": 6.0, "groups_degraded": 2, "groups_offline": 2,
                "rebuilds": 2, "stalled_bays_peak": 1, "p_write_min": 0.0,
                "latency_sum_s": 3.328000000000001, "latency_max_s": 0.4,
                "events": 22,
            },
        ],
    ),
}


def _run(spec, sharded):
    return run_fleet(spec, SweepRunner(workers=1) if sharded else None)


def _retry_latency_s(spec, outcome):
    """Latency beyond first-try and reconstruction service: retries only."""
    first_try = spec.base_latency_s * (outcome.ops_ok - outcome.ops_degraded)
    reconstructed = spec.base_latency_s * spec.bays * outcome.ops_degraded
    return outcome.latency_sum_s - first_try - reconstructed


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_fleet_output_is_pinned(name, sharded):
    spec, digest, payloads = PINNED[name]
    result = _run(spec, sharded)
    assert hashlib.sha256(result.render().encode()).hexdigest() == digest
    assert [outcome.to_payload() for outcome in result.outcomes] == payloads


def test_pinned_specs_exercise_every_service_branch():
    raid5 = _run(RAID5, sharded=False).outcomes
    jbod = _run(JBOD, sharded=False).outcomes
    # A retried 0 < p < 1 op: some latency is neither first-try nor
    # reconstruction.
    for spec, outcomes in ((RAID5, raid5), (JBOD, jbod)):
        for outcome in outcomes:
            assert _retry_latency_s(spec, outcome) > spec.base_latency_s / 2
    # A stalled bay absorbed by a degraded, still-online raid5 group.
    for outcome in raid5:
        assert outcome.ops_degraded > 0
        assert outcome.groups_degraded == RAID5.towers_per_rack
        assert outcome.groups_offline == 0
    # Errors from the stalled bay of an independent-disk layout.
    for outcome in jbod:
        assert outcome.ops_error > 0 and outcome.ops_degraded == 0
        assert outcome.groups_offline == JBOD.towers_per_rack


def test_fleet_builds_drives_for_the_reference_tower_only(monkeypatch):
    built = []
    init = HardDiskDrive.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HardDiskDrive, "__init__", counting_init)
    FleetSim(RAID5)
    assert len(built) == RAID5.racks * RAID5.bays
