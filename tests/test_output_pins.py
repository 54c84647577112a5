"""Pinned digests of the three headline outputs.

Each digest is the sha256 of a serialized result recorded before the
physics paths were made unconditional; any change to the acoustics →
vibration → servo → I/O chain, the batched rack kernels or the fleet
service loop that moves a single byte fails here.

* Figure 2: the Scenario 2 sweep (100–2000 Hz, step 100) as the write
  CSV followed by the read CSV.
* Rack surface: a 5-bay :meth:`DriveRack.sweep_surface` over
  100–4000 Hz in 10 Hz steps, serialized with sorted keys.
* Fleet: the per-rack outcomes of a 4-rack × 50-tower campaign, which
  must also equal the outcomes of simulating each rack on its own.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.fleet import AttackWindow, DriveRack, FleetSim, FleetSpec
from repro.core.scenario import Scenario
from repro.experiments.figure2 import run_figure2

FIGURE2_SHA256 = "f3c748ef335267d39601ba1114796e7ca581ab446dd71c04878f26ca1f418913"
RACK_SURFACE_SHA256 = "22d854cb5968761d0814a6fe75759cbf0332b2ec76e3cab7b64e36099598ba4e"
FLEET_OUTCOMES_SHA256 = "ac1dbaecfa8e9274af60f64b6342356f29db607acb5f4cf251f16b6f7626e93e"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_figure2_csv_digest():
    result = run_figure2(
        frequencies_hz=[float(f) for f in range(100, 2100, 100)],
        scenarios=[Scenario.scenario_2()],
        fio_runtime_s=0.4,
        seed=7,
    )
    csv = result.to_csv("write") + result.to_csv("read")
    assert _sha256(csv) == FIGURE2_SHA256


def test_rack_surface_digest():
    surface = DriveRack(bays=5).sweep_surface(
        [float(f) for f in range(100, 4001, 10)]
    )
    assert _sha256(json.dumps(surface, sort_keys=True)) == RACK_SURFACE_SHA256


def test_fleet_outcomes_digest_and_shard_identity():
    spec = FleetSpec(
        racks=4,
        towers_per_rack=50,
        bays=5,
        duration_s=30.0,
        request_rate_hz=100.0,
        rebuild_s=5.0,
        seed=10,
        attacks=(AttackWindow(2.0, 10.0, 650.0, 139.0, 0.05),),
    )
    whole = [outcome.to_payload() for outcome in FleetSim(spec).run().outcomes]
    assert _sha256(json.dumps(whole, sort_keys=True)) == FLEET_OUTCOMES_SHA256
    sharded = [
        FleetSim(spec, rack_indices=(index,)).run().outcomes[0].to_payload()
        for index in range(spec.racks)
    ]
    assert sharded == whole
