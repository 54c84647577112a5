"""Batched fleet kernels and pool transport.

The rack contract mirrors :mod:`tests.test_vecphys`: *exact* equality,
never approximate.  The batched rack kernels must reproduce the per-bay
scalar chain (``DriveRack._apply_attack_scalar`` and friends) float for
float across bay counts, wall materials, and water conditions; and the
packed pool transport must round-trip row values bit for bit.
"""

from __future__ import annotations

import json

import pytest

from repro.acoustics.medium import WaterConditions
from repro.core.attack import SweepPoint
from repro.core.attacker import AttackConfig
from repro.core.environment import UnderwaterEnvironment
from repro.core.fleet import BaySweepPoint, DriveRack
from repro.errors import ConfigurationError
from repro.hdd.servo import OpKind
from repro.runtime import transport
from repro.runtime.runner import SweepRunner

GRID = [float(f) for f in range(100, 2100, 100)]

ENVIRONMENTS = {
    "tank": UnderwaterEnvironment.tank(),
    "baltic": UnderwaterEnvironment.open_water(WaterConditions.baltic_50m()),
    "natick": UnderwaterEnvironment.open_water(WaterConditions.natick_site()),
}

#: 300 Hz at 3 cm grazes the rack: bay 0 sits at p(write) ~ 0.99985 —
#: measurably degraded, not stalled (see TestHealthyBays).
GRAZING = AttackConfig(frequency_hz=300.0, source_level_db=140.0, distance_m=0.03)


def _scalar_reference(bays, metal, environment, config, frequencies=GRID):
    """Everything the per-bay scalar chain says about one rack under one
    attack, read off the rack's reference methods."""
    rack = DriveRack(bays=bays, metal=metal, environment=environment)
    vibrations = rack._apply_attack_scalar(config)
    p_write = rack._success_probabilities_scalar(OpKind.WRITE)
    return {
        "vibrations": vibrations,
        "p_write": p_write,
        "p_read": rack._success_probabilities_scalar(OpKind.READ),
        "stalled": [bay for bay, p in sorted(p_write.items()) if p == 0.0],
        "healthy": [bay for bay, p in sorted(p_write.items()) if p >= 1.0],
        "surface": rack._sweep_surface_scalar(config, [float(f) for f in frequencies]),
    }


class TestRackParity:
    """Batched rack evaluation == per-bay scalar chain, exactly."""

    @pytest.mark.parametrize("bays", [1, 2, 3, 4, 5])
    def test_rack_attack_matches_scalar_per_bay(self, bays):
        config = AttackConfig.paper_best()
        reference = _scalar_reference(bays, False, None, config)
        rack = DriveRack(bays=bays)
        vibrations = rack.apply_attack(config)
        assert vibrations == reference["vibrations"]
        assert rack.write_success_probabilities() == reference["p_write"]
        assert rack.read_success_probabilities() == reference["p_read"]
        assert rack.stalled_bays() == reference["stalled"]
        assert rack.healthy_bays() == reference["healthy"]

    @pytest.mark.parametrize("metal", [False, True])
    @pytest.mark.parametrize("env_name", sorted(ENVIRONMENTS))
    def test_parity_across_walls_and_waters(self, metal, env_name):
        environment = ENVIRONMENTS[env_name]
        config = GRAZING
        reference = _scalar_reference(3, metal, environment, config)
        rack = DriveRack(bays=3, metal=metal, environment=environment)
        assert rack.apply_attack(config) == reference["vibrations"]
        assert rack.write_success_probabilities() == reference["p_write"]
        assert rack.read_success_probabilities() == reference["p_read"]
        surface = rack.sweep_surface(GRID, config)
        assert json.dumps(surface, sort_keys=True) == json.dumps(
            reference["surface"], sort_keys=True
        )

    def test_silence_and_park_behaviour_unchanged(self):
        rack = DriveRack(bays=2)
        rack.apply_attack(AttackConfig.paper_best())
        assert rack.stalled_bays() == [0, 1]
        vibrations = rack.apply_attack(None)
        assert all(v.displacement_m == 0.0 for v in vibrations.values())
        assert rack.write_success_probabilities() == {0: 1.0, 1: 1.0}

    def test_sweep_rows_flatten_bay_major(self):
        rack = DriveRack(bays=2)
        grid = [400.0, 650.0, 900.0]
        rows = rack.sweep_rows(grid, AttackConfig.paper_best())
        assert [row.bay for row in rows] == [0, 0, 0, 1, 1, 1]
        assert [row.frequency_hz for row in rows] == grid * 2
        surface = rack.sweep_surface(grid, AttackConfig.paper_best())
        assert [row.p_write for row in rows if row.bay == 1] == (
            surface["bays"][1]["p_write"]
        )
        assert all(
            row.stalled == (row.p_write == 0.0) for row in rows
        )


class TestHealthyBays:
    """The exact-health default and the threshold escape hatch."""

    def test_degraded_bay_is_not_healthy_by_default(self):
        rack = DriveRack(bays=5)
        rack.apply_attack(GRAZING)
        probabilities = rack.write_success_probabilities()
        assert 0.999 < probabilities[0] < 1.0
        assert 0 not in rack.healthy_bays()
        assert rack.stalled_bays() == []

    def test_threshold_admits_grazing_degradation(self):
        rack = DriveRack(bays=5)
        rack.apply_attack(GRAZING)
        assert rack.healthy_bays() == []
        assert rack.healthy_bays(threshold=0.999) == [0]
        assert rack.healthy_bays(threshold=0.97) == [0, 1, 2, 3, 4]

    def test_quiet_rack_is_exactly_healthy(self):
        rack = DriveRack(bays=3)
        assert rack.healthy_bays() == [0, 1, 2]

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.0001, 2.0])
    def test_threshold_validation(self, threshold):
        rack = DriveRack(bays=2)
        with pytest.raises(ConfigurationError):
            rack.healthy_bays(threshold=threshold)


def _bay_row(spec) -> BaySweepPoint:
    bay, f = spec
    return BaySweepPoint(
        bay=bay,
        frequency_hz=f,
        displacement_m=f * 1e-9,
        offtrack_m=f * 1e-10,
        p_write=0.5,
        p_read=0.75,
    )


def _sweep_row(f) -> SweepPoint:
    return SweepPoint(frequency_hz=f, write_mbps=f / 10.0, read_mbps=f / 5.0)


class TestTransport:
    """Packed rows cross the pool boundary bit for bit."""

    def test_round_trip_both_hot_row_types(self):
        bay_rows = [_bay_row((b, float(f))) for b in (0, 1) for f in (100, 650)]
        sweep_rows = [_sweep_row(float(f)) for f in (100, 650, 2000)]
        for rows in (bay_rows, sweep_rows):
            outcomes = [(row, None, None) for row in rows]
            packed = transport.pack_outcomes(outcomes)
            assert isinstance(packed, tuple)
            assert packed[0] == transport.PACKED_MARKER
            assert transport.maybe_unpack(packed) == outcomes

    def test_telemetry_carrying_batch_falls_back_to_pickle(self):
        outcomes = [(_sweep_row(100.0), {"spans": []}, None)]
        assert transport.pack_outcomes(outcomes) is None

    def test_heterogeneous_and_unregistered_batches_fall_back(self):
        mixed = [(_sweep_row(100.0), None, None), (_bay_row((0, 100.0)), None, None)]
        assert transport.pack_outcomes(mixed) is None
        assert transport.pack_outcomes([("a string", None, None)]) is None
        assert transport.pack_outcomes([]) is None

    def test_non_packed_results_pass_through(self):
        outcomes = [(_sweep_row(100.0), None, None)]
        assert transport.maybe_unpack(outcomes) is outcomes

    def test_unknown_codec_id_is_an_error(self):
        with pytest.raises(ConfigurationError):
            transport.maybe_unpack((transport.PACKED_MARKER, "no-such-codec/9", b""))

    def test_registration_is_idempotent_but_conflicts_raise(self):
        fields = (
            ("bay", "q"),
            ("frequency_hz", "d"),
            ("displacement_m", "d"),
            ("offtrack_m", "d"),
            ("p_write", "d"),
            ("p_read", "d"),
        )
        transport.register_row_codec("bay-sweep-point/1", BaySweepPoint, fields)
        with pytest.raises(ConfigurationError):
            transport.register_row_codec(
                "bay-sweep-point/1", BaySweepPoint, fields[:2]
            )
        with pytest.raises(ConfigurationError):
            transport.register_row_codec("bad/1", SweepPoint, (("frequency_hz", "f"),))

    def test_pooled_map_matches_inline_bit_for_bit(self):
        specs = [(bay, float(f)) for bay in (0, 1, 2) for f in (100, 650, 2000)]
        inline = SweepRunner(workers=1).map(_bay_row, specs)
        pooled = SweepRunner(workers=2).map(_bay_row, specs)
        assert pooled == inline
        assert all(isinstance(row, BaySweepPoint) for row in pooled)
