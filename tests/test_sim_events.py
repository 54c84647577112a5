"""The fleet-scale event engine: ordering, determinism, fleet campaigns.

The contract under test (docs/SIMULATION.md, docs/FLEET.md):

* simultaneous events fire in ``(lane, seq)`` order — attack edges
  before service ticks before monitors — and cancellation/re-entrancy
  behave deterministically;
* a rack simulated alone is byte-identical to the same rack simulated
  with the rest of the fleet on one scheduler (the sharding property);
* a fleet campaign killed mid-run resumes from its journal to a
  byte-identical report at any worker count;
* RAID groups account degraded/offline/rebuild time correctly under a
  139 dB attack window.
"""

import math

import pytest

from repro import obs
from repro.core.fleet import (
    AttackWindow,
    FleetSim,
    FleetSpec,
    RackOutcome,
    run_fleet,
)
from repro.errors import CampaignAborted, ConfigurationError
from repro.runtime import FaultPlan, SweepRunner, fingerprint, make_runner
from repro.sim import (
    LANE_ATTACK,
    LANE_MONITOR,
    LANE_REPAIR,
    LANE_SERVICE,
    EventScheduler,
)
from repro.storage.raid import RaidGroup, RaidLevel


# --------------------------------------------------------------------------
# EventScheduler: ordering, cancellation, re-entrancy, actor RNG
# --------------------------------------------------------------------------


class TestSchedulerOrdering:
    def test_simultaneous_events_fire_in_lane_order(self):
        sched = EventScheduler()
        calls = []
        # Scheduled in the "wrong" order on purpose: lanes must win.
        sched.schedule(1.0, lambda: calls.append("monitor"), lane=LANE_MONITOR)
        sched.schedule(1.0, lambda: calls.append("service"), lane=LANE_SERVICE)
        sched.schedule(1.0, lambda: calls.append("repair"), lane=LANE_REPAIR)
        sched.schedule(1.0, lambda: calls.append("attack"), lane=LANE_ATTACK)
        sched.schedule(0.5, lambda: calls.append("early"))
        sched.run()
        assert calls == ["early", "attack", "service", "repair", "monitor"]

    def test_same_time_same_lane_fires_in_scheduling_order(self):
        sched = EventScheduler()
        calls = []
        for tag in ("a", "b", "c"):
            sched.schedule(2.0, lambda tag=tag: calls.append(tag))
        sched.run()
        assert calls == ["a", "b", "c"]

    def test_cancelled_event_is_skipped(self):
        sched = EventScheduler()
        calls = []
        keep = sched.schedule(1.0, lambda: calls.append("keep"))
        drop = sched.schedule(1.0, lambda: calls.append("drop"))
        drop.cancel()
        assert len(sched.queue) == 1
        sched.run()
        assert calls == ["keep"]
        assert not keep.cancelled

    def test_reentrant_scheduling_at_current_time_fires_same_run(self):
        sched = EventScheduler()
        calls = []

        def fire_then_chain():
            calls.append("first")
            sched.schedule(0.0, lambda: calls.append("chained"))

        sched.schedule(1.0, fire_then_chain)
        sched.run_until(1.0)
        assert calls == ["first", "chained"]
        assert sched.now == 1.0

    def test_schedule_at_rejects_the_past(self):
        sched = EventScheduler()
        sched.schedule_at(1.0, lambda: None)
        sched.run_until(1.0)
        with pytest.raises(ConfigurationError):
            sched.schedule_at(0.5, lambda: None)

    def test_run_until_fires_events_exactly_on_deadline(self):
        sched = EventScheduler()
        calls = []
        sched.schedule(2.0, lambda: calls.append("edge"))
        sched.run_until(2.0)
        assert calls == ["edge"]


class TestActorRng:
    def test_rng_for_is_cached(self):
        sched = EventScheduler()
        assert sched.rng_for("rack0") is sched.rng_for("rack0")

    def test_streams_depend_on_label_not_fork_order(self):
        a = EventScheduler(name="fleet")
        b = EventScheduler(name="fleet")
        first = a.rng_for("rack0").random()
        _ = b.rng_for("rack7")  # fork something else first
        assert b.rng_for("rack0").random() == first

    def test_fired_events_reach_the_obs_bundle(self):
        with obs.session(obs.Telemetry()) as tel:
            sched = EventScheduler(name="unit")
            sched.schedule(0.5, lambda: None)
            sched.schedule(1.0, lambda: None)
            sched.run()
        assert tel.metrics.counter_value("sim_events_fired_total", scheduler="unit") == 2
        assert "sim/events" in tel.series.names()


# --------------------------------------------------------------------------
# RaidGroup availability accounting
# --------------------------------------------------------------------------


class TestRaidGroup:
    def test_degraded_time_accrues_between_fail_and_restore(self):
        group = RaidGroup(RaidLevel.RAID5, 5)
        group.fail_member(2, t_s=10.0)
        assert group.degraded and group.online
        group.restore_member(2, t_s=25.0)
        assert group.rebuilds == 1
        assert not group.degraded
        group.finalize(60.0)
        assert group.degraded_s == 15.0

    def test_offline_beyond_tolerance_and_common_mode(self):
        group = RaidGroup(RaidLevel.RAID5, 5)
        for bay in range(5):  # the acoustic common-mode case
            group.fail_member(bay, t_s=5.0)
        assert not group.online and group.ever_offline
        group.finalize(9.0)
        assert group.degraded_s == 4.0

    def test_raid1_tolerates_all_but_one(self):
        group = RaidGroup(RaidLevel.RAID1, 3)
        group.fail_member(0, 0.0)
        group.fail_member(1, 0.0)
        assert group.online
        group.fail_member(2, 0.0)
        assert not group.online

    def test_jbod_has_no_tolerance(self):
        group = RaidGroup(None, 4)
        group.fail_member(3, 1.0)
        assert not group.online

    def test_double_fail_and_restore_are_idempotent(self):
        group = RaidGroup(RaidLevel.RAID5, 3)
        assert group.fail_member(0, 1.0)
        assert not group.fail_member(0, 2.0)
        assert group.restore_member(0, 3.0)
        assert not group.restore_member(0, 4.0)
        assert group.rebuilds == 1
        assert group.degraded_s == 2.0

    def test_member_minimums(self):
        with pytest.raises(ConfigurationError):
            RaidGroup(RaidLevel.RAID5, 2)
        with pytest.raises(ConfigurationError):
            RaidGroup(None, 0)


# --------------------------------------------------------------------------
# FleetSpec / AttackWindow validation
# --------------------------------------------------------------------------


class TestFleetSpecValidation:
    def test_attack_window_grammar_round_trip(self):
        window = AttackWindow.parse("10+30@650/139/0.12")
        assert (window.start_s, window.end_s) == (10.0, 40.0)
        assert window.source_level_db == 139.0
        assert window.distance_m == 0.12
        defaults = AttackWindow.parse("1.5+2@2000")
        assert defaults.frequency_hz == 2000.0
        assert defaults.source_level_db == 139.0

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "10@650",
            "10+30",
            "10+30@650/139/0.1/extra",
            "x+y@z",
            "nan+1@650",
            "1+inf@650",
            "1+1@nan",
            "1+1@650/139/nan",
            "1+1@650/139/inf",
        ],
    )
    def test_attack_window_grammar_rejects(self, text):
        with pytest.raises(ConfigurationError):
            AttackWindow.parse(text)

    def test_spec_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(racks=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(bays=9)
        with pytest.raises(ConfigurationError):
            FleetSpec(raid="raid6")
        with pytest.raises(ConfigurationError):
            FleetSpec(raid="raid5", bays=2)
        with pytest.raises(ConfigurationError):
            FleetSpec(duration_s=10.0, service_tick_s=0.3)  # not a whole tick count
        for late in ("20+1@650", "10+1@650"):  # starts after / exactly at the end
            with pytest.raises(ConfigurationError):
                FleetSpec(duration_s=10.0, attacks=(AttackWindow.parse(late),))
        # Beyond the speaker chain's reach / beyond the tank's length.
        for infeasible in ("2+3@15000/139", "2+3@650/139/5"):
            with pytest.raises(ConfigurationError):
                FleetSpec(attacks=(AttackWindow.parse(infeasible),))
        for non_finite in (
            {"request_rate_hz": math.inf},
            {"rebuild_s": math.nan},
            {"duration_s": math.nan},
        ):
            with pytest.raises(ConfigurationError):
                FleetSpec(**non_finite)

    def test_drive_count(self):
        assert FleetSpec().drive_count == 4 * 50 * 5


# --------------------------------------------------------------------------
# Fleet campaigns: sharding identity, RAID accounting, kill -> resume
# --------------------------------------------------------------------------

SPEC = FleetSpec(
    racks=2,
    towers_per_rack=3,
    bays=5,
    raid="raid5",
    duration_s=12.0,
    request_rate_hz=40.0,
    service_tick_s=0.5,
    health_interval_s=1.0,
    rebuild_s=3.0,
    seed=11,
    attacks=(AttackWindow(start_s=2.0, duration_s=4.0, distance_m=0.05),),
)


def _payloads(result):
    return [outcome.to_payload() for outcome in result.outcomes]


class TestFleetDeterminism:
    def test_rack_sharded_matches_single_scheduler_byte_for_byte(self):
        whole = FleetSim(SPEC).run()
        sharded = [
            FleetSim(SPEC, rack_indices=(index,)).run().outcomes[0]
            for index in range(SPEC.racks)
        ]
        assert _payloads(whole) == [outcome.to_payload() for outcome in sharded]

    def test_repeat_runs_are_identical(self):
        assert _payloads(FleetSim(SPEC).run()) == _payloads(FleetSim(SPEC).run())

    def test_outcome_payload_round_trips(self):
        outcome = FleetSim(SPEC, rack_indices=(1,)).run().outcomes[0]
        assert RackOutcome.from_payload(outcome.to_payload()) == outcome

    def test_rack_indices_validation(self):
        with pytest.raises(ConfigurationError):
            FleetSim(SPEC, rack_indices=(5,))
        with pytest.raises(ConfigurationError):
            FleetSim(SPEC, rack_indices=())


class TestFleetRaidAccounting:
    """A 139 dB window stalls bays; RAID books must balance."""

    @pytest.fixture(scope="class")
    def result(self):
        return FleetSim(SPEC).run()

    def test_attack_degrades_every_group(self, result):
        for outcome in result.outcomes:
            assert outcome.groups_degraded == SPEC.towers_per_rack
            assert outcome.stalled_bays_peak > 0
            assert outcome.p_write_min == 0.0
            assert outcome.degraded_s > 0.0

    def test_rebuilds_complete_after_the_window(self, result):
        # Attack ends at 6s, rebuild takes 3s -> every failed member is
        # restored at 9s, well inside the 12s campaign.
        for outcome in result.outcomes:
            assert outcome.rebuilds == SPEC.towers_per_rack * outcome.stalled_bays_peak
            # degraded from t=2 until the rebuild at t=9
            assert outcome.degraded_s == pytest.approx(
                SPEC.towers_per_rack * 7.0
            )

    def test_errors_only_under_attack(self, result):
        quiet = FleetSim(
            FleetSpec(
                racks=SPEC.racks,
                towers_per_rack=SPEC.towers_per_rack,
                duration_s=SPEC.duration_s,
                request_rate_hz=SPEC.request_rate_hz,
                seed=SPEC.seed,
                attacks=(),
            )
        ).run()
        assert quiet.ops_error == 0
        assert quiet.availability() == 1.0
        for outcome in quiet.outcomes:
            assert outcome.p_write_min == 1.0 and outcome.rebuilds == 0
        assert result.ops_error > 0
        assert result.availability() < 1.0

    def test_ops_conservation(self, result):
        expected = int(SPEC.request_rate_hz * SPEC.duration_s)
        for outcome in result.outcomes:
            assert outcome.ops == expected
            assert outcome.ops_ok + outcome.ops_error == expected


class TestOverlappingAttackWindows:
    """Overlapping windows apply the dominant tone, not the last edge."""

    ATTACK = AttackWindow.parse("1+5@650")

    @staticmethod
    def _run(*attacks, rebuild_s=10.0):
        spec = FleetSpec(
            racks=1,
            towers_per_rack=5,
            duration_s=8.0,
            rebuild_s=rebuild_s,
            attacks=attacks,
        )
        return FleetSim(spec).run().outcomes[0]

    def test_nested_harmless_tone_does_not_mask_the_attack(self):
        alone = self._run(self.ATTACK)
        nested = self._run(self.ATTACK, AttackWindow.parse("2+1@8000/120"))
        assert alone.ops_error > 0
        for field in ("ops_ok", "ops_error", "degraded_s"):
            assert getattr(nested, field) == getattr(alone, field)

    def test_nested_stronger_tone_takes_over_and_hands_back(self):
        # A 5 cm tone nested at t=2..3 must behave like the attack cut in
        # three back-to-back windows: 12 cm, 5 cm, then 12 cm again.
        nested = self._run(
            self.ATTACK, AttackWindow.parse("2+1@650/139/0.05"), rebuild_s=1.0
        )
        spliced = self._run(
            AttackWindow.parse("1+1@650"),
            AttackWindow.parse("2+1@650/139/0.05"),
            AttackWindow.parse("3+3@650"),
            rebuild_s=1.0,
        )
        assert nested.p_write_min == 0.0 and nested.rebuilds > 0
        expected = spliced.to_payload()
        del expected["events"]
        actual = nested.to_payload()
        del actual["events"]
        assert actual == expected


@pytest.mark.slow
class TestFleetCampaignResilience:
    CAMPAIGN = fingerprint("fleet-test/v1", SPEC)

    @pytest.fixture(scope="class")
    def uninterrupted(self):
        return run_fleet(SPEC)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_matches_single_scheduler(self, uninterrupted, workers):
        runner = SweepRunner(workers=workers)
        pooled = run_fleet(SPEC, runner=runner)
        runner.close()
        assert _payloads(pooled) == _payloads(uninterrupted)
        assert pooled.render() == uninterrupted.render()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kill_and_resume_is_byte_identical(
        self, tmp_path, uninterrupted, workers
    ):
        journal_path = str(tmp_path / "journal.jsonl")
        killed = make_runner(
            workers=workers,
            journal_path=journal_path,
            campaign=self.CAMPAIGN,
            fault_plan=FaultPlan.parse("1=kill"),
        )
        with pytest.raises(CampaignAborted):
            run_fleet(SPEC, runner=killed)
        killed.close()
        resumed_runner = make_runner(
            workers=workers,
            journal_path=journal_path,
            resume=True,
            campaign=self.CAMPAIGN,
        )
        result = run_fleet(SPEC, runner=resumed_runner)
        resumed_runner.close()
        assert _payloads(result) == _payloads(uninterrupted)
        assert result.render() == uninterrupted.render()
