"""Vectorized (batched) physics kernels for the transmission chain.

The Figure 2 / Table 1 campaigns evaluate the acoustics -> enclosure
wall -> mount -> servo chain at one frequency per call, thousands of
times per sweep.  This module batches that chain: one call takes a whole
frequency grid (plus displacements, pressures, or a drive scenario) and
returns numpy arrays.

**Bit-parity contract.**  Every kernel reproduces the scalar chain's
results *exactly* — not approximately.  That constrains the
implementation in two ways:

* numpy is used only for operations that are IEEE-754-identical to their
  Python equivalents: elementwise ``+ - * /``, comparisons, ``diff``,
  ``cumsum`` (which accumulates strictly left-to-right, matching a
  scalar ``+=`` chain), and ``searchsorted``.
* every power (including ``x ** 2``) and transcendental (``log10``,
  ``exp``, ``asin``, ``10 ** x``) is evaluated per element with the same
  ``math`` / ``**`` calls the scalar code makes, because numpy's pow and
  transcendental kernels round differently from libm in the last ulp.
  The batch win on those stages comes from hoisting the per-call
  constant folding and attribute dispatch out of the loop, not from
  SIMD.

The big vector win is :func:`run_sequential_static`: in the healthy
regime (per-attempt success probability >= 1) a sequential FIO run is a
closed-form arithmetic series, so the whole per-op issue loop collapses
into one ``cumsum``/``searchsorted`` evaluation with identical clock
timings, latencies, counters, and RNG stream (zero draws) to the scalar
walk.  Degraded and stalled points fall back to the scalar path, which
is cheap there because the runtime window holds few operations.

These kernels are the only path the campaigns take; the scalar classes
(:class:`~repro.hdd.servo.ServoSystem`, the per-bay rack chain, the FIO
issue loop) stay callable as the references the parity tests compare
against.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as _np

from repro.errors import ConfigurationError, UnitError
from repro.hdd.servo import OpKind, VibrationInput
from repro.units import KM, SECTOR_SIZE

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.acoustics.medium import WaterConditions
    from repro.acoustics.propagation import PropagationModel
    from repro.core.coupling import AttackCoupling
    from repro.core.scenario import Scenario
    from repro.hdd.servo import ServoSystem
    from repro.vibration.enclosure import Enclosure
    from repro.vibration.modes import ModalResponse
    from repro.vibration.mount import Mount
    from repro.vibration.transmission import PanelWall
    from repro.workloads.fio import FioJob, FioResult, FioTester

__all__ = [
    "modal_response",
    "panel_displacement_per_pascal",
    "frame_displacement_per_pascal",
    "mount_transmissibility",
    "servo_rejection",
    "servo_offtrack_amplitude",
    "servo_success_probability",
    "absorption_db_per_km",
    "transmission_loss_db",
    "chassis_displacement",
    "sweep_surface",
    "rack_attack",
    "rack_success_probability",
    "fleet_surface",
    "run_sequential_static",
]

#: Backstop for the closed-form op-count search: a sweep point's FIO run
#: is a few thousand ops; anything needing more slots than this signals
#: a pathological (runtime, service-time) pair better served scalar.
_MAX_CLOSED_FORM_OPS = 50_000_000


def _grid(frequencies: Sequence[float]) -> List[float]:
    """Validate a frequency grid exactly like the scalar guards."""
    freqs = []
    for f in frequencies:
        f = float(f)
        if not (0.0 < f < math.inf):
            raise UnitError(f"frequency must be positive and finite: {f}")
        freqs.append(f)
    return freqs


def _array(values: Sequence[float]):
    return _np.asarray(values, dtype=_np.float64)


def _paired(name: str, a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ConfigurationError(
            f"{name}: got {len(a)} frequencies for {len(b)} values"
        )


# --------------------------------------------------------------------------
# Vibration chain kernels
# --------------------------------------------------------------------------


def _modal_consts(modes: "ModalResponse"):
    """Hoisted (f0, zeta, gain) tuples — the kernel's loop constants."""
    return tuple(
        (mode.frequency_hz, mode.damping_ratio, mode.gain) for mode in modes.modes
    )


def _modal_eval(consts, f: float, sqrt=math.sqrt) -> float:
    """One modal-response evaluation; bit-identical to the scalar chain."""
    total_sq = 0
    for f0, zeta, gain in consts:
        r = f / f0
        denom = sqrt((1.0 - r * r) ** 2 + (2.0 * zeta * r) ** 2)
        total_sq += (gain / denom) ** 2
    return sqrt(total_sq)


def modal_response(modes: "ModalResponse", frequencies: Sequence[float]):
    """Batched :meth:`repro.vibration.modes.ModalResponse.response`."""
    consts = _modal_consts(modes)
    return _array([_modal_eval(consts, f) for f in _grid(frequencies)])


def panel_displacement_per_pascal(wall: "PanelWall", frequencies: Sequence[float]):
    """Batched :meth:`repro.vibration.transmission.PanelWall.displacement_per_pascal`."""
    m_eff = wall.effective_surface_density
    omega0 = 2.0 * math.pi * wall.fundamental_frequency_hz
    omega0_sq = omega0 ** 2
    structural = wall.material.loss_factor / 2.0
    two_m = 2.0 * m_eff
    impedance = wall.fluid_impedance
    sqrt = math.sqrt
    out = []
    for f in _grid(frequencies):
        omega = 2.0 * math.pi * f
        radiation = impedance / (two_m * omega)
        zeta = structural + min(radiation, 2.0)
        denom = sqrt((omega0_sq - omega ** 2) ** 2 + (2.0 * zeta * omega0 * omega) ** 2)
        if denom <= 0.0:  # exactly on an undamped resonance (zeta == 0 impossible)
            denom = 1e-12
        out.append(1.0 / (m_eff * denom))
    return _array(out)


def frame_displacement_per_pascal(
    enclosure: "Enclosure", frequencies: Sequence[float]
):
    """Batched :meth:`repro.vibration.enclosure.Enclosure.frame_displacement_per_pascal`."""
    freqs = _grid(frequencies)
    wall = panel_displacement_per_pascal(enclosure.wall, freqs).tolist()
    gain = enclosure.structural_gain
    rolloff = enclosure.stiffness_rolloff_hz
    out = []
    for f, per_pascal in zip(freqs, wall):
        displacement = gain * per_pascal
        if rolloff is not None:
            r2 = (f / rolloff) ** 2
            displacement /= 1.0 + r2
        out.append(displacement)
    return _array(out)


def mount_transmissibility(mount: "Mount", frequencies: Sequence[float]):
    """Batched :meth:`repro.vibration.mount.Mount.transmissibility`."""
    freqs = _grid(frequencies)
    base_gain = mount.base_gain
    if mount.modes is None:
        return _array([base_gain] * len(freqs))
    modal = modal_response(mount.modes, freqs).tolist()
    return _array([base_gain * m for m in modal])


# --------------------------------------------------------------------------
# Servo kernels
# --------------------------------------------------------------------------


def _rejection_eval(corner: float, order: int, f: float) -> float:
    """One rejection evaluation; bit-identical to the scalar chain."""
    r2 = (f / corner) ** 2
    return (r2 / (1.0 + r2)) ** order


def servo_rejection(servo: "ServoSystem", frequencies: Sequence[float]):
    """Batched :meth:`repro.hdd.servo.ServoSystem.rejection`."""
    corner = servo.rejection_corner_hz
    order = servo.rejection_order
    return _array([_rejection_eval(corner, order, f) for f in _grid(frequencies)])


def _displacements(displacements: Sequence[float]) -> List[float]:
    disps = []
    for d in displacements:
        d = float(d)
        if not (d >= 0.0):
            raise UnitError(f"displacement must be non-negative: {d}")
        disps.append(d)
    return disps


def servo_offtrack_amplitude(
    servo: "ServoSystem",
    frequencies: Sequence[float],
    displacements: Sequence[float],
):
    """Batched :meth:`repro.hdd.servo.ServoSystem.offtrack_amplitude_m`."""
    freqs = _grid(frequencies)
    disps = _displacements(displacements)
    _paired("servo_offtrack_amplitude", freqs, disps)
    hsa = modal_response(servo.hsa, freqs).tolist()
    rej = servo_rejection(servo, freqs).tolist()
    head_gain = servo.head_gain
    out = []
    for d, h, r in zip(disps, hsa, rej):
        if d == 0.0:
            out.append(0.0)
        else:
            mechanical = h * head_gain
            out.append(d * mechanical * r)
    return _array(out)


def _success_consts(servo: "ServoSystem", op: OpKind):
    """Hoisted success-model constants for one (servo, op) pair."""
    threshold = servo.threshold_m(op)
    onset = servo.grazing_onset * threshold
    return (
        servo.servo_limit_m,
        threshold,
        servo.write_window_s if op is OpKind.WRITE else servo.read_window_s,
        onset,
        threshold - onset,
        servo.grazing_penalty,
        servo.grazing_exponent,
    )


def _success_eval(
    a: float,
    f: float,
    limit: float,
    threshold: float,
    window: float,
    onset: float,
    span: float,
    penalty: float,
    exponent: float,
    asin=math.asin,
    pi=math.pi,
) -> float:
    """One success-probability evaluation; bit-identical to the scalar chain."""
    if a >= limit:
        return 0.0
    if a <= 0.0:
        return 1.0
    if a <= threshold:
        if a <= onset:
            return 1.0
        frac = (a - onset) / span
        return 1.0 - penalty * frac ** exponent
    on_track = asin(threshold / a) / (pi * f)
    usable = max(0.0, on_track - window)
    return min(1.0, 2.0 * f * usable)


def servo_success_probability(
    servo: "ServoSystem",
    op: OpKind,
    frequencies: Sequence[float],
    displacements: Sequence[float],
):
    """Batched :meth:`repro.hdd.servo.ServoSystem.success_probability`."""
    freqs = _grid(frequencies)
    amps = servo_offtrack_amplitude(servo, freqs, displacements).tolist()
    consts = _success_consts(servo, op)
    return _array([_success_eval(a, f, *consts) for a, f in zip(amps, freqs)])


# --------------------------------------------------------------------------
# Acoustics kernels
# --------------------------------------------------------------------------


def absorption_db_per_km(
    conditions: "WaterConditions", frequencies: Sequence[float]
):
    """Batched :func:`repro.acoustics.absorption.absorption_for_conditions`."""
    freqs = _grid(frequencies)
    t = conditions.temperature_c
    z_km = conditions.depth_m / 1000.0
    exp = math.exp
    out = []
    if conditions.salinity_ppt < 0.5:
        # Fresh water: only the viscous term survives; the exponential
        # is frequency-independent and hoists out of the loop.
        viscous_exp = exp(-(t / 27.0 + z_km / 17.0))
        for f_hz in freqs:
            f = f_hz / 1000.0
            out.append(0.00049 * f * f * viscous_exp)
        return _array(out)
    s = conditions.salinity_ppt
    ph = conditions.ph
    f1 = 0.78 * math.sqrt(s / 35.0) * exp(t / 26.0)
    f2 = 42.0 * exp(t / 17.0)
    f1_sq = f1 * f1
    f2_sq = f2 * f2
    ph_term = exp((ph - 8.0) / 0.56)
    mg_pre = 0.52 * (1.0 + t / 43.0) * (s / 35.0)
    mg_exp = exp(-z_km / 6.0)
    viscous_exp = exp(-(t / 27.0 + z_km / 17.0))
    for f_hz in freqs:
        f = f_hz / 1000.0
        boric = 0.106 * (f1 * f * f) / (f1_sq + f * f) * ph_term
        magnesium = mg_pre * (f2 * f * f) / (f2_sq + f * f) * mg_exp
        viscous = 0.00049 * f * f * viscous_exp
        out.append(boric + magnesium + viscous)
    return _array(out)


def transmission_loss_db(
    model: "PropagationModel", distance_m: float, frequencies: Sequence[float]
):
    """Batched :meth:`repro.acoustics.propagation.PropagationModel.transmission_loss_db`."""
    from repro.acoustics.propagation import spherical_spreading_db

    freqs = _grid(frequencies)
    spreading = spherical_spreading_db(distance_m, model.reference_m)
    per_km = distance_m / KM
    alphas = absorption_db_per_km(model.conditions, freqs)
    return spreading + alphas * per_km


# --------------------------------------------------------------------------
# Scenario / coupling surfaces
# --------------------------------------------------------------------------


def chassis_displacement(
    scenario: "Scenario",
    pressures_pa: Sequence[float],
    frequencies: Sequence[float],
):
    """Batched :meth:`repro.core.scenario.Scenario.chassis_displacement_m`."""
    freqs = _grid(frequencies)
    pressures = [float(p) for p in pressures_pa]
    _paired("chassis_displacement", freqs, pressures)
    frame = frame_displacement_per_pascal(scenario.enclosure, freqs).tolist()
    mount = mount_transmissibility(scenario.mount, freqs).tolist()
    coupling_gain = scenario.calibration.structure_coupling
    out = []
    for pressure, wall, transmissibility in zip(pressures, frame, mount):
        if pressure < 0.0:
            raise UnitError(f"pressure must be non-negative: {pressure}")
        if pressure == 0.0:
            out.append(0.0)
        else:
            out.append(pressure * wall * coupling_gain * transmissibility)
    return _array(out)


def sweep_surface(
    coupling: "AttackCoupling",
    base_config,
    frequencies: Sequence[float],
    servo: "Optional[ServoSystem]" = None,
) -> "Dict[str, object]":
    """Per-frequency attack response surface for one scenario.

    Evaluates the attacker -> water -> wall stage with the scalar chain
    (it is control-flow heavy — drive clamping, tank bounds — and costs
    one call per frequency) and batches everything from the wall onward.
    Returns arrays keyed ``frequency_hz``, ``wall_pressure_pa``,
    ``displacement_m``, ``offtrack_m``, ``p_write``, ``p_read``, and the
    boolean ``stalled`` (no-response regime).  Every value is
    bit-identical to the scalar chain at the same frequency.
    """
    freqs = _grid(frequencies)
    if servo is None:
        from repro.hdd.profiles import BARRACUDA_500GB

        servo = BARRACUDA_500GB.servo
    pressures = [
        coupling.wall_pressure_pa(base_config.at_frequency(f)) for f in freqs
    ]
    displacements = chassis_displacement(coupling.scenario, pressures, freqs)
    disp_list = displacements.tolist()
    offtrack = servo_offtrack_amplitude(servo, freqs, disp_list)
    return {
        "frequency_hz": _array(freqs),
        "wall_pressure_pa": _array(pressures),
        "displacement_m": displacements,
        "offtrack_m": offtrack,
        "p_write": servo_success_probability(servo, OpKind.WRITE, freqs, disp_list),
        "p_read": servo_success_probability(servo, OpKind.READ, freqs, disp_list),
        "stalled": offtrack >= servo.servo_limit_m,
    }


# --------------------------------------------------------------------------
# Fleet kernels: one call per rack
# --------------------------------------------------------------------------
#
# A rack holds several drives behind ONE wall: the attacker, the water
# path, and the enclosure panel are identical for every bay, and only
# the ``StorageTower(bay=i)`` mount (a scalar ``base_gain``) and the
# per-drive servo state differ.  The kernels below hoist that shared
# source/water/wall stage out of the per-bay loop — it is computed once
# per (source, rack geometry, water condition) and broadcast — while
# keeping every per-element operation bit-identical to the scalar chain.
# ``rack_attack`` and ``rack_success_probability`` are pure Python;
# ``fleet_surface`` batches whole (frequency × bay) matrices in numpy.


def _shared_rack_stage(couplings: "Sequence[AttackCoupling]") -> "AttackCoupling":
    """Validate that every bay shares the source/water/wall stage.

    Returns the representative coupling whose attacker, environment,
    enclosure, and structure-coupling calibration apply rack-wide.
    Raises :class:`ConfigurationError` for heterogeneous racks — those
    must be evaluated with the per-bay scalar chain.
    """
    first = couplings[0]
    for other in couplings[1:]:
        if other is first:
            continue
        if not (
            (other.environment is first.environment or other.environment == first.environment)
            and (other.attacker is first.attacker or other.attacker == first.attacker)
            and (
                other.scenario.enclosure is first.scenario.enclosure
                or other.scenario.enclosure == first.scenario.enclosure
            )
            and other.scenario.calibration.structure_coupling
            == first.scenario.calibration.structure_coupling
        ):
            raise ConfigurationError(
                "rack bays do not share a source/water/wall stage; "
                "evaluate them with the per-bay scalar chain instead"
            )
    return first


def _mount_column(couplings: "Sequence[AttackCoupling]", f: float) -> List[float]:
    """Per-bay mount transmissibility at one frequency.

    The modal factor is computed once per distinct mode set (all
    ``StorageTower`` bays share one), so only the per-bay ``base_gain``
    multiply remains in the loop.
    """
    modal_cache: Dict[tuple, float] = {}
    out = []
    for coupling in couplings:
        mount = coupling.scenario.mount
        modes = mount.modes
        if modes is None:
            out.append(mount.base_gain)
            continue
        consts = _modal_consts(modes)
        modal = modal_cache.get(consts)
        if modal is None:
            modal = _modal_eval(consts, f)
            modal_cache[consts] = modal
        out.append(mount.base_gain * modal)
    return out


def rack_attack(
    couplings: "Sequence[AttackCoupling]", config
) -> List[VibrationInput]:
    """Per-bay chassis vibrations for one attack tone, in one call.

    Computes the attacker → water → wall pressure and the enclosure
    frame response once for the whole rack, then broadcasts across the
    per-bay mounts.  Pure Python — no numpy required.  Bit-identical to
    calling ``coupling.vibration_at_drive(config)`` on every bay.
    """
    if not couplings:
        return []
    first = _shared_rack_stage(couplings)
    f = config.frequency_hz
    if not (0.0 < f < math.inf):  # also rejects NaN, like the scalar guards
        raise UnitError(f"frequency must be positive and finite: {f}")
    pressure = first.wall_pressure_pa(config)
    if pressure < 0.0:
        raise UnitError(f"pressure must be non-negative: {pressure}")
    if pressure == 0.0:
        return [
            VibrationInput(frequency_hz=f, displacement_m=0.0) for _ in couplings
        ]
    wall = first.scenario.enclosure.frame_displacement_per_pascal(f)
    coupling_gain = first.scenario.calibration.structure_coupling
    shared = pressure * wall * coupling_gain
    return [
        VibrationInput(frequency_hz=f, displacement_m=shared * transmissibility)
        for transmissibility in _mount_column(couplings, f)
    ]


def rack_success_probability(
    servo: "ServoSystem", op: OpKind, vibrations: Sequence[VibrationInput]
) -> List[float]:
    """Batched success probabilities for drives sharing one servo model.

    Hoists the (servo, op) constants and shares the head-stack modal
    response and rejection factor per distinct frequency — under a
    single-tone attack the whole rack pays them once.  Pure Python.
    Bit-identical to ``servo.success_probability(op, vibration)`` per
    drive.
    """
    consts = _success_consts(servo, op)
    hsa_consts = _modal_consts(servo.hsa)
    head_gain = servo.head_gain
    corner = servo.rejection_corner_hz
    order = servo.rejection_order
    stage: Dict[float, tuple] = {}
    out = []
    for vibration in vibrations:
        f = vibration.frequency_hz
        d = vibration.displacement_m
        if d == 0.0:
            amplitude = 0.0
        else:
            pair = stage.get(f)
            if pair is None:
                mechanical = _modal_eval(hsa_consts, f) * head_gain
                pair = (mechanical, _rejection_eval(corner, order, f))
                stage[f] = pair
            amplitude = d * pair[0] * pair[1]
        out.append(_success_eval(amplitude, f, *consts))
    return out


def fleet_surface(
    couplings: "Sequence[AttackCoupling]",
    base_config,
    frequencies: Sequence[float],
    servo: "Optional[ServoSystem]" = None,
) -> "Dict[str, object]":
    """(frequency × bay) attack response surface for a whole rack.

    Evaluates the full acoustics → wall → mount → servo chain over the
    grid for every bay in one call.  The attacker/water/wall stage is
    computed once per frequency (not once per bay), the head-stack and
    rejection factors once per frequency (the rack shares one servo
    model), and the per-bay work reduces to the mount broadcast plus the
    success-model branches.  Returns 1-D arrays ``frequency_hz`` and
    ``wall_pressure_pa`` plus 2-D ``(bays, len(grid))`` arrays
    ``displacement_m``, ``offtrack_m``, ``p_write``, ``p_read``, and the
    boolean ``stalled``.  Every element is bit-identical to the scalar
    chain run on that (bay, frequency) cell.
    """
    if not couplings:
        raise ConfigurationError("fleet_surface needs at least one bay")
    freqs = _grid(frequencies)
    first = _shared_rack_stage(couplings)
    if servo is None:
        from repro.hdd.profiles import BARRACUDA_500GB

        servo = BARRACUDA_500GB.servo

    # Shared stage: once per frequency for the whole rack.
    pressures = [
        first.wall_pressure_pa(base_config.at_frequency(f)) for f in freqs
    ]
    frame = frame_displacement_per_pascal(first.scenario.enclosure, freqs).tolist()
    coupling_gain = first.scenario.calibration.structure_coupling
    shared = []
    for pressure, wall in zip(pressures, frame):
        if pressure < 0.0:
            raise UnitError(f"pressure must be non-negative: {pressure}")
        if pressure == 0.0:
            shared.append(0.0)
        else:
            shared.append(pressure * wall * coupling_gain)

    # Shared servo stage: the whole rack runs one servo model.
    hsa = modal_response(servo.hsa, freqs).tolist()
    head_gain = servo.head_gain
    mechanical = [h * head_gain for h in hsa]
    rej = servo_rejection(servo, freqs).tolist()
    limit = servo.servo_limit_m
    write_consts = _success_consts(servo, OpKind.WRITE)
    read_consts = _success_consts(servo, OpKind.READ)

    # Per-bay broadcast: only the mount differs between bays, and all
    # StorageTower bays share one mode set, so the modal factor is
    # computed once and reused.
    modal_cache: Dict[tuple, List[float]] = {}
    disp_rows, off_rows, pw_rows, pr_rows, stall_rows = [], [], [], [], []
    for coupling in couplings:
        mount = coupling.scenario.mount
        modes = mount.modes
        base_gain = mount.base_gain
        if modes is None:
            transmissibilities = [base_gain] * len(freqs)
        else:
            consts = _modal_consts(modes)
            modal = modal_cache.get(consts)
            if modal is None:
                modal = [_modal_eval(consts, f) for f in freqs]
                modal_cache[consts] = modal
            transmissibilities = [base_gain * m for m in modal]
        disps = [
            0.0 if s == 0.0 else s * t
            for s, t in zip(shared, transmissibilities)
        ]
        offs = [
            0.0 if d == 0.0 else d * m * r
            for d, m, r in zip(disps, mechanical, rej)
        ]
        disp_rows.append(disps)
        off_rows.append(offs)
        pw_rows.append(
            [_success_eval(a, f, *write_consts) for a, f in zip(offs, freqs)]
        )
        pr_rows.append(
            [_success_eval(a, f, *read_consts) for a, f in zip(offs, freqs)]
        )
        stall_rows.append([a >= limit for a in offs])

    return {
        "frequency_hz": _array(freqs),
        "wall_pressure_pa": _array(pressures),
        "displacement_m": _np.asarray(disp_rows, dtype=_np.float64),
        "offtrack_m": _np.asarray(off_rows, dtype=_np.float64),
        "p_write": _np.asarray(pw_rows, dtype=_np.float64),
        "p_read": _np.asarray(pr_rows, dtype=_np.float64),
        "stalled": _np.asarray(stall_rows, dtype=bool),
    }


# --------------------------------------------------------------------------
# Closed-form sequential FIO evaluation
# --------------------------------------------------------------------------


def run_sequential_static(
    tester: "FioTester", job: "FioJob", result: "FioResult"
) -> "Optional[FioResult]":
    """Evaluate a healthy-regime sequential FIO run in closed form.

    When every attempt succeeds deterministically (success probability
    >= 1) and the drive state is static, the scalar issue loop is a pure
    arithmetic series: op ``k`` starts at ``T[k] = T[k-1] + base`` with a
    constant near-track service time after the first op.  This function
    reproduces that walk with one ``cumsum`` (bit-identical to the
    scalar ``+=`` chain), derives the op count with ``searchsorted`` on
    the elapsed times, and commits exactly the clock, counter, cache,
    and head-position state the scalar loop would leave behind — with
    zero RNG draws, matching the scalar path's ``p >= 1`` short-circuit.

    Returns ``result`` (filled in) on success, or None when the run is
    not eligible (degraded/stalled point, random mode, telemetry on,
    vibration schedule, cursor wrap, ...) — the caller then takes the
    scalar loop unchanged.
    """
    drive = tester.drive
    if job.mode.is_random or tester._obs is not None or drive._obs is not None:
        return None
    if drive._schedule is not None:
        return None
    controller = drive.controller
    if controller._attempt_tracer is not None:
        return None
    runtime_s = job.runtime_s
    if not (0.0 < runtime_s < math.inf):
        return None
    is_write = job.mode.is_write
    if not is_write and drive.store_data:
        return None  # scalar reads consult the sector store

    # Replicate the controller's per-command (vibration, parked)
    # identity cache exactly as the first scalar op would, so a fallback
    # after this point leaves the same state a scalar run produces.
    profile = controller.profile
    vibration = drive.vibration
    parked = drive.parked
    op = OpKind.WRITE if is_write else OpKind.READ
    if (
        controller._static_vibration is not vibration
        or controller._static_parked != parked
    ):
        controller._static_vibration = vibration
        controller._static_parked = parked
        controller._static_p_read = None
        controller._static_p_write = None
    success_p = (
        controller._static_p_write if is_write else controller._static_p_read
    )
    if success_p is None:
        success_p = (
            0.0 if parked else profile.servo.success_probability(op, vibration)
        )
        if is_write:
            controller._static_p_write = success_p
        else:
            controller._static_p_read = success_p
    if success_p < 1.0:
        return None  # degraded or stalled: few ops, scalar walk is cheap

    region_start = job.region_start_lba
    region_end = min(region_start + job.region_sectors, drive.total_sectors)
    sectors_per_block = job.sectors_per_block
    span_blocks = (region_end - region_start) // sectors_per_block
    if span_blocks <= 0:
        return None  # scalar path raises the ConfigurationError

    # Service times: the first op may pay a seek; afterwards consecutive
    # sequential ops advance at most one track, so they all share the
    # memoized zero-seek base.
    nbytes = sectors_per_block * 512
    cache = controller._service_write if is_write else controller._service_read
    base = cache.get(nbytes)
    cache_missing = base is None
    if cache_missing:
        overhead = (
            profile.write_overhead_s if is_write else profile.read_overhead_s
        )
        base = overhead + profile.transfer_time_s(nbytes)
    track0, _ = profile.geometry.locate(region_start)
    distance = track0 - controller.current_track
    op0_near = -1 <= distance <= 1
    if op0_near:
        base0 = base
    else:
        seek = profile.seek.seek_time_s(abs(distance))
        overhead = (
            profile.write_overhead_s if is_write else profile.read_overhead_s
        )
        base0 = seek + overhead + profile.transfer_time_s(nbytes)
    host_timeout_s = profile.host_timeout_s
    # IEEE addition is monotone: base <= timeout implies
    # fl(now + base) <= fl(now + timeout), so the scalar deadline check
    # can never fire and the closed form holds with no timeout branch.
    if not (0.0 < base <= host_timeout_s and 0.0 < base0 <= host_timeout_s):
        return None

    # Completion times T[k] = start + base0 + (k-1)*base, accumulated
    # with cumsum to reproduce the scalar += chain bit for bit.
    clock = drive.clock
    start = clock.now
    slots = int(runtime_s / base) + 2
    while True:
        if slots > _MAX_CLOSED_FORM_OPS:
            return None
        steps = _np.empty(slots + 1, dtype=_np.float64)
        steps[0] = start
        steps[1] = base0
        steps[2:] = base
        times = _np.cumsum(steps)
        elapsed = times - start
        if elapsed[-1] >= runtime_s:
            break
        slots *= 2
    completed = int(_np.searchsorted(elapsed, runtime_s, side="left"))
    if completed > span_blocks:
        return None  # the sequential cursor would wrap back and re-seek

    # Commit: exactly the state the scalar loop leaves behind.
    latencies = _np.diff(times[: completed + 1])
    clock.advance_to(float(times[completed]))
    controller.commands += completed
    if cache_missing and (op0_near or completed >= 2):
        cache[nbytes] = base
    last_lba = region_start + (completed - 1) * sectors_per_block
    if sectors_per_block > 1:
        end_track, _ = profile.geometry.locate(last_lba + sectors_per_block - 1)
    else:
        end_track, _ = profile.geometry.locate(last_lba)
    controller.current_track = end_track
    stats = drive.stats
    if is_write:
        stats.writes += completed
        stats.sectors_written += completed * sectors_per_block
    else:
        stats.reads += completed
        stats.sectors_read += completed * sectors_per_block
        if sectors_per_block not in drive._zero_blocks:
            drive._zero_blocks[sectors_per_block] = b"\x00" * (
                sectors_per_block * SECTOR_SIZE
            )
    drive._sync_counters()

    result.completed_ops = completed
    result.timeout_ops = 0
    result.error_ops = 0
    result.bytes_moved = completed * job.block_bytes
    result.total_latency_s = float(_np.cumsum(latencies)[-1])
    result.max_latency_s = float(latencies.max())
    result.busy_time_s = float(elapsed[completed])
    result.latencies_s.frombytes(latencies.tobytes())
    return result
