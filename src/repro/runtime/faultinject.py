"""Deterministic fault injection for the campaign runner.

Testing the resilience layer needs workers that fail *on schedule*: the
same point must crash, hang, or slow down on the same attempt in every
run, at any worker count.  A :class:`FaultPlan` scripts that — it maps a
point's campaign ordinal (its position in submission order, counting
every point of every ``map()`` call the runner serves) to an action
executed inside the worker just before the measurement:

* ``fail``  — raise :class:`~repro.errors.FaultInjected`; the runner
  retries the attempt under its policy.
* ``hang``  — sleep past the per-point timeout (``workers > 1``); an
  in-process attempt cannot be preempted, so it raises
  :class:`~repro.errors.PointTimeout` directly to model the same outcome.
* ``slow``  — sleep, then measure normally (exercises timeout margins).
* ``kill``  — die mid-campaign: ``os._exit`` in a pool worker (breaking
  the pool exactly like a segfault or an operator ``kill -9``), a
  :class:`~repro.errors.CampaignAborted` in-process.  This is how the
  resume tests chop a campaign in half.

The plan is part of the submitted job payload, so no shared state
crosses the process boundary and the schedule cannot race.

Spec grammar (the CLI's ``--inject-faults``)::

    SPEC    := ENTRY ("," ENTRY)*
    ENTRY   := ORDINAL ["x" COUNT] "=" ACTION ["@" SECONDS]
    ACTION  := "fail" | "hang" | "slow" | "kill"

``3x2=fail`` fails point 3's first two attempts (the third succeeds);
``5=hang@30`` hangs point 5 for 30 s on its first attempt; ``9=kill``
kills the campaign when point 9 runs.  Ordinals count from 0.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import (
    CampaignAborted,
    ConfigurationError,
    FaultInjected,
    PointTimeout,
)

__all__ = ["FaultAction", "FaultPlan", "apply_fault"]

_ACTIONS = ("fail", "hang", "slow", "kill")

#: Fallback sleep for ``hang`` with no explicit duration: long enough to
#: trip any sane ``--point-timeout``, short enough not to wedge a test
#: run that forgot one.
_DEFAULT_HANG_S = 30.0


@dataclass(frozen=True)
class FaultAction:
    """One scripted fault: what to do and for how long/often."""

    kind: str  # "fail" | "hang" | "slow" | "kill"
    seconds: float = 0.0  # sleep length for hang/slow
    attempts: int = 1  # how many leading attempts of the point it hits

    def __post_init__(self) -> None:
        if self.kind not in _ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.kind!r}: expected one of {_ACTIONS}"
            )
        if not 0.0 <= self.seconds < math.inf:
            raise ConfigurationError(
                f"fault duration must be finite and >= 0: {self.seconds}"
            )
        if self.attempts < 1:
            raise ConfigurationError(f"fault attempt count must be >= 1: {self.attempts}")


class FaultPlan:
    """Scripted faults keyed by campaign point ordinal."""

    def __init__(self, actions: Optional[Dict[int, FaultAction]] = None) -> None:
        self.actions: Dict[int, FaultAction] = dict(actions or {})

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the ``--inject-faults`` grammar above."""
        actions: Dict[int, FaultAction] = {}
        for raw_entry in spec.split(","):
            entry = raw_entry.strip()
            if not entry:
                continue
            head, sep, action_text = entry.partition("=")
            if not sep or not action_text:
                raise ConfigurationError(
                    f"bad fault entry {entry!r}: expected ORDINAL[xCOUNT]=ACTION[@SECONDS]"
                )
            ordinal_text, _, count_text = head.partition("x")
            kind, _, seconds_text = action_text.partition("@")
            try:
                ordinal = int(ordinal_text)
                attempts = int(count_text) if count_text else 1
                seconds = float(seconds_text) if seconds_text else 0.0
            except ValueError as exc:
                raise ConfigurationError(f"bad fault entry {entry!r}: {exc}") from exc
            if ordinal < 0:
                raise ConfigurationError(f"fault ordinal must be >= 0: {entry!r}")
            if kind == "hang" and not seconds_text:
                seconds = _DEFAULT_HANG_S
            actions[ordinal] = FaultAction(kind=kind, seconds=seconds, attempts=attempts)
        return cls(actions)

    def action_for(self, ordinal: int, attempt: int) -> Optional[FaultAction]:
        """The fault hitting this (point, attempt), or None."""
        action = self.actions.get(ordinal)
        if action is None or attempt > action.attempts:
            return None
        return action

    def __bool__(self) -> bool:
        return bool(self.actions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.actions!r})"


def apply_fault(action: FaultAction, in_process: bool) -> None:
    """Execute ``action`` at the start of a point attempt.

    Runs inside the worker (or inline when ``workers == 1``).  Returning
    normally means the measurement proceeds (the ``slow`` case).
    """
    if action.kind == "slow":
        time.sleep(action.seconds)
        return
    if action.kind == "fail":
        raise FaultInjected("injected fault: scripted attempt failure")
    if action.kind == "hang":
        if in_process:
            # No preemption in-process: model the hang's observable
            # outcome (a timed-out attempt) without wedging the run.
            raise PointTimeout("injected hang (in-process, simulated timeout)")
        time.sleep(action.seconds)
        # Only reached when no timeout (or a longer one) was configured;
        # fail loudly rather than letting the hang pass silently.
        raise FaultInjected(f"injected hang outlived the run ({action.seconds:.1f} s)")
    if action.kind == "kill":
        if in_process:
            raise CampaignAborted("injected kill: campaign process terminated")
        os._exit(3)
