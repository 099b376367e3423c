"""Feedback correction: adjusts reported remaining demand from delivery lag.

A contract delivering more than `delta_hours` behind its linear goal has its
reported remaining demand multiplied by `boost_behind`; one running more than
`delta_hours` ahead has it divided by `damp_ahead`.  An applied behind-boost
persists until delivery comes back within `release_within_cycles` cycle
lengths of the linear goal.  The adjustment is always computed from the true
remaining demand, never from a previously adjusted value, so re-applying it
at the same instant is a no-op.

Runs at re-optimization boundaries only, before plan regeneration; it is
never invoked concurrently with serving.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Tuple

from .model import Contract, GraphDataError


@dataclass(frozen=True)
class FeedbackConfig:
    """Defaults follow the operating points that work well in practice:
    4-hour slack, 1.5x boost when behind, 10x damping when ahead, boost
    released within two cycles of the goal."""

    delta_hours: float = 4.0
    boost_behind: float = 1.5
    damp_ahead: float = 10.0
    release_within_cycles: float = 2.0

    def __post_init__(self):
        if self.delta_hours <= 0:
            raise GraphDataError("delta_hours must be positive")
        if self.boost_behind <= 1:
            raise GraphDataError("boost_behind must exceed 1")
        if self.damp_ahead <= 1:
            raise GraphDataError("damp_ahead must exceed 1")
        if self.release_within_cycles < 0:
            raise GraphDataError("release_within_cycles must be non-negative")


def linear_goal(contract: Contract, t: datetime) -> float:
    """Smooth delivery target at time t: booked demand prorated over the
    flight, clamped to [0, booked] outside it."""
    span = (contract.end - contract.start).total_seconds()
    elapsed = (t - contract.start).total_seconds()
    frac = elapsed / span
    if frac <= 0.0:
        return 0.0
    if frac >= 1.0:
        return float(contract.booked_demand)
    return contract.booked_demand * frac


def hours_behind(contract: Contract, delivered: float, t: datetime) -> float:
    """Time-equivalent delivery lag: the h with y(t) = y*(t - h).

    Positive means behind the linear goal, negative means ahead.  Obtained by
    inverting the linear goal: h = (y*(t) - y(t)) * flight_hours / booked.
    """
    return ((linear_goal(contract, t) - delivered)
            * contract.flight_hours / contract.booked_demand)


def apply_feedback(contract: Contract, delivered: float, boost_active: bool,
                   t: datetime, cfg: FeedbackConfig,
                   cycle_hours: float) -> Tuple[float, bool]:
    """Adjusted remaining demand (booked minus `delivered`) and the new
    boost flag.

    Pure function of its inputs; `cycle_hours` is the re-optimization period,
    needed because the boost-release threshold is measured in cycle lengths.
    """
    remaining = contract.booked_demand - delivered
    h = hours_behind(contract, delivered, t)
    release_h = cfg.release_within_cycles * cycle_hours
    if h > cfg.delta_hours:
        return remaining * cfg.boost_behind, True
    if boost_active and h > release_h:
        # Hysteresis: keep boosting until delivery is back within the
        # release window, even once the lag has dropped below delta.
        return remaining * cfg.boost_behind, True
    if h < -cfg.delta_hours:
        return remaining / cfg.damp_ahead, False
    return remaining, False
