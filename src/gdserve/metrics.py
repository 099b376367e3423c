"""Evaluation metrics: delivery improvement and smoothness quantiles.

Smoothness of contract j at sample time t is the percentage deviation from
its linear goal, normalized by booked demand:

    sigma_j(t) = 100 * (y_j(t) - y*_j(t)) / booked_j

The headline number sigma^f is the maximum over sample times of the f-th
nearest-rank percentile of sigma_j(t) across contracts in flight at t.
Signed deviations are used by default; pass positive_part=True to score
over-delivery only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional, Sequence, Set, Tuple


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class TimeseriesRow:
    t: datetime
    contract_id: str
    delivered: float
    linear_goal: float


def build_smoothness(rows: Sequence[TimeseriesRow],
                     booked: Dict[str, float],
                     ) -> List[Tuple[datetime, Dict[str, float]]]:
    """The sigma_j(t) samples of delivery timeseries rows: one (time,
    {contract: sigma}) entry per sample time, in time order.

    Every row is a sample; the simulator writes a contract's rows only at
    times within its flight.
    """
    by_time: Dict[datetime, Dict[str, float]] = {}
    for row in rows:
        sigma = 100.0 * (row.delivered - row.linear_goal) / booked[row.contract_id]
        by_time.setdefault(row.t, {})[row.contract_id] = sigma
    return sorted(by_time.items())


def nearest_rank(values: Sequence[float], f: float) -> float:
    """f-th percentile by the nearest-rank rule (f in (0, 100])."""
    if not values:
        raise MetricsError("percentile of an empty set")
    if not 0 < f <= 100:
        raise MetricsError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(f / 100.0 * len(ordered))
    return ordered[rank - 1]


def smoothness_quantile(series: Sequence[Tuple[datetime, Dict[str, float]]],
                        f: float, positive_part: bool = False) -> float:
    """sigma^f of a `build_smoothness` series: max over sample times of the
    f-th percentile across contracts."""
    if not series:
        raise MetricsError("empty smoothness series")
    best = -math.inf
    for _, sigmas in series:
        if not sigmas:
            continue
        vals = list(sigmas.values())
        if positive_part:
            vals = [max(0.0, v) for v in vals]
        best = max(best, nearest_rank(vals, f))
    if best == -math.inf:
        raise MetricsError("no contracts in flight at any sample time")
    return best


def smoothness_summary(rows: Sequence[TimeseriesRow], booked: Dict[str, float],
                       finished: Set[str], positive_part: bool = False,
                       ) -> Dict[str, Optional[float]]:
    """sigma^75 and sigma^95 over the rows of `finished` contracts and
    sigma^75 over the others' rows; a value is None when it has no rows."""
    out: Dict[str, Optional[float]] = {"sigma75_finished": None,
                                       "sigma95_finished": None,
                                       "sigma75_unfinished": None}
    fin_rows = [r for r in rows if r.contract_id in finished]
    unfin_rows = [r for r in rows if r.contract_id not in finished]
    if fin_rows:
        series = build_smoothness(fin_rows, booked)
        out["sigma75_finished"] = smoothness_quantile(series, 75, positive_part)
        out["sigma95_finished"] = smoothness_quantile(series, 95, positive_part)
    if unfin_rows:
        series = build_smoothness(unfin_rows, booked)
        out["sigma75_unfinished"] = smoothness_quantile(series, 75, positive_part)
    return out


def underdelivery_fraction(booked: Dict[str, float],
                           delivered: Dict[str, float]) -> float:
    """Total undelivered impressions over total booked."""
    total_booked = sum(booked.values())
    if total_booked <= 0:
        raise MetricsError("no booked demand")
    short = sum(max(0.0, booked[cid] - delivered.get(cid, 0.0)) for cid in booked)
    return short / total_booked


def delivery_improvement(test_booked: Dict[str, float],
                         test_delivered: Dict[str, float],
                         base_booked: Dict[str, float],
                         base_delivered: Dict[str, float]) -> float:
    """Percent reduction in underdelivery relative to a baseline run.

    100 * (U_base - U_test) / U_base over the same contract set; raises
    MetricsError when the baseline fully delivered (improvement undefined).
    """
    if set(test_booked) != set(base_booked):
        raise MetricsError("reports cover different contract sets")
    u_test = underdelivery_fraction(test_booked, test_delivered)
    u_base = underdelivery_fraction(base_booked, base_delivered)
    if u_base == 0.0:
        raise MetricsError("baseline underdelivery is zero; improvement undefined")
    return 100.0 * (u_base - u_test) / u_base
