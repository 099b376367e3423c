"""Dual-value allocation planning and online primal reconstruction.

The offline problem relaxes each demand constraint with an underdelivery
variable u_j >= 0:

    minimize  sum_j sum_{i in G(j)} s_i * (x_ij - theta_j)^2 / theta_j
              + sum_j penalty_j * u_j
    s.t.      sum_{i in G(j)} s_i * x_ij + u_j >= d_j        for all j
              sum_{j in G(i)} x_ij <= 1,  x_ij >= 0          for all i

with theta_j = d_j / (total eligible forecast supply of j).  The plan stores
one dual value per contract; at serve time the edge fractions are rebuilt
from the duals of the impression's eligible contracts alone.

Dual scaling note: differentiating the objective above gives
2*s_i*(x_ij - theta_j)/theta_j = lambda_j*s_i - mu_i on positive edges, i.e.
x_ij = theta_j * (1 + lambda_j/2 - mu_i/(2*s_i)).  The reconstruction
function g(z) = max(0, theta_j*(1+z)) therefore pairs with duals expressed
as half the raw multipliers; since the raw demand dual is capped by the
underdelivery price, plan values live in [0, penalty_j/2], and a contract
whose demand is unattainable converges to exactly penalty_j/2.

Offline solve note: with the other duals fixed, contract j's forecast
delivery D_j(a) = sum_i s_i * x_ij(a) is continuous, non-decreasing and
piecewise-linear in its own dual a.  At one node x_ij(a) is 0 until the
other contracts alone no longer fill the node, rises with slope theta_j
while the node is unsaturated, then with slope theta_j*S/(theta_j+S), where
S is the theta-sum of the other contracts still active, and is flat at 1
once j is alone.  Each coordinate step therefore collects the knots of
D_j and solves D_j(a) = d_j exactly by one breakpoint scan, as SHALE's
first stage does (Bharadwaj et al., KDD 2012).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import kernels
from .model import (AllocationGraph, FractionalAllocation, GraphDataError,
                    read_plan_file, record_number,
                    validate_graph)


class DualConvergenceError(RuntimeError):
    """Offline solve failed to converge; carries the worst violation."""

    def __init__(self, message: str, worst_contract: str, worst_violation: float):
        super().__init__(message)
        self.worst_contract = worst_contract
        self.worst_violation = worst_violation


@dataclass(frozen=True)
class DualObjectiveSpec:
    """Objective data: target fraction and underdelivery price per contract."""

    theta: Dict[str, float]
    penalty: Dict[str, float]

    def __post_init__(self):
        for cid, p in self.penalty.items():
            if p <= 0:
                raise GraphDataError(f"contract {cid}: penalty must be positive")

    @classmethod
    def from_graph(cls, graph: AllocationGraph) -> "DualObjectiveSpec":
        theta = {}
        penalty = {}
        for c in graph.contracts:
            total = graph.eligible_supply(c.id)
            if total > 0:
                theta[c.id] = c.demand / total
            penalty[c.id] = c.penalty
        return cls(theta, penalty)


@dataclass(frozen=True)
class DualEntry:
    contract_id: str
    theta: float
    alpha: float
    penalty: float


@dataclass(frozen=True)
class DualSolveStats:
    """How an offline solve ended (not part of the plan file)."""

    sweeps: int             # coordinate sweeps run
    capped: int             # contracts whose dual sits at penalty/2
    worst_residual: float   # largest relative shortfall of an uncapped contract


@dataclass
class DualPlan:
    """One dual value per contract, plus its target fraction and price.

    Contracts with zero eligible forecast supply are excluded (their target
    fraction is undefined) and reported in `diagnostics`.  `stats` is set by
    `solve_dual_offline` and is None for a loaded plan.
    """

    entries: List[DualEntry]
    diagnostics: List[str] = field(default_factory=list, compare=False)
    stats: Optional[DualSolveStats] = field(default=None, compare=False)
    _by_id: Dict[str, DualEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_id = {e.contract_id: e for e in self.entries}

    def __contains__(self, contract_id: str) -> bool:
        return contract_id in self._by_id

    def effective_probs(self, contract_ids: Sequence[str]) -> List[Tuple[str, float]]:
        """Serve-time probabilities: the reconstructed edge fractions."""
        ordered = sorted(contract_ids)
        triples = [(cid, self._by_id[cid].theta, self._by_id[cid].alpha)
                   for cid in ordered]
        return reconstruct_primal(triples)


def dual_objective(graph: AllocationGraph, alloc: FractionalAllocation,
                   underdelivery: Dict[str, float],
                   spec: Optional[DualObjectiveSpec] = None,
                   tol: float = 1e-9) -> float:
    """Evaluate the relaxed objective for a feasible (x, u) pair.

    Raises GraphDataError when u_j < 0, an edge fraction is negative, or a
    relaxed demand constraint is violated beyond `tol`.
    """
    spec = spec or DualObjectiveSpec.from_graph(graph)
    for (sid, cid), x in alloc.values.items():
        if x < -tol:
            raise GraphDataError(f"edge ({sid!r}, {cid!r}): negative allocation {x}")
    total = 0.0
    for c in graph.contracts:
        u = underdelivery.get(c.id, 0.0)
        if u < -tol:
            raise GraphDataError(f"contract {c.id}: negative underdelivery {u}")
        delivered = sum(alloc.get(sid, c.id) * graph.node_by_id[sid].forecast_supply
                        for sid in graph.nodes_of[c.id])
        if delivered + u < c.demand - tol * max(1.0, c.demand):
            raise GraphDataError(
                f"contract {c.id}: relaxed demand constraint violated "
                f"({delivered:.6g} + {u:.6g} < {c.demand:.6g})")
        total += spec.penalty[c.id] * u
        if c.id not in spec.theta:
            continue
        th = spec.theta[c.id]
        for sid in graph.nodes_of[c.id]:
            s = graph.node_by_id[sid].forecast_supply
            x = alloc.get(sid, c.id)
            total += s * (x - th) ** 2 / th
    return total


def reconstruct_primal(eligible: Sequence[Tuple[str, float, float]]
                       ) -> List[Tuple[str, float]]:
    """Rebuild edge fractions for one impression from (id, theta, dual) triples.

    Returns [(contract_id, x)] in input order; the values are non-negative
    and sum to at most 1 by construction.  An empty input yields an empty
    result (the impression goes unallocated).
    """
    if not eligible:
        return []
    thetas = [t for _, t, _ in eligible]
    alphas = [a for _, _, a in eligible]
    for cid, t, _ in eligible:
        if t <= 0:
            raise GraphDataError(f"contract {cid}: target fraction must be positive")
    xs = kernels.dual_probs(thetas, alphas)
    return [(cid, x) for (cid, _, _), x in zip(eligible, xs)]


def delivery_knots(theta_j: float,
                   nodes: Sequence[Tuple[float, Sequence[Tuple[float, float]]]]
                   ) -> List[Tuple[float, float]]:
    """Knots of one contract's forecast delivery as a function of its dual.

    `nodes` holds one (s_i, others_i) pair per eligible node of contract j,
    where others_i lists the (theta_k, alpha_k) of the node's other planned
    contracts, whose duals stay fixed.  Returns (a_t, c_t) pairs sorted by
    a_t such that, for every a,

        D_j(a) = sum_i s_i * x_ij(a) = sum_t c_t * max(0, a - a_t)

    where x_ij(a) is the reconstruction of `reconstruct_primal` with
    alpha_j = a.  Requires theta_j > 0.
    """
    knots: List[Tuple[float, float]] = []
    for s, others in nodes:
        # Walk the node level X down from the highest activation point
        # 1 + alpha_k of the others.  a_sum and b_sum are the sums of
        # theta_k * (1 + alpha_k) and theta_k over the others active above X,
        # so the others alone fill a_sum - b_sum * X of the node; x_ij = 1
        # minus that, reached at a = X - 1 + x_ij / theta_j.
        a_sum = b_sum = 0.0
        slope_above = 0.0
        for c, t in sorted(((1.0 + a, t) for t, a in others), reverse=True):
            filled = a_sum - b_sum * c
            if filled >= 1.0:
                break
            b_below = b_sum + t
            slope_below = theta_j * b_below / (theta_j + b_below)
            knots.append((c - 1.0 + (1.0 - filled) / theta_j,
                          s * (slope_above - slope_below)))
            slope_above = slope_below
            a_sum += t * c
            b_sum = b_below
        else:
            if a_sum < 1.0:
                # The others never fill the node: below level 0 it is
                # unsaturated and x_ij = theta_j * (1 + a) from a = -1.
                knots.append((-1.0 + (1.0 - a_sum) / theta_j,
                              s * (slope_above - theta_j)))
                knots.append((-1.0, s * theta_j))
                continue
        # x_ij is 0 until the node level passes the point where the others
        # alone fill the node.
        knots.append(((a_sum - 1.0) / b_sum - 1.0, s * slope_above))
    knots.sort()
    return knots


def _first_crossing(knots: Sequence[Tuple[float, float]], demand: float,
                    hi: float) -> float:
    """Smallest a in [0, hi] where the knot curve reaches `demand`; hi when
    it stays below `demand` on the whole interval.  Exact breakpoint scan,
    as in `kernels.solve_rate`."""
    value = slope = 0.0
    prev = 0.0
    for a, c in knots:
        if a > hi:
            break
        if slope > 0.0:
            reach = value + slope * (a - prev)
            if reach >= demand:
                break
            value = reach
        slope += c
        prev = a
    if slope <= 0.0:    # flat below demand up to hi
        return hi
    root = prev + (demand - value) / slope
    return min(max(root, 0.0), hi)


def solve_dual_offline(graph: AllocationGraph,
                       spec: Optional[DualObjectiveSpec] = None,
                       tol: float = 1e-6, max_iters: int = 10000, *,
                       validate: bool = True) -> DualPlan:
    """Compute per-contract dual values by cyclic coordinate ascent.

    For each contract in turn the dual is set to the smallest value at which
    the reconstructed expected delivery over the forecast meets the demand,
    clamped to [0, penalty/2]; the value is found exactly by a breakpoint
    scan over the knots of the delivery curve (`delivery_knots`).  Sweeps
    repeat until the largest per-contract change falls below `tol`.  On
    return every contract either delivers at least d_j * (1 - tol) in
    reconstruction or sits at the cap (its underdelivery is priced at the
    penalty); otherwise DualConvergenceError is raised with the worst
    violator.  The plan's `stats` record the sweeps run, the contracts at
    the cap and the final worst residual.
    """
    if validate:
        violations = validate_graph(graph)
        if violations:
            raise GraphDataError("invalid graph: " + "; ".join(violations))
    spec = spec or DualObjectiveSpec.from_graph(graph)
    diagnostics = []
    included = []
    for c in graph.contracts:
        if c.id in spec.theta:
            included.append(c)
        else:
            diagnostics.append(
                f"contract {c.id}: no eligible forecast supply; excluded from plan")
    included.sort(key=lambda c: c.id)
    theta = spec.theta
    cap = {c.id: spec.penalty[c.id] / 2.0 for c in included}
    alpha = {c.id: 0.0 for c in included}
    included_ids = set(alpha)

    # Per-node eligible lists restricted to planned contracts; per-contract
    # (node, supply, slot) views for delivery evaluation, and per-contract
    # (supply, [(other contract, its theta)]) lists for the coordinate step.
    node_lists: Dict[str, List[str]] = {}
    for n in graph.supply_nodes:
        lst = [cid for cid in graph.contracts_of[n.id] if cid in included_ids]
        if lst and n.forecast_supply > 0:
            node_lists[n.id] = lst
    views = {c.id: [] for c in included}
    rivals = {c.id: [] for c in included}
    for nid, lst in node_lists.items():
        s = float(graph.node_by_id[nid].forecast_supply)
        ths = [theta[cid] for cid in lst]
        for slot, cid in enumerate(lst):
            views[cid].append((lst, ths, s, slot))
            rivals[cid].append((s, [(k, t) for k, t in zip(lst, ths) if k != cid]))

    def delivery(cid: str, a: float) -> float:
        total = 0.0
        for lst, ths, s, slot in views[cid]:
            als = [a if k == cid else alpha[k] for k in lst]
            total += s * kernels.dual_probs(ths, als)[slot]
        return total

    def worst_violation() -> Tuple[str, float]:
        # Complementarity residual: a contract must either deliver d_j within
        # tol*d_j or sit at the cap (underdelivery priced at the penalty).
        cid_w, rel_w = "", 0.0
        for c in included:
            if alpha[c.id] >= cap[c.id] - tol:
                continue
            short = max(0.0, float(c.demand) - delivery(c.id, alpha[c.id]))
            rel = short / float(c.demand)
            if rel > rel_w:
                cid_w, rel_w = c.id, rel
        return cid_w, rel_w

    converged = False
    for sweeps in range(1, max_iters + 1):
        max_change = 0.0
        for c in included:
            cid, hi = c.id, cap[c.id]
            knots = delivery_knots(theta[cid], [
                (s, [(t, alpha[k]) for k, t in others]) for s, others in rivals[cid]])
            new = _first_crossing(knots, float(c.demand), hi)
            max_change = max(max_change, abs(new - alpha[cid]) / max(1.0, hi))
            alpha[cid] = new
        if max_change < tol:
            _, rel_w = worst_violation()
            if rel_w <= tol:
                converged = True
                break

    if not converged:
        cid_w, rel_w = worst_violation()
        raise DualConvergenceError(
            f"dual solve did not converge within {max_iters} sweeps; "
            f"worst contract {cid_w or 'n/a'} short by {rel_w:.3g} of demand",
            cid_w, rel_w)

    entries = [DualEntry(c.id, theta[c.id], alpha[c.id], spec.penalty[c.id])
               for c in included]
    capped = sum(1 for c in included if alpha[c.id] >= cap[c.id] - tol)
    return DualPlan(entries, diagnostics, DualSolveStats(sweeps, capped, rel_w))


def save_dual_plan(plan: DualPlan, path) -> None:
    """Write dual_plan.jsonl: one contract per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in plan.entries:
            fh.write(json.dumps({"contract_id": e.contract_id, "theta": e.theta,
                                 "alpha": e.alpha, "penalty": e.penalty}) + "\n")


def _dual_entry(rec) -> DualEntry:
    theta = float(record_number(rec, "theta"))
    alpha = float(record_number(rec, "alpha"))
    penalty = float(record_number(rec, "penalty", 10.0))
    if theta <= 0 or penalty <= 0:
        raise ValueError("theta and penalty must be positive")
    if not 0.0 <= alpha <= penalty / 2.0:
        raise ValueError(f"alpha {alpha} is outside [0, penalty/2]")
    return DualEntry(str(rec["contract_id"]), theta, alpha, penalty)


def load_dual_plan(path) -> DualPlan:
    return DualPlan(read_plan_file(path, _dual_entry))
