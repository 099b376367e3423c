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
first stage does (Bharadwaj et al., KDD 2012).  The knots of one node come
from walking its other contracts in descending activation key
(1 + alpha_k, theta_k); the solve keeps that order per node for the whole
solve and moves a contract within it when its dual changes, so no step
sorts a node.

The step is non-decreasing in every other dual: raising alpha_k raises the
node level that `kernels.dual_probs` solves for, which lowers every x_ij,
so D_j can only fall and its crossing of d_j can only move right.  Started
from alpha = 0, which lies below the fixed point, cyclic coordinate ascent
on this monotone map therefore never lowers a dual (Bertsekas & Tsitsiklis,
Parallel and Distributed Computation, 1989).  A dual that reaches its cap
penalty_j/2 would be set to the cap again at every later step, so the solve
skips its knot walk.  The argument needs the cold start: from duals above
the fixed point a warm-started solve would move duals down.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import kernels
from .model import (AllocationGraph, Edge, GraphDataError, PlanningProblem,
                    read_plan_file, record_number)


TOL = 1e-6              # the solve's convergence tolerance (see solve_dual_offline)
MAX_SWEEPS = 10_000     # the sweeps a solve may run before it gives up


class DualConvergenceError(RuntimeError):
    """The offline solve did not converge within `MAX_SWEEPS` sweeps; the
    message names the worst contract and its relative shortfall."""


def target_fractions(graph: Union[AllocationGraph, PlanningProblem]) -> Dict[str, float]:
    """theta_j = d_j / (j's eligible forecast supply) for each live contract
    of `model.PlanningProblem.of(graph)` that has some eligible supply.  A
    quotient that underflows to 0 raises GraphDataError: the solve divides
    by theta_j."""
    problem = PlanningProblem.of(graph)
    contracts = problem.index.contracts
    theta = {}
    for j, demand in problem.demand.items():
        total = problem.eligible_supply(j)
        if total > 0:
            t = demand / total
            if t == 0:
                raise GraphDataError(f"contract {contracts[j].id}: target fraction "
                                     f"{demand!r} / {total!r} underflows to 0")
            theta[contracts[j].id] = t
    return theta


@dataclass(frozen=True)
class DualEntry:
    contract_id: str
    theta: float
    alpha: float
    penalty: float

    def __post_init__(self):
        if self.theta <= 0 or self.penalty <= 0:
            raise ValueError("theta and penalty must be positive")
        if not 0.0 <= self.alpha <= self.penalty / 2.0:
            raise ValueError(f"alpha {self.alpha} is outside [0, penalty/2]")


@dataclass(frozen=True)
class DualSolveStats:
    """How an offline solve ended (not part of the plan file)."""

    sweeps: int             # coordinate sweeps run
    steps: int              # coordinate steps computed (capped duals skipped)
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


def dual_objective(graph: AllocationGraph, alloc: Dict[Edge, float],
                   underdelivery: Dict[str, float],
                   tol: float = 1e-9) -> float:
    """Evaluate the relaxed objective for a feasible (x, u) pair; x is sparse
    (an absent edge has x = 0).

    Raises GraphDataError when u_j < 0, an edge fraction is negative, or a
    relaxed demand constraint is violated beyond `tol`.
    """
    problem = PlanningProblem.of(graph)
    theta = target_fractions(problem)
    for (sid, cid), x in alloc.items():
        if x < -tol:
            raise GraphDataError(f"edge ({sid!r}, {cid!r}): negative allocation {x}")
    total = 0.0
    for c, nodes in zip(graph.contracts, problem.index.nodes_of):
        u = underdelivery.get(c.id, 0.0)
        if u < -tol:
            raise GraphDataError(f"contract {c.id}: negative underdelivery {u}")
        xs = [(problem.supply[i], alloc.get((problem.index.node_ids[i], c.id), 0.0))
              for i in nodes]
        delivered = sum(x * s for s, x in xs)
        if delivered + u < c.demand - tol * max(1.0, c.demand):
            raise GraphDataError(
                f"contract {c.id}: relaxed demand constraint violated "
                f"({delivered:.6g} + {u:.6g} < {c.demand:.6g})")
        total += c.penalty * u
        if c.id not in theta:
            continue
        th = theta[c.id]
        for s, x in xs:
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


def delivery_knots(j: str, theta_j: float,
                   nodes: Sequence[Tuple[float, Sequence[Tuple[float, float, str]]]]
                   ) -> List[Tuple[float, float]]:
    """Knots of contract j's forecast delivery as a function of its dual.

    `nodes` holds one (s_i, order_i) pair per eligible node of j, where
    order_i lists the (1 + alpha_k, theta_k, k) of the node's planned
    contracts in ascending order; j's own entry, if present, is skipped, and
    the other duals stay fixed.  Returns (a_t, c_t) pairs sorted by a_t such
    that, for every a,

        D_j(a) = sum_i s_i * x_ij(a) = sum_t c_t * max(0, a - a_t)

    where x_ij(a) is the reconstruction of `reconstruct_primal` with
    alpha_j = a.  Requires theta_j > 0.
    """
    knots: List[Tuple[float, float]] = []
    for s, order in nodes:
        # Walk the node level X down from the highest activation point
        # 1 + alpha_k of the others.  a_sum and b_sum are the sums of
        # theta_k * (1 + alpha_k) and theta_k over the others active above X,
        # so the others alone fill a_sum - b_sum * X of the node; x_ij = 1
        # minus that, reached at a = X - 1 + x_ij / theta_j.
        a_sum = b_sum = 0.0
        slope_above = 0.0
        for c, t, k in reversed(order):
            if k == j:
                continue
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


def solve_dual_offline(graph: Union[AllocationGraph, PlanningProblem]) -> DualPlan:
    """Compute per-contract dual values by cyclic coordinate ascent.

    For each contract in turn the dual is set to the smallest value at which
    the reconstructed expected delivery over the forecast meets the demand,
    clamped to [0, penalty/2]; the value is found exactly by a breakpoint
    scan over the knots of the delivery curve (`delivery_knots`).  Sweeps
    repeat until the largest per-contract change falls below `TOL`.  On
    return every contract either delivers at least d_j * (1 - TOL) in
    reconstruction or sits at the cap (its underdelivery is priced at the
    penalty); a solve that does not get there within `MAX_SWEEPS` sweeps
    raises DualConvergenceError, naming the worst violator.  The plan's
    `stats` record the sweeps run, the coordinate steps computed, the
    contracts at the cap and the final worst residual.

    The solve starts from alpha = 0 and skips the step of a contract whose
    dual already sits at its cap.  The skip is exact: with the other duals
    fixed the step returns the smallest a in [0, penalty_j/2] with
    D_j(a) >= d_j; raising any other dual lowers every x_ij, so the step is
    non-decreasing in the other duals; from alpha = 0, below the fixed
    point, induction over the steps shows that no dual ever decreases.  A
    capped dual would be set to the cap again with a recorded change of 0,
    so the sweep count, `max_change` and `worst_violation` (which already
    skips capped contracts) are those of the unskipped solve.  A start
    above the fixed point would break the induction.

    Each node's planned contracts are kept in one list sorted by activation
    key (1 + alpha_k, theta_k), built once per solve; the step of contract
    j walks the lists of j's nodes, skipping j, and a dual that changes is
    moved in each of its nodes' lists by bisection.  The knots are those of
    a walk over a freshly sorted list: entries with equal keys add the same
    terms in the same order, so their order among themselves does not
    matter, and the move reinserts the entry under its new key whichever
    way the dual moved, so the order holds for a start anywhere.

    A graph is solved as `model.PlanningProblem.of(graph)`, so `gdserve
    plan` and the simulator's re-plans run this one solve over positions.
    """
    problem = PlanningProblem.of(graph)
    theta = target_fractions(problem)
    contracts = problem.index.contracts
    diagnostics = []
    included: List[Tuple[str, float]] = []      # (id, demand), by id
    planned = set()                             # their positions
    penalty = {}
    for j, d in problem.demand.items():
        c = contracts[j]
        if c.id in theta:
            included.append((c.id, float(d)))
            planned.add(j)
            penalty[c.id] = c.penalty
        else:
            diagnostics.append(
                f"contract {c.id}: no eligible forecast supply; excluded from plan")
    included.sort()
    cap = {cid: penalty[cid] / 2.0 for cid, _ in included}
    alpha = {cid: 0.0 for cid, _ in included}

    # Per-node (supply, planned contracts, thetas) for delivery evaluation,
    # and per-contract (supply, order) lists for the coordinate step, where
    # a node's order holds its contracts' (1 + alpha, theta, id) in
    # ascending order and is shared by all of them.
    node_views = []
    orders = {cid: [] for cid, _ in included}
    for js, supply in zip(problem.index.contracts_of, problem.supply):
        lst = [contracts[j].id for j in js if j in planned]
        if not lst or supply <= 0:
            continue
        s = float(supply)
        ths = [theta[cid] for cid in lst]
        node_views.append((s, lst, ths))
        order = sorted((1.0 + alpha[cid], t, cid) for cid, t in zip(lst, ths))
        for cid in lst:
            orders[cid].append((s, order))

    def worst_violation() -> Tuple[str, float]:
        # Complementarity residual: a contract must either deliver d_j within
        # TOL*d_j or sit at the cap (underdelivery priced at the penalty).
        # Each node is evaluated once; a contract's delivery adds s * x over
        # its nodes in node order.
        delivered = {cid: 0.0 for cid, _ in included}
        for s, lst, ths in node_views:
            for cid, x in zip(lst, kernels.dual_probs(ths, [alpha[k] for k in lst])):
                delivered[cid] += s * x
        cid_w, rel_w = "", 0.0
        for cid, d in included:
            if alpha[cid] >= cap[cid] - TOL:
                continue
            short = max(0.0, d - delivered[cid])
            rel = short / d
            if rel > rel_w:
                cid_w, rel_w = cid, rel
        return cid_w, rel_w

    converged = False
    steps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        max_change = 0.0
        for cid, d in included:
            hi = cap[cid]
            if alpha[cid] >= hi:
                continue
            steps += 1
            knots = delivery_knots(cid, theta[cid], orders[cid])
            new, old = _first_crossing(knots, d, hi), alpha[cid]
            max_change = max(max_change, abs(new - old) / max(1.0, hi))
            alpha[cid] = new
            if new != old:
                was, now = (1.0 + old, theta[cid], cid), (1.0 + new, theta[cid], cid)
                for _, order in orders[cid]:
                    del order[bisect_left(order, was)]
                    insort(order, now)
        if max_change < TOL:
            _, rel_w = worst_violation()
            if rel_w <= TOL:
                converged = True
                break

    if not converged:
        cid_w, rel_w = worst_violation()
        raise DualConvergenceError(
            f"dual solve did not converge within {MAX_SWEEPS} sweeps; "
            f"worst contract {cid_w or 'n/a'} short by {rel_w:.3g} of demand")

    entries = [DualEntry(cid, theta[cid], alpha[cid], penalty[cid])
               for cid, _ in included]
    capped = sum(1 for cid, _ in included if alpha[cid] >= cap[cid] - TOL)
    return DualPlan(entries, diagnostics, DualSolveStats(sweeps, steps, capped, rel_w))


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
    return DualEntry(str(rec["contract_id"]), theta, alpha, penalty)


def load_dual_plan(path) -> DualPlan:
    return DualPlan(read_plan_file(path, _dual_entry))
