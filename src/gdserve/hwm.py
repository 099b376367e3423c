"""High water mark planning and stateless rate-based serving.

The offline pass orders contracts by eligible supply (scarcest first) and
computes one serving rate per contract by draining a remaining-supply vector.
The online pass needs only those per-contract numbers: `HwmPlan.effective_probs`
truncates the rates of an impression's eligible contracts in plan order, so
any number of servers can evaluate it independently with no shared state.
Decisions are drawn with `kernels.draw_index` from the slices that
`simulate.Server.entry` gives for the plan handed to `Server.replan`, and
the forecast is replayed through a plan by `model.forecast_allocation`;
both serve every plan alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from . import kernels
from .model import (AllocationGraph, PlanningProblem, json_number, read_plan_file,
                    record_number)


@dataclass(frozen=True)
class HwmEntry:
    contract_id: str
    eligible_supply: float
    alpha: float

    def __post_init__(self):
        if self.eligible_supply < 0:
            raise ValueError(f"eligible_supply {self.eligible_supply} is negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} is outside [0, 1]")


@dataclass
class HwmPlan:
    """Compact allocation plan: one rate per contract, entries in priority
    order.  Entry index is the position used by the serve-time truncation
    rule.  `generate_hwm_plan` orders by allocation order (ascending
    eligible supply, ties by contract id); the simulator's reactive pacer
    by flight end."""

    entries: List[HwmEntry]
    diagnostics: List[str] = field(default_factory=list, compare=False)
    _pos: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._pos = {e.contract_id: i for i, e in enumerate(self.entries)}

    def __contains__(self, contract_id: str) -> bool:
        return contract_id in self._pos

    def effective_probs(self, contract_ids: Sequence[str]) -> List[Tuple[str, float]]:
        """Serve-time probabilities for one impression's eligible contracts.

        Contracts are taken in allocation order and their rates truncated to
        a total of at most 1.  Unknown contract ids raise KeyError.
        """
        ordered = sorted(contract_ids, key=self._pos.__getitem__)
        rates = [self.entries[self._pos[cid]].alpha for cid in ordered]
        effs = kernels.effective_probs(rates)
        return list(zip(ordered, effs))


def generate_hwm_plan(graph: Union[AllocationGraph, PlanningProblem]) -> HwmPlan:
    """Run the offline pass over a forecast graph or a re-plan's problem.

    Contracts are processed in allocation order; each gets the rate that
    exactly absorbs its demand from the remaining supply of its neighbor
    nodes (rate 1 when the demand cannot be met), and the consumed supply is
    deducted before the next contract is handled.  A graph is planned as
    `model.PlanningProblem.of(graph)`, so `gdserve plan` and the simulator's
    re-plans run this one pass over positions.
    """
    problem = PlanningProblem.of(graph)
    supply, demand = problem.supply, problem.demand
    contracts, nodes_of = problem.index.contracts, problem.index.nodes_of
    eligible_supply = {j: problem.eligible_supply(j) for j in demand}
    order = sorted(demand, key=lambda j: (eligible_supply[j], contracts[j].id))
    remaining = [float(s) for s in supply]
    entries: List[HwmEntry] = []
    diagnostics: List[str] = []
    for j in order:
        cid, d = contracts[j].id, demand[j]
        nodes = nodes_of[j]
        if not nodes:
            alpha = 1.0
            diagnostics.append(
                f"contract {cid}: no eligible supply nodes; "
                "rate set to 1 but it can never be served from this forecast")
        else:
            rem = [remaining[i] for i in nodes]
            sup = [float(supply[i]) for i in nodes]
            if sum(rem) < d:
                diagnostics.append(
                    f"contract {cid}: remaining eligible supply "
                    f"{sum(rem):.6g} is below demand {d:.6g}; "
                    "rate saturated at 1")
            alpha = kernels.solve_rate(rem, sup, float(d))
            for i, s in zip(nodes, sup):
                take = min(remaining[i], s * alpha)
                remaining[i] -= take
        entries.append(HwmEntry(cid, eligible_supply[j], alpha))
    return HwmPlan(entries, diagnostics)


def save_hwm_plan(plan: HwmPlan, path) -> None:
    """Write hwm_plan.jsonl; line order is the allocation order and must be
    preserved by consumers."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in plan.entries:
            fh.write(json.dumps({"contract_id": e.contract_id,
                                 "eligible_supply": json_number(e.eligible_supply),
                                 "alpha": e.alpha}) + "\n")


def _hwm_entry(rec) -> HwmEntry:
    supply = float(record_number(rec, "eligible_supply"))
    alpha = float(record_number(rec, "alpha"))
    return HwmEntry(str(rec["contract_id"]), supply, alpha)


def load_hwm_plan(path) -> HwmPlan:
    return HwmPlan(read_plan_file(path, _hwm_entry))
