"""Shared fixtures and instance builders."""

from __future__ import annotations

import random
from datetime import datetime, timedelta

import pytest

from gdserve import kernels, model, targeting as tg
from gdserve.scenario import demo_graph

FLIGHT_START = datetime(2026, 3, 2)


def flight(days: float = 7.0, offset_days: float = 0.0):
    start = FLIGHT_START + timedelta(days=offset_days)
    return start, start + timedelta(days=days)


def make_contract(cid, targeting_text, demand, days=7.0, offset_days=0.0, **kw):
    start, end = flight(days, offset_days)
    return model.Contract(cid, tg.parse_targeting(targeting_text), demand,
                          start, end, **kw)


def decide(plan, eligible_ids, u):
    """The contract one uniform `u` selects from the plan's slice for
    `eligible_ids` (`kernels.draw_index`), or None when it selects none."""
    probs = plan.effective_probs(eligible_ids)
    sel = kernels.draw_index([p for _, p in probs], u)
    return probs[sel][0] if sel >= 0 else None


def forecast_replay(graph, plan):
    """`model.forecast_allocation`, with each contract's underdelivery in
    place of its delivery: the pair `dual.dual_objective` scores."""
    alloc, delivered = model.forecast_allocation(graph, plan)
    return alloc, {c.id: max(0.0, float(c.demand) - delivered[c.id])
                   for c in graph.contracts}


@pytest.fixture
def three_contract_graph():
    """Six supply segments, three overlapping contracts; the plan truncates
    rates at serve time (see scenario.demo_graph)."""
    return demo_graph()


def random_targeting(rng: random.Random, depth: int = 0) -> tg.TargetingExpr:
    """Small random expression trees over a fixed attribute universe."""
    attrs = [("gender", ["male", "female"]),
             ("state", ["CA", "WA", "NV"]),
             ("age_bucket", ["1", "2", "5"])]
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        name, values = rng.choice(attrs)
        if rng.random() < 0.5:
            return tg.Equals(name, rng.choice(values))
        k = rng.randint(1, len(values))
        return tg.In(name, frozenset(rng.sample(values, k)))
    if roll < 0.6:
        return tg.Not(random_targeting(rng, depth + 1))
    if roll < 0.65:
        return tg.TrueExpr()
    kids = tuple(random_targeting(rng, depth + 1)
                 for _ in range(rng.randint(2, 3)))
    return tg.And(kids) if rng.random() < 0.5 else tg.Or(kids)


def random_attrs(rng: random.Random) -> dict:
    attrs = {}
    for name, values in [("gender", ["male", "female"]),
                         ("state", ["CA", "WA", "NV"]),
                         ("age_bucket", ["1", "2", "5"])]:
        if rng.random() < 0.75:
            attrs[name] = rng.choice(values)
    return attrs
