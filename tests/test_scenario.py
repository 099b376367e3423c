"""`generate_scenario` evaluates each contract's targeting once over the
stream's attribute sets and the supply nodes; its demands and nodes are
those of a walk of every (event, contract) and (node, contract) pair."""

from datetime import timedelta
from random import Random

import pytest

from gdserve import scenario, targeting as tg
from gdserve.scenario import ScenarioSpec, generate_scenario


def reference_shared_nodes(appended, rng, dims, nodes_attrs, contracts_meta, combos):
    """`scenario._ensure_shared_nodes` with sharing tested node by node."""
    def sharers(meta):
        expr = meta[1]
        return [
            other for other in contracts_meta if other is not meta
            and any(tg.eligible(attrs, expr) and tg.eligible(attrs, other[1])
                    for attrs in nodes_attrs)]

    for meta in contracts_meta:
        if sharers(meta):
            continue
        for other in contracts_meta:
            if other is meta:
                continue
            attrs = scenario._joint_witness(rng, dims, meta[1], other[1])
            if attrs is not None and tuple(sorted(attrs.items())) not in combos:
                combos.add(tuple(sorted(attrs.items())))
                nodes_attrs.append(attrs)
                appended.append(attrs)
                break


SPECS = {
    "low": ScenarioSpec(num_contracts=10, num_attributes=4, contention="low",
                        seed=1, days=3, daily_traffic=1500),
    "medium": ScenarioSpec(num_contracts=12, num_attributes=3, seed=2, days=3,
                           daily_traffic=1500),
    "high": ScenarioSpec(num_contracts=12, num_attributes=5, contention="high",
                         seed=3, days=3, daily_traffic=1500),
    # The second contract shares a node with the first only through the
    # node added for the first.
    "high, node added": ScenarioSpec(num_contracts=2, num_attributes=6,
                                     contention="high", seed=569, days=2,
                                     daily_traffic=400),
    "day flights": ScenarioSpec(num_contracts=10, num_attributes=3, seed=4, days=4,
                                daily_traffic=1500,
                                flight_mix={"day": 0.8, "week": 0.2}),
}


@pytest.mark.parametrize("name", list(SPECS))
def test_matches_per_event_walk(monkeypatch, name):
    spec = SPECS[name]
    shares = []

    class SharesRecorded(Random):
        def uniform(self, a, b):
            x = super().uniform(a, b)
            if (a, b) == spec.demand_share:
                shares.append(x)
            return x

    with monkeypatch.context() as m:
        m.setattr(scenario, "Random", SharesRecorded)
        graph, stream = generate_scenario(spec)
    appended = []
    monkeypatch.setattr(scenario, "_ensure_shared_nodes",
                        lambda *args: reference_shared_nodes(appended, *args))
    ref_graph, ref_stream = generate_scenario(spec)

    assert len(appended) == (name == "high, node added")
    assert stream == ref_stream
    assert [(n.id, n.attributes, n.forecast_supply) for n in graph.supply_nodes] == \
        [(n.id, n.attributes, n.forecast_supply) for n in ref_graph.supply_nodes]
    assert graph.edges == sorted(
        (n.id, c.id) for n in graph.supply_nodes for c in graph.contracts
        if tg.eligible(n.attributes, c.targeting))
    assert len(shares) == len(graph.contracts)
    want = []
    for c, share in zip(ref_graph.contracts, shares):
        eligible_flight = sum(1 for ev in ref_stream if c.start <= ev.ts < c.end
                              and tg.eligible(ev.attributes, c.targeting))
        want.append((c.id, c.targeting, max(1, int(eligible_flight * share)),
                     c.start, c.end))
    assert [(c.id, c.targeting, c.demand, c.start, c.end) for c in graph.contracts] == want
    if name == "day flights":
        assert any(c.end - c.start == timedelta(days=1) for c in graph.contracts)


def eligible_in_flight(contract, stream):
    return sum(1 for ev in stream if contract.start <= ev.ts < contract.end
               and tg.eligible(ev.attributes, contract.targeting))


# Specs with a contract first drawn with no eligible impression in its
# flight: `c009` of the first books 1 impression that no visit can deliver
# unless it is drawn again.
REDRAWN = {
    "low, c009": ScenarioSpec(num_contracts=20, contention="low", seed=6),
    "low, seven redrawn": SPECS["low"],
    "medium": ScenarioSpec(num_contracts=8, seed=6, days=3, daily_traffic=300),
    "high": ScenarioSpec(num_contracts=4, num_attributes=2, contention="high", seed=1,
                         days=1, daily_traffic=3),
}


@pytest.mark.parametrize("name", list(REDRAWN))
def test_every_contract_has_eligible_supply(name):
    spec = REDRAWN[name]
    graph, stream = generate_scenario(spec)
    for c in graph.contracts:
        assert eligible_in_flight(c, stream) >= 1, c.id
        assert 1 <= c.demand <= eligible_in_flight(c, stream)
    if spec.contention == "high":
        for c in graph.contracts:
            assert any(tg.eligible(n.attributes, c.targeting)
                       and tg.eligible(n.attributes, other.targeting)
                       for n in graph.supply_nodes for other in graph.contracts
                       if other is not c), c.id


@pytest.mark.parametrize("name", list(REDRAWN))
def test_specs_redraw_a_contract(monkeypatch, name):
    redrawn = []
    original = scenario._redraw
    monkeypatch.setattr(scenario, "_redraw",
                        lambda rng, spec, dims, j, *args: redrawn.append(j)
                        or original(rng, spec, dims, j, *args))
    generate_scenario(REDRAWN[name])
    assert redrawn
    if name == "low, c009":
        assert redrawn == [9]


def test_unknown_contention_level_raises():
    with pytest.raises(ValueError, match="^unknown contention level 'extreme'$"):
        ScenarioSpec(contention="extreme")


def test_no_eligible_supply_after_every_redraw_raises():
    spec = ScenarioSpec(num_contracts=4, num_attributes=2, contention="low", seed=2,
                        days=1, daily_traffic=3)
    with pytest.raises(ValueError, match="^contract c000 has no eligible impression in "
                                         "its flight after 100 redraws$"):
        generate_scenario(spec)
