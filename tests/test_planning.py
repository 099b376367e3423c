"""One planning structure per run: a re-plan's `model.PlanningProblem`
(supply and demand vectors over the run's `model.PlanningIndex`) plans
exactly as the restated `AllocationGraph` that re-plans used to build."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest

from gdserve import dual, hwm, kernels, model, simulate as sim
from gdserve.feedback import FeedbackConfig
from gdserve.scenario import ScenarioSpec, generate_scenario
from conftest import FLIGHT_START, graph_maps, make_contract
from test_dual import _edge_cases_graph


def restated_graph(graph, supply, demand):
    """The graph a re-plan used to build: each node with its restated
    supply, a copy of each live contract with its restated demand, and the
    live contracts' edges."""
    nodes = [replace(n, forecast_supply=s) for n, s in zip(graph.supply_nodes, supply)]
    live = [replace(graph.contracts[j], demand=d) for j, d in demand.items()]
    ids = {c.id for c in live}
    return model.AllocationGraph(nodes, live,
                                 [(sid, cid) for sid, cid in graph.edges if cid in ids])


def edge_cases_graph():
    """`_edge_cases_graph` plus a contract that no node is eligible for."""
    g = _edge_cases_graph()
    return model.build_graph(g.supply_nodes,
                             g.contracts + [make_contract("orphan", "seg = none", 5)])


def graphs():
    yield "edge-cases", edge_cases_graph()
    for seed in (1, 2, 3):
        graph, _ = generate_scenario(ScenarioSpec(num_contracts=10, num_attributes=3,
                                                  seed=seed, days=3, daily_traffic=900))
        yield f"scenario-{seed}", graph


def restatements(graph, seed):
    """Supply and demand vectors of re-plans over `graph`: as the graph
    states them, then scaled supply with some nodes at zero and a subset of
    the contracts live with scaled demands."""
    rng = random.Random(seed)
    yield ([float(n.forecast_supply) for n in graph.supply_nodes],
           {j: c.demand for j, c in enumerate(graph.contracts)})
    for _ in range(4):
        supply = [n.forecast_supply * rng.choice([0.0, 0.4, 1.0, 1.7])
                  for n in graph.supply_nodes]
        demand = {j: c.demand * rng.uniform(0.2, 1.5)
                  for j, c in enumerate(graph.contracts) if rng.random() < 0.7}
        yield supply, demand


def cases():
    for name, graph in graphs():
        index = model.PlanningIndex(graph)
        for supply, demand in restatements(graph, len(name)):
            yield (restated_graph(graph, supply, demand),
                   model.PlanningProblem(index, supply, demand))


def reference_hwm(graph):
    """The HWM pass written over the graph's ids, as it was before the
    planners read positions: (id, eligible supply, alpha) per entry."""
    m = graph_maps(graph)
    eligible = {c.id: sum(m.node_by_id[sid].forecast_supply
                          for sid in m.nodes_of[c.id]) for c in graph.contracts}
    remaining = {n.id: float(n.forecast_supply) for n in graph.supply_nodes}
    entries = []
    for c in sorted(graph.contracts, key=lambda c: (eligible[c.id], c.id)):
        alpha = 1.0
        if m.nodes_of[c.id]:
            rem = [remaining[sid] for sid in m.nodes_of[c.id]]
            sup = [float(m.node_by_id[sid].forecast_supply)
                   for sid in m.nodes_of[c.id]]
            alpha = kernels.solve_rate(rem, sup, float(c.demand))
            for sid, s in zip(m.nodes_of[c.id], sup):
                remaining[sid] -= min(remaining[sid], s * alpha)
        entries.append((c.id, float(eligible[c.id]).hex(), alpha.hex()))
    return entries


def reference_theta(graph):
    """DUAL's target fractions over the graph's ids: demand over eligible
    supply, for the contracts that have any."""
    m = graph_maps(graph)
    totals = {c.id: sum(m.node_by_id[sid].forecast_supply
                        for sid in m.nodes_of[c.id]) for c in graph.contracts}
    return {c.id: c.demand / totals[c.id] for c in graph.contracts if totals[c.id] > 0}


def hwm_fields(plan):
    return ([(e.contract_id, float(e.eligible_supply).hex(), e.alpha.hex())
             for e in plan.entries], plan.diagnostics)


def dual_fields(plan):
    return ([(e.contract_id, e.theta.hex(), e.alpha.hex(), e.penalty.hex())
             for e in plan.entries], plan.diagnostics, plan.stats)


class TestIndex:
    def test_positions_follow_edge_order(self):
        for _, graph in graphs():
            # Edges in reverse, so that edge order is not position order.
            graph = model.AllocationGraph(graph.supply_nodes, graph.contracts,
                                          graph.edges[::-1])
            index = model.PlanningIndex(graph)
            m = graph_maps(graph)
            assert index.node_ids == [n.id for n in graph.supply_nodes]
            assert index.contracts == graph.contracts
            for j, c in enumerate(graph.contracts):
                assert ([index.node_ids[i] for i in index.nodes_of[j]]
                        == m.nodes_of[c.id])
            for i, nid in enumerate(index.node_ids):
                assert ([index.contracts[j].id for j in index.contracts_of[i]]
                        == m.contracts_of[nid])
        assert model.PlanningIndex(edge_cases_graph()).nodes_of[-1] == []   # the orphan

    def test_problem_of_graph(self):
        graph = edge_cases_graph()
        problem = model.PlanningProblem.of(graph)
        assert model.PlanningProblem.of(problem) is problem
        assert problem.supply == [n.forecast_supply for n in graph.supply_nodes]
        assert problem.demand == {j: c.demand for j, c in enumerate(graph.contracts)}
        assert problem.eligible_supply(0) == 90 + 30


class TestSamePlans:
    """Each planner gives the same entries, bit for bit (`float.hex`), on a
    problem as on the restated graph with the same supply and demands."""

    def test_cases_cover_the_edges(self):
        excluded = no_nodes = zero_supply = 0
        for graph, problem in cases():
            plan = dual.solve_dual_offline(graph)
            excluded += len(plan.diagnostics)
            nodes_of = graph_maps(graph).nodes_of
            no_nodes += any(not nodes_of[c.id] for c in graph.contracts)
            zero_supply += any(n.forecast_supply == 0 for n in graph.supply_nodes)
        assert excluded and no_nodes and zero_supply

    def test_hwm(self):
        for graph, problem in cases():
            fields = hwm_fields(hwm.generate_hwm_plan(problem))
            assert fields == hwm_fields(hwm.generate_hwm_plan(graph))
            assert fields[0] == reference_hwm(graph)

    def test_dual(self):
        for graph, problem in cases():
            fields = dual_fields(dual.solve_dual_offline(problem))
            assert fields == dual_fields(dual.solve_dual_offline(graph))
            theta = dual.target_fractions(problem)
            assert theta == dual.target_fractions(graph)
            assert theta == reference_theta(graph)
            assert [e[0] for e in fields[0]] == sorted(theta)

    def test_reactive_pacer(self):
        for graph, problem in cases():
            plans = []
            for planning in (graph, problem):
                pacer = sim._BaseController()
                delivered = {c.id: 0.0 for c in problem.index.contracts}
                traffic = {c.id: 7.0 for c in problem.index.contracts}
                first = pacer.replan(planning, FLIGHT_START, delivered, {}, traffic)
                delivered = {cid: 3.0 for cid in delivered}
                second = pacer.replan(planning, FLIGHT_START + timedelta(days=1),
                                      delivered, traffic, traffic)
                plans.append([hwm_fields(first), hwm_fields(second)])
            assert plans[0] == plans[1]


class TestNoGraphPerCycle:
    """A simulation builds one `PlanningIndex` and no graph, supply node or
    contract, whatever its planner and mode."""

    @pytest.mark.parametrize("mode", ["expected", "sampled"])
    @pytest.mark.parametrize("algorithm", ["hwm", "dual", "base"])
    def test_constructions(self, monkeypatch, algorithm, mode):
        graph, events = generate_scenario(ScenarioSpec(
            num_contracts=6, num_attributes=3, seed=4, days=3, daily_traffic=1000))
        built = Counter()
        for cls, method in ((model.AllocationGraph, "__post_init__"),
                            (model.SupplyNode, "__post_init__"),
                            (model.Contract, "__post_init__"),
                            (model.PlanningIndex, "__init__")):
            def counting(self, *args, _original=getattr(cls, method), _name=cls.__name__):
                built[_name] += 1
                _original(self, *args)
            monkeypatch.setattr(cls, method, counting)
        cfg = sim.SimulationConfig(algorithm="dual" if algorithm == "dual" else "hwm",
                                   mode=mode, reopt_period_hours=6.0,
                                   forecast_error_multiplier=1.3,
                                   feedback=FeedbackConfig())
        run = sim.baseline_pacing if algorithm == "base" else sim.run_simulation
        report = run(graph, events, cfg)
        planned = sum(1 for k in range(len(report.cycle_bounds) - 1)
                      if any(r[k] is not None for r in report.rates.values()))
        assert planned > 5
        assert built == Counter({"PlanningIndex": 1})
