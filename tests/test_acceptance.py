"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from gdserve import dual, hwm, metrics as mx, model, simulate as sim
from gdserve.feedback import FeedbackConfig
from gdserve.scenario import ScenarioSpec, demo_graph, generate_scenario
from gdserve.simulate import _impression_uniform

from conftest import decide, forecast_replay, make_contract
from _qp_oracle import random_instance, solve_reference
from _scenarios import daily_reopt_config, uniform_single_contract
from test_dual import _instance_to_graph


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_single_contract_daily_reopt():
    with criterion(1, "single-contract daily re-optimization trace"):
        t0 = time.perf_counter()
        graph, events = uniform_single_contract(days=5, per_day=800, demand=2500)
        report = sim.run_simulation(graph, events, daily_reopt_config(1.25))
        elapsed = time.perf_counter() - t0
        expected_rates = [0.50, 0.525, 0.56, 0.62, 0.74]
        for got, want in zip(report.rates["c1"], expected_rates):
            assert abs(got - want) <= 0.005, (got, want)
        assert len(report.rates["c1"]) == 5
        assert abs(report.total_underdelivery_frac - 0.060) <= 0.001
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_reopt_drift_consistency():
    with criterion(2, "re-optimization drift: sign, bound, simulation match"):
        for r in (-1.0, -0.5, 0.1, 0.2, 0.5, 0.8):
            for k in (1, 5, 84, 500):
                exact = sim.terminal_delivery_error(r, k)
                bound = sim.terminal_delivery_error_bound(r, k)
                if r > 0:
                    assert exact > 0, (r, k)
                else:
                    assert exact <= 0, (r, k)
                assert abs(exact) <= bound + 1e-12, (r, k)
        assert abs(sim.terminal_delivery_error_bound(0.5, 84) - 0.0819) <= 0.0005
        # Expected-value simulations reproduce the exact drift (underdelivery
        # side; the engine caps delivery at booked demand, so the negative-r
        # recursion has no simulated counterpart).
        for r in (0.1, 0.2, 0.5, 0.8):
            for k in (5, 84):
                per_day = 400
                demand = per_day * k * 0.05
                graph, events = uniform_single_contract(days=k, per_day=per_day,
                                                        demand=demand)
                report = sim.run_simulation(graph, events,
                                            daily_reopt_config(1.0 / (1.0 - r)))
                assert report.total_underdelivery_frac == pytest.approx(
                    sim.terminal_delivery_error(r, k), abs=1e-6), (r, k)


def test_criterion_3_truncation_rule_probabilities():
    with criterion(3, "serve-time probabilities of the worked plan"):
        plan = hwm.generate_hwm_plan(demo_graph())
        # {CA, age 5}: the rate-1 contract (allocation order 1) always wins.
        probs = dict(plan.effective_probs(["california", "age5"]))
        assert probs["california"] == 1.0
        assert probs["age5"] == 0.0
        # {male, age 5}: exactly (1/4, 5/8), 1/8 unallocated.
        probs = dict(plan.effective_probs(["males", "age5"]))
        assert probs["males"] == 0.25
        assert probs["age5"] == 0.625
        # Empirical frequencies at 1e5 sampled draws within 3 standard errors.
        n = 100_000
        hits = Counter()
        for i in range(n):
            u = _impression_uniform(29, i)
            hits[decide(plan, ["males", "age5"], u)] += 1
        for key, p in (("males", 0.25), ("age5", 0.625), (None, 0.125)):
            se = (p * (1 - p) / n) ** 0.5
            assert abs(hits[key] / n - p) <= 3 * se, (key, hits[key] / n)


def test_criterion_4_dual_oracle_equivalence():
    with criterion(4, "dual plan equals brute-force program optimum"):
        t0 = time.perf_counter()
        rng = random.Random(90210)
        instances = [random_instance(rng) for _ in range(20)]
        for inst in instances:
            sol = solve_reference(inst)
            assert sol.residual <= 1e-8
            theta = inst.theta
            plan_alpha = sol.lam / 2.0
            n, m = inst.mask.shape
            # Online reconstruction from the oracle's duals reproduces the
            # oracle's optimal primal edge by edge.
            for i in range(n):
                cols = [j for j in range(m) if inst.mask[i, j]]
                if not cols:
                    continue
                triples = [(f"c{j}", theta[j], plan_alpha[j]) for j in cols]
                for (cid, x), j in zip(dual.reconstruct_primal(triples), cols):
                    assert abs(x - sol.x[i, j]) <= 1e-6, (i, j)
            # The coordinate-ascent planner lands within 0.1% of the optimum.
            g = _instance_to_graph(inst)
            plan = dual.solve_dual_offline(g)
            alloc, under = forecast_replay(g, plan)
            value = dual.dual_objective(g, alloc, under)
            if sol.objective > 1e-9:
                assert value <= sol.objective * 1.001, (value, sol.objective)
            else:
                assert value <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def _water_fill_witness(remaining, supplies, demand):
    """Brute-force greedy step: uniformly raise every node's claimed fraction
    until the demand is absorbed; bisection, independent of the planner's
    exact breakpoint solve.  Returns the per-node takes, or None if even the
    full remaining supply cannot cover the demand."""
    if sum(remaining) < demand:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        absorbed = sum(min(r, s * mid) for r, s in zip(remaining, supplies))
        if absorbed >= demand:
            hi = mid
        else:
            lo = mid
    return [min(r, s * hi) for r, s in zip(remaining, supplies)]


def _greedy_witness_instance(rng):
    """Random instance certified coverable by a sequential greedy witness.

    Contracts are visited scarcest-first; each demand is a random share of
    the eligible supply still available at its turn under the witness's own
    water-filling drain, so every contract in the instance is coverable by
    construction.
    """
    n_nodes = rng.randint(2, 8)
    nodes = [model.SupplyNode(f"n{i}", {"seg": str(i)}, rng.randint(50, 200))
             for i in range(n_nodes)]
    specs = []
    for j in range(rng.randint(1, 5)):
        segs = sorted(rng.sample(range(n_nodes), rng.randint(1, n_nodes)))
        specs.append((f"c{j}", segs))
    supply_of = lambda segs: sum(nodes[i].forecast_supply for i in segs)
    specs.sort(key=lambda sp: (supply_of(sp[1]), sp[0]))
    remaining = {i: float(nodes[i].forecast_supply) for i in range(n_nodes)}
    contracts = []
    for cid, segs in specs:
        avail = sum(remaining[i] for i in segs)
        if avail < 2:
            continue
        demand = max(1, int(avail * rng.uniform(0.2, 0.9)))
        takes = _water_fill_witness([remaining[i] for i in segs],
                                    [nodes[i].forecast_supply for i in segs],
                                    demand)
        assert takes is not None  # coverable by construction
        for i, take in zip(segs, takes):
            remaining[i] = max(0.0, remaining[i] - take)
        values = ", ".join(str(i) for i in segs)
        contracts.append(make_contract(cid, "seg IN {" + values + "}", demand))
    if not contracts:
        return None
    return model.build_graph(nodes, contracts)


def test_criterion_5_hwm_feasibility_property():
    with criterion(5, "plan replay covers demand on greedy-coverable instances"):
        rng = random.Random(1105)
        checked = 0
        while checked < 100:
            graph = _greedy_witness_instance(rng)
            if graph is None:
                continue
            plan = hwm.generate_hwm_plan(graph)
            _, delivered = model.forecast_allocation(graph, plan)
            for c in graph.contracts:
                assert delivered[c.id] >= 0.999 * c.demand, (checked, c.id)
            if all(e.alpha < 1.0 for e in plan.entries):
                alloc, _ = model.forecast_allocation(graph, plan)
                report = model.check_feasibility(graph, alloc, tol=1e-9)
                assert report.feasible, checked
            checked += 1


def _week_long_scenario():
    spec = ScenarioSpec(num_contracts=8, num_attributes=3, seed=21, days=7,
                        daily_traffic=3000, flight_mix={"week": 1.0},
                        demand_share=(0.25, 0.5))
    return generate_scenario(spec)


def test_criterion_6_feedback_behavior():
    with criterion(6, "feedback lifts stressed delivery and damps frontloading"):
        graph, events = _week_long_scenario()
        stress = dict(algorithm="hwm", reopt_period_hours=2.0,
                      forecast_error_multiplier=2.0, mode="expected")
        plain = sim.run_simulation(graph, events, sim.SimulationConfig(**stress))
        fed = sim.run_simulation(
            graph, events,
            sim.SimulationConfig(feedback=FeedbackConfig(
                delta_hours=4.0, boost_behind=1.5, damp_ahead=10.0), **stress))
        assert plain.total_underdelivery_frac > 0
        assert fed.total_underdelivery_frac < plain.total_underdelivery_frac
        front = dict(algorithm="hwm", reopt_period_hours=2.0,
                     forecast_error_multiplier=0.5, mode="expected")
        plain_f = sim.run_simulation(graph, events, sim.SimulationConfig(**front))
        fed_f = sim.run_simulation(
            graph, events,
            sim.SimulationConfig(feedback=FeedbackConfig(
                delta_hours=4.0, boost_behind=1.5, damp_ahead=10.0), **front))
        assert fed_f.smoothness["sigma75_finished"] < \
            plain_f.smoothness["sigma75_finished"]


def test_criterion_7_metric_definitions():
    with criterion(7, "smoothness and improvement definitions"):
        from datetime import timedelta
        from conftest import FLIGHT_START
        rows = [mx.TimeseriesRow(FLIGHT_START + timedelta(hours=h), "c",
                                 h * 10.0, h * 10.0)
                for h in range(1, 25)]
        series = mx.build_smoothness(rows, {"c": 240.0})
        for f in (25, 50, 75, 95, 100):
            assert mx.smoothness_quantile(series, f) == 0.0
        booked = {"a": 100.0}
        improvement = mx.delivery_improvement(booked, {"a": 93.0},
                                              booked, {"a": 90.0})
        assert improvement == pytest.approx(30.0)


def test_criterion_8_determinism_and_statelessness():
    with criterion(8, "bit-identical runs across repeats and shard counts"):
        spec = ScenarioSpec(num_contracts=6, num_attributes=3, seed=33, days=3,
                            daily_traffic=1500)
        graph, events = generate_scenario(spec)
        expected_reports = []
        for shards in (1, 1, 4, 9):
            cfg = sim.SimulationConfig(algorithm="hwm", reopt_period_hours=6.0,
                                       mode="expected", shards=shards)
            expected_reports.append(sim.run_simulation(graph, events, cfg))
        assert all(r == expected_reports[0] for r in expected_reports[1:])
        sampled_reports = []
        for _ in range(2):
            cfg = sim.SimulationConfig(algorithm="hwm", reopt_period_hours=6.0,
                                       mode="sampled", seed=17)
            sampled_reports.append(sim.run_simulation(graph, events, cfg))
        assert sampled_reports[0] == sampled_reports[1]
