import bisect
import gc
import io
import json
import math
import os
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import timedelta
from itertools import accumulate, islice

import pytest

from gdserve import hwm, metrics as mx, model, simulate as sim, targeting as tg
from gdserve.dual import DualPlan, solve_dual_offline
from gdserve.kernels import draw_index
from gdserve.feedback import FeedbackConfig, apply_feedback, linear_goal
from gdserve.scenario import START, ScenarioSpec, generate_scenario
from conftest import FLIGHT_START, graph_maps, impression_rows, make_contract
from _scenarios import daily_reopt_config, sold_out_future, uniform_single_contract


class TestTerminalError:
    def test_matches_worked_example(self):
        assert sim.terminal_delivery_error(0.2, 5) == pytest.approx(0.059136)

    def test_zero_error_rate(self):
        for k in (1, 5, 84):
            assert sim.terminal_delivery_error(0.0, k) == 0.0
            assert sim.terminal_delivery_error_bound(0.0, k) == 0.0

    def test_half_error_rate_long_flight(self):
        assert sim.terminal_delivery_error(0.5, 84) == pytest.approx(0.0615, abs=2e-4)
        assert sim.terminal_delivery_error_bound(0.5, 84) == pytest.approx(
            0.0818, abs=5e-4)

    def test_bound_examples(self):
        assert sim.terminal_delivery_error_bound(-1.0, 84) == pytest.approx(1 / 84 ** 2)
        assert sim.terminal_delivery_error_bound(0.2, 5) == pytest.approx(
            0.24 / 5 ** 0.8)
        assert sim.terminal_delivery_error_bound(0.2, 5) >= \
            sim.terminal_delivery_error(0.2, 5)

    def test_sign_and_bound_across_grid(self):
        for r in (-1.0, -0.5, 0.1, 0.2, 0.5, 0.8):
            for k in (1, 5, 84, 500):
                exact = sim.terminal_delivery_error(r, k)
                if r > 0:
                    assert exact > 0
                else:
                    assert exact <= 0
                assert abs(exact) <= sim.terminal_delivery_error_bound(r, k) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sim.terminal_delivery_error(1.0, 5)
        with pytest.raises(ValueError):
            sim.terminal_delivery_error(0.5, 0)

    def test_bound_domain_errors(self):
        with pytest.raises(ValueError, match="^error rate must be below 1$"):
            sim.terminal_delivery_error_bound(1.0, 5)
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            sim.terminal_delivery_error_bound(0.5, 0)


class TestSingleContractReplay:
    def test_daily_rates_track_shrinking_forecast(self):
        graph, events = uniform_single_contract(days=5, per_day=800, demand=2500)
        report = sim.run_simulation(graph, events, daily_reopt_config(1.25))
        assert report.rates["c1"] == pytest.approx(
            [0.5, 0.525, 0.56, 0.616, 0.7392])
        assert report.total_underdelivery_frac == pytest.approx(0.059136, abs=1e-9)

    @pytest.mark.parametrize("r,k", [(0.1, 5), (0.2, 5), (0.5, 12), (0.8, 5)])
    def test_matches_terminal_error_formula(self, r, k):
        per_day = 400
        demand = per_day * k * 0.05
        graph, events = uniform_single_contract(days=k, per_day=per_day,
                                                demand=demand)
        cfg = daily_reopt_config(1.0 / (1.0 - r))
        report = sim.run_simulation(graph, events, cfg)
        assert report.total_underdelivery_frac == pytest.approx(
            sim.terminal_delivery_error(r, k), abs=1e-6)

    def test_perfect_forecast_constant_rate_and_full_delivery(self):
        graph, events = uniform_single_contract(days=5, per_day=400, demand=1000)
        report = sim.run_simulation(graph, events, daily_reopt_config(1.0))
        assert report.total_underdelivery_frac == pytest.approx(0.0, abs=1e-12)
        assert report.rates["c1"] == pytest.approx([0.5] * 5)

    def test_dual_perfect_forecast_full_delivery(self):
        graph, events = uniform_single_contract(days=5, per_day=400, demand=1000)
        cfg = sim.SimulationConfig(algorithm="dual", reopt_period_hours=24.0,
                                   mode="expected")
        report = sim.run_simulation(graph, events, cfg)
        assert report.total_underdelivery_frac == pytest.approx(0.0, abs=1e-9)


class TestEngineInvariants:
    def scenario(self, seed=4, mode="expected", **kw):
        spec = ScenarioSpec(num_contracts=6, num_attributes=3, seed=seed,
                            days=3, daily_traffic=1500)
        graph, events = generate_scenario(spec)
        cfg = sim.SimulationConfig(algorithm="hwm", reopt_period_hours=6.0,
                                   mode=mode, **kw)
        return graph, events, cfg

    def test_conservation_expected_mode(self):
        graph, events, cfg = self.scenario()
        report = sim.run_simulation(graph, events, cfg)
        delivered = sum(o.delivered for o in report.outcomes)
        assert delivered + report.unallocated == pytest.approx(
            report.impressions_in_window, abs=1e-6)

    def test_conservation_sampled_mode(self):
        graph, events, cfg = self.scenario(mode="sampled", seed=5)
        report = sim.run_simulation(graph, events, cfg)
        delivered = sum(o.delivered for o in report.outcomes)
        assert delivered + report.unallocated == report.impressions_in_window

    def test_delivery_never_exceeds_booked(self):
        # Halved forecast doubles the serving rate: overdelivery pressure.
        graph, events = uniform_single_contract(days=4, per_day=500, demand=600)
        report = sim.run_simulation(graph, events, daily_reopt_config(0.5))
        outcome = report.outcomes[0]
        assert outcome.delivered <= outcome.booked + 1e-9
        for row in report.timeseries:
            assert row.delivered <= outcome.booked + 1e-9

    def test_expected_mode_bit_identical_across_runs_and_shards(self):
        graph, events, _ = self.scenario(seed=6)
        reports = []
        for shards in (1, 1, 3, 7):
            cfg = sim.SimulationConfig(algorithm="hwm", reopt_period_hours=6.0,
                                       mode="expected", shards=shards)
            reports.append(sim.run_simulation(graph, events, cfg))
        assert reports[0] == reports[1] == reports[2] == reports[3]

    def test_sampled_mode_deterministic_for_fixed_seed(self):
        graph, events, _ = self.scenario(seed=7)
        cfg = sim.SimulationConfig(algorithm="hwm", reopt_period_hours=6.0,
                                   mode="sampled", seed=99)
        a = sim.run_simulation(graph, events, cfg)
        b = sim.run_simulation(graph, events, cfg)
        assert a == b

    @pytest.mark.parametrize("raw, message", [
        ({"baseline_comparator": True}, "baseline_comparator is not a config field"),
        ({"feedback": {"boost": 2}}, "boost is not a feedback field"),
    ], ids=["config", "feedback"])
    def test_load_config_rejects_unknown_field(self, tmp_path, raw, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(sim.SimulationError, match=f"^{re.escape(str(path))}: {message};"):
            sim.load_config(path)

    def test_load_config_reports_deep_nesting(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"feedback": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(sim.SimulationError,
                           match=f"^{re.escape(str(path))}: maximum recursion depth"):
            sim.load_config(path)

    def test_sampled_shards_rejected(self):
        with pytest.raises(sim.SimulationError, match="single worker"):
            sim.SimulationConfig(mode="sampled", shards=2)

    @pytest.mark.parametrize("hours, message", [
        (1e308, "is longer than the longest timedelta"),
        (float("inf"), "is longer than the longest timedelta"),
        (1e-10, "is under half a microsecond"),
        (float("nan"), "must be positive"),
    ])
    def test_unusable_period_rejected(self, hours, message):
        # 1e-10 h is a zero timedelta, on which the cycle loop never ended;
        # only the config is built here, never an engine.
        with pytest.raises(sim.SimulationError, match=f"reopt_period_hours .*{message}"):
            sim.SimulationConfig(reopt_period_hours=hours)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["forecast_error_multiplier", "per_node_error"])
    def test_non_finite_multiplier_names_the_field(self, field, value):
        # NaN and infinity passed the `<= 0` check, and a run then failed in
        # the name of a contract's eligible forecast supply.
        if field == "per_node_error":
            kw, where = {field: {"n1": 2.0, "n2": value}}, "node n2: per_node_error"
        else:
            kw, where = {field: value}, field
        with pytest.raises(sim.SimulationError,
                           match=f"^{where} must be a finite number, got {value!r}$"):
            sim.SimulationConfig(**kw)

    def test_period_of_one_microsecond_accepted(self):
        # 2e-10 h rounds to one microsecond, the shortest usable period.
        assert sim.SimulationConfig(reopt_period_hours=2e-10).reopt_period_hours == 2e-10

    def test_period_past_the_last_date_is_one_cycle(self):
        # 1e8 h is a timedelta, but the window's start plus it is past
        # `datetime.max`; the single cycle ends at sim_end.
        graph, events = uniform_single_contract(days=2, per_day=10, demand=5)
        report = sim.run_simulation(graph, events,
                                    sim.SimulationConfig(reopt_period_hours=1e8))
        assert report == sim.run_simulation(graph, events,
                                            sim.SimulationConfig(reopt_period_hours=48.0))
        assert report.cycle_bounds == [FLIGHT_START, FLIGHT_START + timedelta(days=2)]

    @pytest.mark.parametrize("extra, error", [(0, RuntimeError), (1, sim.SimulationError)])
    def test_cycle_count_bounded_before_any_cycle(self, monkeypatch, extra, error):
        # One-minute cycles: at the bound the first re-plan is reached, one
        # cycle over it fails before any cycle is built.
        graph, events = uniform_single_contract(days=2, per_day=10, demand=5)

        def planner(*args, **kw):
            raise RuntimeError("planner reached")

        monkeypatch.setattr(sim, "generate_hwm_plan", planner)
        cfg = sim.SimulationConfig(
            reopt_period_hours=1 / 60, sim_start=FLIGHT_START,
            sim_end=FLIGHT_START + timedelta(minutes=sim.MAX_CYCLES + extra))
        with pytest.raises(error, match=f"{sim.MAX_CYCLES + 1} cycles .* at most "
                                        f"{sim.MAX_CYCLES}" if extra else "planner reached"):
            sim.run_simulation(graph, events, cfg)

    def test_unsorted_stream_names_first_offender(self):
        graph, events = uniform_single_contract(days=2, per_day=10, demand=5)
        events[3], events[4] = events[4], events[3]
        with pytest.raises(sim.SimulationError, match=events[4].id):
            sim.run_simulation(graph, events, daily_reopt_config(1.0))

    def test_out_of_window_events_skipped(self):
        graph, events = uniform_single_contract(days=2, per_day=10, demand=5)
        early = sim.ImpressionEvent("early", FLIGHT_START - timedelta(days=1),
                                    {"site": "any"})
        report = sim.run_simulation(graph, [early] + events,
                                    daily_reopt_config(1.0))
        assert report.impressions_skipped == 1

    def test_per_node_error_multiplier_overrides_global(self):
        # Two disjoint single-node contracts; only one node's forecast is
        # doubled, so only that contract underdelivers.
        nodes = [model.SupplyNode("good", {"seg": "a"}, 1000),
                 model.SupplyNode("bad", {"seg": "b"}, 1000)]
        contracts = [make_contract("on_target", "seg = a", 500, days=5),
                     make_contract("starved", "seg = b", 500, days=5)]
        graph = model.build_graph(nodes, contracts)
        events = []
        for day in range(5):
            for j in range(200):
                ts = FLIGHT_START + timedelta(days=day, seconds=j * 400)
                events.append(sim.ImpressionEvent(f"a{day}-{j}", ts, {"seg": "a"}))
                events.append(sim.ImpressionEvent(f"b{day}-{j}", ts, {"seg": "b"}))
        events.sort(key=lambda ev: ev.ts)
        cfg = sim.SimulationConfig(reopt_period_hours=24.0, mode="expected",
                                   forecast_error_multiplier=1.0,
                                   per_node_error={"bad": 2.0})
        report = sim.run_simulation(graph, events, cfg)
        by_id = {o.contract_id: o for o in report.outcomes}
        assert by_id["on_target"].underdelivery_frac == pytest.approx(0.0, abs=1e-9)
        assert by_id["starved"].underdelivery_frac == pytest.approx(
            sim.terminal_delivery_error(0.5, 5), abs=1e-6)

    def test_unknown_per_node_id_rejected(self):
        graph, events = uniform_single_contract(days=2, per_day=10, demand=5)
        cfg = sim.SimulationConfig(per_node_error={"zz": 2.0, "no-such-node": 0.5})
        with pytest.raises(sim.SimulationError,
                           match="names no supply node: no-such-node, zz$"):
            sim.run_simulation(graph, events, cfg)

    def test_unseen_combination_still_served(self):
        # The forecast graph only knows {CA}; a {CA, female} visit matches no
        # supply node but is still eligible for the contract at serve time.
        nodes = [model.SupplyNode("ca", {"state": "CA"}, 100)]
        contracts = [make_contract("california", "state = CA", 60, days=1)]
        graph = model.build_graph(nodes, contracts)
        events = []
        for j in range(100):
            events.append(sim.ImpressionEvent(
                f"k{j}", FLIGHT_START + timedelta(seconds=200 * j),
                {"state": "CA"} if j % 2 else {"state": "CA", "gender": "female"}))
        report = sim.run_simulation(graph, events, daily_reopt_config(1.0))
        assert report.outcomes[0].delivered == pytest.approx(60.0, abs=1e-9)


class TestEligibility:
    """Candidates taken from the graph's edges, or from targeting once per
    off-graph attribute set and run, equal a walk of every contract's
    targeting."""

    def scenario(self):
        spec = ScenarioSpec(num_contracts=10, num_attributes=3, seed=8, days=3,
                            daily_traffic=1000)
        graph, events = generate_scenario(spec)
        on_graph = {sim.attrs_key(n.attributes) for n in graph.supply_nodes}
        off_graph = {sim.attrs_key(ev.attributes) for ev in events} - on_graph
        assert off_graph
        return graph, events, off_graph

    def test_candidates_match_targeting_reference(self):
        graph, events, _ = self.scenario()
        # A plan holding every other contract exercises the membership filter.
        plan = hwm.HwmPlan([hwm.HwmEntry(c.id, 1.0, 0.5) for c in graph.contracts[::2]])
        server = sim.Server(graph)
        server.replan(plan)
        for ev in events:
            # The same set with its attributes inserted in reverse order.
            reordered = dict(reversed(list(ev.attributes.items())))
            for attrs in (ev.attributes, reordered):
                ids, _, _ = server.entry(sim.attrs_key(attrs), attrs, ev.ts)
                want = sorted(c.id for c in graph.contracts
                              if c.id in plan and c.in_flight(ev.ts)
                              and tg.eligible(attrs, c.targeting))
                assert sorted(ids) == want, (attrs, ev.ts)

    @pytest.mark.parametrize("algorithm, mode", [
        ("hwm", "expected"), ("hwm", "sampled"), ("dual", "expected"), ("base", "sampled")])
    def test_targeting_walked_once_per_run(self, monkeypatch, algorithm, mode):
        graph, events, off_graph = self.scenario()
        walked = Counter()
        depth = [0]
        walk = tg.eligible

        def counting(attrs, expr):
            # Count whole-expression walks, not the recursive calls inside.
            if depth[0] == 0:
                walked[sim.attrs_key(attrs)] += 1
            depth[0] += 1
            try:
                return walk(attrs, expr)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(tg, "eligible", counting)
        cfg = sim.SimulationConfig(algorithm="dual" if algorithm == "dual" else "hwm",
                                   reopt_period_hours=6.0, mode=mode, seed=3)
        run = sim.baseline_pacing if algorithm == "base" else sim.run_simulation
        report = run(graph, events, cfg)
        assert len(report.cycle_bounds) - 1 >= 12
        # Each off-graph set once per run, with every contract; no on-graph set.
        assert walked == {key: len(graph.contracts) for key in off_graph}

    @pytest.mark.parametrize("algorithm, mode", [
        ("hwm", "expected"), ("hwm", "sampled"), ("dual", "sampled")])
    def test_flight_checked_once_per_set_contract_and_phase(self, monkeypatch,
                                                            algorithm, mode):
        graph, events, _ = self.scenario()
        checked = Counter()
        visiting = []
        entry, in_flight = sim.Server.entry, model.Contract.in_flight

        def visit(server, key, attrs, ts):
            visiting[:] = [key, bisect.bisect_right(server.instants, ts)]
            return entry(server, key, attrs, ts)

        def counting(contract, t):
            key, phase = visiting
            checked[key, contract.id, phase] += 1
            return in_flight(contract, t)

        monkeypatch.setattr(sim.Server, "entry", visit)
        monkeypatch.setattr(model.Contract, "in_flight", counting)
        cfg = sim.SimulationConfig(algorithm=algorithm, reopt_period_hours=6.0,
                                   mode=mode, seed=3)
        report = sim.run_simulation(graph, events, cfg)
        assert len(report.cycle_bounds) - 1 >= 12
        assert checked and set(checked.values()) == {1}


class TestServer:
    """`Server.entry` gives the slice of a per-impression reference:
    targeting, then plan membership, then flight, then `effective_probs`,
    with running sums that `draw_index` bisects."""

    def scenario(self):
        spec = ScenarioSpec(num_contracts=10, num_attributes=3, seed=8, days=3,
                            daily_traffic=1000)
        graph, events = generate_scenario(spec)
        # Visits placed exactly on every flight's start and end instant.
        edges = sorted({t for c in graph.contracts for t in (c.start, c.end)})
        visits = [sim.ImpressionEvent(f"edge{i}-{j}", t, events[i * 37 + j].attributes)
                  for i, t in enumerate(edges) for j in range(6)]
        on_graph = {sim.attrs_key(n.attributes) for n in graph.supply_nodes}
        assert any(sim.attrs_key(ev.attributes) not in on_graph for ev in events)
        # Visits out of stream order: the memo must not depend on it.
        return graph, visits + events[::-1]

    @staticmethod
    def plans(graph):
        hwm_plan = hwm.generate_hwm_plan(graph)
        dual_plan = solve_dual_offline(graph)
        # Every other entry exercises the plan membership filter.
        return [hwm_plan, hwm.HwmPlan(hwm_plan.entries[::2]),
                dual_plan, DualPlan(dual_plan.entries[1::2])]

    @pytest.mark.parametrize("which", range(4))
    def test_matches_per_impression_reference(self, which):
        graph, events = self.scenario()
        plan = self.plans(graph)[which]
        evaluated = Counter()

        class Counting:
            def __contains__(self, cid):
                return cid in plan

            def effective_probs(self, cids):
                evaluated[tuple(cids)] += 1
                return plan.effective_probs(cids)

        server = sim.Server(graph)
        server.replan(Counting())
        for i, ev in enumerate(events):
            ids, probs, cum = server.entry(sim.attrs_key(ev.attributes), ev.attributes,
                                           ev.ts)
            want = [c.id for c in graph.contracts if tg.eligible(ev.attributes, c.targeting)
                    and c.id in plan and c.in_flight(ev.ts)]
            assert sorted(ids) == sorted(want), (ev.attributes, ev.ts)
            reference = plan.effective_probs(want)
            assert list(zip(ids, probs)) == reference
            u = sim.impression_uniform(which, i)
            assert draw_index(cum, u) == draw_index(
                list(accumulate(p for _, p in reference)), u)
        assert evaluated and set(evaluated.values()) == {1}

    def test_replan_restores_a_dropped_contract(self):
        graph, events = self.scenario()
        plan = hwm.generate_hwm_plan(graph)
        server = sim.Server(graph)
        server.replan(plan)
        visits = [(sim.attrs_key(ev.attributes), ev.attributes, ev.ts) for ev in events]
        visit = next(v for v in visits if len(server.entry(*v)[0]) >= 2)
        ids = server.entry(*visit)[0]
        server.drop(ids[0])
        assert sorted(server.entry(*visit)[0]) == sorted(ids[1:])
        server.replan(plan)
        assert server.entry(*visit)[0] == ids

    def test_entries_are_per_plan(self):
        graph, events = self.scenario()
        first = hwm.generate_hwm_plan(graph)
        second = hwm.HwmPlan([replace(e, alpha=e.alpha / 2) for e in first.entries])
        server = sim.Server(graph)
        server.replan(first)
        visits = [(sim.attrs_key(ev.attributes), ev.attributes, ev.ts) for ev in events]
        before = [server.entry(*v) for v in visits]
        server.replan(second)
        after = [server.entry(*v) for v in visits]
        for (ids, probs, _), (new_ids, new_probs, new_cum) in zip(before, after):
            # The tuples cached under the first plan give the second's slice.
            assert new_ids == ids
            assert list(zip(new_ids, new_probs)) == second.effective_probs(ids)
            assert new_cum == list(accumulate(new_probs))
        assert any(new[1] != old[1] for old, new in zip(before, after))

    def test_sampled_cap_mid_cycle_matches_delivered_filter(self, monkeypatch):
        spec = ScenarioSpec(num_contracts=8, num_attributes=3, seed=5, days=3,
                            daily_traffic=1500)
        graph, events = generate_scenario(spec)
        # One cycle, forecast a quarter of the truth: rates run high and
        # contracts meet their demand part way through the cycle.
        cfg = sim.SimulationConfig(algorithm="hwm", reopt_period_hours=72.0,
                                   forecast_error_multiplier=0.25,
                                   mode="sampled", seed=13)
        plans = []
        planner = sim.generate_hwm_plan

        def capture(*args, **kw):
            plans.append(planner(*args, **kw))
            return plans[-1]

        monkeypatch.setattr(sim, "generate_hwm_plan", capture)
        report = sim.run_simulation(graph, events, cfg)
        assert len(plans) == 1
        plan = plans[0]

        # The filter the server replaces: a contract that has met its booked
        # demand is no candidate.
        delivered = {c.id: 0.0 for c in graph.contracts}
        capped_early = set()
        start, end = report.cycle_bounds[0], report.cycle_bounds[-1]
        for idx, ev in enumerate(events):
            if not start <= ev.ts < end:
                continue
            eligible = [c for c in graph.contracts if c.id in plan and c.in_flight(ev.ts)
                        and tg.eligible(ev.attributes, c.targeting)]
            capped_early |= {c.id for c in eligible if delivered[c.id] >= c.booked_demand}
            cands = [c.id for c in eligible if delivered[c.id] < c.booked_demand]
            if not cands:
                continue
            probs = plan.effective_probs(cands)
            sel = draw_index(list(accumulate(p for _, p in probs)),
                             sim.impression_uniform(cfg.seed, idx))
            if sel >= 0:
                delivered[probs[sel][0]] += 1.0
        assert capped_early
        assert report.delivered_by_id() == delivered

    def test_equal_candidates_are_one_tuple(self):
        graph, events = generate_scenario(ScenarioSpec(
            num_contracts=10, num_attributes=3, seed=8, days=7, daily_traffic=1000))
        plan = hwm.generate_hwm_plan(graph)
        slices = []

        class Counting:
            def __contains__(self, cid):
                return cid in plan

            def effective_probs(self, cids):
                slices.append(tuple(cids))
                return plan.effective_probs(cids)

        server = sim.Server(graph)
        server.replan(Counting())
        visits = [(sim.attrs_key(ev.attributes), ev.attributes, ev.ts) for ev in events]
        held = [server.entry(*visit) for visit in visits]
        # Visits with equal candidates share one entry object.
        by_cands = {frozenset(e[0]): e for e in held}
        assert all(by_cands[frozenset(e[0])] is e for e in held)
        slots = {(key, bisect.bisect_right(server.instants, ts)) for key, _, ts in visits}
        assert len({id(e) for e in held}) == len(slices) == len(set(slices)) < len(slots)


class TestCallTimeLookups:
    """`simulate` reads `generate_hwm_plan`, `solve_dual_offline` and
    `draw_index` from its module globals at each call, and `load_impressions`
    and `gdserve serve` read rows through `simulate.iter_impressions`, so a
    wrapper set there (perfbench's traced runs count calls and time the
    parse this way) sees every call and every row."""

    def scenario(self):
        graph, events = generate_scenario(ScenarioSpec(
            num_contracts=6, num_attributes=3, seed=4, days=3, daily_traffic=1000))
        return graph, events

    def counting(self, monkeypatch, name):
        calls = []
        original = getattr(sim, name)

        def wrapper(*args, **kw):
            calls.append(1)
            return original(*args, **kw)

        monkeypatch.setattr(sim, name, wrapper)
        return calls

    @pytest.mark.parametrize("algorithm, planner",
                             [("hwm", "generate_hwm_plan"),
                              ("dual", "solve_dual_offline")])
    def test_planner_called_once_per_cycle_with_contracts(self, monkeypatch,
                                                          algorithm, planner):
        graph, events = self.scenario()
        # Two days past the last flight: cycles with nothing to plan.
        sim_end = max(c.end for c in graph.contracts) + timedelta(days=2)
        cfg = sim.SimulationConfig(algorithm=algorithm, reopt_period_hours=12.0,
                                   sim_end=sim_end)
        calls = self.counting(monkeypatch, planner)
        report = sim.run_simulation(graph, events, cfg)
        planned = [k for k in range(len(report.cycle_bounds) - 1)
                   if any(r[k] is not None for r in report.rates.values())]
        assert 0 < len(planned) < len(report.cycle_bounds) - 1
        assert len(calls) == len(planned)

    def test_draw_reached_in_sampled_simulation(self, monkeypatch):
        graph, events = self.scenario()
        calls = self.counting(monkeypatch, "draw_index")
        cfg = sim.SimulationConfig(reopt_period_hours=12.0, mode="sampled", seed=3)
        report = sim.run_simulation(graph, events, cfg)
        assert len(calls) == report.impressions_in_window > 0

    def planned(self, tmp_path):
        """A scenario's files and its `gdserve plan`; returns its events."""
        from gdserve import cli
        graph, events = self.scenario()
        model.save_supply(graph.supply_nodes, tmp_path / "supply.jsonl")
        model.save_contracts(graph.contracts, tmp_path / "contracts.jsonl")
        sim.save_impressions(events, tmp_path / "impressions.jsonl")
        assert cli.main(["plan", "--supply", str(tmp_path / "supply.jsonl"),
                         "--contracts", str(tmp_path / "contracts.jsonl"),
                         "--out", str(tmp_path / "plan.jsonl")]) == 0
        return events

    def serve(self, tmp_path, workers):
        from gdserve import cli
        assert cli.main(["serve", "--plan", str(tmp_path / "plan.jsonl"),
                         "--contracts", str(tmp_path / "contracts.jsonl"),
                         "--impressions", str(tmp_path / "impressions.jsonl"),
                         "--out", str(tmp_path / "decisions.jsonl"),
                         "--workers", str(workers)]) == 0

    def first_range_rows(self, monkeypatch, tmp_path):
        """Rows of the first of two ranges, the ones the serving process
        reads itself; `--workers 2` is allowed on a machine with one CPU."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ranges = sim.split_impressions(tmp_path / "impressions.jsonl", 2)
        assert len(ranges) == 2 and ranges[1].first_row > 0
        return ranges[1].first_row

    def test_draw_reached_in_gdserve_serve(self, monkeypatch, tmp_path):
        events = self.planned(tmp_path)
        calls = self.counting(monkeypatch, "draw_index")
        self.serve(tmp_path, 1)
        assert len(calls) == len(events) > 0

    def test_draw_reached_for_first_range_with_two_workers(self, monkeypatch, tmp_path):
        events = self.planned(tmp_path)
        rows = self.first_range_rows(monkeypatch, tmp_path)
        calls = self.counting(monkeypatch, "draw_index")
        self.serve(tmp_path, 2)
        assert len(calls) == rows < len(events)

    def counting_rows(self, monkeypatch):
        rows = []
        original = sim.iter_impressions

        def wrapper(*args, **kw):
            for run in original(*args, **kw):
                rows.extend(zip(*run))
                yield run

        monkeypatch.setattr(sim, "iter_impressions", wrapper)
        return rows

    def test_load_impressions_reads_rows_through_iter_impressions(
            self, monkeypatch, tmp_path):
        _, events = self.scenario()
        sim.save_impressions(events, tmp_path / "impressions.jsonl")
        rows = self.counting_rows(monkeypatch)
        stream = sim.load_impressions(tmp_path / "impressions.jsonl")
        # The rows of keyed runs are (timestamp, set id).
        assert len(rows) == len(stream) == len(events) > 0
        assert [t for t, _ in rows] == [ev.ts for ev in events] == stream.ts
        assert [sid for _, sid in rows] == list(stream.set_ids)

    def test_gdserve_serve_reads_rows_through_iter_impressions(
            self, monkeypatch, tmp_path):
        events = self.planned(tmp_path)
        rows = self.counting_rows(monkeypatch)
        self.serve(tmp_path, 1)
        assert len(rows) == len(events) > 0

    def test_gdserve_serve_reads_first_range_with_two_workers(self, monkeypatch, tmp_path):
        events = self.planned(tmp_path)
        first = self.first_range_rows(monkeypatch, tmp_path)
        rows = self.counting_rows(monkeypatch)
        self.serve(tmp_path, 2)
        assert [r[0] for r in rows] == [ev.id for ev in events[:first]]


def reference_lines(path):
    """impressions.jsonl read one `json.loads` per non-blank line: (line
    number, event) per row."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                rec = json.loads(line)
                rows.append((number, sim.ImpressionEvent(
                    str(rec["id"]), model.parse_ts(rec["ts"]), rec.get("attributes", {}))))
    return rows


def reference_events(path):
    """impressions.jsonl read one `json.loads` per non-blank line."""
    return [ev for _, ev in reference_lines(path)]


def reference_disorder(path):
    """The `load_impressions` error of the first row of `path` before the
    row ahead of it, read per line, as a regex; None if the rows are in
    order."""
    rows = reference_lines(path)
    for (_, before), (number, ev) in zip(rows, rows[1:]):
        if ev.ts < before.ts:
            return (f"^{re.escape(str(path))}:{number}: impression {re.escape(ev.id)} "
                    f"at {ev.ts.isoformat()} is out of order$")
    return None


def reader_events(path):
    """The events of the rows `iter_impressions` reads from `path`."""
    sets = sim.ImpressionStream()
    return [sim.ImpressionEvent(imp_id, ts, sets.attrs[sid])
            for imp_id, ts, sid in impression_rows(sim.iter_impressions(path, sets))]


def assert_columns(stream, events):
    """`stream` holds the timestamps and attribute maps of `events`."""
    assert len(stream) == len(stream.ts) == len(events)
    assert stream.ts == [ev.ts for ev in events]
    assert [stream.attrs[sid] for sid in stream.set_ids] == [ev.attributes for ev in events]


class TestImpressionReader:
    """`iter_impressions` gives the rows a per-line `json.loads` reader
    gives, and `load_impressions` their timestamps and attribute sets, as
    an `ImpressionStream` that the engine serves unchanged."""

    @pytest.fixture
    def path(self, tmp_path):
        _, events = generate_scenario(ScenarioSpec(
            num_contracts=6, num_attributes=3, seed=4, days=2, daily_traffic=600))
        # One set in a second key order, and an impression with no attributes.
        ev = events[5]
        events[7] = sim.ImpressionEvent(
            events[7].id, events[7].ts, dict(reversed(list(ev.attributes.items()))))
        events[9] = sim.ImpressionEvent(events[9].id, events[9].ts, {})
        assert len(ev.attributes) > 1
        path = tmp_path / "impressions.jsonl"
        sim.save_impressions(events, path)
        return path

    def test_stream_equals_per_line_reference(self, path):
        ref = reference_events(path)
        assert reader_events(path) == ref
        stream = sim.load_impressions(path)
        assert isinstance(stream, sim.ImpressionStream)
        assert_columns(stream, ref)
        # Key order is kept per impression; equal maps share one key.
        attrs = [stream.attrs[sid] for sid in stream.set_ids]
        assert list(attrs[7]) == list(reversed(list(attrs[5])))
        assert stream.keys[stream.set_ids[7]] == stream.keys[stream.set_ids[5]]
        assert attrs[9] == {}
        # Two bytes per set id, and no id.
        assert stream.set_ids.itemsize == 2 and not hasattr(stream, "ids")

    def test_save_round_trips_bytes(self, path, tmp_path):
        sim.save_impressions(reader_events(path), tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_each_set_checked_once(self, path, monkeypatch):
        checked = []
        original = sim.record_attributes
        monkeypatch.setattr(sim, "record_attributes",
                            lambda rec: checked.append(1) or original(rec))
        stream = sim.load_impressions(path)
        orders = {tuple(ev.attributes.items()) for ev in reference_events(path)}
        assert len(checked) == len(stream.attrs) == len(orders) < len(stream)

    def test_stream_and_list_simulate_alike(self, path):
        graph, _ = generate_scenario(ScenarioSpec(
            num_contracts=6, num_attributes=3, seed=4, days=2, daily_traffic=600))
        stream = sim.load_impressions(path)
        assert sim.ImpressionStream.of(stream) is stream
        for mode in ("expected", "sampled"):
            cfg = sim.SimulationConfig(reopt_period_hours=6.0, mode=mode, seed=3)
            assert sim.run_simulation(graph, stream, cfg) == \
                sim.run_simulation(graph, reference_events(path), cfg)

    def test_one_decode_per_attributes_text(self, path, monkeypatch):
        decoded = []
        original = sim._decode
        monkeypatch.setattr(sim, "_decode",
                            lambda line: decoded.append(line) or original(line))
        stream = sim.load_impressions(path)
        lines = path.read_text().splitlines()
        texts = {line[line.index('"attributes": ') + 14:-1] for line in lines}
        assert len(decoded) == len(texts) < len(lines) == len(stream)

    LINES = [
        # A raw non-ASCII id, then escapes in ids with a known attributes text.
        '{"id": "ïd-é", "ts": "2026-03-02T00:00:00", "attributes": {"a": "1"}}',
        r'{"id": "q\"b", "ts": "2026-03-02T00:00:01", "attributes": {"a": "1"}}',
        r'{"id": "b\\s\u00e9\n", "ts": "2026-03-02T00:00:01", "attributes": {"a": "1"}}',
        # Braces inside attribute values.
        '{"id": "b1", "ts": "2026-03-02T00:00:02", "attributes": {"a": "{x}"}}',
        '{"id": "b2", "ts": "2026-03-02T00:00:03", "attributes": {"a": "x}"}}',
        '{"id": "b3", "ts": "2026-03-02T00:00:04", "attributes": {"a": "{"}}',
        # An extra top-level key, and a second "id" after the attributes.
        '{"id": "k1", "ts": "2026-03-02T00:00:05", "attributes": {"a": "1"}, "x": {"b": "2"}}',
        '{"id": "k2", "ts": "2026-03-02T00:00:06", "attributes": {"a": "1"}, "id": "k3"}',
        '{"id": "k4", "ts": "2026-03-02T00:00:07", "attributes": {"a": "1"}, "id": {"b": "2"}}',
        '{"id": "k5", "ts": "2026-03-02T00:00:07", "attributes": {"a": "1"}, "id": {"b": "2"}}',
        # Reordered keys, compact separators, trailing whitespace.
        '{"ts": "2026-03-02T00:00:08", "id": "r1", "attributes": {"a": "1"}}',
        '{"attributes": {"a": "1"}, "id": "r2", "ts": "2026-03-02T00:00:09"}',
        '{"id":"r3","ts":"2026-03-02T00:00:10","attributes":{"a":"1"}}',
        '{"id": "r4", "ts": "2026-03-02T00:00:11", "attributes": {"a": "1"}}  \t',
        # Zone suffixes, and a numeric id.
        '{"id": "z1", "ts": "2026-03-02T00:00:12Z", "attributes": {"a": "1"}}',
        '{"id": "z2", "ts": "2026-03-02T02:00:13+02:00", "attributes": {"a": "1"}}',
        '{"id": 17, "ts": "2026-03-02T00:00:14", "attributes": {"a": "1"}}',
        # A text first seen off the layout, then on it ...
        '{"id":"s1","ts":"2026-03-02T00:00:15","attributes": {"b": "2", "c": "3"}}',
        '{"id": "s2", "ts": "2026-03-02T00:00:16", "attributes": {"b": "2", "c": "3"}}',
        '{"id": "s3", "ts": "2026-03-02T00:00:17", "attributes": {"b": "2", "c": "3"}}',
        # ... and one first seen on it, then off it, then on it again.
        '{"id": "t1", "ts": "2026-03-02T00:00:18", "attributes": {"c": "3", "b": "2"}}',
        '{"ts": "2026-03-02T00:00:19", "id": "t2", "attributes": {"c": "3", "b": "2"}}',
        '{"id": "t3", "ts": "2026-03-02T00:00:20", "attributes": {"c": "3", "b": "2"}}',
        '{"id": "t4", "ts": "2026-03-02T00:00:21", "attributes": {}}',
        '{"id": "t5", "ts": "2026-03-02T00:00:22", "attributes": {}}',
    ]

    # Ids that only the full decode reads, beside canonical lines.
    DECODED_IDS = [
        r'{"id": "has \"quote\"", "ts": "2026-03-02T00:01:00", "attributes": {"a": "1"}}',
        r'{"id": "back\\slash", "ts": "2026-03-02T00:01:01", "attributes": {"a": "1"}}',
        r'{"id": "{\"id\": \"inner", "ts": "2026-03-02T00:01:02", "attributes": {"a": "1"}}',
        '{"ts": "2026-03-02T00:01:03", "attributes": {"a": "1"}, "id": "key order"}',
    ]

    def mixed_with_canonical(self):
        """Each line of LINES and DECODED_IDS after four canonical lines,
        one line in three ending in CRLF."""
        lines = []
        for i, line in enumerate(self.LINES + self.DECODED_IDS):
            lines += [impression_line(4 * i + k) for k in range(4)] + [line]
        return "".join(line + ("\r\n" if i % 3 == 0 else "\n")
                       for i, line in enumerate(lines))

    @pytest.mark.parametrize("layout, lines_hint", [
        ("as listed", None), ("mixed with canonical lines", None),
        ("mixed with canonical lines", 1), ("mixed with canonical lines", 300)])
    def test_mixed_layouts_equal_per_line_reference(self, tmp_path, monkeypatch, layout,
                                                    lines_hint):
        if lines_hint is not None:
            monkeypatch.setattr(model, "_LINES_HINT", lines_hint)
        path = tmp_path / "impressions.jsonl"
        text = ("\n".join(self.LINES) + "\n" if layout == "as listed"
                else self.mixed_with_canonical())
        path.write_bytes(text.encode("utf-8"))
        ref = reference_events(path)
        sets = sim.ImpressionStream()
        runs = list(sim.iter_impressions(path, sets))
        assert [sim.ImpressionEvent(imp_id, ts, sets.attrs[sid])
                for imp_id, ts, sid in impression_rows(runs)] == ref
        # One set per distinct map in its own key order.
        orders = [tuple(ev.attributes.items()) for ev in ref]
        set_ids = [sid for _, _, sids in runs for sid in sids]
        assert len(set(zip(orders, set_ids))) == len(set(orders)) == len(sets.attrs)
        # Each run's ids are a list, on the fast path and off it.
        assert {type(ids) for ids, _, _ in runs} == {list}
        if lines_hint is not None:
            assert {'has "quote"', "back\\slash", '{"id": "inner', "key order"} <= \
                {ev.id for ev in ref}
        # The lines as listed are in time order, and the canonical lines
        # between them are not.
        disorder = reference_disorder(path)
        assert (disorder is None) == (layout == "as listed")
        if disorder is None:
            assert_columns(sim.load_impressions(path), ref)
        else:
            with pytest.raises(sim.SimulationError, match=disorder):
                sim.load_impressions(path)

    GOOD = '{"id": "i1", "ts": "2026-03-02T00:00:00", "attributes": {"a": "1"}}'

    BAD_LINES = [
        # A set equal in hash and items to a checked one except for a type.
        (GOOD + '\n{"id": "i2", "ts": "2026-03-02T00:00:01", "attributes": {"a": 1}}\n', 2),
        (GOOD + "\n" + GOOD + " " + GOOD + "\n", 2),
        (GOOD + '\n["i2", "2026-03-02T00:00:01", {"a": "1"}]\n', 2),
        (GOOD + '\n"i2"\n', 2),
        # One record over two lines, which json.loads rejects line by line.
        (GOOD + '\n{"id": "i2", "ts": "2026-03-02T00:00:01",\n"attributes": {"a": "1"}}\n', 2),
        (GOOD + '\n{"id": "i2", "ts": 5, "attributes": {"a": "1"}}\n', 2),
        (GOOD + '\n\n{"id": "i3", "attributes": {"a": "1"}}\n', 3),
        # Timestamps whose UTC time is outside datetime's years.
        (GOOD + '\n{"id": "i2", "ts": "0001-01-01T00:00:00+01:00", "attributes": {"a": "1"}}\n',
         2),
        (GOOD + '\n{"id": "i2", "ts": "9999-12-31T23:59:59-01:00", "attributes": {"a": "1"}}\n',
         2),
    ]

    @pytest.mark.parametrize("text, line", BAD_LINES)
    def test_bad_line_fails_with_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "impressions.jsonl"
        path.write_text(text)
        with pytest.raises(model.GraphDataError, match=f"{path}:{line}: bad impression"):
            sim.load_impressions(path)

    @pytest.mark.parametrize("text, line", BAD_LINES + [
        # Lines in the layout, with a known attributes text, that json.loads
        # or parse_ts rejects.
        (GOOD + '\n{"id": "i2", "ts": "yesterday", "attributes": {"a": "1"}}\n', 2),
        (GOOD + '\n{"id": "i\t2", "ts": "2026-03-02T00:00:01", "attributes": {"a": "1"}}\n', 2),
        (GOOD + '\n{"id": "i2", "ts": "2026-03-02T00:00:01", "attributes": {"a": "1"}}}\n', 2),
        (GOOD + '\n{"id": "i2", "ts": "2026-03-02T00:00:01", "attributes": {"a": "1"}} x\n', 2),
    ])
    def test_bad_line_fails_after_its_attributes_text(self, tmp_path, text, line):
        # A line in the layout with the attributes text {"a": "1"} comes
        # first, so that text is known when the bad line is read.
        path = tmp_path / "impressions.jsonl"
        path.write_text(self.GOOD.replace('"i1"', '"i0"') + "\n" + text)
        with pytest.raises(model.GraphDataError,
                           match=f"{path}:{line + 1}: bad impression"):
            sim.load_impressions(path)

    @pytest.mark.parametrize("loaded", [False, True])
    def test_out_of_order_stream_names_impression(self, tmp_path, loaded):
        # Events are named by their index, and lines by the file and line.
        graph, events = uniform_single_contract(days=2, per_day=10, demand=5)
        events[6], events[7] = events[7], events[6]
        path = tmp_path / "impressions.jsonl"
        where = f"{path}:8" if loaded else "event 7"
        with pytest.raises(sim.SimulationError,
                           match=f"^{where}: impression {events[7].id} at "
                                 f"{events[7].ts.isoformat()} is out of order$"):
            if loaded:
                sim.save_impressions(events, path)
                sim.load_impressions(path)
            else:
                sim.run_simulation(graph, events, daily_reopt_config(1.0))


class TestOrderCheck:
    """`load_impressions` checks the time order as runs arrive and fails at
    the first row before the one ahead of it as `path:line: impression <id>
    at <ts> is out of order`, wherever the line falls among blank lines,
    runs and blocks; `ImpressionStream.of` names an event by its index."""

    LAYOUTS = {
        # The fast path, with keys from the texts or from datetimes, and
        # lines that only the full decode reads.
        "26 characters": (timedelta(microseconds=7), {}),
        "19 characters": (timedelta(0), {}),
        "decoded": (timedelta(0), {"separators": (",", ":")}),
    }

    @staticmethod
    def line(i, layout="26 characters"):
        shift, kw = TestOrderCheck.LAYOUTS[layout]
        ts = FLIGHT_START + timedelta(seconds=i) + shift
        return json.dumps({"id": f"i{i:03d}", "ts": ts.isoformat(),
                           "attributes": {"a": str(i % 3)}}, **kw)

    @staticmethod
    def fails_at(path, line, i, layout="26 characters"):
        """Loading `path` fails at `line`, the line of impression i."""
        ts = FLIGHT_START + timedelta(seconds=i) + TestOrderCheck.LAYOUTS[layout][0]
        message = (f"^{re.escape(str(path))}:{line}: impression i{i:03d} at "
                   f"{ts.isoformat()} is out of order$")
        assert reference_disorder(path) == message
        with pytest.raises(sim.SimulationError, match=message):
            sim.load_impressions(path)

    @pytest.mark.parametrize("lines_hint", [None, 1, 200])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_blank_lines_and_crlf_before_the_swap(self, tmp_path, monkeypatch, layout,
                                                  lines_hint):
        if lines_hint is not None:
            monkeypatch.setattr(model, "_LINES_HINT", lines_hint)
        decoded = []
        original = sim._decode
        monkeypatch.setattr(sim, "_decode",
                            lambda line: decoded.append(line) or original(line))
        lines = [self.line(i, layout) for i in range(20)]
        lines[12], lines[13] = lines[13], lines[12]
        # Every row ends in "\r\n", and rows 2 and 7 are followed by a blank
        # line ended by "\r\n" and a blank one ended by a lone "\r": row 13,
        # impression 12, is line 18.
        path = tmp_path / "impressions.jsonl"
        path.write_bytes("".join(line + "\r\n" + ("\r\n \t\r" if r in (2, 7) else "")
                                 for r, line in enumerate(lines)).encode())
        self.fails_at(path, 18, 12, layout)
        # Off the layout every row read is decoded in full, the rows of a
        # block in one run; in it, three lines teach the texts.
        assert (len(decoded) >= 14) == (layout == "decoded")

    @pytest.mark.parametrize("edge", [0, 1, 2])
    def test_swap_across_blocks(self, tmp_path, monkeypatch, edge):
        # Blocks of a few lines: the last row of a block swapped with the
        # first of the next, which starts a run of its own.
        monkeypatch.setattr(model, "_LINES_HINT", 300)
        lines = [self.line(i) for i in range(60)]
        path = tmp_path / "impressions.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        firsts = [first for first, _ in model.line_blocks(path, "impression")]
        assert len(firsts) > 4
        k = firsts[2 + edge] - 1            # the first row of a block
        lines[k - 1], lines[k] = lines[k], lines[k - 1]
        path.write_text("".join(line + "\n" for line in lines))
        assert [first for first, _ in model.line_blocks(path, "impression")] == firsts
        self.fails_at(path, k + 1, k - 1)

    def test_swap_across_runs_in_one_block(self, tmp_path):
        # Row 30 has an attributes text not seen before, so its line is read
        # on its own, between two runs of the fast path.
        lines = [self.line(i) for i in range(60)]
        lines[30] = lines[30].replace('{"a": "0"}', '{"a": "new"}')
        lines[29], lines[30] = lines[30], lines[29]
        path = tmp_path / "impressions.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        self.fails_at(path, 31, 29)
        # And the new line after the run it is before.
        lines[29], lines[30] = lines[30], lines[29]
        lines[28], lines[29] = lines[29], lines[28]
        path.write_text("".join(line + "\n" for line in lines))
        self.fails_at(path, 30, 28)

    @pytest.mark.parametrize("at", [1, 5, sim._OF_CHUNK, 2 * sim._OF_CHUNK + 3])
    def test_events_named_by_index(self, at):
        events = [sim.ImpressionEvent(f"e{i}", FLIGHT_START + timedelta(seconds=i), {})
                  for i in range(3 * sim._OF_CHUNK)]
        events[at - 1], events[at] = events[at], events[at - 1]
        with pytest.raises(sim.SimulationError,
                           match=f"^event {at}: impression e{at - 1} at "
                                 f"{events[at].ts.isoformat()} is out of order$"):
            sim.ImpressionStream.of(events)


class TestWideSetIds:
    """A stream's set ids take 2 bytes each until a set id needs more; then
    they take 4, each as it was."""

    SETS = 1 << 16

    def events(self):
        # 100 impressions of set 0 first, so the set that 2 bytes do not
        # hold comes inside a chunk of `ImpressionStream.of`.
        return [sim.ImpressionEvent(f"e{i}", FLIGHT_START + timedelta(milliseconds=i),
                                    {"a": str(max(0, i - 100))})
                for i in range(self.SETS + 101)]

    def check(self, stream, events):
        assert len(stream.attrs) == self.SETS + 1
        assert stream.set_ids.itemsize == 4
        assert list(stream.set_ids) == [0] * 100 + list(range(self.SETS + 1))
        assert_columns(stream, events)

    def test_of(self):
        events = self.events()
        stream = sim.ImpressionStream.of(events[:-1])
        assert stream.set_ids.itemsize == 2 and len(stream.attrs) == self.SETS
        self.check(sim.ImpressionStream.of(events), events)

    def test_loaded(self, tmp_path):
        events = self.events()
        sim.save_impressions(events, tmp_path / "impressions.jsonl")
        self.check(sim.load_impressions(tmp_path / "impressions.jsonl"), events)


def impression_line(i):
    return json.dumps({"id": f"i{i}", "ts": f"2026-03-02T00:{i // 60:02d}:{i % 60:02d}",
                       "attributes": {"a": str(i % 3)}})


def line_table(data: bytes):
    """(byte offset, line number, rows before it) of each line of `data`,
    split as a reader with universal newlines splits them, and the same
    triple for the end of the data."""
    table, offset, rows = [], 0, 0
    for number, line in enumerate(io.StringIO(data.decode("utf-8"), newline=""), 1):
        table.append((offset, number, rows))
        offset += len(line.encode("utf-8"))
        rows += bool(line.strip(model.JSON_WHITESPACE))
    return table, (offset, len(table) + 1, rows)


class TestSplitImpressions:
    """`split_impressions` cuts a file into byte ranges whose line and row
    offsets are those of the whole file, and reading the ranges with
    `iter_impressions` gives the file's rows."""

    FILES = {
        "canonical": "".join(impression_line(i) + "\n" for i in range(40)),
        "blank and whitespace lines": "".join(
            impression_line(i) + ("\n\n" if i % 3 == 0 else "\n \t \n" if i % 3 == 1
                                  else "  \n") for i in range(30)),
        "crlf": "".join(impression_line(i) + "\r\n" for i in range(30)) + "\r\n",
        "lone cr": "".join(impression_line(i) + "\r" for i in range(30)),
        "mixed, no final newline": "\r\n \r\r\n".join(
            impression_line(i) + " \t" * (i % 2) for i in range(30)),
        "non-ascii ids": "".join(impression_line(i).replace(f'"i{i}"', f'"\u00e9{i}"')
                                 + "\n" for i in range(20)),
        "fewer lines than parts": impression_line(0) + "\n\n" + impression_line(1),
        "one line": impression_line(0),
        "blank only": " \n\r\n\t\r",
        "empty": "",
    }

    def rows(self, path, *bounds):
        sets = sim.ImpressionStream()
        return [(i, t, sets.attrs[s])
                for i, t, s in impression_rows(sim.iter_impressions(path, sets, *bounds))]

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("name", FILES)
    def test_ranges_match_whole_file(self, tmp_path, monkeypatch, name, block):
        if block is not None:       # block edges inside lines and inside "\r\n"
            monkeypatch.setattr(sim, "_BLOCK", block)
        path = tmp_path / "impressions.jsonl"
        data = self.FILES[name].encode("utf-8")
        path.write_bytes(data)
        table, end = line_table(data)
        at = {offset: (number, rows) for offset, number, rows in table + [end]}
        whole = self.rows(path)
        assert len(whole) == end[2]
        for parts in range(1, 7):
            ranges = sim.split_impressions(path, parts)
            assert 1 <= len(ranges) <= min(parts, max(1, len(table)))
            if name == "canonical":
                assert len(ranges) == parts
            assert ranges[0][:3] == (0, 1, 0) and ranges[-1].lines is None
            got = []
            for r, after in zip(ranges, ranges[1:] + [None]):
                assert (r.first_line, r.first_row) == at[r.start]
                assert r.first_row == len(got)
                if after is not None:
                    assert r.start < after.start and data[after.start - 1] == ord("\n")
                    assert r.lines == after.first_line - r.first_line
                got += self.rows(path, r.start, r.first_line, r.lines)
            assert got == whole

    def test_line_numbers_are_those_of_the_file(self, tmp_path):
        path = tmp_path / "impressions.jsonl"
        lines = [impression_line(i) for i in range(20)]
        lines[15] = "{}"
        path.write_text("\r\n".join(lines) + "\r\n")
        last = sim.split_impressions(path, 2)[-1]
        assert last.first_line <= 16
        with pytest.raises(model.GraphDataError, match=f"{path}:16: bad impression"):
            self.rows(path, last.start, last.first_line, last.lines)

    def test_undecodable_line_fails_after_the_rows_before_it(self, tmp_path):
        # The text reader decodes 8 KiB chunks ahead of the lines it gives.
        lines = [impression_line(i).encode("utf-8") for i in range(2000)]
        (tmp_path / "head.jsonl").write_bytes(b"\r\n".join(lines[:1500]) + b"\r\n")
        lines[1500] = lines[1500].replace(b'"ts": "2', b'"ts": "\xff')
        path = tmp_path / "impressions.jsonl"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        sets, got = sim.ImpressionStream(), []
        with pytest.raises(model.GraphDataError,
                           match=f"{path}:1501: bad impression: 'utf-8' codec can't "
                                 "decode byte 0xff in position 23"):
            for i, t, s in impression_rows(sim.iter_impressions(path, sets)):
                got.append((i, t, sets.attrs[s]))
        assert got == self.rows(tmp_path / "head.jsonl")

    def test_undecodable_line_of_the_next_range_is_not_read(self, tmp_path):
        lines = [impression_line(i).encode("utf-8") + b"\n" for i in range(400)]
        clean = tmp_path / "clean.jsonl"
        clean.write_bytes(b"".join(lines))
        ranges = sim.split_impressions(clean, 2)
        k = ranges[1].first_line - 1
        lines[k] = lines[k].replace(b'"ts": "2', b'"ts": "\xff')
        path = tmp_path / "impressions.jsonl"
        path.write_bytes(b"".join(lines))
        assert sim.split_impressions(path, 2) == ranges
        first = (ranges[0].start, ranges[0].first_line, ranges[0].lines)
        assert self.rows(path, *first) == self.rows(clean, *first)
        with pytest.raises(model.GraphDataError, match=f"{path}:{k + 1}: bad impression"):
            self.rows(path, ranges[1].start, ranges[1].first_line, ranges[1].lines)


def reference_run(graph, events, cfg, algorithm):
    """The engine written out per impression, as a reference: each in-window
    impression is bucketed by (ts - sim_start) // period, its candidates
    come from every contract's targeting, sampled mode draws once per
    impression and drops nothing but filters contracts that met their
    booked demand, and expected mode sums each contract's per-impression
    probabilities with `math.fsum`."""
    assert cfg.per_node_error is None
    sampled = cfg.mode == "sampled"
    period = timedelta(hours=cfg.reopt_period_hours)
    bounds = [cfg.sim_start]
    while bounds[-1] < cfg.sim_end:
        bounds.append(min(bounds[-1] + period, cfg.sim_end))
    n_cycles = len(bounds) - 1
    buckets = [[] for _ in range(n_cycles)]
    skipped = 0
    for idx, ev in enumerate(events):
        if cfg.sim_start <= ev.ts < cfg.sim_end:
            buckets[min((ev.ts - cfg.sim_start) // period, n_cycles - 1)].append((idx, ev))
        else:
            skipped += 1

    def node_of(attrs):
        return next((n.id for n in graph.supply_nodes if n.attributes == attrs), None)

    counts = [Counter(node_of(ev.attributes) for _, ev in bucket) for bucket in buckets]
    contracts = graph.contracts
    m = graph_maps(graph)
    instants = sorted({t for c in contracts for t in (c.start, c.end)})
    delivered = {c.id: 0.0 for c in contracts}
    boost = {c.id: False for c in contracts}
    rates = {c.id: [] for c in contracts}
    timeseries = []
    capped_mid_phase = set()
    pacer = sim._BaseController()

    def traffic(k):
        if not 0 <= k < n_cycles:
            return {}
        hours = (bounds[k + 1] - bounds[k]).total_seconds() / 3600.0
        return {c.id: sum(counts[k][nid] for nid in m.nodes_of[c.id]) / hours
                for c in contracts}

    for k, bucket in enumerate(buckets):
        start, end = bounds[k], bounds[k + 1]
        planning = []
        for c in contracts:
            remaining = c.booked_demand - delivered[c.id]
            if remaining <= 0 or c.end <= start:
                continue
            reported = remaining
            if cfg.feedback is not None:
                reported, boost[c.id] = apply_feedback(
                    c, delivered[c.id], boost[c.id], start, cfg.feedback,
                    cfg.reopt_period_hours)
            planning.append(replace(c, demand=reported))
        plan = None
        if planning:
            ids = {c.id for c in planning}
            nodes = [replace(n, forecast_supply=float(sum(counts[j][n.id]
                                                          for j in range(k, n_cycles)))
                             * cfg.forecast_error_multiplier)
                     for n in graph.supply_nodes]
            planning_graph = model.AllocationGraph(
                nodes, planning, [(s, c) for s, c in graph.edges if c in ids])
            if algorithm == "hwm":
                plan = hwm.generate_hwm_plan(planning_graph)
            elif algorithm == "dual":
                plan = solve_dual_offline(planning_graph)
            else:
                plan = pacer.replan(planning_graph, start, delivered,
                                    traffic(k - 1), traffic(k))
        alphas = {e.contract_id: e.alpha for e in plan.entries} if plan else {}
        for c in contracts:
            rates[c.id].append(alphas.get(c.id))
        if plan is not None:
            contribs = {c.id: [] for c in planning}
            capped_at = {}
            for idx, ev in bucket:
                cands = []
                for c in contracts:
                    if not (c.id in plan and c.in_flight(ev.ts)
                            and tg.eligible(ev.attributes, c.targeting)):
                        continue
                    if sampled and delivered[c.id] >= c.booked_demand:
                        if c.id in capped_at and not any(
                                capped_at[c.id] < t <= ev.ts for t in instants):
                            capped_mid_phase.add(c.id)
                        continue
                    cands.append(c.id)
                probs = plan.effective_probs(cands)
                if sampled:
                    sel = draw_index(list(accumulate(p for _, p in probs)),
                                     sim.impression_uniform(cfg.seed, idx))
                    if sel >= 0:
                        cid = probs[sel][0]
                        delivered[cid] += 1.0
                        if delivered[cid] >= m.contract_by_id[cid].booked_demand:
                            capped_at[cid] = ev.ts
                else:
                    for cid, p in probs:
                        if p > 0.0:
                            contribs[cid].append(p)
            for c in planning:
                booked = m.contract_by_id[c.id].booked_demand
                delivered[c.id] = min(booked, delivered[c.id] + math.fsum(contribs[c.id]))
        for c in contracts:
            if c.start <= end <= c.end:
                timeseries.append(mx.TimeseriesRow(end, c.id, delivered[c.id],
                                                   linear_goal(c, end)))
    in_window = sum(len(b) for b in buckets)
    return dict(cycle_bounds=bounds, rates=rates, timeseries=timeseries,
                delivered=delivered, in_window=in_window, skipped=skipped,
                unallocated=in_window - math.fsum(delivered.values()),
                buckets=buckets, capped_mid_phase=capped_mid_phase)


class TestRangeServingMatchesReference:
    """The engine serves each cycle as an index range of the sorted stream
    and, in expected mode, counts visits per (attribute set, flight phase);
    its reports equal `reference_run`'s per-impression loop, bit for bit."""

    PERIOD_H = 7.0

    @classmethod
    def scenario(cls):
        spec = ScenarioSpec(num_contracts=8, num_attributes=3, seed=5, days=3,
                            daily_traffic=1200)
        graph, events = generate_scenario(spec)
        period = timedelta(hours=cls.PERIOD_H)
        sim_start = START + timedelta(hours=1)
        # 69 h: off the 7 h grid, so the last cycle is 6 h long.
        sim_end = START + timedelta(days=3, hours=-2)
        empty = (sim_start + 4 * period, sim_start + 5 * period)
        grid = [sim_start + k * period for k in range(10)] + [sim_end]
        instants = sorted({t for c in graph.contracts for t in (c.start, c.end)})
        edges = grid + [sim_start - timedelta(minutes=5), sim_end + timedelta(minutes=5)]
        extra = [sim.ImpressionEvent(f"edge{i}-{j}", t, events[(7 * i + j) % len(events)]
                                     .attributes)
                 for i, t in enumerate(edges) for j in range(3)]
        # On each flight's start and end, visits from each of its nodes.
        m = graph_maps(graph)
        extra += [sim.ImpressionEvent(f"{c.id}-{which}-{nid}", t,
                                      m.node_by_id[nid].attributes)
                  for c in graph.contracts
                  for which, t in (("start", c.start), ("end", c.end))
                  for nid in m.nodes_of[c.id]]
        stream = sorted((ev for ev in events + extra
                         if not empty[0] <= ev.ts < empty[1]), key=lambda ev: ev.ts)
        # Flight starts or ends strictly inside a cycle, with visits on them.
        assert any((t - sim_start) % period and sim_start < t < sim_end
                   and not empty[0] <= t < empty[1] for t in instants)
        return graph, stream, sim_start, sim_end

    # A forecast of 0.4 times the truth runs rates high, so contracts meet
    # their demand part way through a cycle; at 1.25 times the truth few
    # do, so that the cap hides no serving difference.
    @pytest.mark.parametrize("forecast", [0.4, 1.25])
    @pytest.mark.parametrize("mode, shards", [("sampled", 1), ("expected", 1),
                                              ("expected", 3)])
    @pytest.mark.parametrize("algorithm", ["hwm", "dual", "base"])
    def test_report_equals_reference(self, algorithm, mode, shards, forecast):
        graph, events, sim_start, sim_end = self.scenario()
        cfg = sim.SimulationConfig(
            algorithm="dual" if algorithm == "dual" else "hwm", mode=mode, shards=shards,
            reopt_period_hours=self.PERIOD_H, forecast_error_multiplier=forecast,
            seed=23, feedback=FeedbackConfig(), sim_start=sim_start, sim_end=sim_end)
        run = sim.baseline_pacing if algorithm == "base" else sim.run_simulation
        report = run(graph, events, cfg)
        ref = reference_run(graph, events, cfg, algorithm)

        assert [len(b) for b in ref["buckets"]].count(0) == 1
        assert ref["skipped"] >= 6
        assert report.cycle_bounds == ref["cycle_bounds"]
        assert report.rates == ref["rates"]
        assert report.timeseries == ref["timeseries"]
        assert report.delivered_by_id() == ref["delivered"]
        assert report.impressions_in_window == ref["in_window"]
        assert report.impressions_skipped == ref["skipped"]
        assert report.unallocated == ref["unallocated"]
        if forecast < 1.0 and mode == "sampled":
            assert ref["capped_mid_phase"]
        elif forecast < 1.0:
            assert any(ref["delivered"][c.id] == c.booked_demand for c in graph.contracts)


class TestExactUnits:
    """A count-weighted sum of `exact_units`, divided once by 2^1074, is
    `math.fsum` of the list with each value repeated count times."""

    @staticmethod
    def weighted(terms):
        return sum(n * sim.exact_units(p) for p, n in terms) / 2 ** 1074

    @staticmethod
    def expanded(terms):
        return math.fsum(p for p, n in terms for _ in range(n))

    @staticmethod
    def full_mantissa(rng, lo_exp, hi_exp):
        # 53 significant bits: a random odd-ended mantissa at a random scale.
        mantissa = (1 << 52) | rng.getrandbits(52) | 1
        return math.ldexp(mantissa, rng.randint(lo_exp, hi_exp) - 52)

    def test_matches_fsum_bit_for_bit(self):
        rng = random.Random(1074)
        for trial in range(300):
            terms = []
            for _ in range(rng.randint(1, 40)):
                kind = rng.randrange(4)
                if kind == 0:
                    p = self.full_mantissa(rng, -30, -1)
                elif kind == 1:
                    p = 1.0 - self.full_mantissa(rng, -60, -20)
                elif kind == 2:
                    p = math.ldexp(rng.getrandbits(52) | 1, -1074)   # subnormal
                else:
                    p = self.full_mantissa(rng, -1000, -600)
                terms.append((p, rng.randint(1, 1000)))
            got, want = self.weighted(terms), self.expanded(terms)
            assert got.hex() == want.hex(), (trial, terms)

    @pytest.mark.parametrize("terms", [
        [(1.0, 1), (2.0 ** -53, 1)],                       # tie, rounds to even
        [(1.0 + 2.0 ** -52, 1), (2.0 ** -53, 1)],          # tie, rounds up to even
        [(1.0, 1), (2.0 ** -53, 1), (2.0 ** -1074, 1)],    # just past the tie
        [(0.1, 1000), (0.7, 3), (5e-324, 999)],
        [(2.0 ** -1074, 1)],
        [(0.0, 5)],
    ])
    def test_ties_and_extremes(self, terms):
        assert self.weighted(terms).hex() == self.expanded(terms).hex()


class TestMemory:
    """Serving keeps a timestamp and a set id per impression and nothing
    else per impression: the traced peak of `run_simulation` on a
    12-contract week stays under 48 bytes per in-window impression."""

    @pytest.fixture(scope="class")
    def week(self):
        graph, events = generate_scenario(ScenarioSpec(num_contracts=12, seed=3, days=7))
        assert len(events) == 56_790
        return graph, events

    @pytest.mark.parametrize("mode", ["expected", "sampled"])
    def test_peak_bytes_per_impression(self, week, mode):
        graph, events = week
        cfg = sim.SimulationConfig(algorithm="hwm", mode=mode, reopt_period_hours=24.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = sim.run_simulation(graph, events, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / report.impressions_in_window < 48

    @staticmethod
    def loaded_bytes(events, tmp_path):
        """The bytes `load_impressions` retains per impression of `events`,
        counted after a collection."""
        path = tmp_path / "impressions.jsonl"
        sim.save_impressions(events, path)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stream = sim.load_impressions(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(stream) == len(events)
        return retained / len(stream)

    def test_loaded_bytes_per_impression(self, week, tmp_path):
        """`load_impressions` keeps a timestamp and a set id per impression:
        under 96 retained bytes each.  A parsed dict and an event per line
        held about 620, and an `str` per id about 127; the ids of each run
        of lines packed in one text held about 78."""
        assert self.loaded_bytes(week[1], tmp_path) < 96

    def test_loaded_times_are_keys(self, week, tmp_path):
        """Each run's timestamps kept as one chunk of 10-byte keys, not a
        `datetime` and a list slot each (56 bytes): under 48 retained bytes
        an impression.  With the ids packed in the stream it was about 33."""
        assert self.loaded_bytes(week[1], tmp_path) < 48

    def test_loaded_stream_keeps_only_the_engine_columns(self, week, tmp_path):
        """No id, a 10-byte key and a 2-byte set id per impression: at most
        16 retained bytes each, about 14.  Packed ids and a list of set ids
        kept about 33."""
        assert self.loaded_bytes(week[1], tmp_path) <= 16


def _splitmix64(state: int):
    """SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), written out as a
    reference: advance the state by the golden gamma, then mix it."""
    mask = (1 << 64) - 1
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


class TestImpressionUniform:
    u = staticmethod(sim.impression_uniform)

    def test_deterministic_and_in_unit_interval(self):
        grid = [(s, i) for s in (0, 1, 41, -3, 2 ** 70) for i in range(2000)]
        draws = [self.u(s, i) for s, i in grid]
        assert draws == [self.u(s, i) for s, i in grid]
        assert all(0.0 <= x < 1.0 for x in draws)

    def test_changes_with_each_argument(self):
        assert self.u(5, 10) != self.u(6, 10)
        assert self.u(5, 10) != self.u(5, 11)
        assert len({self.u(s, i) for s in range(20) for i in range(500)}) == 10_000

    def test_neighbouring_seeds_do_not_share_a_stream(self):
        # A counter of (seed + 1) * 1_000_003 + index would make these equal.
        for s in (0, 1, 29, 41):
            for i in range(1000):
                assert self.u(s, i + 1_000_003) != self.u(s + 1, i)

    def test_is_splitmix64_from_a_seed_dependent_start(self):
        gamma, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
        for s in (0, 1, 41):
            ref = _splitmix64((s * gamma * gamma) & mask)
            for i in range(1000):
                assert self.u(s, i) == (next(ref) >> 11) * 2.0 ** -53

    @pytest.mark.parametrize("seed", [0, 7, -1, 2 ** 64 - 1, 2 ** 70 + 3])
    def test_blocks_equal_the_reference(self, seed):
        gamma, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
        # Position seed*G + start + 1 is a multiple of 2^64 at start `wrap`,
        # which lies inside the first, the third and the seventh block.
        wrap = (-(seed * gamma + 1)) & mask
        for start in (wrap - 5, wrap - 60, wrap - 1500):
            ref = _splitmix64(((seed * gamma + start) * gamma) & mask)
            want = [(next(ref) >> 11) * 2.0 ** -53 for _ in range(5000)]
            assert list(islice(sim.impression_uniforms(seed, start), 5000)) == want
            # Takes that end before, at and after the first blocks' ends.
            for take in (1, 15, 16, 17, 48, 1040):
                assert list(islice(sim.impression_uniforms(seed, start), take)) == want[:take]

    @pytest.mark.parametrize("seed", [0, 7, -1, 2 ** 64 - 1])
    def test_stream_is_the_uniform_of_each_position(self, seed):
        gamma, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
        # From the first and the last start, position seed*G + start + 1
        # passes a multiple of 2^64 within the twelve draws; the 64-bit
        # counter, position * G, wraps every second step or so anyway.
        wrap = (-(seed * gamma + 1)) & mask
        for start in (wrap - 5, 0, 123_456, 2 ** 64 + 3, wrap + 2 ** 64 - 5):
            stream = list(islice(sim.impression_uniforms(seed, start), 12))
            assert stream == [self.u(seed, start + j) for j in range(12)], start

    def test_mean_and_variance_of_1e5_draws(self):
        n = 100_000
        xs = [self.u(17, i) for i in range(n)]
        mean = math.fsum(xs) / n
        var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
        # Uniform on [0, 1): variance 1/12, fourth central moment 1/80.
        assert abs(mean - 0.5) <= 3 * math.sqrt(1 / 12 / n)
        assert abs(var - 1 / 12) <= 3 * math.sqrt((1 / 80 - 1 / 144) / n)

    def test_pinned_values(self):
        # Seed 0, index 0 is SplitMix64's first output from state 0,
        # 0xE220A8397B1DCDAF; a change to either value changes every
        # sampled report and every `gdserve serve` decision.
        assert self.u(0, 0) == 0.8833108082136426
        assert self.u(41, 123_456) == 0.4605812701650721


class TestScenarioGeneration:
    def test_deterministic_per_seed(self):
        spec = ScenarioSpec(num_contracts=5, num_attributes=3, seed=11, days=2,
                            daily_traffic=500)
        g1, s1 = generate_scenario(spec)
        g2, s2 = generate_scenario(
            ScenarioSpec(num_contracts=5, num_attributes=3, seed=11, days=2,
                         daily_traffic=500))
        assert [n.id for n in g1.supply_nodes] == [n.id for n in g2.supply_nodes]
        assert all(a.attributes == b.attributes and
                   a.forecast_supply == b.forecast_supply
                   for a, b in zip(g1.supply_nodes, g2.supply_nodes))
        assert [(c.id, c.demand) for c in g1.contracts] == \
            [(c.id, c.demand) for c in g2.contracts]
        assert s1 == s2

    def test_different_seed_differs(self):
        base = ScenarioSpec(num_contracts=5, num_attributes=3, seed=11, days=2,
                            daily_traffic=500)
        other = ScenarioSpec(num_contracts=5, num_attributes=3, seed=12, days=2,
                             daily_traffic=500)
        _, s1 = generate_scenario(base)
        _, s2 = generate_scenario(other)
        assert s1 != s2

    def test_high_contention_every_contract_shares_a_node(self):
        spec = ScenarioSpec(num_contracts=8, num_attributes=3, seed=13,
                            contention="high", days=2, daily_traffic=500)
        graph, _ = generate_scenario(spec)
        nodes_of = graph_maps(graph).nodes_of
        for c in graph.contracts:
            mine = set(nodes_of[c.id])
            assert any(mine & set(nodes_of[other.id])
                       for other in graph.contracts if other.id != c.id), c.id

    def test_flight_mix_produces_flights_within_horizon(self):
        spec = ScenarioSpec(num_contracts=10, num_attributes=2, seed=14, days=7,
                            daily_traffic=500)
        graph, stream = generate_scenario(spec)
        horizon_end = START + timedelta(days=7)
        for c in graph.contracts:
            assert START <= c.start < c.end <= horizon_end
        assert all(stream[i].ts <= stream[i + 1].ts
                   for i in range(len(stream) - 1))

    @pytest.mark.parametrize("mix, message", [
        ({"day": 1.0, "weird": 2.0}, "unknown flight class 'weird'"),
        ({"day": -1.0, "week": 2.0}, "non-negative"),
        ({"day": 0.0, "week": 0.0}, "not all zero"),
        ({"week": float("nan")}, "finite"),
    ])
    def test_bad_flight_mix_rejected(self, mix, message):
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(flight_mix=mix)

    def test_weekend_traffic_lighter(self):
        spec = ScenarioSpec(num_contracts=3, num_attributes=2, seed=15, days=7,
                            daily_traffic=2000)
        _, stream = generate_scenario(spec)
        by_day = [0] * 7
        for ev in stream:
            by_day[(ev.ts - START).days] += 1
        weekday = sum(by_day[:5]) / 5
        weekend = sum(by_day[5:]) / 2
        assert weekend < weekday * 0.8


class TestBaselinePacing:
    def test_steady_traffic_paces_smoothly(self):
        graph, events = uniform_single_contract(days=4, per_day=480, demand=960)
        cfg = sim.SimulationConfig(reopt_period_hours=6.0, mode="expected")
        report = sim.baseline_pacing(graph, events, cfg)
        assert report.algorithm == "base"
        sigma = report.smoothness["sigma75_finished"]
        assert abs(sigma) < 1.5
        assert report.outcomes[0].delivered == pytest.approx(960, rel=0.02)

    def test_zero_traffic_delivers_nothing(self):
        graph, _ = uniform_single_contract(days=2, per_day=10, demand=5)
        cfg = sim.SimulationConfig(reopt_period_hours=12.0, mode="expected")
        report = sim.baseline_pacing(graph, [], cfg)
        assert report.outcomes[0].delivered == 0.0
        assert report.unallocated == 0.0

    def test_reactive_pacer_misses_future_sellout(self):
        graph, events = sold_out_future()
        cfg = sim.SimulationConfig(reopt_period_hours=6.0, mode="expected")
        forecast_driven = sim.run_simulation(graph, events, cfg)
        reactive = sim.baseline_pacing(graph, events, cfg)
        assert forecast_driven.total_underdelivery_frac == pytest.approx(0, abs=1e-9)
        assert reactive.total_underdelivery_frac > 0.05
        # The planner frontloads the broad contract ahead of its linear goal.
        broad_rows = [r for r in forecast_driven.timeseries
                      if r.contract_id == "sports_broad"]
        mid = broad_rows[len(broad_rows) // 2]
        assert mid.delivered > mid.linear_goal * 1.2


class TestFeedbackOrdering:
    def stress_scenario(self):
        spec = ScenarioSpec(num_contracts=8, num_attributes=3, seed=21, days=7,
                            daily_traffic=3000, flight_mix={"week": 1.0},
                            demand_share=(0.25, 0.5))
        return generate_scenario(spec)

    def test_feedback_reduces_underdelivery_under_doubled_forecast(self):
        graph, events = self.stress_scenario()
        base_cfg = dict(algorithm="hwm", reopt_period_hours=2.0,
                        forecast_error_multiplier=2.0, mode="expected")
        plain = sim.run_simulation(graph, events,
                                   sim.SimulationConfig(**base_cfg))
        boosted = sim.run_simulation(
            graph, events,
            sim.SimulationConfig(feedback=FeedbackConfig(), **base_cfg))
        assert plain.total_underdelivery_frac > 0
        assert boosted.total_underdelivery_frac < plain.total_underdelivery_frac

    def test_feedback_damps_frontloading_under_halved_forecast(self):
        graph, events = self.stress_scenario()
        base_cfg = dict(algorithm="hwm", reopt_period_hours=2.0,
                        forecast_error_multiplier=0.5, mode="expected")
        plain = sim.run_simulation(graph, events,
                                   sim.SimulationConfig(**base_cfg))
        damped = sim.run_simulation(
            graph, events,
            sim.SimulationConfig(feedback=FeedbackConfig(), **base_cfg))
        assert damped.smoothness["sigma75_finished"] < \
            plain.smoothness["sigma75_finished"]


class TestReportFiles:
    def test_truncated_window_marks_contracts_unfinished(self):
        graph, events = uniform_single_contract(days=4, per_day=100, demand=200)
        cfg = sim.SimulationConfig(reopt_period_hours=24.0, mode="expected",
                                   sim_end=FLIGHT_START + timedelta(days=2))
        report = sim.run_simulation(graph, events, cfg)
        assert not report.outcomes[0].finished
        assert report.smoothness["sigma75_finished"] is None
        assert report.smoothness["sigma75_unfinished"] is not None

    def test_write_report_round_trips_timeseries(self, tmp_path):
        graph, events = uniform_single_contract(days=2, per_day=100, demand=100)
        report = sim.run_simulation(graph, events, daily_reopt_config(1.0))
        sim.write_report(report, tmp_path / "report.json", tmp_path / "ts.csv")
        lines = (tmp_path / "ts.csv").read_text().splitlines()
        assert lines[0] == "cycle_end_ts,contract_id,delivered_cum,linear_goal"
        assert lines[-1] == f"{report.cycle_bounds[-1].isoformat()},,,"
        assert len(lines) == 2 + len(report.timeseries)
        import json
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["contracts"][0]["id"] == "c1"
        assert doc["total_underdelivery_frac"] == report.total_underdelivery_frac
