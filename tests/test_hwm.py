import random
from collections import Counter

import pytest

from gdserve import hwm, model
from gdserve.simulate import impression_uniform
from conftest import decide, make_contract


class TestSolveAlpha:
    """The rate each plan entry gets: the smallest a with
    sum_i min(r_i, s_i * a) = demand over its remaining supply."""

    def test_single_node(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 100)]
        plan = hwm.generate_hwm_plan(model.build_graph(
            nodes, [make_contract("c1", "x = 1", 50)]))
        assert plan.entries[0].alpha == pytest.approx(0.5)

    def test_piecewise_case(self):
        # c1 leaves 40 of node a; c2 solves min(40, 100a) + min(100, 100a) = 90.
        nodes = [model.SupplyNode("a", {"seg": "both"}, 100),
                 model.SupplyNode("b", {"seg": "solo"}, 100)]
        contracts = [make_contract("c1", "seg = both", 60),
                     make_contract("c2", "seg IN {both, solo}", 90)]
        plan = hwm.generate_hwm_plan(model.build_graph(nodes, contracts))
        assert plan.entries[1].contract_id == "c2"
        assert plan.entries[1].alpha == pytest.approx(0.5)

    def test_empty_neighbors_is_no_solution(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 100)]
        plan = hwm.generate_hwm_plan(model.build_graph(
            nodes, [make_contract("c1", "x = 2", 5)]))
        assert plan.entries[0].alpha == 1.0


class TestGeneratePlan:
    def test_exact_sellout(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 100)]
        contracts = [make_contract("c1", "x = 1", 100)]
        plan = hwm.generate_hwm_plan(model.build_graph(nodes, contracts))
        assert [e.contract_id for e in plan.entries] == ["c1"]
        assert plan.entries[0].alpha == pytest.approx(1.0)

    def test_shared_node_sequential_drain(self):
        # c1 sees only the shared node (eligible supply 100, first in order);
        # c2 also has a private node (eligible supply 200, second).  After c1
        # takes 60 of the shared node, c2 solves min(40,100a)+min(100,100a)=60;
        # the crossing sits below the 0.4 kink, so 200a = 60 gives a = 0.3
        # (check: min(40,30)+min(100,30) = 60).
        nodes = [model.SupplyNode("shared", {"seg": "both"}, 100),
                 model.SupplyNode("private", {"seg": "solo"}, 100)]
        contracts = [make_contract("c1", "seg = both", 60),
                     make_contract("c2", "seg IN {both, solo}", 60)]
        plan = hwm.generate_hwm_plan(model.build_graph(nodes, contracts))
        assert [e.contract_id for e in plan.entries] == ["c1", "c2"]
        assert plan.entries[0].alpha == pytest.approx(0.6)
        assert plan.entries[1].alpha == pytest.approx(0.3)
        # Replay consumes exactly both demands: 60 from the shared node for
        # c1, then 0.3 * (40 + 100) split across both nodes for c2... the
        # shared node gives c2 min(0.3, 1 - 0.6) = 0.3 of its supply.
        _, delivered = model.forecast_allocation(
            model.build_graph(nodes, contracts), plan)
        assert delivered["c1"] == pytest.approx(60)
        assert delivered["c2"] == pytest.approx(60)

    def test_three_contract_plan(self, three_contract_graph):
        plan = hwm.generate_hwm_plan(three_contract_graph)
        assert [(e.contract_id, e.eligible_supply) for e in plan.entries] == [
            ("california", 160), ("males", 300), ("age5", 640)]
        alphas = {e.contract_id: e.alpha for e in plan.entries}
        assert alphas["california"] == pytest.approx(1.0)
        assert alphas["males"] == pytest.approx(0.25)
        assert alphas["age5"] == pytest.approx(0.625)

    def test_allocation_order_ties_by_id(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 100)]
        contracts = [make_contract("z", "x = 1", 10),
                     make_contract("b", "x = 1", 10)]
        plan = hwm.generate_hwm_plan(model.build_graph(nodes, contracts))
        assert [e.contract_id for e in plan.entries] == ["b", "z"]

    def test_unreachable_contract_flagged(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 100)]
        contracts = [make_contract("c1", "x = 1", 10),
                     make_contract("orphan", "x = 2", 10)]
        plan = hwm.generate_hwm_plan(model.build_graph(nodes, contracts))
        entry = {e.contract_id: e for e in plan.entries}["orphan"]
        assert entry.alpha == 1.0
        assert entry.eligible_supply == 0
        assert any("orphan" in line for line in plan.diagnostics)

    def test_oversold_contract_flagged(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 100)]
        contracts = [make_contract("c1", "x = 1", 150)]
        plan = hwm.generate_hwm_plan(model.build_graph(nodes, contracts))
        assert plan.entries[0].alpha == 1.0
        assert any("below demand" in line for line in plan.diagnostics)


class TestServe:
    def test_rate_one_contract_always_selected(self, three_contract_graph):
        plan = hwm.generate_hwm_plan(three_contract_graph)
        for u in (0.0, 0.37, 0.999999):
            assert decide(plan, ["california", "age5"], u) == "california"

    def test_truncated_probabilities(self, three_contract_graph):
        plan = hwm.generate_hwm_plan(three_contract_graph)
        probs = dict(plan.effective_probs(["males", "age5"]))
        assert probs == {"males": pytest.approx(0.25), "age5": pytest.approx(0.625)}
        probs = dict(plan.effective_probs(["california", "age5"]))
        assert probs == {"california": pytest.approx(1.0), "age5": 0.0}

    def test_empty_eligible_set(self, three_contract_graph):
        plan = hwm.generate_hwm_plan(three_contract_graph)
        assert plan.effective_probs([]) == []
        assert decide(plan, [], 0.5) is None

    def test_probabilities_bounded_by_plan_rates(self, three_contract_graph):
        plan = hwm.generate_hwm_plan(three_contract_graph)
        rng = random.Random(9)
        ids = [e.contract_id for e in plan.entries]
        alphas = {e.contract_id: e.alpha for e in plan.entries}
        for _ in range(100):
            subset = [cid for cid in ids if rng.random() < 0.7]
            probs = plan.effective_probs(subset)
            assert sum(p for _, p in probs) <= 1.0 + 1e-12
            for cid, p in probs:
                assert p <= alphas[cid] + 1e-12

    def test_deterministic_given_u(self, three_contract_graph):
        plan = hwm.generate_hwm_plan(three_contract_graph)
        a = decide(plan, ["males", "age5"], 0.31)
        assert a == decide(plan, ["age5", "males"], 0.31) == "age5"

    def test_split_instances_match_single_instance_frequencies(self,
                                                               three_contract_graph):
        # Serving is stateless: decisions split across independent instances
        # are distributionally identical to one instance's.
        plan = hwm.generate_hwm_plan(three_contract_graph)
        n = 100_000
        eligible = ["males", "age5"]

        def frequencies(seed, count, offset=0):
            hits = Counter()
            for i in range(count):
                u = impression_uniform(seed, offset + i)
                hits[decide(plan, eligible, u)] += 1
            return hits

        single = frequencies(101, n)
        shards = Counter()
        for w, seed in enumerate((211, 223, 239, 251)):
            shards += frequencies(seed, n // 4, offset=w * (n // 4))
        for cid, p in (("males", 0.25), ("age5", 0.625), (None, 0.125)):
            se = (p * (1 - p) / n) ** 0.5
            assert abs(single[cid] / n - p) <= 3 * se
            assert abs(shards[cid] / n - p) <= 3 * se


class TestReplayFeasibility:
    def random_feasible_graph(self, rng):
        n_nodes = rng.randint(2, 8)
        nodes = [model.SupplyNode(f"n{i}", {"seg": str(i)}, rng.randint(50, 200))
                 for i in range(n_nodes)]
        contracts = []
        remaining = {n.id: float(n.forecast_supply) for n in nodes}
        specs = []
        for j in range(rng.randint(1, 5)):
            k = rng.randint(1, n_nodes)
            segs = rng.sample(range(n_nodes), k)
            specs.append((f"c{j}", segs))
        # Allocation order: by eligible supply, then id (mirrors the planner).
        supply_of = lambda segs: sum(nodes[i].forecast_supply for i in segs)
        specs.sort(key=lambda sp: (supply_of(sp[1]), sp[0]))
        for cid, segs in specs:
            avail = sum(remaining[f"n{i}"] for i in segs)
            if avail < 2:
                continue
            demand = max(1, int(avail * rng.uniform(0.2, 0.8)))
            for i in segs:
                nid = f"n{i}"
                take = min(remaining[nid],
                           demand * nodes[i].forecast_supply / supply_of(segs))
                remaining[nid] = max(0.0, remaining[nid] - take)
            values = frozenset(str(i) for i in segs)
            contracts.append(make_contract(
                cid, "seg IN {" + ", ".join(sorted(values)) + "}", demand))
        if not contracts:
            return None
        return model.build_graph(nodes, contracts)

    def test_expected_replay_meets_demand(self):
        rng = random.Random(77)
        checked = 0
        while checked < 60:
            graph = self.random_feasible_graph(rng)
            if graph is None:
                continue
            plan = hwm.generate_hwm_plan(graph)
            _, delivered = model.forecast_allocation(graph, plan)
            alphas = {e.contract_id: e.alpha for e in plan.entries}
            for c in graph.contracts:
                if alphas[c.id] < 1.0:
                    assert delivered[c.id] >= c.demand * (1 - 1e-9)
            checked += 1


class TestPlanFile:
    def test_round_trip_preserves_order(self, tmp_path, three_contract_graph):
        plan = hwm.generate_hwm_plan(three_contract_graph)
        hwm.save_hwm_plan(plan, tmp_path / "hwm_plan.jsonl")
        loaded = hwm.load_hwm_plan(tmp_path / "hwm_plan.jsonl")
        assert loaded.entries == plan.entries
        # The loaded plan truncates in the saved order.
        order = [cid for cid, _ in loaded.effective_probs(["age5", "males", "california"])]
        assert order == [e.contract_id for e in plan.entries]

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "hwm_plan.jsonl"
        path.write_text('{"contract_id": "a", "eligible_supply": 1, "alpha": 0.5}\n'
                        '{"contract_id": "b"}\n')
        with pytest.raises(model.GraphDataError, match=":2"):
            hwm.load_hwm_plan(path)
