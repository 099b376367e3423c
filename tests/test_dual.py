import random

import numpy as np
import pytest

from gdserve import dual, kernels, model, simulate as sim
from conftest import FLIGHT_START, forecast_replay, graph_maps, make_contract
from _qp_oracle import (QpInstance, kkt_residuals, random_instance,
                        solve_reference)


def single_edge_graph(supply=100, demand=50, penalty=10.0):
    nodes = [model.SupplyNode("a", {"x": "1"}, supply)]
    contracts = [make_contract("c1", "x = 1", demand, penalty=penalty)]
    return model.build_graph(nodes, contracts)


class TestObjective:
    def test_target_allocation_scores_zero(self):
        g = single_edge_graph(100, 50)   # theta = 0.5
        alloc = {("a", "c1"): 0.5}
        assert dual.dual_objective(g, alloc, {"c1": 0.0}) == pytest.approx(0.0)

    def test_full_allocation_quadratic_term(self):
        g = single_edge_graph(100, 50)   # theta = 0.5; 100*(1-0.5)^2/0.5 = 50
        alloc = {("a", "c1"): 1.0}
        assert dual.dual_objective(g, alloc, {"c1": 0.0}) == pytest.approx(50.0)

    def test_pure_underdelivery(self):
        g = single_edge_graph(20, 10)    # theta = 0.5; 20*0.25/0.5 + 10*10 = 110
        alloc = {}
        assert dual.dual_objective(g, alloc, {"c1": 10.0}) == pytest.approx(110.0)

    def test_violated_relaxed_demand_rejected(self):
        g = single_edge_graph(100, 50)
        alloc = {("a", "c1"): 0.2}
        with pytest.raises(model.GraphDataError, match="c1"):
            dual.dual_objective(g, alloc, {"c1": 0.0})

    def test_negative_underdelivery_rejected(self):
        g = single_edge_graph(100, 50)
        alloc = {("a", "c1"): 0.6}
        with pytest.raises(model.GraphDataError, match="negative"):
            dual.dual_objective(g, alloc, {"c1": -1.0})

    def test_negative_edge_fraction_rejected(self):
        g = single_edge_graph(100, 50)
        with pytest.raises(model.GraphDataError,
                           match=r"^edge \('a', 'c1'\): negative allocation -0.5$"):
            dual.dual_objective(g, {("a", "c1"): -0.5}, {"c1": 100.0})

    def test_contract_with_no_target_fraction_scores_its_underdelivery(self):
        # c2 matches no node, so it has no theta and no quadratic term.
        g = model.build_graph([model.SupplyNode("a", {"x": "1"}, 100)],
                              [make_contract("c1", "x = 1", 50),
                               make_contract("c2", "x = 2", 10, penalty=3.0)])
        assert "c2" not in dual.target_fractions(g)
        assert dual.dual_objective(g, {("a", "c1"): 0.5}, {"c2": 10.0}) == 30.0


class TestReconstruct:
    def test_single_contract_with_dual_one(self):
        assert dual.reconstruct_primal([("c", 0.5, 1.0)]) == [
            ("c", pytest.approx(1.0))]

    def test_symmetric_pair(self):
        out = dual.reconstruct_primal([("a", 0.5, 0.0), ("b", 0.5, 0.0)])
        assert out == [("a", pytest.approx(0.5)), ("b", pytest.approx(0.5))]

    def test_under_demanded_leaves_residual(self):
        assert dual.reconstruct_primal([("c", 0.3, 0.0)]) == [
            ("c", pytest.approx(0.3))]

    def test_empty_eligible_set(self):
        assert dual.reconstruct_primal([]) == []

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(model.GraphDataError, match="target fraction"):
            dual.reconstruct_primal([("c", 0.0, 1.0)])


class TestOfflineSolver:
    def test_slack_contract_gets_zero_dual(self):
        plan = dual.solve_dual_offline(single_edge_graph(100, 50))
        assert plan.entries[0].theta == pytest.approx(0.5)
        assert plan.entries[0].alpha == pytest.approx(0.0)

    def test_exact_sellout_gets_zero_dual(self):
        plan = dual.solve_dual_offline(single_edge_graph(100, 100))
        assert plan.entries[0].theta == pytest.approx(1.0)
        assert plan.entries[0].alpha == pytest.approx(0.0, abs=1e-6)

    def test_unattainable_demand_prices_at_cap(self):
        # Demand above all eligible supply: underdelivery is priced at the
        # penalty, which in reconstruction units is penalty/2.
        plan = dual.solve_dual_offline(single_edge_graph(100, 150))
        assert plan.entries[0].alpha == pytest.approx(5.0)
        alloc, under = forecast_replay(single_edge_graph(100, 150), plan)
        assert alloc.get(("a", "c1"), 0.0) == pytest.approx(1.0)
        assert under["c1"] == pytest.approx(50.0)

    def test_zero_supply_contract_excluded(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 100)]
        contracts = [make_contract("c1", "x = 1", 50),
                     make_contract("orphan", "x = 2", 10)]
        plan = dual.solve_dual_offline(model.build_graph(nodes, contracts))
        assert "orphan" not in plan
        assert any("orphan" in line for line in plan.diagnostics)

    def test_non_convergence_raises(self, monkeypatch):
        # Heavy contention on the shared node (sum of target fractions well
        # above 1) forces several sweeps; one is not enough.
        nodes = [model.SupplyNode("a", {"seg": "both"}, 100),
                 model.SupplyNode("b", {"seg": "solo"}, 80)]
        contracts = [make_contract("c1", "seg = both", 95),
                     make_contract("c2", "seg IN {both, solo}", 170)]
        g = model.build_graph(nodes, contracts)
        with monkeypatch.context() as m, pytest.raises(dual.DualConvergenceError):
            m.setattr(dual, "MAX_SWEEPS", 1)
            dual.solve_dual_offline(g)
        # The full solve converges and satisfies the exit contract.
        plan = dual.solve_dual_offline(g)
        alloc, under = forecast_replay(g, plan)
        contract_by_id = graph_maps(g).contract_by_id
        for e in plan.entries:
            delivered = sum(alloc.get((nid, e.contract_id), 0.0) * n.forecast_supply
                            for nid, n in zip(["a", "b"], nodes))
            d = contract_by_id[e.contract_id].demand
            assert (delivered >= d * (1 - 1e-6)
                    or e.alpha >= e.penalty / 2 - 1e-6)

    def test_dual_bound_invariant(self):
        rng = random.Random(5150)
        for trial in range(10):
            inst = random_instance(rng, max_nodes=10, max_contracts=5)
            g = _instance_to_graph(inst)
            plan = dual.solve_dual_offline(g)
            for e in plan.entries:
                assert 0.0 <= e.alpha <= e.penalty


def _instance_to_graph(inst: QpInstance) -> model.AllocationGraph:
    n, m = inst.mask.shape
    nodes = []
    for i in range(n):
        segs = {f"c{j}": "yes" for j in range(m) if inst.mask[i, j]}
        if not segs:
            segs = {"none": "yes"}
        nodes.append(model.SupplyNode(f"n{i}", segs, float(inst.s[i])))
    contracts = [make_contract(f"c{j}", f"c{j} = yes", float(inst.d[j]),
                               penalty=float(inst.p[j]))
                 for j in range(m)]
    return model.build_graph(nodes, contracts)


class TestOracleAgreement:
    """The reference solver is the ground truth for the offline program."""

    def test_oracle_kkt_is_clean_on_hand_case(self):
        inst = QpInstance(s=np.array([100.0]), d=np.array([150.0]),
                          p=np.array([10.0]),
                          mask=np.ones((1, 1), dtype=bool))
        sol = solve_reference(inst)
        assert sol.x[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert sol.u[0] == pytest.approx(50.0, abs=1e-6)
        assert sol.lam[0] == pytest.approx(10.0, abs=1e-8)
        res = kkt_residuals(inst, sol)
        assert max(res.values()) < 1e-6

    def test_reconstruction_reproduces_oracle_primal(self):
        rng = random.Random(31337)
        for trial in range(8):
            inst = random_instance(rng)
            sol = solve_reference(inst)
            assert sol.residual <= 1e-8
            plan_alpha = sol.lam / 2.0
            theta = inst.theta
            n, m = inst.mask.shape
            for i in range(n):
                cols = [j for j in range(m) if inst.mask[i, j]]
                if not cols:
                    continue
                triples = [(f"c{j}", theta[j], plan_alpha[j]) for j in cols]
                rebuilt = dual.reconstruct_primal(triples)
                for (cid, x), j in zip(rebuilt, cols):
                    assert x == pytest.approx(sol.x[i, j], abs=1e-6)

    def test_coordinate_solver_matches_oracle_objective(self):
        rng = random.Random(2718)
        for trial in range(6):
            inst = random_instance(rng, max_nodes=12, max_contracts=6)
            sol = solve_reference(inst)
            g = _instance_to_graph(inst)
            plan = dual.solve_dual_offline(g)
            alloc, under = forecast_replay(g, plan)
            value = dual.dual_objective(g, alloc, under)
            if sol.objective > 1e-9:
                assert value <= sol.objective * 1.001
            else:
                assert value <= 1e-6


class TestPlanFile:
    def test_round_trip(self, tmp_path):
        plan = dual.solve_dual_offline(single_edge_graph(100, 150))
        dual.save_dual_plan(plan, tmp_path / "dual_plan.jsonl")
        loaded = dual.load_dual_plan(tmp_path / "dual_plan.jsonl")
        assert loaded.entries == plan.entries

    @pytest.mark.parametrize("theta, alpha, penalty, message", [
        (0.5, 9.0, 10.0, r"alpha 9.0 is outside \[0, penalty/2\]"),
        (0.5, -1.0, 10.0, r"alpha -1.0 is outside \[0, penalty/2\]"),
        (0.0, 0.0, 10.0, "theta and penalty must be positive"),
        (0.5, 0.0, -1.0, "theta and penalty must be positive"),
    ])
    def test_entry_the_loader_rejects_is_not_built(self, theta, alpha, penalty,
                                                   message):
        # Served from memory, the first would give probability 1.
        with pytest.raises(ValueError, match=f"^{message}$"):
            dual.DualEntry("c", theta, alpha, penalty)


class TestServe:
    def test_one_serve_function_for_every_plan(self):
        # `Server.entry` and `draw_index` serve a dual plan as they serve an
        # HWM plan.
        nodes = [model.SupplyNode("a", {"x": "1"}, 100)]
        contracts = [make_contract("c1", "x = 1", 30), make_contract("c2", "x = 1", 40)]
        graph = model.build_graph(nodes, contracts)
        plan = dual.solve_dual_offline(graph)
        probs = plan.effective_probs(["c2", "c1"])
        assert [cid for cid, _ in probs] == ["c1", "c2"]
        server = sim.Server(graph)
        server.replan(plan)
        attrs, ts = {"x": "1"}, FLIGHT_START
        ids, ps, cum = server.entry(sim.attrs_key(attrs), attrs, ts)
        assert list(zip(ids, ps)) == probs
        p1 = probs[0][1]
        for u, chosen in ((0.0, 0), (p1 - 1e-9, 0), (p1, 1)):
            assert kernels.draw_index(cum, u) == chosen


def _reference_ascent(graph, step, tol=1e-6, max_iters=10000):
    """Cold-started cyclic coordinate ascent with no skip: same sweep order,
    clamp and convergence test as `solve_dual_offline`, with delivery
    evaluated through `kernels.dual_probs` once per (contract, node).
    `step(cid, d, hi, delivery, alpha)` returns one contract's new dual.
    Returns the duals, the sweep count, each contract's sequence of duals,
    starting at 0, and the final worst residual."""
    theta = dual.target_fractions(graph)
    included = sorted((c for c in graph.contracts if c.id in theta),
                      key=lambda c: c.id)
    alpha = {c.id: 0.0 for c in included}
    history = {cid: [0.0] for cid in alpha}
    views = {c.id: [] for c in included}
    contracts_of = graph_maps(graph).contracts_of
    for n in graph.supply_nodes:
        lst = [cid for cid in contracts_of[n.id] if cid in alpha]
        if lst and n.forecast_supply > 0:
            ths = [theta[cid] for cid in lst]
            for slot, cid in enumerate(lst):
                views[cid].append((lst, ths, float(n.forecast_supply), slot))

    def delivery(cid, a):
        return sum(s * kernels.dual_probs(
            ths, [a if k == cid else alpha[k] for k in lst])[slot]
            for lst, ths, s, slot in views[cid])

    def worst():
        return max([0.0] + [
            max(0.0, c.demand - delivery(c.id, alpha[c.id])) / c.demand
            for c in included
            if alpha[c.id] < c.penalty / 2.0 - tol])

    for sweeps in range(1, max_iters + 1):
        max_change = 0.0
        for c in included:
            cid, hi = c.id, c.penalty / 2.0
            new = step(cid, float(c.demand), hi, delivery, alpha)
            max_change = max(max_change, abs(new - alpha[cid]) / max(1.0, hi))
            alpha[cid] = new
            history[cid].append(new)
        if max_change < tol:
            residual = worst()
            if residual <= tol:
                return alpha, sweeps, history, residual
    raise AssertionError("reference ascent did not converge")


def _bisection_reference(graph, tol=1e-6, max_iters=10000):
    """The coordinate ascent with a 60-step bisection per coordinate step."""
    def step(cid, d, hi, delivery, alpha):
        if delivery(cid, 0.0) >= d:
            return 0.0
        if delivery(cid, hi) < d:
            return hi
        lo, up = 0.0, hi
        for _ in range(60):
            mid = 0.5 * (lo + up)
            if delivery(cid, mid) < d:
                lo = mid
            else:
                up = mid
        return up

    return _reference_ascent(graph, step, tol, max_iters)[0]


def _knot_reference(graph, tol=1e-6, max_iters=10000):
    """The exact coordinate step (`delivery_knots`, `_first_crossing`) at
    every contract in every sweep, capped or not."""
    theta = dual.target_fractions(graph)

    def step(cid, d, hi, delivery, alpha):
        knots = dual.delivery_knots(cid, theta[cid], _knot_nodes(graph, theta, alpha, cid))
        return dual._first_crossing(knots, d, hi)

    return _reference_ascent(graph, step, tol, max_iters)


def _knot_nodes(graph, theta, alpha, cid):
    """(s_i, the (1 + alpha_k, theta_k, k) of the node's planned contracts,
    cid's own included, sorted afresh) per node of cid."""
    m = graph_maps(graph)
    return [(float(m.node_by_id[nid].forecast_supply),
             sorted((1.0 + alpha[k], theta[k], k) for k in m.contracts_of[nid]
                    if k in theta))
            for nid in m.nodes_of[cid]
            if m.node_by_id[nid].forecast_supply > 0]


def _curve(knots, a):
    return sum(c * max(0.0, a - at) for at, c in knots)


def _edge_cases_graph():
    """Three identical contracts over a shared node and a node each of their
    own start tied at alpha = 0 and converge to 0.6 together; `slack` is alone on its node with spare supply
    (alpha = 0); `capped` wants more than its node holds (alpha = 5)."""
    nodes = [model.SupplyNode("shared", {"seg": "shared"}, 90)]
    contracts = []
    for k in ("t1", "t2", "t3"):
        nodes.append(model.SupplyNode(f"own_{k}", {"seg": k}, 30))
        contracts.append(make_contract(k, f"seg IN {{shared, {k}}}", 50))
    nodes += [model.SupplyNode("spare", {"seg": "spare"}, 100),
              model.SupplyNode("small", {"seg": "small"}, 20)]
    contracts += [make_contract("slack", "seg = spare", 10),
                  make_contract("capped", "seg = small", 50)]
    return model.build_graph(nodes, contracts)


class TestExactStep:
    """The coordinate step solves D_j(a) = d_j exactly from the knots of the
    delivery curve; the reference is a 60-step bisection on delivery
    recomputed through `kernels.dual_probs`."""

    def test_knot_curve_matches_reconstruction(self):
        rng = random.Random(4242)
        for trial in range(40):
            g = _instance_to_graph(random_instance(rng, max_nodes=12,
                                                   max_contracts=7))
            theta = dual.target_fractions(g)
            penalty = {c.id: c.penalty for c in g.contracts}
            # Draw the duals from a small pool so that ties, zeros and
            # penalty/2 caps all occur.
            pool = [0.0, 0.3, 1.0, rng.uniform(0.0, 3.0)]
            alpha = {cid: min(rng.choice(pool), penalty[cid] / 2.0)
                     for cid in theta}
            for cid in theta:
                nodes = _knot_nodes(g, theta, alpha, cid)
                knots = dual.delivery_knots(cid, theta[cid], nodes)
                points = ([0.0, penalty[cid] / 2.0]
                          + [rng.uniform(0.0, 5.0) for _ in range(5)]
                          + [a for a, _ in knots if a >= 0.0] + pool)
                for a in points:
                    ref = sum(s * kernels.dual_probs(
                        [theta[cid]] + [t for _, t, k in order if k != cid],
                        [a] + [alpha[k] for _, _, k in order if k != cid])[0]
                        for s, order in nodes)
                    assert _curve(knots, a) == pytest.approx(ref, rel=1e-9,
                                                             abs=1e-9)

    def test_knots_of_a_lone_contract(self):
        # x = theta * (1 + a) from a = -1, flat at 1 from a = 1/theta - 1.
        for order in ([], [(1.0, 0.5, "j")]):
            knots = dual.delivery_knots("j", 0.5, [(100.0, order)])
            assert knots == [(-1.0, 50.0), (1.0, -50.0)]

    def test_edge_cases_match_bisection(self):
        g = _edge_cases_graph()
        plan = dual.solve_dual_offline(g)
        alpha = {e.contract_id: e.alpha for e in plan.entries}
        for k in ("t1", "t2", "t3"):
            assert alpha[k] == pytest.approx(0.6, abs=1e-5)
        assert alpha["slack"] == 0.0
        assert alpha["capped"] == 5.0
        ref = _bisection_reference(g)
        for cid, a in alpha.items():
            assert a == pytest.approx(ref[cid], abs=1e-9)

    def test_random_instances_match_bisection(self):
        rng = random.Random(8080)
        for trial in range(25):
            g = _instance_to_graph(random_instance(rng, max_nodes=12,
                                                   max_contracts=6))
            plan = dual.solve_dual_offline(g)
            ref = _bisection_reference(g)
            theta = dual.target_fractions(g)
            alpha = {e.contract_id: e.alpha for e in plan.entries}
            for cid, a in alpha.items():
                if abs(a - ref[cid]) <= 1e-9:
                    continue
                # Only where D_j is flat at d_j may the two differ: every a
                # in the flat meets the demand, the exact step returns its
                # left end and bisection a point that rounding picks.
                knots = dual.delivery_knots(
                    cid, theta[cid], _knot_nodes(g, theta, alpha, cid))
                d = graph_maps(g).contract_by_id[cid].demand
                assert a < ref[cid]
                assert _curve(knots, a) == pytest.approx(d, rel=1e-9)
                assert _curve(knots, ref[cid]) == pytest.approx(d, rel=1e-9)

    def test_slack_dual_is_exactly_zero(self, tmp_path):
        # theta = 7/25 rounds so that the scan's root lands a hair below 0;
        # the clamp keeps the dual at 0, which the plan loader accepts.
        plan = dual.solve_dual_offline(single_edge_graph(25, 7))
        assert plan.entries[0].alpha == 0.0
        dual.save_dual_plan(plan, tmp_path / "dual_plan.jsonl")
        assert dual.load_dual_plan(tmp_path / "dual_plan.jsonl").entries == \
            plan.entries

    def test_solver_stats(self, tmp_path):
        g = _edge_cases_graph()
        plan = dual.solve_dual_offline(g)
        assert plan.stats.sweeps >= 2
        assert plan.stats.capped == 1
        assert 0.0 <= plan.stats.worst_residual <= 1e-6
        dual.save_dual_plan(plan, tmp_path / "dual_plan.jsonl")
        assert dual.load_dual_plan(tmp_path / "dual_plan.jsonl").stats is None


class TestCappedSkip:
    """A cold-started ascent never lowers a dual, so the solve skips the step
    of a contract already at penalty/2; the reference steps every contract."""

    def test_skip_matches_unskipped_ascent(self):
        rng = random.Random(6061)
        capped = 0
        for trial in range(30):
            g = _instance_to_graph(random_instance(rng, max_nodes=12,
                                                   max_contracts=7))
            plan = dual.solve_dual_offline(g)
            ref, sweeps, history, residual = _knot_reference(g)
            assert {e.contract_id: e.alpha for e in plan.entries} == ref
            assert plan.stats.sweeps == sweeps
            assert plan.stats.worst_residual == residual
            for seq in history.values():
                assert all(a <= b for a, b in zip(seq, seq[1:]))
            capped += sum(1 for e in plan.entries if e.alpha == e.penalty / 2)
        assert capped > 0

    def test_capped_contract_takes_no_knot_walk(self, monkeypatch):
        calls = []
        knots = dual.delivery_knots
        monkeypatch.setattr(dual, "delivery_knots",
                            lambda *a: calls.append(a) or knots(*a))
        plan = dual.solve_dual_offline(_edge_cases_graph())
        assert plan.stats.capped == 1
        assert len(calls) == plan.stats.steps
        assert plan.stats.steps < plan.stats.sweeps * len(plan.entries)


def _tie_heavy_instance(rng) -> QpInstance:
    """30 contracts over 80 nodes with supplies, demand shares and penalties
    from small pools.  A share is a dyadic fraction of an integer eligible
    supply, so contracts with the same share have the same theta exactly;
    every key ties at the start, and many duals end tied at a shared
    penalty/2 cap."""
    n, m = 80, 30
    mask = np.zeros((n, m), dtype=bool)
    for j in range(m):
        mask[rng.sample(range(n), rng.randint(2, 12)), j] = True
    s = np.array([rng.choice([40.0, 80.0]) for _ in range(n)])
    d = np.array([rng.choice([0.125, 0.25, 0.5, 1.5]) * float(s[mask[:, j]].sum())
                  for j in range(m)])
    p = np.array([rng.choice([2.0, 10.0]) for _ in range(m)])
    return QpInstance(s=s, d=d, p=p, mask=mask)


class TestKeptOrder:
    """The solve keeps each node's contracts sorted by activation key and
    moves a contract when its dual changes; the references sort per call."""

    def test_lists_hold_current_duals_in_order(self, monkeypatch):
        knots, crossing = dual.delivery_knots, dual._first_crossing
        graphs = [_edge_cases_graph()] + [
            _instance_to_graph(_tie_heavy_instance(random.Random(seed)))
            for seed in (1, 2)]
        for g in graphs:
            theta = dual.target_fractions(g)
            # The duals as the steps set them, followed through the
            # crossings the solve computes, not read from the solve.
            alpha = {cid: 0.0 for cid in theta}
            stepping = []
            contracts_of = graph_maps(g).contracts_of

            def checked_knots(j, theta_j, nodes):
                expected = [
                    (float(n.forecast_supply),
                     sorted((1.0 + alpha[k], theta[k], k)
                            for k in contracts_of[n.id] if k in theta))
                    for n in g.supply_nodes
                    if j in contracts_of[n.id] and n.forecast_supply > 0]
                assert [(s, sorted(order)) for s, order in nodes] == expected
                for _, order in nodes:
                    walk = [(c, t) for c, t, k in reversed(order) if k != j]
                    assert all(x >= y for x, y in zip(walk, walk[1:]))
                stepping.append(j)
                return knots(j, theta_j, nodes)

            def followed_crossing(*args):
                alpha[stepping.pop()] = new = crossing(*args)
                return new

            monkeypatch.setattr(dual, "delivery_knots", checked_knots)
            monkeypatch.setattr(dual, "_first_crossing", followed_crossing)
            plan = dual.solve_dual_offline(g)
            assert not stepping
            assert {e.contract_id: e.alpha for e in plan.entries} == alpha

    def test_tie_heavy_instances_match_sorting_reference(self):
        rng = random.Random(1313)
        for trial in range(5):
            g = _instance_to_graph(_tie_heavy_instance(rng))
            penalty = {c.id: c.penalty for c in g.contracts}
            assert len(set(dual.target_fractions(g).values())) <= 4
            plan = dual.solve_dual_offline(g)
            ref, sweeps, history, residual = _knot_reference(g)
            assert {e.contract_id: e.alpha for e in plan.entries} == ref
            assert plan.stats.sweeps == sweeps
            assert plan.stats.worst_residual == residual
            # The solve computes the steps of duals below their cap.
            assert plan.stats.steps == sum(
                1 for cid, seq in history.items() for a in seq[:-1]
                if a < penalty[cid] / 2.0)
            duals = list(ref.values())
            assert len(set(duals)) < len(duals)
            assert any(0.0 < a < penalty[cid] / 2.0 for cid, a in ref.items())
