import pytest

from gdserve import hwm, model, simulate
from conftest import make_contract


def two_node_graph():
    nodes = [model.SupplyNode("a", {"state": "CA"}, 100),
             model.SupplyNode("b", {"state": "WA"}, 50)]
    contracts = [make_contract("c1", "state = CA", 50)]
    return model.build_graph(nodes, contracts)


class TestValidateGraph:
    def test_well_formed_graph(self):
        assert model.validate_graph(two_node_graph()) == []

    def test_unknown_contract_edge(self):
        g = two_node_graph()
        bad = model.AllocationGraph(g.supply_nodes, g.contracts,
                                    g.edges + [("a", "ghost")])
        violations = model.validate_graph(bad)
        assert any("ghost" in v and "unknown contract" in v for v in violations)

    def test_unknown_node_edge(self):
        g = two_node_graph()
        bad = model.AllocationGraph(g.supply_nodes, g.contracts,
                                    g.edges + [("ghost", "c1")])
        violations = model.validate_graph(bad)
        assert any("ghost" in v and "unknown supply node" in v for v in violations)

    def test_ineligible_edge(self):
        g = two_node_graph()
        bad = model.AllocationGraph(g.supply_nodes, g.contracts,
                                    g.edges + [("b", "c1")])
        violations = model.validate_graph(bad)
        assert any("does not satisfy" in v and "'b'" in v for v in violations)

    def test_missing_eligible_edge(self):
        g = two_node_graph()
        bad = model.AllocationGraph(g.supply_nodes, g.contracts, [])
        violations = model.validate_graph(bad)
        assert any(v.startswith("missing edge") for v in violations)

    def test_duplicate_ids(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 1),
                 model.SupplyNode("a", {"x": "2"}, 1)]
        g = model.AllocationGraph(nodes, [], [])
        assert any("duplicate supply node" in v for v in model.validate_graph(g))

    def test_idempotent_and_side_effect_free(self):
        g = two_node_graph()
        first = model.validate_graph(g)
        second = model.validate_graph(g)
        assert first == second == []
        assert len(g.edges) == 1


class TestFeasibility:
    def test_half_allocation_feasible(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 100)]
        contracts = [make_contract("c1", "x = 1", 50)]
        g = model.build_graph(nodes, contracts)
        alloc = model.FractionalAllocation({("a", "c1"): 0.5})
        report = model.check_feasibility(g, alloc)
        assert report.feasible
        assert report.demand_slack["c1"] == pytest.approx(0.0)
        assert report.supply_excess["a"] == pytest.approx(-0.5)

    def test_zero_allocation_infeasible(self):
        g = two_node_graph()
        report = model.check_feasibility(g, model.FractionalAllocation())
        assert not report.feasible
        assert report.demand_slack["c1"] == -50

    def test_plan_induced_allocation_feasible(self, three_contract_graph):
        plan = hwm.generate_hwm_plan(three_contract_graph)
        alloc, _ = model.forecast_allocation(three_contract_graph, plan)
        report = model.check_feasibility(three_contract_graph, alloc)
        assert report.feasible
        for slack in report.demand_slack.values():
            assert slack == pytest.approx(0.0, abs=1e-9)

    def test_unknown_edge_rejected(self):
        g = two_node_graph()
        alloc = model.FractionalAllocation({("b", "c1"): 0.1})
        with pytest.raises(model.GraphDataError, match="'b'.*'c1'"):
            model.check_feasibility(g, alloc)

    def test_negative_entry_reported(self):
        g = two_node_graph()
        alloc = model.FractionalAllocation({("a", "c1"): -0.2})
        report = model.check_feasibility(g, alloc)
        assert report.negative_entries == [("a", "c1")]
        assert not report.feasible


class TestRoundTrip:
    def test_supply_and_contracts_round_trip(self, tmp_path, three_contract_graph):
        g = three_contract_graph
        model.save_supply(g.supply_nodes, tmp_path / "supply.jsonl")
        model.save_contracts(g.contracts, tmp_path / "contracts.jsonl")
        nodes = model.load_supply(tmp_path / "supply.jsonl")
        contracts = model.load_contracts(tmp_path / "contracts.jsonl")
        rebuilt = model.build_graph(nodes, contracts)
        assert [n.id for n in rebuilt.supply_nodes] == [n.id for n in g.supply_nodes]
        assert all(a.forecast_supply == b.forecast_supply
                   and a.attributes == b.attributes
                   for a, b in zip(rebuilt.supply_nodes, g.supply_nodes))
        assert all(a.targeting == b.targeting and a.demand == b.demand
                   and a.start == b.start and a.end == b.end
                   and a.booked_demand == b.booked_demand
                   and a.penalty == b.penalty
                   for a, b in zip(rebuilt.contracts, g.contracts))
        assert rebuilt.edges == g.edges

    def test_penalty_and_booked_round_trip(self, tmp_path):
        c = make_contract("c1", "x = 1", 5, penalty=7.5, booked_demand=9)
        model.save_contracts([c], tmp_path / "contracts.jsonl")
        loaded = model.load_contracts(tmp_path / "contracts.jsonl")[0]
        assert loaded.penalty == 7.5
        assert loaded.booked_demand == 9

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "contracts.jsonl"
        path.write_text('{"id": "c1", "targeting": "x = 1", "demand": 5, '
                        '"start": "2026-03-02T00:00:00", "end": "2026-03-09T00:00:00"}\n'
                        '{"id": "c2"}\n')
        with pytest.raises(model.GraphDataError, match=":2"):
            model.load_contracts(path)

    @pytest.mark.parametrize("value", ["true", "NaN", "Infinity", '"5"'])
    def test_bad_supply_number_reports_line(self, tmp_path, value):
        path = tmp_path / "supply.jsonl"
        path.write_text('{"id": "n1", "attributes": {"x": "1"}, "supply": 5}\n'
                        f'{{"id": "n2", "attributes": {{}}, "supply": {value}}}\n')
        with pytest.raises(model.GraphDataError, match=f"{path}:2: bad supply record"):
            model.load_supply(path)

    @pytest.mark.parametrize("key, value", [
        ("demand", "NaN"), ("demand", "true"), ("demand", "Infinity"),
        ("booked", "NaN"), ("booked", "true"),
        ("penalty", "Infinity"), ("penalty", "NaN"), ("penalty", "false")])
    def test_bad_contract_number_reports_line(self, tmp_path, key, value):
        fields = {"id": '"c1"', "targeting": '"x = 1"', "demand": "5",
                  "start": '"2026-03-02T00:00:00"', "end": '"2026-03-09T00:00:00"',
                  key: value}
        path = tmp_path / "contracts.jsonl"
        path.write_text("\n" + "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items())
                        + "}\n")
        with pytest.raises(model.GraphDataError, match=f"{path}:2: bad contract record"):
            model.load_contracts(path)

    @pytest.mark.parametrize("attrs", ['{"age_bucket": 5}', '[[1, "x"]]',
                                       '[["age_bucket", "5"]]', "null", '"x"',
                                       '{"state": null}', '{"state": ["CA"]}'])
    def test_bad_attributes_report_line(self, tmp_path, attrs):
        path = tmp_path / "supply.jsonl"
        path.write_text('{"id": "n1", "attributes": {"x": "1"}, "supply": 5}\n'
                        f'{{"id": "n2", "attributes": {attrs}, "supply": 5}}\n')
        with pytest.raises(model.GraphDataError, match=f"{path}:2: bad supply record"):
            model.load_supply(path)
        path = tmp_path / "impressions.jsonl"
        path.write_text('{"id": "i1", "ts": "2026-03-02T00:00:00", "attributes": {}}\n'
                        f'{{"id": "i2", "ts": "2026-03-02T00:00:00", "attributes": {attrs}}}\n')
        with pytest.raises(model.GraphDataError, match=f"{path}:2: bad impression"):
            simulate.load_impressions(path)

    def test_missing_attributes_are_empty(self, tmp_path):
        path = tmp_path / "supply.jsonl"
        path.write_text('{"id": "n1", "supply": 5}\n')
        assert model.load_supply(path)[0].attributes == {}

    def test_loaded_counts_keep_their_json_type(self, tmp_path):
        path = tmp_path / "contracts.jsonl"
        path.write_text('{"id": "c1", "targeting": "x = 1", "demand": 5, "booked": 7.5, '
                        '"start": "2026-03-02T00:00:00", "end": "2026-03-09T00:00:00"}\n')
        c = model.load_contracts(path)[0]
        assert type(c.demand) is int and type(c.booked_demand) is float
        assert c.penalty == 10.0

    def test_zulu_timestamps_accepted(self):
        ts = model.parse_ts("2026-03-02T00:00:00Z")
        assert ts.year == 2026
        assert ts.tzinfo is None

    def test_offset_timestamps_normalized_to_utc(self):
        ts = model.parse_ts("2026-03-02T05:00:00+05:00")
        assert ts == model.parse_ts("2026-03-02T00:00:00Z")


class TestContractInvariants:
    def test_demand_positive(self):
        with pytest.raises(model.GraphDataError, match="demand"):
            make_contract("c1", "x = 1", 0)

    def test_flight_ordering(self):
        with pytest.raises(model.GraphDataError, match="start"):
            make_contract("c1", "x = 1", 10, days=-1)
